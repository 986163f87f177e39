"""Every artifact of `scripts/artifact_digests.py` keeps its golden bytes.

The golden file holds the script's `sha256  path` lines, led by `# ` lines
naming the numeric environment they were made in: the numpy version and the
`get_config` string of each OpenBLAS that `import sdgflow.cli` loads. The
quality artifacts depend on the BLAS kernel, so digests made under another
fingerprint prove nothing here and the test fails saying so.

After a change that alters artifact bytes on purpose, regenerate the file:

    python3 tests/test_artifact_digests.py > tests/artifact_digests.golden
    python3 scripts/artifact_digests.py OUT >> tests/artifact_digests.golden
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("artifact_digests.golden")


def fingerprint() -> list[str]:
    """The numpy version and each loaded OpenBLAS's get_config string, as the
    golden file's `# ` lines."""
    import numpy

    import sdgflow.cli  # noqa: F401  (loads the BLAS builds a run uses)

    lines = [f"# numpy {numpy.__version__}"]
    with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line and "/" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        names = (p + s for p in ("scipy_openblas_", "openblas_") for s in ("get_config64_", "get_config"))
        fn = next(getattr(lib, name) for name in names if hasattr(lib, name))
        fn.argtypes, fn.restype = [], ctypes.c_char_p
        lines.append(f"# {os.path.basename(path)}: {fn().decode()}")
    return lines


def _by_path(lines: list[str]) -> dict[str, str]:
    return {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


def test_artifacts_match_golden_digests(tmp_path):
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    recorded, now = [line for line in golden if line.startswith("# ")], fingerprint()
    assert now == recorded, (
        "numeric environment differs from the one the golden digests were made in, "
        f"so they cannot be compared: now {now}, recorded {recorded}"
    )
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "artifact_digests.py"), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    want = _by_path([line for line in golden if not line.startswith("# ")])
    got = _by_path(proc.stdout.splitlines())
    differ = sorted(p for p in want.keys() | got.keys() if want.get(p) != got.get(p))
    assert not differ, f"artifacts whose bytes differ from the golden digests: {differ}"


if __name__ == "__main__":
    print("\n".join(fingerprint()))
