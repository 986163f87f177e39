"""Every artifact of `scripts/artifact_digests.py` keeps its golden bytes.

The golden file is the script's output: `# ` lines naming the numeric
environment its runs had (the numpy version and the `get_config` string of
each OpenBLAS the runs loaded), then its `sha256  path` lines. The script
takes that fingerprint in its own fresh interpreter, after its runs, so it
does not depend on what this process imported before. The quality
artifacts depend on the BLAS kernel, so digests made under another
fingerprint prove nothing here and the test fails saying so.

After a change that alters artifact bytes on purpose, regenerate the file:

    python3 scripts/artifact_digests.py OUT > tests/artifact_digests.golden
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("artifact_digests.golden")


def _split(lines: list[str]) -> tuple[list[str], dict[str, str]]:
    """The `# ` lines, and the digest of each path."""
    header = [line for line in lines if line.startswith("# ")]
    pairs = (line.split("  ", 1) for line in lines if not line.startswith("# "))
    return header, {path: digest for digest, path in pairs}


def test_artifacts_match_golden_digests(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "artifact_digests.py"), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    recorded, want = _split(GOLDEN.read_text(encoding="utf-8").splitlines())
    now, got = _split(proc.stdout.splitlines())
    assert now == recorded, (
        "numeric environment differs from the one the golden digests were made in, "
        f"so they cannot be compared: now {now}, recorded {recorded}"
    )
    differ = sorted(p for p in want.keys() | got.keys() if want.get(p) != got.get(p))
    assert not differ, f"artifacts whose bytes differ from the golden digests: {differ}"
