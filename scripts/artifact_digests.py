"""Print the sha256 of every artifact a fixed set of runs writes, so two
checkouts can be compared byte for byte. Run from the repo root:

    python3 scripts/artifact_digests.py OUT > digests.txt

It runs the bundled sample pipeline at --max-parallel 1 and 4 and
`sdgflow bench --sizes 1000,3000,20000` under OUT (which must not exist yet),
then prints one `sha256  path` line per file under OUT, sorted by path. The
20000-row bench size spans more than one CSV block. The files that hold
timings are skipped: every manifest.json, bench.json and logs/.
"""

import contextlib
import hashlib
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from sdgflow.cli import main  # noqa: E402

TIMED = {"manifest.json", "bench.json"}


def digests(out: Path) -> list[str]:
    lines = []
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out)
        if rel.name in TIMED or "logs" in rel.parts:
            continue
        lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {rel.as_posix()}")
    return lines


def produce(out: Path) -> None:
    sample = str(REPO / "sample" / "pipeline.json")
    commands = [
        ["run", sample, "--out", str(out / "sample-p1"), "--max-parallel", "1"],
        ["run", sample, "--out", str(out / "sample-p4"), "--max-parallel", "4"],
        ["bench", "--sizes", "1000,3000,20000", "--out", str(out / "bench")],
    ]
    for argv in commands:
        with contextlib.redirect_stdout(sys.stderr):  # stdout holds only the digests
            code = main(argv)
        if code not in (0, 1):  # 1: the report's verdict failed, the run did not
            raise SystemExit(f"sdgflow {' '.join(argv)} exited {code}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: artifact_digests.py OUT")
    out = Path(sys.argv[1])
    if out.exists():
        raise SystemExit(f"{out} exists; give a new directory")
    produce(out)
    print("\n".join(digests(out)))
