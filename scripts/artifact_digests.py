"""Print the sha256 of every artifact a fixed set of runs writes, so two
checkouts can be compared byte for byte. Run from the repo root:

    python3 scripts/artifact_digests.py OUT > digests.txt

It runs the bundled sample pipeline at --max-parallel 1 and 4, the same
pipeline at --max-parallel 1 on a copy of its data written the way a
spreadsheet exports it (sample-csv-p1: CRLF line ends, every label and
header cell quoted), which numpy's reader parses as it does the original,
so its run artifacts equal sample-p1's, the bundled all-modes
pipeline (sample/modes.json: every generator mode, column model
and rule kind, inline schemas, numbers written as integers) at
--max-parallel 2, a pipeline over a table with categorical columns of 256
and 300 levels (wide-p2, see wide_copy), whose codes and code products
pass 2^8 and 2^16, at --max-parallel 2, and `sdgflow bench --sizes
1000,3000,20000` under OUT
(which must not exist yet), then prints one `sha256  path` line per file
under OUT, sorted by path. The 20000-row bench size spans more than one CSV
block. The files that hold timings are skipped: every manifest.json,
bench.json and logs/. Each run directory must pass `sdgflow inspect`.

The digests are led by `# ` lines naming the numeric environment that the
runs had: the numpy version and the `get_config` string of each OpenBLAS
loaded in this process once they are done, which is what the runs imported
and nothing else.
"""

import contextlib
import csv
import ctypes
import hashlib
import json
import os
import random
import shutil
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


def fingerprint() -> list[str]:
    """The numpy version and the get_config string of each OpenBLAS this
    process has loaded, as `# ` lines."""
    import numpy

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


def quoted_copy(dest: Path) -> Path:
    """Copy the sample pipeline and schema into dest, beside its data
    rewritten with CRLF line ends, every label and header cell quoted and
    the continuous cells as floats; returns the copied pipeline's path."""
    dest.mkdir(parents=True)
    for name in ("pipeline.json", "schema.json"):
        shutil.copyfile(REPO / "sample" / name, dest / name)
    kinds = [c["kind"] for c in json.loads((REPO / "sample" / "schema.json").read_text())["columns"]]
    with open(REPO / "sample" / "data.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    with open(dest / "data.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n", quoting=csv.QUOTE_NONNUMERIC)
        writer.writerow(header)
        writer.writerows(
            [float(cell) if kind == "continuous" else cell for kind, cell in zip(kinds, row)] for row in rows
        )
    return dest / "pipeline.json"


def wide_copy(dest: Path) -> Path:
    """Write into dest a table of 1,200 rows, two continuous columns and
    categorical columns of 3, 256 and 300 levels, drawn by Python's random
    from a fixed seed, its schema, and a pipeline over it: load, duplicate
    drop, rsd, an hsd of an rsd part and an asd part with a label model over
    all 256 levels and an implication rule, every utility metric on the hsd
    output, every diagnostic and privacy metric on the rsd output, with the
    300-level column as the sensitive one, and a report; returns the
    pipeline's path."""
    dest.mkdir(parents=True)
    wide = [f"w{i:03d}" for i in range(256)]
    wider = [f"v{i:03d}" for i in range(300)]
    schema = {"columns": [
        {"name": "x", "kind": "continuous"},
        {"name": "y", "kind": "continuous"},
        {"name": "g", "kind": "categorical", "categories": ["g0", "g1", "g2"]},
        {"name": "w256", "kind": "categorical", "categories": wide},
        {"name": "v300", "kind": "categorical", "categories": wider},
    ]}
    r = random.Random(29)
    with open(dest / "data.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([c["name"] for c in schema["columns"]])
        for _ in range(1_200):
            x = 100.0 * r.random()
            g = int(3 * r.random())
            writer.writerow([
                f"{x:.6f}",
                f"{0.5 * x + 10.0 * r.random():.6f}",
                f"g{g}",
                wide[min(255, int(2.56 * x * r.random() + 85 * g))],
                wider[min(299, int(3 * x + 20 * r.random()))],
            ])
    (dest / "schema.json").write_text(json.dumps(schema), encoding="utf-8")
    on_rsd = {"real": "clean", "synthetic": "rsd"}
    doc = {
        "version": "1",
        "seed": 29,
        "inputs": {"wide": {"path": "data.csv", "schema": "schema.json"}},
        "nodes": [
            {"id": "load", "kind": "load", "params": {"input": "wide"}},
            {"id": "clean", "kind": "preprocess", "depends_on": ["load"],
             "params": {"source": "load", "drop_out_of_bounds": False, "drop_duplicates": True}},
            {"id": "rsd", "kind": "generate", "depends_on": ["clean"],
             "params": {"mode": "rsd", "n_out": 900, "real": "clean"}},
            {"id": "hsd", "kind": "generate", "depends_on": ["clean"], "params": {
                "mode": "hsd", "n_out": 700, "real": "clean", "mode_params": {
                    "partition": [["x", "v300"], ["y", "g", "w256"]],
                    "sub_configs": [
                        {"mode": "rsd", "n_out": 700},
                        {"mode": "asd", "n_out": 700, "mode_params": {"column_models": {
                            "y": {"distribution": "normal", "mean": 30, "std": 15},
                            "g": {"labels": ["g0", "g1", "g2"], "weights": [1, 1, 1]},
                            "w256": {"labels": wide, "weights": [1 + i % 7 for i in range(256)]},
                        }}},
                    ],
                    "post_rules": [{"kind": "implication", "if_column": "g", "if_category": "g2",
                                    "then_column": "w256", "then_categories": wide[128:]}],
                }}},
            {"id": "diagnostic", "kind": "evaluate_diagnostic", "depends_on": ["clean", "rsd"],
             "params": on_rsd},
            {"id": "quality", "kind": "evaluate_utility", "depends_on": ["clean", "hsd"],
             "params": {"real": "clean", "synthetic": "hsd", "null_model": "analytic"}},
            {"id": "privacy", "kind": "evaluate_privacy", "depends_on": ["clean", "rsd"],
             "params": {**on_rsd, "key_columns": ["g", "w256"], "sensitive_column": "v300"}},
            {"id": "report", "kind": "report", "depends_on": ["diagnostic", "quality", "privacy"],
             "params": {"thresholds": {"univariate_fidelity": 0.5}}},
        ],
        "outputs": [{"node": "rsd", "artifact": "dataset"}, {"node": "hsd", "artifact": "dataset"},
                    {"node": "report", "artifact": "report"}],
    }
    (dest / "pipeline.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return dest / "pipeline.json"


def produce(out: Path) -> None:
    sample, modes = (str(REPO / "sample" / name) for name in ("pipeline.json", "modes.json"))
    quoted = str(quoted_copy(out / "csv-input"))
    wide = str(wide_copy(out / "wide-input"))
    runs = {
        "sample-p1": (sample, "1"),
        "sample-p4": (sample, "4"),
        "sample-csv-p1": (quoted, "1"),
        "modes-p2": (modes, "2"),
        "wide-p2": (wide, "2"),
    }
    commands = [
        ["run", doc, "--out", str(out / name), "--max-parallel", p] for name, (doc, p) in runs.items()
    ]
    commands.append(["bench", "--sizes", "1000,3000,20000", "--out", str(out / "bench")])
    commands += [["inspect", str(out / name)] for name in runs]
    for argv in commands:
        with contextlib.redirect_stdout(sys.stderr):  # stdout holds only the digests
            code = main(argv)
        # run may exit 1: the report's verdict failed, the run did not
        if code not in ((0, 1) if argv[0] == "run" else (0,)):
            raise SystemExit(f"sdgflow {' '.join(argv)} exited {code}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: artifact_digests.py OUT")
    out = Path(sys.argv[1])
    if out.exists():
        raise SystemExit(f"{out} exists; give a new directory")
    produce(out)
    print("\n".join(fingerprint() + digests(out)))
