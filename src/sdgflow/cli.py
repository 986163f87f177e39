"""Command-line interface.

Exit codes are part of the contract:
  validate: 0 clean, 1 validation findings, 2 I/O or syntax trouble
  run:      0 success and report passed, 1 report failed, 2 node failure,
            3 spec validation or invalid option
  bench:    0 done, 2 node failure, 3 invalid option
  inspect:  0 all checks pass, 1 verification failure, 2 missing/corrupt files
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .bench import render_bench_table, run_bench
from .engine import check_max_parallel, run, verify_manifest
from .errors import (
    ConfigError,
    InvalidSpec,
    ManifestInvalid,
    ManifestMissing,
    NodeFailure,
    SpecError,
    SpecSyntaxError,
)
from .specs import check_seed, data_flow_audit, load_spec, spec_digest


def _cmd_validate(args) -> int:
    try:
        spec = load_spec(args.spec)
    except SpecSyntaxError as e:
        print(f"syntax: {e}")
        return 2
    except OSError as e:
        print(f"io: {e}")
        return 2
    except SpecError as e:
        print(f"{type(e).__name__}: {e}")
        return 1
    audit = data_flow_audit(spec)
    if not audit.passed:
        for v in audit.violations:
            node, artifact = v.output
            print(f"raw data exported: {node}/{artifact} via {' -> '.join(v.path)}")
        return 1
    digest = spec_digest(spec)
    print(f"ok: {len(spec.nodes)} nodes, sha256 {digest.hash}")
    return 0


def _bad_options(args) -> bool:
    """Check --max-parallel and --seed by the rules engine.run and documents
    apply, before anything runs."""
    try:
        check_max_parallel(args.max_parallel, "--max-parallel")
        if getattr(args, "seed", None) is not None:
            check_seed(args.seed, "--seed")
    except (ConfigError, InvalidSpec) as e:
        print(f"invalid option: {e}")
        return True
    return False


def _cmd_run(args) -> int:
    if _bad_options(args):
        return 3
    try:
        spec = load_spec(args.spec)
    except (SpecError, OSError) as e:
        print(f"invalid spec: {e}")
        return 3
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    base_dir = Path(args.spec).resolve().parent
    try:
        manifest = run(
            spec,
            args.out,
            max_parallel=args.max_parallel,
            base_dir=base_dir,
        )
    except NodeFailure as e:
        manifest = e.manifest
        if manifest is not None:
            for rec in manifest.node_records:
                print(f"{rec.id}: {rec.status}")
        print(f"node failure: {e.node_id}")
        return 2
    for rec in manifest.node_records:
        print(f"{rec.id}: {rec.status}")
    report_path = Path(args.out) / "report.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    overall = bool(report["verdicts"].get("overall"))
    print(f"report verdict: {'PASS' if overall else 'FAIL'}")
    return 0 if overall else 1


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError("sizes must be comma-separated integers") from None
    if len(sizes) < 2:
        raise argparse.ArgumentTypeError("need at least 2 sizes")
    if any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError("sizes must be positive")
    return sizes


def _cmd_bench(args) -> int:
    if _bad_options(args):
        return 3
    try:
        result = run_bench(args.sizes, args.out, max_parallel=args.max_parallel)
    except NodeFailure as e:
        print(f"node failure: {e.node_id}")
        return 2
    print(render_bench_table(result))
    return 0


def _cmd_inspect(args) -> int:
    try:
        report = verify_manifest(args.run_dir)
    except (ManifestMissing, ManifestInvalid, OSError) as e:
        print(f"cannot read run dir: {e}")
        return 2
    for check in report.checks:
        print(f"{check.name}: {'PASS' if check.passed else 'FAIL'} ({check.detail})")
    print(f"verification: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sdgflow", description="synthetic data pipeline runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a pipeline spec and audit its data flow")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("run", help="execute a pipeline spec")
    p.add_argument("spec")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-parallel", type=int, default=1)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bench", help="time the standard pipeline across dataset sizes")
    p.add_argument("--sizes", type=_parse_sizes, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-parallel", type=int, default=4)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("inspect", help="re-verify a finished run directory")
    p.add_argument("run_dir")
    p.set_defaults(func=_cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
