"""Alternating parent/change pairs of one perfbench workload, with verdicts.

    python3 scripts/perf_pairs.py PARENT_CHECKOUT --workload W --pairs N \
        --seed-base S --seconds T --out FILE

The change is the checkout this script sits in; PARENT_CHECKOUT is another
checkout with the same perfbench/. Pair i runs `perfbench/run.py --workload
W --seed S+i --seconds T --trace 0` once in each checkout, the parent first
when i is even and the change first when i is odd, and reads the last JSON
line each run prints. FILE gets, per end-to-end metric of BENCHMARK.json,
every pair's two values, each side's median and quartiles, the pairs the
change won and a verdict by the rule for small sandboxes:

- "gain": the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ, in the better direction, by more than
  the parent's quartile distance;
- "worse": the change's median is worse than the parent's by more than the
  metric's bound (a share of the parent's median);
- "unresolved": neither, the parent's quartile distance is wider than the
  bound, and not every change run beats every parent run;
- "no worse": otherwise.

Runs that fail, or print no JSON line, count as failed against attempted.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The last JSON line of one untraced perfbench run, or None."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("{"):
            try:
                return json.loads(line)
            except json.JSONDecodeError:
                return None
    return None


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else None
        return {"median": v, "q1": v, "q3": v}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], pairs: list, better: str, bound: float) -> dict:
    sign = 1.0 if better == "lower" else -1.0  # sign * (parent - change) > 0: the change is better
    won = sum(1 for p, c in pairs if p is not None and c is not None and sign * (p - c) > 0)
    p, c = quartiles(parent), quartiles(change)
    out = {"parent": {**p, "runs": parent}, "change": {**c, "runs": change},
           "change_won_pairs": f"{won}/{len(pairs)}"}
    if not parent or not change:
        return {**out, "verdict": "unresolved"}
    iqr = p["q3"] - p["q1"]
    gain = sign * (p["median"] - c["median"])
    every_run_better = all(sign * (a - b) > 0 for a in parent for b in change)
    if won >= 0.9 * len(pairs) and gain > iqr:
        result = "gain"
    elif -gain > bound * p["median"]:
        result = "worse"
    elif iqr > bound * p["median"] and not every_run_better:
        result = "unresolved"
    else:
        result = "no worse"
    return {**out, "change_over_parent": c["median"] / p["median"] if p["median"] else None,
            "verdict": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    results: list[dict] = []
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, seed, args.seconds)
        results.append(pair)
        print(f"pair {i + 1}/{args.pairs} seed {seed} done", file=sys.stderr)

    def value(res: dict | None, name: str) -> float | None:
        if res is None or not res.get("correct"):
            return None
        return res["metrics"].get(name, {}).get("value")

    doc = {
        "workload": args.workload,
        "seconds": args.seconds,
        "seeds": [r["seed"] for r in results],
        "first": [r["first"] for r in results],
        "runs": {
            side: {
                "attempted": sum(r[side]["attempted"] if r[side] else 1 for r in results),
                "failed": sum(r[side]["failed"] if r[side] else 1 for r in results),
            }
            for side in sides
        },
        "metrics": {},
    }
    for metric in config["end_to_end"]:
        name = metric["name"]
        pairs = [(value(r["parent"], name), value(r["change"], name)) for r in results]
        parent = [p for p, _ in pairs if p is not None]
        change = [c for _, c in pairs if c is not None]
        doc["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "pairs": [list(p) for p in pairs],
            **verdict(parent, change, pairs, metric["better"], metric["bound"]),
        }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for name, m in doc["metrics"].items():
        print(f"{args.workload:<18} {name:<12} parent {m['parent']['median']} change {m['change']['median']}"
              f" won {m['change_won_pairs']} -> {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
