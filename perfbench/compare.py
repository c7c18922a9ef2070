"""Collect pairs of benchmark runs of two checkouts and compare them.

    python3 perfbench/compare.py collect PARENT_CHECKOUT CHANGE_CHECKOUT OUT_DIR
                                         [--runs 10] [--first-seed 1]
    python3 perfbench/compare.py spread OUT_DIR/parent
    python3 perfbench/compare.py diff OUT_DIR

`collect` runs the benchmark command of BENCHMARK.json, untraced, in each
checkout for every seed and every workload: one pair of runs, parent and
change, per seed and workload.  The side that runs first alternates from
one pair to the next, so a slow or fast phase of the host falls on both
sides alike.  Each run's result line, with its seed, is appended to
OUT_DIR/<side>/<workload>.jsonl.  Passing the same checkout twice gives two
sets of the same code, whose diff shows the benchmark's own noise.

`spread` prints, per workload and end-to-end metric of one side, the median
and the interquartile range as a share of it, flagged when above a third of
the metric's bound.  `diff` prints one row per workload and end-to-end
metric: each side's median and quartiles, the pairs (runs with the same
seed) the change won, and a verdict:

  better         the change wins at least 9 in 10 pairs and the medians
                 differ by more than the parent's interquartile range;
  worse          the change's median is worse than the parent's by more
                 than the metric's bound in BENCHMARK.json;
  unresolved     the parent's own spread (IQR over median) is wider than the
                 bound, and not every change run beats every parent run;
  no regression  that spread is wider than the bound and every change run
                 beats every parent run, by less than the parent's IQR;
  no change      anything else.

A set with failed operations is flagged, since a gain with more failures
does not count.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run in `checkout`; returns its result line."""
    argv = [*spec()["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def collect(parent: Path, change: Path, out: Path, runs: int, first_seed: int) -> None:
    seconds = spec()["run_seconds"]
    names = [w["name"] for w in spec()["workloads"]]
    checkouts = list(zip(SIDES, (parent, change)))
    for side in SIDES:
        (out / side).mkdir(parents=True, exist_ok=True)
    seeds = range(first_seed, first_seed + runs)
    for pair, (seed, name) in enumerate(itertools.product(seeds, names)):
        for side, checkout in checkouts[::-1] if pair % 2 else checkouts:
            result = run_once(checkout, name, seed, seconds)
            with (out / side / f"{name}.jsonl").open("a") as f:
                f.write(json.dumps({"seed": seed, "result": result}) + "\n")
            print(f"{name} seed {seed} {side}: correct={result['correct']}", file=sys.stderr)


def load(directory: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> result line."""
    runs = {}
    for path in sorted(directory.glob("*.jsonl")):
        lines = [json.loads(line) for line in path.read_text().splitlines() if line]
        runs[path.stem] = {line["seed"]: line["result"] for line in lines}
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            higher: bool, bound: float) -> tuple[str, int]:
    """The section 8 rule of the choosing-metrics guide, for one metric."""
    sign = 1 if higher else -1
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    p1, pmed, p3 = quartiles(parent)
    gain = sign * (statistics.median(change) - pmed)
    won = bool(pairs) and wins >= 0.9 * len(pairs) and gain > p3 - p1
    if (p3 - p1) / abs(pmed) > bound:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return ("better" if won else "no regression"), wins
        return "unresolved", wins
    if won:
        return "better", wins
    if -gain > bound * abs(pmed):
        return "worse", wins
    return "no change", wins


def spread(directory: Path) -> None:
    for name, runs in sorted(load(directory).items()):
        for metric in spec()["end_to_end"]:
            q1, med, q3 = quartiles([r["metrics"][metric["name"]]["value"]
                                     for r in runs.values()])
            share = (q3 - q1) / abs(med)
            flag = "  above bound/3" if share > metric["bound"] / 3 else ""
            print(f"{name:10} {metric['name']:12} n={len(runs):<3} median {med:<10.4g} "
                  f"IQR/median {share:.4f} (bound {metric['bound']}){flag}")


def diff(out: Path) -> None:
    parent, change = (load(out / side) for side in SIDES)
    header = (f"{'workload':10} {'metric':12} {'unit':5} {'parent median [q1, q3]':34} "
              f"{'change median [q1, q3]':34} {'wins':>6}  verdict")
    print(header)
    for name in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[name], change[name]
        seeds = sorted(set(p_runs) & set(c_runs))
        for metric in spec()["end_to_end"]:
            key = metric["name"]
            pv = {seed: r["metrics"][key]["value"] for seed, r in p_runs.items()}
            cv = {seed: r["metrics"][key]["value"] for seed, r in c_runs.items()}
            pairs = [(pv[seed], cv[seed]) for seed in seeds]
            pv, cv = list(pv.values()), list(cv.values())
            result, wins = verdict(pv, cv, pairs, metric["better"] == "higher",
                                   metric["bound"])
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print(f"{name:10} {key:12} {metric['unit']:5} "
                  f"{f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':34} {f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':34} "
                  f"{f'{wins}/{len(pairs)}':>6}  {result}")
        for label, runs in zip(SIDES, (p_runs, c_runs)):
            failed = sum(r["failed"] for r in runs.values())
            if failed:
                attempted = sum(r["attempted"] for r in runs.values())
                print(f"{name:10} FAILED operations in {label}: {failed}/{attempted}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_collect = sub.add_parser("collect", help="run pairs of both checkouts over several seeds")
    p_collect.add_argument("parent", type=Path)
    p_collect.add_argument("change", type=Path)
    p_collect.add_argument("out", type=Path)
    p_collect.add_argument("--runs", type=int, default=10)
    p_collect.add_argument("--first-seed", type=int, default=1)
    p_spread = sub.add_parser("spread", help="run-to-run spread of one side's set")
    p_spread.add_argument("dir", type=Path)
    p_diff = sub.add_parser("diff", help="compare the two sides of a collected set")
    p_diff.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    if args.command == "collect":
        collect(args.parent, args.change, args.out, args.runs, args.first_seed)
    elif args.command == "spread":
        spread(args.dir)
    else:
        diff(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
