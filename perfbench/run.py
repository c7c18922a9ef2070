"""The slnpoly benchmark: one seeded workload, timed end to end or traced.

    python3 perfbench/run.py --workload closures --seed 1 --seconds 15 --trace 0

Run from a checkout: the package is imported from its `src` directory.
An untraced run times one pass over the corpus at a time, each in a fresh
single-threaded child process (import, corpus, cache warm-up, then the
timed pass), until the passes add up to `--seconds` and MIN_SAMPLES items.
Separate processes average out the per-process speed differences of a
shared host, which can be larger than its drift within a process.  The first child also checks every
value exactly; later children must reproduce its values.  Between children
the workload's CLI subcommand is timed in fresh processes.  With
`--trace 1` the run stays in one process, alternates untraced and traced
passes and reports per-layer metrics instead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics, whose
names and units come from BENCHMARK.json.  The process exits with 2,
printing no result, when there is no package to benchmark.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

import tracer
from workloads import DEFAULT_SEED, WORKLOADS, load_reference, probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
# In-process set-ups of a traced run, for the median import time.
SETUP_REPEATS = 5
# Fresh CLI processes after each pass process, so they spread over the run.
CLI_PER_PASS = 4
# Set-ups a timed run measures at least.  A run may have only two pass
# processes, so it tops their set-ups up with processes that only set up.
SETUP_MIN = 8
# Latency samples a timed run pools at least, so that more than ten lie
# beyond p90 even when a slow host reaches `--seconds` in few passes.
MIN_SAMPLES = 110
LAYERS = ("laurent", "spintensor", "diagram", "evaluator", "braidrep", "identities", "cli")
# The host's speed swings by a factor of two within seconds and drifts over
# minutes (README, "Noise"): more than the regressions the bounds must catch.
# So every reported time is scaled to a reference speed.  A fixed chunk of
# pure-Python work like the Laurent kernel's is timed just before and just
# after each timed call (in the same process, or for a CLI start in its
# parent), and the call's time is multiplied by REFERENCE_CHUNK_S over the
# mean of the two chunk times.
REFERENCE_CHUNK_S = 0.035
# A CLI start is mostly interpreter start-up and imports, which the host's
# slow phases slow less than the chunk.  So a CLI start is scaled by a
# reference start instead: a fresh interpreter importing the standard
# library modules that slnpoly imports, timed just before and just after it.
REFERENCE_START = ("-c", "import argparse, dataclasses, enum, fractions, json, pathlib, re, typing")
REFERENCE_START_S = 0.08


def load_slnpoly() -> tuple[types.SimpleNamespace, float]:
    """Import slnpoly afresh from the checkout; returns its modules and the
    import time.  Dropping earlier imports first gives fresh lru caches."""
    for name in [m for m in sys.modules if m == "slnpoly" or m.startswith("slnpoly.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    package = importlib.import_module("slnpoly")
    importlib.import_module("slnpoly.cli")
    elapsed = time.perf_counter() - start
    if Path(package.__file__).resolve().parent != SRC / "slnpoly":
        raise ImportError(f"slnpoly imported from {package.__file__}, not {SRC}")
    lib = types.SimpleNamespace(**{name: sys.modules[f"slnpoly.{name}"] for name in LAYERS})
    lib.modules = [package, *(getattr(lib, name) for name in LAYERS)]
    return lib, elapsed


def set_up(workload, seed: int):
    """Import, build the corpus, warm the caches; returns the modules, the
    items, the set-up time and the import time."""
    start = time.perf_counter()
    lib, import_s = load_slnpoly()
    items = workload.build(lib, seed)
    workload.warm(lib, items)
    return lib, items, time.perf_counter() - start, import_s


class Outcomes:
    """Per-item first values and failure counts across all passes."""

    def __init__(self, count: int):
        self.first = [None] * count
        self.attempts = [0] * count
        self.bad = [0] * count

    def record(self, index: int, value, raised: bool) -> None:
        self.attempts[index] += 1
        if raised:
            self.bad[index] += 1
        elif self.first[index] is None:
            self.first[index] = value
        elif value != self.first[index]:
            self.bad[index] += 1

    def check(self, lib, workload, items, seed: int, reference: dict) -> None:
        """Fail every attempt of an item whose value fails the gate."""
        for i, item in enumerate(items):
            value = self.first[i]
            try:
                ok = value is not None and workload.ok(lib, item, value, seed, reference)
            except Exception:
                traceback.print_exc()
                ok = False
            if not ok:
                print(f"FAILED {workload.name} item {i}: {item.label}", file=sys.stderr)
                self.bad[i] = self.attempts[i]


def reference_chunk() -> float:
    """Time one chunk of reference work: a dict convolution of big integer
    coefficients, summed into a tuple-keyed table."""
    start = time.perf_counter()
    poly = {2 * e: 7 ** (e + 12) - e for e in range(-12, 12)}
    table = {}
    for r in range(250):
        out = {}
        for e1, c1 in poly.items():
            for e2, c2 in poly.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        for e, c in out.items():
            key = (r % 7, e % 11, e)
            table[key] = table.get(key, 0) + c
    return time.perf_counter() - start


def to_reference(elapsed: float, before: float, after: float) -> float:
    """`elapsed` scaled to the reference speed by the chunks timed around it."""
    return elapsed * 2 * REFERENCE_CHUNK_S / (before + after)


def one_pass(lib, workload, items, outcomes: Outcomes, latencies: list, tr=None,
             scale: bool = False) -> float:
    """Run every item once, appending each item's time to `latencies`;
    returns the time spent in the items as measured.  With `scale`, a
    reference chunk is timed before the first item and after each item, and
    each latency is scaled by the chunks on either side of it."""
    clock = time.perf_counter
    busy = 0.0
    before = reference_chunk() if scale else None
    for i, item in enumerate(items):
        if tr is not None:
            tr.item = i
        start = clock()
        try:
            value = workload.run(lib, item)
            raised = False
        except Exception:
            value, raised = None, True
        elapsed = clock() - start
        busy += elapsed
        if scale:
            after = reference_chunk()
            latencies.append(to_reference(elapsed, before, after))
            before = after
        else:
            latencies.append(elapsed)
        if raised:
            traceback.print_exc()
        outcomes.record(i, value, raised)
    return busy


def timed_start(args, env) -> tuple[float, subprocess.CompletedProcess]:
    """Wall time of a fresh interpreter run with `args`, and its result."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    return time.perf_counter() - start, proc


def cli_cold(workload, reference: dict, repeats: int) -> tuple[list[float], int]:
    """Wall times of fresh `python -m slnpoly` runs, scaled to the reference
    start, and how many failed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    want = reference["cli"][workload.name]
    times, failed = [], 0
    before = timed_start(REFERENCE_START, env)[0]
    for _ in range(repeats):
        elapsed, proc = timed_start(["-m", "slnpoly", *workload.cli_args], env)
        after = timed_start(REFERENCE_START, env)[0]
        times.append(elapsed * 2 * REFERENCE_START_S / (before + after))
        before = after
        if proc.returncode != 0 or proc.stdout != want:
            print(f"FAILED cli run: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            failed += 1
    return times, failed


def pass_process(workload, seed: int, check: bool, setup_only: bool) -> dict:
    """The body of a child process: set up, time one pass, and with `check`
    put each value through the correctness gate.  With `setup_only`, stop
    after the set-up."""
    before = reference_chunk()
    lib, items, setup_s, _ = set_up(workload, seed)
    setup_s = to_reference(setup_s, before, reference_chunk())
    if setup_only:
        return {"setup_s": setup_s}
    if tracer.installed_wrappers(lib):
        raise RuntimeError(f"untraced run with wrappers: {tracer.installed_wrappers(lib)}")
    outcomes = Outcomes(len(items))
    latencies = []
    measured = one_pass(lib, workload, items, outcomes, latencies, scale=True)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if check:
        outcomes.check(lib, workload, items, seed, load_reference())
    return {
        "setup_s": setup_s,
        "measured_s": measured,
        "latencies": latencies,
        "peak_rss_mb": peak_kb / 1024,
        "bad": outcomes.bad,
        "fingerprints": [None if v is None else workload.fingerprint(v)
                         for v in outcomes.first],
    }


def run_pass_process(workload, seed: int, *flags: str) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
            "--seed", str(seed), "--pass-process", *flags]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=170, check=True)
    return json.loads(proc.stdout)


def timed_run(workload, seed: int, seconds: float, reference: dict):
    """Pass processes until the timed passes add up to `seconds` and pool
    MIN_SAMPLES latencies; returns the end-to-end metrics, the operations
    attempted and those failed."""
    passes, cli_times, cli_failed = [], [], 0
    while (not passes or sum(p["measured_s"] for p in passes) < seconds
           or sum(len(p["latencies"]) for p in passes) < MIN_SAMPLES):
        passes.append(run_pass_process(workload, seed, *([] if passes else ["--check"])))
        times, failed = cli_cold(workload, reference, CLI_PER_PASS)
        cli_times += times
        cli_failed += failed
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_MIN:
        setups.append(run_pass_process(workload, seed, "--setup-only")["setup_s"])
    first = passes[0]
    failed = cli_failed
    for i, gate_failed in enumerate(first["bad"]):
        if gate_failed:
            failed += len(passes)
        else:
            failed += sum(p["bad"][i] or p["fingerprints"][i] != first["fingerprints"][i]
                          for p in passes[1:])
    latencies = [x for p in passes for x in p["latencies"]]
    deciles = statistics.quantiles(latencies, n=10)
    beyond = sum(x > deciles[8] for x in latencies)
    measured = ", ".join(f"{p['measured_s']:.2f}" for p in passes)
    scaled = ", ".join(f"{sum(p['latencies']):.2f}" for p in passes)
    print(f"# {workload.name}: {len(latencies)} item samples in {len(passes)} pass processes "
          f"of {measured} s as measured, {scaled} s at the reference speed; "
          f"{beyond} beyond p90")
    metrics = {
        "items_per_s": len(latencies) / sum(latencies),
        "item_p50_s": statistics.median(latencies),
        "item_p90_s": deciles[8],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "cli_cold_s": statistics.median(cli_times),
        "setup_s": statistics.median(setups),
    }
    return metrics, len(latencies) + len(cli_times), failed


def traced_run(lib, workload, items, seed: int, seconds: float, outcomes: Outcomes,
               reference: dict):
    """Untraced and traced passes in turn.  Layer figures come from the first
    traced pass, a traced corpus build before it and the layer probe after
    it; the overhead from the pass medians.  Returns the metrics and the
    probe's (attempted, failed)."""
    untraced, traced, first = [], [], None
    probe(lib, reference)  # fills the probe's own caches, so its counts repeat
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(one_pass(lib, workload, items, outcomes, []))
        tr = tracer.Tracer(lib)
        tr.install()
        try:
            if first is None:
                workload.build(lib, seed)
            traced.append(one_pass(lib, workload, items, outcomes, [], tr))
            if first is None:
                tr.item = len(items)
                probed = probe(lib, reference)
        finally:
            tr.remove()
        first = first or tr
    if tracer.installed_wrappers(lib):
        raise RuntimeError(f"wrappers left behind: {tracer.installed_wrappers(lib)}")
    first.write_spans(OUT / f"spans-{workload.name}-seed{seed}.jsonl")
    metrics = first.layer_metrics()
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    return metrics, probed


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = bench_spec()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-process", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--check", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.pass_process:
        print(json.dumps(pass_process(workload, args.seed, args.check, args.setup_only)))
        return 0
    if not (SRC / "slnpoly" / "__init__.py").is_file():
        print(f"perfbench: no slnpoly package under {SRC}", file=sys.stderr)
        return 2
    reference = load_reference()

    if args.trace:
        import_s = []
        for _ in range(SETUP_REPEATS):
            lib, items, _, imported = set_up(workload, args.seed)
            import_s.append(imported)
        outcomes = Outcomes(len(items))
        values, (attempted, failed) = traced_run(lib, workload, items, args.seed,
                                                 args.seconds, outcomes, reference)
        values["cli.import_s"] = statistics.median(import_s)
        outcomes.check(lib, workload, items, args.seed, reference)
        attempted += sum(outcomes.attempts)
        failed += sum(outcomes.bad)
        wanted = spec["per_layer"]
    else:
        values, attempted, failed = timed_run(workload, args.seed, args.seconds, reference)
        wanted = spec["end_to_end"]

    names = {m["name"] for m in wanted}
    if names != set(values):
        raise RuntimeError(f"metrics {sorted(set(values) ^ names)} differ from BENCHMARK.json")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
