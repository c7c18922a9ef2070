"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
import tracer
from workloads import DEFAULT_SEED, WORKLOADS, load_reference

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def lib():
    return run.load_slnpoly()[0]


@pytest.fixture(scope="module")
def reference():
    return load_reference()


def labels(lib, name, seed):
    return [item.label for item in WORKLOADS[name].build(lib, seed)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_seed_gives_the_same_corpus(lib, name):
    assert WORKLOADS[name].build(lib, 7) == WORKLOADS[name].build(lib, 7)


def test_seeds_differ(lib):
    assert labels(lib, "closures", 7) != labels(lib, "closures", 8)
    assert labels(lib, "rep", 7) != labels(lib, "rep", 8)
    gammas = {WORKLOADS["verify"].build(lib, seed)[0].args[3] for seed in range(6)}
    assert len(gammas) > 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_corpus_is_the_recorded_one(lib, reference, name):
    assert labels(lib, name, DEFAULT_SEED) == list(reference[name])


def _cheap(name, items):
    """The first items of each corpus, which are its smallest."""
    return items[:8] if name != "verify" else [i for i in items if i.label.startswith("n2")]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 5])
def test_values_pass_the_gate(lib, reference, name, seed):
    """At the default seed against the references, elsewhere independently."""
    workload = WORKLOADS[name]
    items = workload.build(lib, seed)
    for item in _cheap(name, items):
        assert workload.ok(lib, item, workload.run(lib, item), seed, reference), item.label


def test_a_gamma_with_a_leading_minus_reaches_verify(lib, reference):
    """`--gamma=-q^2` must not be read as an option by the CLI's parser."""
    workload = WORKLOADS["verify"]
    seed = next(s for s in range(100)
                if workload.build(lib, s)[0].args[3].startswith("--gamma=-"))
    item = next(i for i in workload.build(lib, seed) if i.label == "n2 gamma")
    assert workload.ok(lib, item, workload.run(lib, item), seed, reference)


def _times_q(lib, name, value):
    q = lib.laurent.Q
    if name == "closures":
        return value * q
    if name == "rep":
        return lib.braidrep.RepImage(value.strands, value.n, value.matrix.scale(q))
    code, text = value
    return code, text.replace("PASS", "FAIL", 1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 5])
def test_a_wrong_value_counts_as_failed(lib, reference, name, seed):
    """Negative control: a value multiplied by q (for verify, a FAIL line)."""
    workload = WORKLOADS[name]
    items = workload.build(lib, seed)[:1]
    outcomes = run.Outcomes(1)
    outcomes.record(0, _times_q(lib, name, workload.run(lib, items[0])), raised=False)
    outcomes.record(0, None, raised=True)
    outcomes.check(lib, workload, items, seed, reference)
    assert outcomes.bad == [2]


def test_a_changed_repeat_counts_as_failed(lib):
    outcomes = run.Outcomes(1)
    one = lib.laurent.ONE
    outcomes.record(0, one, raised=False)
    outcomes.record(0, one * lib.laurent.Q, raised=False)
    assert (outcomes.attempts, outcomes.bad) == ([2], [1])


def test_a_timed_run_tops_up_samples_and_set_ups(monkeypatch):
    """Passes that reach `--seconds` at once still pool MIN_SAMPLES
    latencies, and set-up-only children bring the set-ups to SETUP_MIN."""
    calls = []

    def child(workload, seed, *flags):
        calls.append(flags)
        if "--setup-only" in flags:
            return {"setup_s": 0.5}
        return {"setup_s": 0.1, "measured_s": 100.0, "latencies": [0.01] * 40,
                "peak_rss_mb": 1.0, "bad": [0] * 40, "fingerprints": ["x"] * 40}

    monkeypatch.setattr(run, "run_pass_process", child)
    monkeypatch.setattr(run, "cli_cold", lambda workload, reference, n: ([0.2] * n, 0))
    metrics, attempted, failed = run.timed_run(WORKLOADS["rep"], 1, 1.0, {})
    passes = [flags for flags in calls if "--setup-only" not in flags]
    assert passes == [("--check",), (), ()]
    assert 40 * len(passes) >= run.MIN_SAMPLES > 40 * (len(passes) - 1)
    assert len(calls) == run.SETUP_MIN
    assert metrics["setup_s"] == 0.5
    assert (attempted, failed) == (40 * 3 + 3 * run.CLI_PER_PASS, 0)


def test_tracer_wraps_every_lookup_and_restores_it(lib):
    mul = vars(lib.laurent.LaurentPoly)["__mul__"]
    ybe = lib.identities.SUITES["ybe"]
    item = WORKLOADS["closures"].build(lib, DEFAULT_SEED)[0]
    tr = tracer.Tracer(lib)
    tr.install()
    try:
        assert lib.laurent.LaurentPoly.__mul__ is not mul
        assert lib.laurent.LaurentPoly.__rmul__ is lib.laurent.LaurentPoly.__mul__
        assert lib.identities.SUITES["ybe"] is not ybe
        assert lib.cli.evaluate_tangle is lib.evaluator.evaluate_tangle
        assert lib.identities.evaluate_tangle is lib.evaluator.evaluate_tangle
        assert lib.braidrep.kron is lib.spintensor.kron
        assert len(tracer.installed_wrappers(lib)) > 20
        WORKLOADS["closures"].run(lib, item)
    finally:
        tr.remove()
    assert tracer.installed_wrappers(lib) == []
    assert vars(lib.laurent.LaurentPoly)["__mul__"] is mul
    assert vars(lib.laurent.LaurentPoly)["__rmul__"] is mul
    assert lib.identities.SUITES["ybe"] is ybe
    metrics = tr.layer_metrics()
    assert metrics["evaluator.calls"] == 1
    assert metrics["diagram.validate_calls"] == 1
    assert metrics["laurent.mul_calls"] > 0
    assert 0 < metrics["evaluator.self_s"] < tr.stats["evaluator.evaluate_tangle"][1]
    names = {span[0] for span in tr.spans}
    assert names == {"evaluator.evaluate_tangle", "diagram.validate"}


def test_traced_run_restores_wrappers_and_counts_repeat(lib, reference):
    workload = WORKLOADS["verify"]
    items = workload.build(lib, DEFAULT_SEED)[:6]
    counts = []
    for _ in range(2):
        outcomes = run.Outcomes(len(items))
        metrics, probed = run.traced_run(lib, workload, items, DEFAULT_SEED, 0, outcomes,
                                         reference)
        assert tracer.installed_wrappers(lib) == []
        assert probed == (2, 0)
        counts.append({k: v for k, v in metrics.items() if isinstance(v, int)})
    assert counts[0] == counts[1]
    assert metrics["cli.run_cli_s"] > 0 and metrics["identities.ybe_s"] > 0


def _result(argv, cwd=None):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_those_of_benchmark_json(trace, section):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    proc = _result(["--workload", "verify", "--seed", str(DEFAULT_SEED),
                    "--seconds", "0", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    times = [v["value"] for v in result["metrics"].values() if v["unit"] == "s"]
    assert all(t > 0 for t in times)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bench)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    faster = [v * 1.2 for v in parent]
    pairs = list(zip(parent, faster))
    assert compare.verdict(parent, faster, pairs, higher=True, bound=0.1)[0] == "better"
    assert compare.verdict(parent, faster, pairs, higher=False, bound=0.1)[0] == "worse"
    same = list(reversed(parent))
    assert compare.verdict(parent, same, list(zip(parent, same)), True, 0.1)[0] == "no change"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, noisy, list(zip(noisy, noisy)), True, 0.1)[0] == "unresolved"
    # Every change run beats every parent run of a two-valued noisy parent
    # (IQR 10): by less than the IQR, and then by more.
    split = [5.0] * 5 + [15.0] * 5
    above = [15.5] * 10
    assert compare.verdict(split, above, list(zip(split, above)), True, 0.1)[0] == "no regression"
    far = [25.5] * 10
    assert compare.verdict(split, far, list(zip(split, far)), True, 0.1)[0] == "better"


def test_collect_alternates_which_side_runs_first(tmp_path, monkeypatch):
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed))
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}

    monkeypatch.setattr(compare, "run_once", run_once)
    compare.collect(Path("p"), Path("c"), tmp_path, runs=4, first_seed=1)
    names = [w["name"] for w in compare.spec()["workloads"]]
    for name in names:
        first = [calls[i][0] for i in range(0, len(calls), 2) if calls[i][1] == name]
        assert first == ["p", "c", "p", "c"] or first == ["c", "p", "c", "p"], first
        for side in compare.SIDES:
            assert sorted(compare.load(tmp_path / side)[name]) == [1, 2, 3, 4]
