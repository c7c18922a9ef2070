"""Record the default-seed reference values, each checked independently first.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json.  Every value is computed by the production
path and accepted only when an independent path agrees exactly:

  closures  the weighted trace Tr(rho(w) . h^(x)k), h = diag(q^s), and the
            crossing-resolution oracle for items within its crossing cap;
  rep       the frontier sweep of the open braid tangle;
  verify    exit code 0 and every line PASS (the check names are recorded);
  cli       the same checks on each workload's fixed CLI input.

Run it only when the corpus definition changes; a perf change must leave
the file as it is.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import ROOT, SRC, load_slnpoly
from workloads import (DEFAULT_SEED, REFERENCE_PATH, WORKLOADS, passed_checks,
                       weighted_trace)

ORACLE_CROSSING_CAP = 10


def check_closures(lib, workload, items, values) -> dict:
    out = {}
    for item, value in zip(items, values):
        if not workload.check(lib, item, value):
            raise SystemExit(f"weighted trace disagrees on {item.label}")
        d, ctx, text, k, _ = item.args
        if len(lib.diagram.parse_braid_word(text, k).letters) <= ORACLE_CROSSING_CAP:
            if value != lib.evaluator.oracle_rotation_states(d, ctx, ORACLE_CROSSING_CAP):
                raise SystemExit(f"resolution oracle disagrees on {item.label}")
        out[item.label] = workload.fingerprint(value)
    return out


def check_rep(lib, workload, items, values) -> dict:
    out = {}
    for item, value in zip(items, values):
        if not workload.check(lib, item, value):
            raise SystemExit(f"open tangle disagrees on {item.label}")
        out[item.label] = workload.fingerprint(value)
    return out


def check_verify(lib, workload, items, values) -> dict:
    out = {}
    for item, (code, text) in zip(items, values):
        names = passed_checks(code, text)
        if names is None:
            raise SystemExit(f"verify did not pass on {item.label}:\n{text}")
        out[item.label] = names
    return out


def cli_outputs(lib) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = {}
    for name, workload in WORKLOADS.items():
        proc = subprocess.run([sys.executable, "-m", "slnpoly", *workload.cli_args],
                              cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        out[name] = proc.stdout
    args = dict(zip(WORKLOADS["closures"].cli_args[1::2], WORKLOADS["closures"].cli_args[2::2]))
    word = lib.diagram.parse_braid_word(args["--braid"], int(args["--strands"]))
    if out["closures"] != f"{weighted_trace(lib, word, int(args['--n']))}\n":
        raise SystemExit("closures CLI output disagrees with the weighted trace")
    args = dict(zip(WORKLOADS["rep"].cli_args[1::2], WORKLOADS["rep"].cli_args[2::2]))
    word = lib.diagram.parse_braid_word(args["--braid"], int(args["--strands"]))
    n = int(args["--n"])
    tangle = lib.evaluator.evaluate_tangle(lib.diagram.braid_to_diagram(word),
                                           lib.evaluator.EvalContext(n))
    want = [f"dimensions: {tangle.rows}x{tangle.cols}"]
    want += [f"({r},{c}): {p}" for (r, c), p in sorted(tangle.items())]
    if out["rep"].splitlines() != want:
        raise SystemExit("rep CLI output disagrees with the open tangle")
    if passed_checks(0, out["verify"]) is None:
        raise SystemExit(f"verify CLI output did not pass:\n{out['verify']}")
    return out


def main() -> int:
    lib, _ = load_slnpoly()
    checks = {"closures": check_closures, "rep": check_rep, "verify": check_verify}
    reference = {"seed": DEFAULT_SEED}
    for name, workload in WORKLOADS.items():
        items = workload.build(lib, DEFAULT_SEED)
        workload.warm(lib, items)
        values = [workload.run(lib, item) for item in items]
        reference[name] = checks[name](lib, workload, items, values)
        print(f"{name}: {len(items)} items checked", file=sys.stderr)
    reference["cli"] = cli_outputs(lib)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
