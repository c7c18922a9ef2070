"""The benchmark's seeded workloads: corpus, item call and correctness checks.

A workload turns a seed into a list of items.  An item is one call into
slnpoly whose result is checked for exact equality: against the recorded
reference at the default seed, and against an independent computation at
any other seed.  slnpoly itself only ever receives the generated inputs.

Every function here takes `lib`, the freshly imported slnpoly modules
(see `run.load_slnpoly`), because each set-up re-imports the package.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# (spins n, strands k, word length, items) cells of the closures grid.
# Cells whose items take more than about a second on a 2-core x86 host
# (n=3 k=5 L>=12, n=4 k>=4 L>=12, n=5 k>=4, n=4 k=5) are left out so a
# pass stays near 7 s and a run pools more than a hundred item samples.
CLOSURE_CELLS = (
    (2, 3, 8, 3), (2, 3, 12, 3), (2, 3, 16, 3),
    (2, 4, 8, 3), (2, 4, 12, 3), (2, 4, 16, 3),
    (2, 5, 8, 3), (2, 5, 12, 3), (2, 5, 16, 3),
    (3, 3, 8, 3), (3, 3, 12, 3), (3, 3, 16, 3),
    (3, 4, 8, 3), (3, 4, 12, 2),
    (4, 3, 8, 3), (4, 3, 12, 3), (4, 3, 16, 3),
    (4, 4, 8, 2),
    (5, 3, 8, 3), (5, 3, 12, 3), (5, 3, 16, 2),
)

# (n, k, word length, items) cells of the rep grid: n^k runs from 8 to 625.
# The cost of one word varies about twofold within a cell, so each cell has
# four words: with two, the pass's p90 swung by a fifth from seed to seed.
REP_CELLS = tuple(
    (n, k, length, 4)
    for n, k in ((2, 3), (2, 4), (3, 3), (2, 5), (4, 3), (3, 4), (5, 3),
                 (3, 5), (4, 4))
    for length in (8, 12, 16)
) + ((5, 4, 8, 4), (5, 4, 12, 4))

VERIFY_NS = (2, 3, 4, 5)
VERIFY_SUITES = ("ybe", "unitarity", "singular", "curl", "moy", "gamma")
MONOID_STRANDS = (3, 4)


@dataclass(frozen=True)
class Item:
    """One benchmarked call: `label` names it in the reference file."""

    label: str
    args: tuple


def random_word(rng: random.Random, strands: int, length: int) -> str:
    """A braid word with s, S and t in equal shares and every index used.

    Fixing the letter mix keeps the cost of a cell close across seeds, so
    the throughput of one pass depends on the grid, not on the draw.
    """
    kinds = list(itertools.islice(itertools.cycle("sSt"), length))
    indices = [1 + j % (strands - 1) for j in range(length)]
    rng.shuffle(kinds)
    rng.shuffle(indices)
    return " ".join(f"{c}{i}" for c, i in zip(kinds, indices))


def random_gamma(lib, rng: random.Random) -> str:
    """A 1- to 3-term integer Laurent polynomial, as the CLI prints one."""
    exps = rng.sample(range(-3, 4), rng.randint(1, 3))
    return str(lib.laurent.LaurentPoly(
        {2 * e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in exps}))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


class _ExactValue:
    """A workload whose items return one exact value each."""

    def ok(self, lib, item: Item, value, seed: int, reference: dict) -> bool:
        """The correctness gate: at the default seed the value must hash to
        the recorded reference, at any other seed it must equal an
        independent computation."""
        if seed == DEFAULT_SEED:
            return reference[self.name].get(item.label) == self.fingerprint(value)
        return self.check(lib, item, value)


class Closures(_ExactValue):
    """`evaluate_closed` on the trace closures of seeded braid words."""

    name = "closures"
    cli_args = ("eval", "--n", "3", "--braid", "s1 t2 S1 s2 t1", "--strands", "3",
                "--closure")

    def build(self, lib, seed: int) -> list[Item]:
        rng = random.Random(f"{self.name}:{seed}")
        items = []
        for n, k, length, count in CLOSURE_CELLS:
            ctx = lib.evaluator.EvalContext(n)
            for _ in range(count):
                text = random_word(rng, k, length)
                d = lib.diagram.close_braid(lib.diagram.parse_braid_word(text, k))
                problems = lib.diagram.validate(d)
                if problems:
                    raise ValueError(f"generated an invalid closure: {problems}")
                # The resolution oracle costs seconds even at eight
                # crossings, so only the first, smallest item pays for it.
                items.append(Item(f"n{n} k{k} {text}", (d, ctx, text, k, not items)))
        return items

    def warm(self, lib, items: list[Item]) -> None:
        warm_crossings(lib, {item.args[1].n for item in items})

    def run(self, lib, item: Item):
        d, ctx = item.args[:2]
        return lib.evaluator.evaluate_closed(d, ctx)

    def fingerprint(self, value) -> str:
        return digest(str(value))

    def check(self, lib, item: Item, value) -> bool:
        """Compare with the weighted trace Tr(rho(w) . h^(x)k), h = diag(q^s),
        and for the item marked for it, with the crossing-resolution oracle."""
        d, ctx, text, k, oracle = item.args
        if value != weighted_trace(lib, lib.diagram.parse_braid_word(text, k), ctx.n):
            return False
        return not oracle or value == lib.evaluator.oracle_rotation_states(d, ctx)


def warm_crossings(lib, ns) -> None:
    """Fill the crossing tables of every n by evaluating one tiny closure."""
    small = lib.diagram.close_braid(lib.diagram.parse_braid_word("s1 S1 t1", 2))
    for n in sorted(ns):
        lib.evaluator.evaluate_closed(small, lib.evaluator.EvalContext(n))


def warm_generators(lib, cells) -> None:
    """Fill the generator-image table for every letter on (n, k) cells."""
    for n, k in sorted(cells):
        for c, i in itertools.product("sSt", range(1, k)):
            lib.braidrep.rho(lib.diagram.parse_braid_word(f"{c}{i}", k), n)


def weighted_trace(lib, word, n: int):
    """Turaev's enhanced-operator trace of the braid's representation matrix."""
    mat = lib.braidrep.rho(word, n).matrix
    total = lib.laurent.ZERO
    states = itertools.product(lib.spintensor.spin_set(n), repeat=word.strands)
    for i, spins in enumerate(states):
        entry = mat[i, i]
        if entry:
            total = total + lib.laurent.LaurentPoly.q_power(sum(spins)) * entry
    return total


def matrix_text(mat) -> str:
    """Canonical text of a sparse PolyMatrix: its shape and nonzero entries."""
    entries = ";".join(f"{r},{c}:{p}" for (r, c), p in sorted(mat.items()))
    return f"{mat.rows}x{mat.cols};{entries}"


class Rep(_ExactValue):
    """`rho`, the braid-monoid representation, on seeded words."""

    name = "rep"
    cli_args = ("rep", "--n", "2", "--braid", "t1 s2 S1", "--strands", "3")

    def build(self, lib, seed: int) -> list[Item]:
        rng = random.Random(f"{self.name}:{seed}")
        items = []
        for n, k, length, count in REP_CELLS:
            for _ in range(count):
                text = random_word(rng, k, length)
                word = lib.diagram.parse_braid_word(text, k)
                items.append(Item(f"n{n} k{k} {text}", (word, n)))
        return items

    def warm(self, lib, items: list[Item]) -> None:
        warm_generators(lib, {(item.args[1], item.args[0].strands) for item in items})

    def run(self, lib, item: Item):
        word, n = item.args
        return lib.braidrep.rho(word, n)

    def fingerprint(self, value) -> str:
        return digest(f"{value.strands} {value.n} {matrix_text(value.matrix)}")

    def check(self, lib, item: Item, value) -> bool:
        """Compare with the frontier sweep of the open braid tangle."""
        word, n = item.args
        tangle = lib.evaluator.evaluate_tangle(lib.diagram.braid_to_diagram(word),
                                               lib.evaluator.EvalContext(n))
        return (value.strands, value.n) == (word.strands, n) and value.matrix == tangle


class Verify:
    """In-process `slnpoly verify`, one item per suite per n."""

    name = "verify"
    cli_args = ("verify", "--n", "2", "--suite", "ybe")

    def build(self, lib, seed: int) -> list[Item]:
        gamma = random_gamma(lib, random.Random(f"{self.name}:{seed}"))
        items = []
        for n in VERIFY_NS:
            base = ["verify", "--n", str(n), f"--gamma={gamma}"]
            for suite in VERIFY_SUITES:
                items.append(Item(f"n{n} {suite}", tuple(base + ["--suite", suite])))
            for k in MONOID_STRANDS:
                items.append(Item(f"n{n} monoid strands{k}",
                                  tuple(base + ["--suite", "monoid", "--strands", str(k)])))
        return items

    def warm(self, lib, items: list[Item]) -> None:
        warm_crossings(lib, VERIFY_NS)
        warm_generators(lib, itertools.product(VERIFY_NS, MONOID_STRANDS))

    def run(self, lib, item: Item):
        return run_cli(lib, item.args)

    def fingerprint(self, value) -> str:
        return digest(f"{value[0]}\n{value[1]}")

    def ok(self, lib, item: Item, value, seed: int, reference: dict) -> bool:
        """Exit code 0 and one PASS line per recorded check name, in order.

        The names do not depend on gamma, so one record serves every seed.
        """
        names = reference[self.name].get(item.label)
        return names is not None and passed_checks(*value) == names


def passed_checks(code: int, text: str) -> list[str] | None:
    """The check names of a verify run that passed every check, else None."""
    lines = text.splitlines()
    names = [line[len("PASS "):] for line in lines[:-1] if line.startswith("PASS ")]
    summary = f"{len(names)}/{len(names)} checks passed"
    if code != 0 or len(names) != len(lines) - 1 or lines[-1:] != [summary]:
        return None
    return names


WORKLOADS = {w.name: w for w in (Closures(), Rep(), Verify())}

PROBE_VERIFY = ("verify", "--n", "2", "--suite", "all", "--strands", "3")


def run_cli(lib, argv) -> tuple[int, str]:
    """`cli.run_cli` in-process: its exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lib.cli.run_cli(list(argv))
    return code, out.getvalue()


def probe(lib, reference: dict) -> tuple[int, int]:
    """Two fixed CLI calls that between them reach every layer once: the
    closures workload's `eval` and `verify --suite all` at n = 2.

    A traced run makes them after its first traced pass, so that no layer
    reads a time of exactly 0 on a workload that does not use it.  Returns
    (calls attempted, calls failed).
    """
    code, text = run_cli(lib, Closures.cli_args)
    failed = code != 0 or text != reference["cli"]["closures"]
    failed += passed_checks(*run_cli(lib, PROBE_VERIFY)) is None
    return 2, int(failed)

