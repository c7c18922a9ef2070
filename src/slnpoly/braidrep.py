"""The representation of the singular braid monoid by Kronecker products.

A letter is a crossing tile acting on strands (i, i+1) of a k-strand
braid; it maps to I x ... x X x ... x I with the tile's tensor X in the
i-th slot, and a word maps to the mat_mul product of its letters' images,
an n^k x n^k matrix over the Laurent ring.  Matrix entries are indexed by
spin tuples flattened with the leftmost strand most significant, matching
the tangle evaluator's convention.

check_monoid_relations, the `monoid` verify suite, checks the monoid's
defining relations in this representation.  CheckResult, the result type of
every verify suite, lives here so that identities can import it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .diagram import LETTER_TILE, BraidWord, parse_braid_word
from .spintensor import PolyMatrix, Tile, crossing_matrix, kron, mat_mul


# The largest n^k for which rho builds its n^k x n^k matrices.
MAX_REP_SIZE = 4096


@dataclass(frozen=True)
class RepImage:
    strands: int
    n: int
    matrix: PolyMatrix


@lru_cache(maxsize=None)
def _generator_image(tile: Tile, index: int, strands: int, n: int) -> PolyMatrix:
    left = PolyMatrix.identity(n ** (index - 1))
    right = PolyMatrix.identity(n ** (strands - index - 1))
    return kron(kron(left, crossing_matrix(tile, n)), right)


def rho(w: BraidWord, n: int) -> RepImage:
    """Evaluate a singular braid word in the representation; empty word -> identity."""
    if n < 2:
        raise ValueError(f"the representation needs n >= 2, got {n}")
    if n ** w.strands > MAX_REP_SIZE:
        raise ValueError(f"the representation at n={n} on k={w.strands} strands "
                         f"exceeds the limit n^k <= {MAX_REP_SIZE}")
    mat = PolyMatrix.identity(n ** w.strands)
    for tile, i in w.letters:
        mat = mat_mul(mat, _generator_image(tile, i, w.strands, n))
    return RepImage(w.strands, n, mat)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool


def check_monoid_relations(n: int, strands: int) -> list[CheckResult]:
    """Verify every defining relation instance of the monoid on `strands` strands.

    Checks distant commutation of all generator pairs, the inverse pair
    relation, the braid relation, the mixed relation moving a singular
    generator past a braiding pair, and commutation of a crossing with the
    singular generator at the same index.  Each instance is stated once, as
    the braid-word text it prints, and read through parse_braid_word; the
    empty word is written 1.  This is the `monoid` verify suite.
    """
    if n < 2 or strands < 2:
        raise ValueError("relation checks need n >= 2 and k >= 2")

    def image(text: str) -> PolyMatrix:
        return rho(parse_braid_word("" if text == "1" else text, strands), n).matrix

    checks = []

    def record(name: str, lhs: str, rhs: str):
        checks.append(CheckResult(f"monoid-{name}: {lhs} = {rhs}",
                                  image(lhs) == image(rhs)))

    for i in range(1, strands):
        for j in range(i + 2, strands):
            for g, h in itertools.product(LETTER_TILE, repeat=2):
                record("distant-commutation", f"{g}{i} {h}{j}", f"{h}{j} {g}{i}")
    for i in range(1, strands):
        record("R2", f"s{i} S{i}", "1")
        record("R2", f"S{i} s{i}", "1")
    for i in range(1, strands):
        for j in (i - 1, i + 1):
            if not 1 <= j < strands:
                continue
            record("R3", f"s{i} s{j} s{i}", f"s{j} s{i} s{j}")
            record("R4", f"t{i} s{j} s{i}", f"s{j} s{i} t{j}")
    for i in range(1, strands):
        record("R5", f"s{i} t{i}", f"t{i} s{i}")
    return checks
