"""Shared test helpers: an independent slice-transfer evaluator and corpora."""

from __future__ import annotations

import random

from slnpoly import spintensor
from slnpoly.diagram import CROSSINGS, BraidWord, Diagram, Tile, close_braid
from slnpoly.evaluator import EvalContext
from slnpoly.laurent import ONE, ZERO, LaurentPoly
from slnpoly.spintensor import (
    PolyMatrix,
    crossing_matrix,
    kron,
    mat_mul,
    spin_set,
    turn_weight,
)


def tile_matrix(tile: Tile, ctx: EvalContext) -> PolyMatrix:
    """The tile as a tuple-indexed matrix, built from the definitions."""
    n = ctx.n
    spins = spin_set(n)
    if tile is Tile.ID:
        return PolyMatrix.identity(n)
    if tile in (Tile.CUP_RIGHT, Tile.CUP_LEFT):
        return PolyMatrix(1, n * n, {
            (0, i * n + i): turn_weight(tile, s)
            for i, s in enumerate(spins)
        })
    if tile in (Tile.CAP_LEFT, Tile.CAP_RIGHT):
        return PolyMatrix(n * n, 1, {
            (i * n + i, 0): turn_weight(tile, s)
            for i, s in enumerate(spins)
        })
    if tile in CROSSINGS:
        return crossing_matrix(tile, n)
    # alternating vertex: gamma * (antiparallel identity + turnback pair)
    entries: dict[tuple[int, int], LaurentPoly] = {}
    for i, a in enumerate(spins):
        for j, b in enumerate(spins):
            row = i * n + j
            entries[(row, row)] = ctx.gamma
            if a == b:
                for k, c in enumerate(spins):
                    col = k * n + k
                    add = ctx.gamma * LaurentPoly.half_power(a + c)
                    entries[(row, col)] = entries.get((row, col), ZERO) + add
    return PolyMatrix(n * n, n * n, entries)


def vert_alt_mutant(identity: bool = True,
                    turnback=lambda a, c: LaurentPoly.half_power(a + c)):
    """A stand-in for tile_rows whose vert_alt table is built here as
    gamma * (identity * d_ac d_bd + turnback(a, c) * d_ab d_cd); every other
    tile's table is spintensor.tile_rows'.  The defaults state the real vertex.
    """
    def rows(tile: Tile, n: int, gamma: LaurentPoly = ONE) -> dict:
        if tile is not Tile.VERT_ALT:
            return spintensor.tile_rows(tile, n, gamma)
        spins = spin_set(n)
        table = {}
        for a in spins:
            for b in spins:
                row = {(a, b): gamma} if identity else {}
                if a == b:
                    for c in spins:
                        row[(c, c)] = row.get((c, c), ZERO) + gamma * turnback(a, c)
                table[(a, b)] = tuple((outs, w) for outs, w in row.items() if w)
        return table

    return rows


def transfer_eval(d: Diagram, ctx: EvalContext) -> PolyMatrix:
    """Evaluate by composing per-slice transfer matrices from the bottom up.

    Structured nothing like the frontier sweep: each slice becomes the
    Kronecker product of its tile matrices and the product is associated
    bottom-to-top.
    """
    n = ctx.n
    result = PolyMatrix.identity(n ** d.bottom_width)
    for tiles in reversed(d.slices):
        slice_mat = PolyMatrix.identity(1)
        for t in tiles:
            slice_mat = kron(slice_mat, tile_matrix(t, ctx))
        result = mat_mul(slice_mat, result)
    return result


def random_word(rng: random.Random, strands: int, length: int,
                tau_allowed: bool = True) -> BraidWord:
    if strands < 2:
        return BraidWord(strands)
    kinds = [Tile.CROSS_POS, Tile.CROSS_NEG]
    if tau_allowed:
        kinds.append(Tile.CROSS_SING)
    letters = [(rng.choice(kinds), rng.randrange(1, strands)) for _ in range(length)]
    return BraidWord(strands, letters)


# Braid words whose closures form the oracle-agreement corpus.  Kept small
# enough for the edge cap of the enumeration oracle.
CORPUS_WORDS: list[tuple[str, int]] = [
    ("", 1),
    ("", 2),
    ("s1", 2),
    ("S1", 2),
    ("s1 S1", 2),
    ("s1 s1", 2),          # Hopf link
    ("S1 S1", 2),
    ("s1 s1 s1", 2),       # trefoil
    ("S1 S1 S1", 2),
    ("s1 s1 S1", 2),
    ("s1 s1 s1 s1", 2),
    ("t1", 2),
    ("t1 s1", 2),
    ("t1 S1", 2),
    ("t1 t1", 2),
    ("s1 t1 s1", 2),
    ("t1 s1 s1", 2),
    ("S1 t1 S1", 2),
    ("s1 s2", 3),
    ("s1 S2", 3),
    ("s1 s2 s1", 3),
    ("s1 S2 s1 S2", 3),    # figure-eight knot
    ("s1 s2 S1 S2", 3),
    ("t1 s2", 3),
    ("s1 t2", 3),
    ("t1 t2", 3),
    ("s1 t2 S1", 3),
    ("t2 s1 s1", 3),
    ("S2 t1 s2", 3),
    ("s1 s1 t2", 3),
]


def corpus_diagrams() -> list[tuple[str, Diagram]]:
    from slnpoly.diagram import connected_sum, disjoint_union, parse_braid_word

    out = [(f"closure({text or 'empty'},k={k})", close_braid(parse_braid_word(text, k)))
           for text, k in CORPUS_WORDS]
    circle = close_braid(BraidWord(1))
    trefoil = close_braid(parse_braid_word("s1 s1 s1", 2))
    out.append(("circle|circle", disjoint_union(circle, circle)))
    out.append(("circle|t1-closure",
                disjoint_union(circle, close_braid(parse_braid_word("t1", 2)))))
    out.append(("trefoil#circle", connected_sum(trefoil, circle)))
    return out
