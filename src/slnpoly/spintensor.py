"""Spin index sets, the diagram tiles and the elementary tensors of the state model.

Spins for a given n >= 2 form the equally spaced set
I_n = {1-n, 3-n, ..., n-3, n-1}.  A spin tuple is flattened to a row or
column index by flat_index, leftmost strand most significant with spins
ascending; this is the ordering that reproduces the published small
matrices entry for entry, and is fixed project-wide.

The diagram vocabulary lives here so that every module reads the same
tables: the strand orientations Orient, the tiles Tile, their kinds CUPS,
CAPS and CROSSINGS, and SIGNATURE, the orientations each non-id tile needs
on its in-legs and makes on its out-legs; the widths of a tile are read off
its signature.  The crossing tiles CROSS_POS, CROSS_NEG and CROSS_SING are
the one name of the crossing tensors R, Rbar and Q: braid letters,
tile_rows and crossing_matrix all take the tile.

Every non-id tile's entries are stated once, by spins, in tile_rows: the
in-spins map to the nonzero (out-spins, weight) entries.  A cup or cap
carries its turn weight q^(+-a/2), turn_weight, on a pair of equal spins; a
crossing carries R, Rbar or Q; the rigid vertex carries gamma times the sum
of its two resolutions.  crossing_matrix is a crossing's table as an
n^2 x n^2 PolyMatrix, flattened by flat_index.

PolyMatrix is a sparse matrix of LaurentPoly entries.  mat_mul accumulates
each entry of a product in one coefficient dict, through
LaurentPoly.sum_of_products, with no polynomial built per term or partial sum.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping

from .laurent import ONE, Q, QINV, ZERO, LaurentPoly


class Orient(Enum):
    """The orientation of a strand crossing a level: with the sweep or against it."""

    DOWN = "down"
    UP = "up"


class Tile(Enum):
    """The pieces of a sliced diagram; SIGNATURE states their orientations."""

    ID = "id"
    CUP_RIGHT = "cup_right"
    CUP_LEFT = "cup_left"
    CAP_RIGHT = "cap_right"
    CAP_LEFT = "cap_left"
    CROSS_POS = "cross_pos"
    CROSS_NEG = "cross_neg"
    CROSS_SING = "cross_sing"
    VERT_ALT = "vert_alt"

    @property
    def width_in(self) -> int:
        return _WIDTH_IN[self]

    @property
    def width_out(self) -> int:
        return _WIDTH_OUT[self]


_D, _U = Orient.DOWN, Orient.UP

# Each non-id tile's (in-orientations it needs, out-orientations it makes),
# left to right.  id passes one strand of either orientation through.
SIGNATURE = {
    Tile.CUP_RIGHT: ((), (_D, _U)),
    Tile.CUP_LEFT: ((), (_U, _D)),
    Tile.CAP_LEFT: ((_D, _U), ()),
    Tile.CAP_RIGHT: ((_U, _D), ()),
    Tile.CROSS_POS: ((_D, _D), (_D, _D)),
    Tile.CROSS_NEG: ((_D, _D), (_D, _D)),
    Tile.CROSS_SING: ((_D, _D), (_D, _D)),
    Tile.VERT_ALT: ((_D, _U), (_D, _U)),
}
_WIDTH_IN = {Tile.ID: 1, **{t: len(ins) for t, (ins, _) in SIGNATURE.items()}}
_WIDTH_OUT = {Tile.ID: 1, **{t: len(outs) for t, (_, outs) in SIGNATURE.items()}}

CUPS = (Tile.CUP_RIGHT, Tile.CUP_LEFT)
CAPS = (Tile.CAP_RIGHT, Tile.CAP_LEFT)
CROSSINGS = (Tile.CROSS_POS, Tile.CROSS_NEG, Tile.CROSS_SING)


def spin_set(n: int) -> tuple[int, ...]:
    """The ascending spin set I_n = (1-n, 3-n, ..., n-1)."""
    if n < 2:
        raise ValueError(f"spin sets need n >= 2, got {n}")
    return tuple(range(1 - n, n, 2))


def flat_index(spins: Iterable[int], n: int) -> int:
    """Flatten a spin tuple to a row/column index, leftmost strand most significant."""
    idx = 0
    for s in spins:
        idx = idx * n + (s + n - 1) // 2
    return idx


class PolyMatrix:
    """A sparse matrix over LaurentPoly keyed by (row, col)."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int,
                 entries: Mapping[tuple[int, int], LaurentPoly] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        clean: dict[tuple[int, int], LaurentPoly] = {}
        if entries:
            for (r, c), p in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise IndexError(f"entry ({r}, {c}) outside {rows}x{cols}")
                if not isinstance(p, LaurentPoly):
                    raise TypeError(f"entry ({r}, {c}) is not a LaurentPoly: {p!r}")
                if p:
                    clean[(r, c)] = p
        self._entries = clean

    @classmethod
    def identity(cls, size: int) -> "PolyMatrix":
        return cls(size, size, {(i, i): ONE for i in range(size)})

    def __getitem__(self, key: tuple[int, int]) -> LaurentPoly:
        r, c = key
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"index ({r}, {c}) outside {self.rows}x{self.cols}")
        return self._entries.get((r, c), ZERO)

    def items(self) -> Iterable[tuple[tuple[int, int], LaurentPoly]]:
        return self._entries.items()

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) \
            and self._entries == other._entries

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        out = dict(self._entries)
        for k, p in other._entries.items():
            out[k] = out.get(k, ZERO) + p
        return PolyMatrix(self.rows, self.cols, out)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + other.scale(-1)

    def scale(self, factor: LaurentPoly | int) -> "PolyMatrix":
        return PolyMatrix(self.rows, self.cols,
                          {k: p * factor for k, p in self._entries.items()})

    def __str__(self) -> str:
        lines = []
        for r in range(self.rows):
            row = ", ".join(str(self[r, c]) for c in range(self.cols))
            lines.append(f"[{row}]")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols}, {len(self._entries)} nonzero)"


def mat_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Sparse matrix product over LaurentPoly.

    Each entry's (a[r, k], b[k, c]) pairs are collected first, and the entry
    is accumulated in one coefficient dict by LaurentPoly.sum_of_products;
    entries that cancel to zero are dropped.
    """
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    cols_of: dict[int, list[tuple[int, LaurentPoly]]] = {}
    for (r, c), p in b.items():
        cols_of.setdefault(r, []).append((c, p))
    terms: dict[tuple[int, int], list[tuple[LaurentPoly, LaurentPoly]]] = {}
    for (r, k), p in a.items():
        for c, p2 in cols_of.get(k, ()):
            terms.setdefault((r, c), []).append((p, p2))
    return PolyMatrix(a.rows, b.cols, {key: LaurentPoly.sum_of_products(pairs)
                                       for key, pairs in terms.items()})


def kron(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Kronecker product: the block matrix [a_ij * b]."""
    out: dict[tuple[int, int], LaurentPoly] = {}
    for (ra, ca), pa in a.items():
        for (rb, cb), pb in b.items():
            out[(ra * b.rows + rb, ca * b.cols + cb)] = pa * pb
    return PolyMatrix(a.rows * b.rows, a.cols * b.cols, out)


# Sign of the half exponent in the diagonal turn weight q^(+-a/2).
_TURN_SIGN = {
    Tile.CUP_RIGHT: 1,
    Tile.CUP_LEFT: -1,
    Tile.CAP_LEFT: 1,
    Tile.CAP_RIGHT: -1,
}


def turn_weight(tile: Tile, spin: int) -> LaurentPoly:
    """The weight q^(+-spin/2) carried by one cup or cap tile at a given spin."""
    return LaurentPoly.half_power(_TURN_SIGN[tile] * spin)


# The weight of a crossing's parallel entry (c, d) = (a, b), by how the top
# spins compare: (a = b, a < b, a > b).  The flat entry d = a != b = c is 1
# for every crossing.
_PARALLEL_WEIGHT = {
    Tile.CROSS_POS: (Q, Q - QINV, ZERO),
    Tile.CROSS_NEG: (QINV, ZERO, QINV - Q),
    Tile.CROSS_SING: (Q + QINV, Q, QINV),
}


def tile_rows(tile: Tile, n: int, gamma: LaurentPoly = ONE) -> dict:
    """A fresh table of a non-id tile's nonzero entries: in-spins -> ((out-spins, weight), ...).

    The in-legs carry (a, b) and the out-legs (c, d), or none for a cup's
    in-legs and a cap's out-legs:

      cup:        turn_weight(cup, c)  if c = d
      cap:        turn_weight(cap, a)  if a = b
      positive:   q - q^-1  if c = a < b = d
                  q         if a = b = c = d
                  1         if d = a != b = c
      negative:   q^-1 - q  if c = a > b = d
                  q^-1      if a = b = c = d
                  1         if d = a != b = c
      singular:   q + q^-1  if a = b = c = d
                  q         if c = a < b = d
                  q^-1      if c = a > b = d
                  1         if d = a != b = c
      vert_alt:   gamma * (d_ac d_bd + q^(a/2) q^(c/2) d_ab d_cd)

    and zero everywhere else.  The rigid vertex is gamma times the sum of its
    two resolutions: the oriented smoothing, and the turnback, a cap_left
    over a cup_right.  An id tile has no table: it is a ValueError.
    """
    spins = spin_set(n)
    if tile in CUPS:
        return {(): tuple(((c, c), turn_weight(tile, c)) for c in spins)}
    if tile in CAPS:
        return {(a, a): (((), turn_weight(tile, a)),) for a in spins}
    rows = {}
    if tile is Tile.VERT_ALT:
        cap = {a: turn_weight(Tile.CAP_LEFT, a) for a in spins}
        cup = {c: turn_weight(Tile.CUP_RIGHT, c) for c in spins}
        for a in spins:
            for b in spins:
                rows[(a, b)] = (((a, b), gamma),)
            # a = b: the turnback to every (c, c), plus the smoothing at c = a
            turns = [cap[a] * cup[c] for c in spins]
            rows[(a, a)] = tuple(((c, c), gamma * (turn + ONE if c == a else turn))
                                 for c, turn in zip(spins, turns))
        return rows
    if tile not in CROSSINGS:
        raise ValueError(f"{tile!r} has no table: an id tile passes its strand through")
    eq, lt, gt = _PARALLEL_WEIGHT[tile]
    for a in spins:
        for b in spins:
            if a == b:
                rows[(a, a)] = (((a, a), eq),)
                continue
            parallel = lt if a < b else gt
            flat = ((b, a), ONE)
            rows[(a, b)] = (flat, ((a, b), parallel)) if parallel else (flat,)
    return rows


def crossing_matrix(tile: Tile, n: int) -> PolyMatrix:
    """A crossing's n^2 x n^2 tensor, from tile_rows: rows (a, b), columns (c, d).

    A tile that is not a crossing is a ValueError.
    """
    if tile not in CROSSINGS:
        raise ValueError(f"{tile!r} is not a crossing tile")
    return PolyMatrix(n * n, n * n, {
        (flat_index(ins, n), flat_index(outs, n)): w
        for ins, row in tile_rows(tile, n).items() for outs, w in row
    })
