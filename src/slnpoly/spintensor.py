"""Spin index sets and the elementary tensors of the state model.

Spins for a given n >= 2 form the equally spaced set
I_n = {1-n, 3-n, ..., n-3, n-1}.  Crossing tensors are n^2 x n^2 matrices
over LaurentPoly; the row index is the pair (a, b) of spins on the two top
legs and the column index the pair (c, d) on the bottom legs.  Pairs are
ordered lexicographically with spins ascending, which is the ordering that
reproduces the published small matrices entry for entry, and is fixed
project-wide: flat_index is the one flattening of a spin tuple to an index.

PolyMatrix is a sparse matrix of LaurentPoly entries.  mat_mul accumulates
each entry of a product in one coefficient dict, through
LaurentPoly.sum_of_products, with no polynomial built per term or partial sum.

Turn tiles (cups and caps) carry only a weight per spin, turn_weight; the
pairing delta and the wiring live in the diagram evaluator.

The diagram tiles are named here too, with the one table from crossing
kinds to crossing tiles and the one table of turn signs, so that every
module reads the same vocabulary.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Iterable, Mapping

from .laurent import ONE, Q, QINV, ZERO, LaurentPoly


class CrossingKind(Enum):
    POS = "pos"
    NEG = "neg"
    SING = "sing"


class Tile(Enum):
    """The pieces of a sliced diagram; `diagram` states their conventions."""

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
        return _WIDTHS[self][0]

    @property
    def width_out(self) -> int:
        return _WIDTHS[self][1]


_WIDTHS = {
    Tile.ID: (1, 1),
    Tile.CUP_RIGHT: (0, 2),
    Tile.CUP_LEFT: (0, 2),
    Tile.CAP_RIGHT: (2, 0),
    Tile.CAP_LEFT: (2, 0),
    Tile.CROSS_POS: (2, 2),
    Tile.CROSS_NEG: (2, 2),
    Tile.CROSS_SING: (2, 2),
    Tile.VERT_ALT: (2, 2),
}

CROSS_TILE = {
    CrossingKind.POS: Tile.CROSS_POS,
    CrossingKind.NEG: Tile.CROSS_NEG,
    CrossingKind.SING: Tile.CROSS_SING,
}
TILE_CROSSING = {tile: kind for kind, tile in CROSS_TILE.items()}


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

    def __hash__(self):
        raise TypeError("PolyMatrix is not hashable")

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        out = dict(self._entries)
        for k, p in other._entries.items():
            out[k] = out.get(k, ZERO) + p
        return PolyMatrix(self.rows, self.cols, out)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + other.scale(LaurentPoly.from_int(-1))

    def scale(self, factor: LaurentPoly | int) -> "PolyMatrix":
        if isinstance(factor, int):
            factor = LaurentPoly.from_int(factor)
        return PolyMatrix(self.rows, self.cols,
                          {k: p * factor for k, p in self._entries.items()})

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        return mat_mul(self, other)

    def is_zero(self) -> bool:
        return not self._entries

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


@lru_cache(maxsize=None)
def crossing_matrix(kind: CrossingKind, n: int) -> PolyMatrix:
    """The n^2 x n^2 crossing tensor for a positive, negative or singular crossing.

    Entries, with rows (a, b) on top and columns (c, d) on the bottom:

      positive:  q - q^-1  if c = a < b = d
                 q         if a = b = c = d
                 1         if d = a != b = c
      negative:  q^-1 - q  if c = a > b = d
                 q^-1      if a = b = c = d
                 1         if d = a != b = c
      singular:  q + q^-1  if a = b = c = d
                 q         if c = a < b = d
                 q^-1      if c = a > b = d
                 1         if d = a != b = c

    and zero everywhere else.
    """
    spins = spin_set(n)
    qmqi = Q - QINV
    entries: dict[tuple[int, int], LaurentPoly] = {}

    def put(a: int, b: int, c: int, d: int, value: LaurentPoly) -> None:
        entries[(flat_index((a, b), n), flat_index((c, d), n))] = value

    for a in spins:
        for b in spins:
            if a == b:
                diag = {CrossingKind.POS: Q, CrossingKind.NEG: QINV,
                        CrossingKind.SING: Q + QINV}[kind]
                put(a, a, a, a, diag)
                continue
            put(a, b, b, a, ONE)  # the flat term d = a != b = c
            if a < b:
                if kind is CrossingKind.POS:
                    put(a, b, a, b, qmqi)
                elif kind is CrossingKind.SING:
                    put(a, b, a, b, Q)
            else:
                if kind is CrossingKind.NEG:
                    put(a, b, a, b, QINV - Q)
                elif kind is CrossingKind.SING:
                    put(a, b, a, b, QINV)
    return PolyMatrix(n * n, n * n, entries)


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

