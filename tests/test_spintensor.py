import itertools

import pytest
from hypothesis import given, settings, strategies as st

from test_laurent import polys
from slnpoly.diagram import CROSSINGS, Tile
from slnpoly.identities import check_unitarity
from slnpoly.laurent import ONE, Q, QINV, ZERO, LaurentPoly, parse_poly
from slnpoly.spintensor import (
    PolyMatrix,
    crossing_matrix,
    crossing_rows,
    kron,
    mat_mul,
    spin_set,
    turn_weight,
)


def mat_from_rows(rows):
    entries = {}
    for r, row in enumerate(rows):
        for c, text in enumerate(row):
            p = parse_poly(text) if text != "0" else ZERO
            if p:
                entries[(r, c)] = p
    size = len(rows)
    return PolyMatrix(size, size, entries)


# The six published small crossing matrices, entry for entry.
R2 = mat_from_rows([
    ["q", "0", "0", "0"],
    ["0", "q - q^-1", "1", "0"],
    ["0", "1", "0", "0"],
    ["0", "0", "0", "q"],
])

RBAR2 = mat_from_rows([
    ["q^-1", "0", "0", "0"],
    ["0", "0", "1", "0"],
    ["0", "1", "q^-1 - q", "0"],
    ["0", "0", "0", "q^-1"],
])

Q2 = mat_from_rows([
    ["q + q^-1", "0", "0", "0"],
    ["0", "q", "1", "0"],
    ["0", "1", "q^-1", "0"],
    ["0", "0", "0", "q + q^-1"],
])

R3 = mat_from_rows([
    ["q", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "q - q^-1", "0", "1", "0", "0", "0", "0", "0"],
    ["0", "0", "q - q^-1", "0", "0", "0", "1", "0", "0"],
    ["0", "1", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "q", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "q - q^-1", "0", "1", "0"],
    ["0", "0", "1", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "1", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "q"],
])

RBAR3 = mat_from_rows([
    ["q^-1", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "1", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "1", "0", "0"],
    ["0", "1", "0", "q^-1 - q", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "q^-1", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "1", "0"],
    ["0", "0", "1", "0", "0", "0", "q^-1 - q", "0", "0"],
    ["0", "0", "0", "0", "0", "1", "0", "q^-1 - q", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "q^-1"],
])

Q3 = mat_from_rows([
    ["q + q^-1", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "q", "0", "1", "0", "0", "0", "0", "0"],
    ["0", "0", "q", "0", "0", "0", "1", "0", "0"],
    ["0", "1", "0", "q^-1", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "q + q^-1", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "q", "0", "1", "0"],
    ["0", "0", "1", "0", "0", "0", "q^-1", "0", "0"],
    ["0", "0", "0", "0", "0", "1", "0", "q^-1", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "q + q^-1"],
])

GOLDEN = {
    (Tile.CROSS_POS, 2): R2,
    (Tile.CROSS_NEG, 2): RBAR2,
    (Tile.CROSS_SING, 2): Q2,
    (Tile.CROSS_POS, 3): R3,
    (Tile.CROSS_NEG, 3): RBAR3,
    (Tile.CROSS_SING, 3): Q3,
}


def test_spin_set():
    assert spin_set(2) == (-1, 1)
    assert spin_set(3) == (-2, 0, 2)
    assert spin_set(4) == (-3, -1, 1, 3)
    with pytest.raises(ValueError):
        spin_set(1)


def test_spin_set_structure():
    for n in range(2, 8):
        s = spin_set(n)
        assert len(s) == n
        assert all(b - a == 2 for a, b in zip(s, s[1:]))
        assert s == tuple(-x for x in reversed(s))


@pytest.mark.parametrize("kind,n", sorted(GOLDEN, key=str))
def test_golden_matrices(kind, n):
    assert crossing_matrix(kind, n) == GOLDEN[(kind, n)]


@pytest.mark.parametrize("kind", CROSSINGS)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_crossing_matrix_is_the_case_table(kind, n):
    # The docstring's case table, entry by entry, over every (a, b, c, d).
    spins = spin_set(n)
    index = {s: i for i, s in enumerate(spins)}
    entries = {}
    for a, b, c, d in itertools.product(spins, repeat=4):
        if a == b == c == d:
            value = {Tile.CROSS_POS: Q, Tile.CROSS_NEG: QINV,
                     Tile.CROSS_SING: Q + QINV}[kind]
        elif d == a != b == c:
            value = ONE
        elif c == a < b == d:
            value = {Tile.CROSS_POS: Q - QINV, Tile.CROSS_NEG: ZERO,
                     Tile.CROSS_SING: Q}[kind]
        elif c == a > b == d:
            value = {Tile.CROSS_POS: ZERO, Tile.CROSS_NEG: QINV - Q,
                     Tile.CROSS_SING: QINV}[kind]
        else:
            continue
        if value:
            entries[(index[a] * n + index[b], index[c] * n + index[d])] = value
    assert crossing_matrix(kind, n) == PolyMatrix(n * n, n * n, entries)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_conservation_law(n):
    spins = spin_set(n)
    for kind in CROSSINGS:
        for (r, c), _ in crossing_matrix(kind, n).items():
            a, b = spins[r // n], spins[r % n]
            cc, d = spins[c // n], spins[c % n]
            assert a + b == cc + d


def test_turn_weights():
    # over spins (-1, 1): cup_right is (q^-1/2, q^1/2), cup_left the inverse
    assert turn_weight(Tile.CUP_RIGHT, -1) == parse_poly("q^(-1/2)")
    assert turn_weight(Tile.CUP_RIGHT, 1) == parse_poly("q^(1/2)")
    assert turn_weight(Tile.CUP_LEFT, -1) == parse_poly("q^(1/2)")
    assert turn_weight(Tile.CUP_LEFT, 1) == parse_poly("q^(-1/2)")
    assert turn_weight(Tile.CAP_LEFT, 1) == parse_poly("q^(1/2)")
    assert turn_weight(Tile.CAP_RIGHT, 1) == parse_poly("q^(-1/2)")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_loop_weight_sums_to_quantum_n(n):
    from slnpoly.laurent import quantum_int

    ccw = ZERO
    cw = ZERO
    for s in spin_set(n):
        ccw = ccw + turn_weight(Tile.CUP_RIGHT, s) * turn_weight(Tile.CAP_LEFT, s)
        cw = cw + turn_weight(Tile.CUP_LEFT, s) * turn_weight(Tile.CAP_RIGHT, s)
    assert ccw == quantum_int(n)
    assert cw == quantum_int(n)


def test_kron():
    eye2 = PolyMatrix.identity(2)
    assert kron(R2, PolyMatrix.identity(1)) == R2
    assert kron(eye2, eye2) == PolyMatrix.identity(4)
    lifted = kron(R2, eye2)
    assert lifted.rows == lifted.cols == 8
    assert lifted[0, 0] == Q


def test_mat_mul():
    assert mat_mul(R2, RBAR2) == PolyMatrix.identity(4)
    assert mat_mul(PolyMatrix.identity(4), Q2) == Q2
    assert mat_mul(R2, Q2) == Q2.scale(Q)
    with pytest.raises(ValueError):
        mat_mul(R2, PolyMatrix.identity(3))


@st.composite
def sparse_matrices(draw, rows, cols):
    keys = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    return PolyMatrix(rows, cols, draw(st.dictionaries(keys, polys, max_size=rows * cols)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_mat_mul_matches_dense_triple_loop(data):
    rows, inner, cols = (data.draw(st.integers(1, 5)) for _ in range(3))
    a = data.draw(sparse_matrices(rows, inner))
    b = data.draw(sparse_matrices(inner, cols))
    dense = {}
    for r in range(rows):
        for c in range(cols):
            acc = ZERO
            for k in range(inner):
                acc = acc + a[r, k] * b[k, c]
            dense[(r, c)] = acc
    product = mat_mul(a, b)
    assert (product.rows, product.cols) == (rows, cols)
    assert all(product[key] == p for key, p in dense.items())
    assert dict(product.items()) == {key: p for key, p in dense.items() if p}


def test_mat_mul_drops_an_entry_that_cancels():
    p = Q + LaurentPoly.half_power(-3, 4)
    row = PolyMatrix(1, 2, {(0, 0): p, (0, 1): p})
    col = PolyMatrix(2, 1, {(0, 0): ONE, (1, 0): -ONE})
    product = mat_mul(row, col)
    assert len(product) == 0
    assert dict(product.items()) == {}
    assert product[0, 0] == ZERO


def test_matrix_add_scale():
    eye = PolyMatrix.identity(4)
    assert Q2 - R2 == eye.scale(QINV)
    assert Q2 - RBAR2 == eye.scale(Q)
    assert (R2 + RBAR2).rows == 4


def test_matrix_index_errors():
    with pytest.raises(IndexError):
        R2[4, 0]
    with pytest.raises(IndexError):
        PolyMatrix(2, 2, {(2, 0): ONE})
    with pytest.raises(TypeError):
        hash(R2)


def test_matrix_rejects_negative_dimensions_and_mismatched_sums():
    for rows, cols in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            PolyMatrix(rows, cols)
    with pytest.raises(ValueError, match="shape mismatch 2x2 vs 2x3"):
        PolyMatrix.identity(2) + PolyMatrix(2, 3)


def test_matrix_rejects_entries_that_are_not_polynomials():
    with pytest.raises(TypeError, match=r"entry \(0, 1\) is not a LaurentPoly: 1$"):
        PolyMatrix(2, 2, {(0, 0): ONE, (0, 1): 1})
    with pytest.raises(TypeError, match=r"entry \(1, 1\) is not a LaurentPoly: 'q'"):
        PolyMatrix(2, 2, {(1, 1): "q"})


def test_builders_reject_small_n():
    with pytest.raises(ValueError):
        crossing_matrix(Tile.CROSS_POS, 1)


@pytest.mark.parametrize("tile", [t for t in Tile if t not in CROSSINGS])
def test_builders_reject_tiles_that_are_not_crossings(tile):
    for build in (crossing_rows, crossing_matrix):
        with pytest.raises(ValueError, match=f"{tile!r} is not a crossing tile"):
            build(tile, 2)


def test_a_write_into_a_returned_table_reaches_no_later_reader():
    before = crossing_matrix(Tile.CROSS_NEG, 2)
    crossing_rows(Tile.CROSS_NEG, 2)[(-1, -1)] = (((-1, -1), Q),)
    assert crossing_rows(Tile.CROSS_NEG, 2)[(-1, -1)] == (((-1, -1), QINV),)
    assert crossing_matrix(Tile.CROSS_NEG, 2) == before == RBAR2
    assert all(r.passed for r in check_unitarity(2))
