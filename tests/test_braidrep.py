import random

import pytest

from conftest import random_word
from slnpoly.braidrep import MAX_REP_SIZE, check_monoid_relations, rho
from slnpoly.diagram import BraidWord, braid_to_diagram, parse_braid_word
from slnpoly.evaluator import EvalContext, evaluate_tangle
from slnpoly.laurent import Q
from slnpoly.spintensor import PolyMatrix, Tile, crossing_matrix, kron, mat_mul


def test_rho_generators():
    r2 = crossing_matrix(Tile.CROSS_POS, 2)
    assert rho(parse_braid_word("s1", 2), 2).matrix == r2
    image = rho(parse_braid_word("s1", 3), 2).matrix
    assert image == kron(r2, PolyMatrix.identity(2))
    image = rho(parse_braid_word("t2", 3), 2).matrix
    assert image == kron(PolyMatrix.identity(2), crossing_matrix(Tile.CROSS_SING, 2))


def test_rho_empty_word_is_identity():
    assert rho(BraidWord(3), 2).matrix == PolyMatrix.identity(8)


def test_rho_inverse_pair():
    assert rho(parse_braid_word("s1 S1", 2), 2).matrix == PolyMatrix.identity(4)
    assert rho(parse_braid_word("S2 s2", 3), 3).matrix == PolyMatrix.identity(27)


def test_rho_r5_scalar():
    q2 = crossing_matrix(Tile.CROSS_SING, 2)
    assert rho(parse_braid_word("t1 s1", 2), 2).matrix == q2.scale(Q)


def test_rho_multiplicative():
    rng = random.Random(3)
    for _ in range(6):
        k = rng.choice((2, 3))
        u = random_word(rng, k, rng.randrange(0, 4))
        v = random_word(rng, k, rng.randrange(0, 4))
        uv = BraidWord(k, u.letters + v.letters)
        n = rng.choice((2, 3))
        assert rho(uv, n).matrix == mat_mul(rho(u, n).matrix, rho(v, n).matrix)


def test_rho_invertible_without_tau():
    rng = random.Random(5)
    flip = {Tile.CROSS_POS: Tile.CROSS_NEG, Tile.CROSS_NEG: Tile.CROSS_POS}
    for _ in range(5):
        k = rng.choice((2, 3))
        w = random_word(rng, k, rng.randrange(1, 5), tau_allowed=False)
        inv = BraidWord(k, tuple((flip[kind], i) for kind, i in reversed(w.letters)))
        n = 2
        assert mat_mul(rho(w, n).matrix, rho(inv, n).matrix) == PolyMatrix.identity(n ** k)


@pytest.mark.parametrize("n,k", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
def test_monoid_relations(n, k):
    checks = check_monoid_relations(n, k)
    assert checks
    failed = [c for c in checks if not c.passed]
    assert not failed, failed


def test_monoid_relation_names():
    names = {c.name.split(":")[0] for c in check_monoid_relations(2, 4)}
    assert names == {"monoid-distant-commutation", "monoid-R2", "monoid-R3",
                     "monoid-R4", "monoid-R5"}


def test_corrupted_generator_fails_r5():
    # altering one off-diagonal entry of Q breaks commutation with R
    n = 2
    q_mat = crossing_matrix(Tile.CROSS_SING, n)
    r_mat = crossing_matrix(Tile.CROSS_POS, n)
    entries = dict(q_mat.items())
    entries[(1, 2)] = Q + Q  # was 1
    corrupt = PolyMatrix(4, 4, entries)
    assert mat_mul(r_mat, q_mat) == mat_mul(q_mat, r_mat)
    assert mat_mul(r_mat, corrupt) != mat_mul(corrupt, r_mat)
    assert mat_mul(r_mat, corrupt) != corrupt.scale(Q)


def test_rho_agrees_with_tangle_evaluation():
    rng = random.Random(23)
    for _ in range(10):
        k = rng.choice((2, 3))
        n = rng.choice((2, 3))
        w = random_word(rng, k, rng.randrange(0, 5))
        d = braid_to_diagram(w)
        assert evaluate_tangle(d, EvalContext(n)) == rho(w, n).matrix


def test_rejects_bad_args():
    with pytest.raises(ValueError):
        rho(BraidWord(2), 1)
    with pytest.raises(ValueError):
        check_monoid_relations(1, 2)
    with pytest.raises(ValueError):
        check_monoid_relations(2, 1)


def test_rho_budget_refuses_before_allocating():
    # 10^9 rows would exhaust memory; the budget names n, k and the limit
    with pytest.raises(ValueError, match=f"n=10 on k=9 .*{MAX_REP_SIZE}"):
        rho(parse_braid_word("s1", 9), 10)
    with pytest.raises(ValueError, match=f"n=10 on k=9 .*{MAX_REP_SIZE}"):
        check_monoid_relations(10, 9)
    assert 4 ** 6 == MAX_REP_SIZE
    assert rho(BraidWord(6), 4).matrix == PolyMatrix.identity(MAX_REP_SIZE)
