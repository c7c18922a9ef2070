"""Acceptance suite: one test per criterion, exact equality throughout.

Run with `pytest -s tests/test_acceptance.py` to see one line per criterion.
"""

import random

from conftest import corpus_diagrams, random_word, CORPUS_WORDS
from test_spintensor import GOLDEN

from slnpoly.braidrep import check_monoid_relations, rho
from slnpoly.diagram import (
    BraidWord,
    Diagram,
    Orient,
    Tile,
    braid_to_diagram,
    close_braid,
    connected_sum,
    disjoint_union,
    mirror,
    parse_braid_word,
)
from slnpoly.evaluator import (
    EvalContext,
    evaluate_closed,
    evaluate_tangle,
    oracle_edge_enumeration,
    oracle_rotation_states,
)
from slnpoly.identities import (
    all_passed,
    channel_unitarity_holds,
    check_curl_vertex,
    check_gamma_extension,
    check_moy,
    check_singular_relations,
    check_unitarity,
    check_ybe,
    ybe_holds,
)
from slnpoly.laurent import LaurentPoly, ONE, Q, QINV, parse_poly, quantum_int
from slnpoly.spintensor import PolyMatrix, crossing_matrix

D, U = Orient.DOWN, Orient.UP

TREFOIL_N2 = parse_poly("-q^-3 + q + q^3 + q^5")


def _report(criterion: int, ok: bool, text: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {criterion}: {text}"


def test_criterion_1_golden_matrices():
    ok = all(crossing_matrix(kind, n) == mat for (kind, n), mat in GOLDEN.items())
    _report(1, ok, "crossing matrices match the six published matrices entry for entry")


def test_criterion_2_loop_value():
    ok = True
    for n in range(2, 7):
        ctx = EvalContext(n)
        ccw = Diagram([[Tile.CUP_RIGHT], [Tile.CAP_LEFT]])
        cw = Diagram([[Tile.CUP_LEFT], [Tile.CAP_RIGHT]])
        ok &= evaluate_closed(ccw, ctx) == quantum_int(n)
        ok &= evaluate_closed(cw, ctx) == quantum_int(n)
    _report(2, ok, "circle evaluates to [n] in both orientations for n in 2..6")


def test_criterion_3_algebraic_suite():
    ok = True
    for n in range(2, 6):
        ok &= all_passed(check_ybe(n))
        ok &= all_passed(check_unitarity(n))
        ok &= all_passed(check_singular_relations(n))
        ok &= all_passed(check_curl_vertex(n))
    # negative controls: single-entry perturbations must fail
    r = crossing_matrix(Tile.CROSS_POS, 2)
    rbar = crossing_matrix(Tile.CROSS_NEG, 2)
    bad_r = PolyMatrix(4, 4, {**dict(r.items()), (1, 1): ONE})
    bad_rbar = PolyMatrix(4, 4, {**dict(rbar.items()), (0, 0): Q})
    ok &= not ybe_holds(bad_r, 2)
    ok &= not channel_unitarity_holds(r, bad_rbar)
    _report(3, ok, "YBE, unitarity, singular and curl suites pass for n in 2..5; "
                   "perturbed inputs fail")


def test_criterion_4_kink_relations():
    ok = True
    for n in (2, 3, 4):
        ctx = EvalContext(n)
        eye = PolyMatrix.identity(n)
        pos = Diagram([[Tile.ID, Tile.CUP_RIGHT], [Tile.CROSS_POS, Tile.ID],
                       [Tile.ID, Tile.CAP_LEFT]], (D,))
        neg = Diagram([[Tile.ID, Tile.CUP_RIGHT], [Tile.CROSS_NEG, Tile.ID],
                       [Tile.ID, Tile.CAP_LEFT]], (D,))
        ok &= evaluate_tangle(pos, ctx) == eye.scale(LaurentPoly.q_power(n))
        ok &= evaluate_tangle(neg, ctx) == eye.scale(LaurentPoly.q_power(-n))
    _report(4, ok, "positive/negative kinks evaluate to q^(+-n) times the arc for n in 2..4")


def test_criterion_5_representation():
    ok = True
    for n in (2, 3):
        for k in (2, 3, 4):
            ok &= all(c.passed for c in check_monoid_relations(n, k))
    rng = random.Random(2024)
    count = 0
    while count < 50:
        k = rng.choice((2, 3))
        n = rng.choice((2, 3))
        w = random_word(rng, k, rng.randrange(0, 6))
        ok &= evaluate_tangle(braid_to_diagram(w), EvalContext(n)) == rho(w, n).matrix
        count += 1
    _report(5, ok, "monoid relations hold for (n,k) in {2,3}x{2,3,4}; "
                   "rho matches tangle evaluation on 50 random words")


def test_criterion_6_oracle_equivalence():
    corpus = corpus_diagrams()
    assert len(corpus) >= 30
    ok = True
    for n in (2, 3):
        ctx = EvalContext(n)
        for name, d in corpus:
            v = evaluate_closed(d, ctx)
            ok &= oracle_edge_enumeration(d, ctx) == v
            ok &= oracle_rotation_states(d, ctx) == v
    trefoil = close_braid(parse_braid_word("s1 s1 s1", 2))
    ok &= evaluate_closed(trefoil, EvalContext(2)) == TREFOIL_N2
    _report(6, ok, f"contraction and both oracles agree on {len(corpus)} closed "
                   f"diagrams for n in {{2,3}}")


def test_criterion_7_structural_laws():
    ok = True
    for n in (2, 3):
        ctx = EvalContext(n)
        qn = quantum_int(n)
        rng = random.Random(100 + n)
        for _ in range(20):
            k = rng.choice((2, 3))
            d = close_braid(random_word(rng, k, rng.randrange(0, 5)))
            ok &= evaluate_closed(mirror(d), ctx) == evaluate_closed(d, ctx).invert_q()
        for _ in range(20):
            a = close_braid(random_word(rng, 2, rng.randrange(0, 4)))
            b = close_braid(random_word(rng, rng.choice((1, 2)), rng.randrange(0, 3)))
            va, vb = evaluate_closed(a, ctx), evaluate_closed(b, ctx)
            ok &= evaluate_closed(disjoint_union(a, b), ctx) == va * vb
        for _ in range(20):
            a = close_braid(random_word(rng, 2, rng.randrange(0, 4)))
            b = close_braid(random_word(rng, rng.choice((1, 2)), rng.randrange(0, 3)))
            va, vb = evaluate_closed(a, ctx), evaluate_closed(b, ctx)
            ok &= qn * evaluate_closed(connected_sum(a, b), ctx) == va * vb
        for _ in range(20):
            k = rng.choice((2, 3))
            u = random_word(rng, k, rng.randrange(1, 4))
            v = random_word(rng, k, rng.randrange(1, 4))
            uv = BraidWord(k, u.letters + v.letters)
            vu = BraidWord(k, v.letters + u.letters)
            ok &= evaluate_closed(close_braid(uv), ctx) == evaluate_closed(close_braid(vu), ctx)
    _report(7, ok, "mirror, disjoint-union, connected-sum and conjugation laws "
                   "hold on 20 randomized instances each for n in {2,3}")


def test_criterion_8_moy_suite():
    ok = all(all_passed(check_moy(n)) for n in range(2, 6))
    _report(8, ok, "all five graph skein relations hold as exact tensor "
                   "identities for n in 2..5")


def test_criterion_9_gamma_extension():
    ok = True
    for n in (2, 3):
        for gamma in (ONE, Q, Q + QINV):
            ok &= all_passed(check_gamma_extension(n, gamma))
    _report(9, ok, "alternating-vertex R4/R5 hold for gamma in {1, q, q+q^-1}; "
                   "curl defects vanish at q=1 and are nonzero symbolically")


def test_criterion_10_integer_powers():
    ok = True
    for n in (2, 3):
        ctx = EvalContext(n)
        for name, d in corpus_diagrams():
            ok &= evaluate_closed(d, ctx).has_only_integer_powers()
    _report(10, ok, "every closed evaluation in the corpus has integer powers of q only")
