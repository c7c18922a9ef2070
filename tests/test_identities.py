import inspect
import itertools

import pytest

from slnpoly import braidrep, identities, spintensor
from slnpoly.identities import (
    SUITES,
    all_passed,
    channel_unitarity_holds,
    check_curl_vertex,
    check_gamma_extension,
    check_moy,
    check_singular_relations,
    check_unitarity,
    check_ybe,
    cross_channel_unitarity_holds,
    curled_vertex,
    reflect_diagram,
    sideways_gadget,
    ybe_holds,
)
from slnpoly.diagram import Diagram, Orient, Tile
from slnpoly.evaluator import EvalContext, evaluate_tangle
from slnpoly.laurent import ONE, Q, QINV, ZERO, LaurentPoly
from slnpoly.spintensor import (
    PolyMatrix,
    crossing_matrix,
    crossing_rows,
    flat_index,
    spin_set,
)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_suites_pass(n):
    assert all_passed(check_ybe(n))
    assert all_passed(check_unitarity(n))
    assert all_passed(check_singular_relations(n))
    assert all_passed(check_curl_vertex(n))
    assert all_passed(check_moy(n))


@pytest.mark.parametrize("gamma", [ONE, Q, Q + QINV])
def test_gamma_extension(gamma):
    for n in (2, 3):
        assert all_passed(check_gamma_extension(n, gamma))


def _perturb(mat: PolyMatrix, key, value) -> PolyMatrix:
    entries = dict(mat.items())
    entries[key] = value
    return PolyMatrix(mat.rows, mat.cols, entries)


def test_ybe_negative_control():
    # replacing the q - q^-1 weight by 1 breaks the Yang-Baxter equation
    r = crossing_matrix(Tile.CROSS_POS, 2)
    bad = _perturb(r, (1, 1), ONE)
    assert ybe_holds(r, 2)
    assert not ybe_holds(bad, 2)


def test_unitarity_negative_control():
    r = crossing_matrix(Tile.CROSS_POS, 2)
    rbar = crossing_matrix(Tile.CROSS_NEG, 2)
    bad = _perturb(rbar, (0, 0), Q)
    assert channel_unitarity_holds(r, rbar)
    assert not channel_unitarity_holds(r, bad)
    r_rows = crossing_rows(Tile.CROSS_POS, 2)
    rbar_rows = crossing_rows(Tile.CROSS_NEG, 2)
    bad_rows = {**rbar_rows, (-1, -1): (((-1, -1), Q),)}
    assert cross_channel_unitarity_holds(r_rows, rbar_rows, 2)
    assert not cross_channel_unitarity_holds(r_rows, bad_rows, 2)


def _dense_cross_channel_unitarity(r_rows, rbar_rows, n) -> bool:
    """The reference: every (a, b, c, d, i, j) term over flattened matrices."""
    def matrix(rows):
        return PolyMatrix(n * n, n * n, {
            (flat_index(ins, n), flat_index(outs, n)): w
            for ins, row in rows.items() for outs, w in row
        })

    r, rbar = matrix(r_rows), matrix(rbar_rows)
    spins = spin_set(n)
    for a, b, c, d in itertools.product(spins, repeat=4):
        total = ZERO
        for i, j in itertools.product(spins, repeat=2):
            w = LaurentPoly.half_power(b + d - 2 * i)
            total = total + (w * rbar[flat_index((i, a), n), flat_index((j, b), n)]
                             * r[flat_index((j, d), n), flat_index((i, c), n)])
        if total != (ONE if (a == c and d == b) else ZERO):
            return False
    return True


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cross_channel_unitarity_matches_the_dense_loop(n):
    r_rows = crossing_rows(Tile.CROSS_POS, n)
    rbar_rows = crossing_rows(Tile.CROSS_NEG, n)
    assert cross_channel_unitarity_holds(r_rows, rbar_rows, n)
    assert _dense_cross_channel_unitarity(r_rows, rbar_rows, n)


@pytest.mark.parametrize("n", [2, 3])
def test_cross_channel_unitarity_matches_the_dense_loop_on_substitutions(n):
    # each weight of Rbar's rows in turn replaced by q, or by 1 where it is q
    r_rows = crossing_rows(Tile.CROSS_POS, n)
    rbar_rows = crossing_rows(Tile.CROSS_NEG, n)
    verdicts = []
    for ins, row in rbar_rows.items():
        for k, (outs, w) in enumerate(row):
            entry = (outs, ONE if w == Q else Q)
            bad = {**rbar_rows, ins: row[:k] + (entry,) + row[k + 1:]}
            verdict = cross_channel_unitarity_holds(r_rows, bad, n)
            assert verdict == _dense_cross_channel_unitarity(r_rows, bad, n)
            verdicts.append(verdict)
    assert False in verdicts


@pytest.mark.parametrize("n, ins, outs, failing", [
    # (-1, 1) -> (-1, -1): neither conserved nor in Q's support
    (2, (-1, 1), (-1, -1), {"conservation-law", "Q-support"}),
    # (-2, 2) -> (0, 0): conserved, but outside Q's support
    (3, (-2, 2), (0, 0), {"Q-support"}),
])
def test_singular_table_checks_negative_control(monkeypatch, n, ins, outs, failing):
    real = identities.crossing_rows

    def perturbed(tile, m):
        rows = real(tile, m)
        if tile is not Tile.CROSS_SING:
            return rows
        return {**rows, ins: rows[ins] + ((outs, ONE),)}

    monkeypatch.setattr(identities, "crossing_rows", perturbed)
    passed = {r.name: r.passed for r in check_singular_relations(n)}
    checks = ("conservation-law", "Q-support")
    assert {c for c in checks if not passed[f"{c}-n{n}"]} == failing


def test_zigzag_negative_control(monkeypatch):
    # a turn tile weighted q^(-+s/2) in place of q^(+-s/2) breaks the weight
    # cancellation, and of the unitarity suite fails that check alone
    real = identities.turn_weight
    for flipped in (Tile.CUP_RIGHT, Tile.CUP_LEFT, Tile.CAP_LEFT, Tile.CAP_RIGHT):
        with monkeypatch.context() as patch:
            patch.setattr(identities, "turn_weight",
                          lambda tile, spin: real(tile, -spin if tile is flipped else spin))
            for n in (2, 3):
                assert not identities.zigzag_weights_cancel(n)
                failed = [r.name for r in check_unitarity(n) if not r.passed]
                assert failed == [f"zigzag-weights-n{n}"]
    assert identities.turn_weight is real


def test_curl_vertex_values():
    results = {r.name: r.passed for r in check_curl_vertex(2)}
    assert results["curl-pos-curl-above-n2"]
    assert results["curl-neg-curl-below-n2"]


def test_moy_reports_five_relations():
    names = [r.name for r in check_moy(2)]
    assert len(names) == 6  # the kink relation is checked on both sides
    assert any("kink" in x for x in names)
    assert any("parallel-bigon" in x for x in names)
    assert any("antiparallel-bigon" in x for x in names)
    assert any("triangle-sum" in x for x in names)
    assert any("mixed-triangle" in x for x in names)


def test_sideways_gadgets_are_antiparallel_r2_pairs():
    from slnpoly.identities import _reflect

    d, u = Orient.DOWN, Orient.UP
    for n in (2, 3):
        ctx = EvalContext(n)
        eye = PolyMatrix.identity(n * n)
        gadget = sideways_gadget(Tile.CROSS_POS)
        pair = Diagram(gadget + _reflect(gadget), (d, u))
        assert evaluate_tangle(pair, ctx) == eye
        # same-sign composition is not the identity
        bad = Diagram(gadget + _reflect(sideways_gadget(Tile.CROSS_NEG)), (d, u))
        assert evaluate_tangle(bad, ctx) != eye


def test_reflect_diagram_involution():
    d = curled_vertex(Tile.CROSS_POS)
    assert reflect_diagram(reflect_diagram(d)) == d
    with pytest.raises(ValueError):
        reflect_diagram(Diagram([[Tile.VERT_ALT]], (Orient.DOWN, Orient.UP)))


def test_gamma_defect_structure():
    # the defect of the curled vertex against q^(+-1) * alternating vertex is
    # nonzero symbolically but vanishes at q = 1 when gamma = 1
    n = 2
    ctx = EvalContext(n)
    one_ctx = EvalContext(n, ONE)
    v_alt = evaluate_tangle(Diagram([[Tile.VERT_ALT]], (Orient.DOWN, Orient.UP)), one_ctx)
    lhs = evaluate_tangle(curled_vertex(Tile.CROSS_POS), ctx)
    defect = lhs - v_alt.scale(Q)
    assert defect
    assert all(p.eval_at(1, 1) == 0 for _, p in defect.items())


def test_gamma_r4_mixed_signs_fail():
    # inconsistent over/under choices are not a rigid-vertex move
    from slnpoly.identities import _pad, _reflect

    d, u = Orient.DOWN, Orient.UP
    top = (d, u, d)
    ctx = EvalContext(2, Q)
    slide = (_pad(_reflect(sideways_gadget(Tile.CROSS_NEG)), 1, 0)
             + [[Tile.CROSS_POS, Tile.ID]])
    below = Diagram([[Tile.VERT_ALT, Tile.ID]] + slide, top)
    above = Diagram(slide + [[Tile.ID, Tile.VERT_ALT]], top)
    assert evaluate_tangle(below, ctx) != evaluate_tangle(above, ctx)


@pytest.mark.parametrize("flipped, failing", [
    (Tile.CUP_LEFT, {"antiparallel-R2-pos-neg", "antiparallel-R2-neg-pos",
                     "zigzag-diagram-down-right", "zigzag-diagram-up-left"}),
    (Tile.CAP_RIGHT, {"antiparallel-R2-pos-neg", "antiparallel-R2-neg-pos",
                      "zigzag-diagram-down-left", "zigzag-diagram-up-right"}),
])
def test_reflected_fixtures_negative_control(monkeypatch, flipped, failing):
    # a turn tile weighted q^(-+s/2) in place of q^(+-s/2) fails exactly the
    # wiggles and sideways pairs that run through it, right and reflected
    from slnpoly import evaluator

    real = evaluator.turn_weight

    def flipped_weight(tile, spin):
        return real(tile, -spin if tile is flipped else spin)

    monkeypatch.setattr(evaluator, "turn_weight", flipped_weight)
    for n in (2, 3):
        failed = {r.name.removesuffix(f"-n{n}")
                  for r in check_unitarity(n) if not r.passed}
        assert failed == failing


@pytest.mark.parametrize("kind, mirrored", [
    (Tile.CROSS_POS, Tile.CROSS_NEG),
    (Tile.CROSS_NEG, Tile.CROSS_POS),
    (Tile.CROSS_SING, Tile.CROSS_SING),
])
def test_reflected_gadget_is_the_mirror_table(kind, mirrored):
    # the (up, down) -> (down, up) partner of sideways_gadget, written out
    i = Tile.ID
    table = [
        [i, i, Tile.CUP_RIGHT],
        [i, mirrored, i],
        [Tile.CAP_RIGHT, i, i],
    ]
    d, u = Orient.DOWN, Orient.UP
    reflected = reflect_diagram(Diagram(sideways_gadget(kind), (d, u)))
    assert reflected == Diagram(table, (u, d))


# Every value a crossing entry takes, for the single-entry substitutions.
_WEIGHT_VALUES = (ZERO, ONE, -ONE, Q, QINV, Q - QINV, QINV - Q, Q + QINV)

# The checks that no model mutant fails, and why.
_NEVER_FAILED = {
    "conservation-law": "tests support, which a weight change keeps",
    "Q-support": "tests support, which a weight change keeps",
    "gamma-curl-defect-symbolic-pos": "asserts a nonzero defect",
    "gamma-curl-defect-symbolic-neg": "asserts a nonzero defect",
}


def _model_mutants():
    """The 63 single-entry substitutions of the crossing weights and the 4
    turn-sign flips, as (label, table, key, value) patches."""
    for tile, weights in spintensor._PARALLEL_WEIGHT.items():
        for slot, real in enumerate(weights):
            for value in _WEIGHT_VALUES:
                if value != real:
                    changed = weights[:slot] + (value,) + weights[slot + 1:]
                    yield (f"{tile.value}[{slot}] = {value}",
                           spintensor._PARALLEL_WEIGHT, tile, changed)
    for tile, sign in spintensor._TURN_SIGN.items():
        yield f"{tile.value} sign flipped", spintensor._TURN_SIGN, tile, -sign


def _verify_all(n):
    """Every verify check at n, with gamma = q and 3 strands: name -> passed."""
    options = {"gamma": Q, "strands": 3}
    results = {}
    for suite in SUITES.values():
        params = list(inspect.signature(suite).parameters)[1:]
        for r in suite(n, **{p: options[p] for p in params}):
            results[r.name.removesuffix(f"-n{n}")] = r.passed
    return results


def test_every_model_mutant_fails_a_check_and_every_check_catches_one(monkeypatch):
    # the model tables are read afresh by every call, so a patched table
    # reaches every suite once rho's cached generator images are dropped
    mutants = list(_model_mutants())
    assert len(mutants) == 67
    caught, missed = set(), []
    for label, table, key, value in mutants:
        with monkeypatch.context() as patch:
            patch.setitem(table, key, value)
            braidrep._generator_image.cache_clear()
            failed = {name for n in (2, 3)
                      for name, passed in _verify_all(n).items() if not passed}
        braidrep._generator_image.cache_clear()
        if not failed:
            missed.append(label)
        caught |= failed
    assert missed == []
    assert set(_verify_all(2)) - caught == set(_NEVER_FAILED)
