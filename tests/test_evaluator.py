import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import corpus_diagrams, random_word, transfer_eval, vert_alt_mutant
from slnpoly.diagram import (
    CUPS,
    BraidWord,
    Diagram,
    DiagramError,
    Orient,
    Tile,
    braid_to_diagram,
    close_braid,
    connected_sum,
    disjoint_union,
    mirror,
    parse_braid_word,
    tile_out_orients,
    writhe,
)
from slnpoly import evaluator
from slnpoly.evaluator import (
    EvalContext,
    OracleSizeError,
    evaluate_closed,
    evaluate_tangle,
    normalized_invariant,
    oracle_edge_enumeration,
    oracle_rotation_states,
)
from slnpoly.laurent import LaurentPoly, ONE, Q, QINV, ZERO, quantum_int
from slnpoly.braidrep import rho
from slnpoly.spintensor import PolyMatrix, crossing_matrix, spin_set

D, U = Orient.DOWN, Orient.UP
I = Tile.ID


def ccw_circle() -> Diagram:
    return Diagram([[Tile.CUP_RIGHT], [Tile.CAP_LEFT]])


def cw_circle() -> Diagram:
    return Diagram([[Tile.CUP_LEFT], [Tile.CAP_RIGHT]])


@pytest.mark.parametrize("n", range(2, 7))
def test_loop_value_both_orientations(n):
    ctx = EvalContext(n)
    assert evaluate_closed(ccw_circle(), ctx) == quantum_int(n)
    assert evaluate_closed(cw_circle(), ctx) == quantum_int(n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kink_relations(n):
    ctx = EvalContext(n)
    eye = PolyMatrix.identity(n)
    pos_kink = Diagram([[I, Tile.CUP_RIGHT], [Tile.CROSS_POS, I], [I, Tile.CAP_LEFT]], (D,))
    neg_kink = Diagram([[I, Tile.CUP_RIGHT], [Tile.CROSS_NEG, I], [I, Tile.CAP_LEFT]], (D,))
    assert evaluate_tangle(pos_kink, ctx) == eye.scale(LaurentPoly.q_power(n))
    assert evaluate_tangle(neg_kink, ctx) == eye.scale(LaurentPoly.q_power(-n))
    # the same curls on the other side of the strand
    pos_left = Diagram([[Tile.CUP_LEFT, I], [I, Tile.CROSS_POS], [Tile.CAP_RIGHT, I]], (D,))
    neg_left = Diagram([[Tile.CUP_LEFT, I], [I, Tile.CROSS_NEG], [Tile.CAP_RIGHT, I]], (D,))
    assert evaluate_tangle(pos_left, ctx) == eye.scale(LaurentPoly.q_power(n))
    assert evaluate_tangle(neg_left, ctx) == eye.scale(LaurentPoly.q_power(-n))


def test_vertex_with_curl_tangle():
    # a positive curl on adjacent legs of a singular vertex scales it by q
    for n in (2, 3):
        ctx = EvalContext(n)
        q_mat = crossing_matrix(Tile.CROSS_SING, n)
        d = Diagram([[Tile.CROSS_SING], [Tile.CROSS_POS]], (D, D))
        assert evaluate_tangle(d, ctx) == q_mat.scale(Q)
        d = Diagram([[Tile.CROSS_SING], [Tile.CROSS_NEG]], (D, D))
        assert evaluate_tangle(d, ctx) == q_mat.scale(QINV)


def test_evaluate_closed_requires_closed():
    with pytest.raises(DiagramError):
        evaluate_closed(braid_to_diagram(BraidWord(2)), EvalContext(2))


def test_context_needs_two_spins():
    with pytest.raises(ValueError, match="n >= 2, got 1"):
        EvalContext(1)


def test_oracles_require_closed_diagrams():
    open_braid = braid_to_diagram(parse_braid_word("s1", 2))
    for oracle in (oracle_edge_enumeration, oracle_rotation_states):
        with pytest.raises(DiagramError, match="requires a closed diagram"):
            oracle(open_braid, EvalContext(2))


def test_evaluate_rejects_invalid():
    bad = Diagram([[Tile.CROSS_POS]], (D, U))
    with pytest.raises(DiagramError):
        evaluate_tangle(bad, EvalContext(2))


def test_empty_diagram_evaluates_to_one():
    assert evaluate_closed(Diagram([]), EvalContext(3)) == ONE


def test_zero_result_is_zero_polynomial():
    # two strands capped against orientation cannot happen; instead check a
    # tangle entry that is empty: off-diagonal of the identity strand
    d = Diagram([[I]], (D,))
    t = evaluate_tangle(d, EvalContext(2))
    assert t[0, 1] == ZERO


@pytest.mark.parametrize("n", [2, 3])
def test_frontier_matches_transfer_matrices(n):
    ctx = EvalContext(n, Q + QINV)
    fixtures = [
        close_braid(parse_braid_word("s1 s1 s1", 2)),
        close_braid(parse_braid_word("t1 S1", 2)),
        braid_to_diagram(parse_braid_word("s1 t2", 3)),
        Diagram([[Tile.VERT_ALT]], (D, U)),
        Diagram([[I, Tile.CUP_LEFT], [Tile.CAP_LEFT, I]], (D,)),
    ]
    for d in fixtures:
        assert evaluate_tangle(d, ctx) == transfer_eval(d, ctx)


def test_frontier_budget_names_slice_tile_and_count(monkeypatch):
    # the frontier of the trefoil closure at n=2 peaks at 6 entries
    d = close_braid(parse_braid_word("s1 s1 s1", 2))
    want = evaluate_closed(d, EvalContext(2))
    monkeypatch.setattr(evaluator, "MAX_FRONTIER", 6)
    assert evaluate_closed(d, EvalContext(2)) == want
    monkeypatch.setattr(evaluator, "MAX_FRONTIER", 5)
    with pytest.raises(ValueError, match=r"^slice 3, tile cross_pos at position 0: "
                       r"the frontier reached 6 entries, over the limit of 5$"):
        evaluate_closed(d, EvalContext(2))
    monkeypatch.setattr(evaluator, "MAX_FRONTIER", 3)
    with pytest.raises(ValueError, match=r"^slice 1, tile cup_right at position 1: "
                       r"the frontier reached 4 entries"):
        evaluate_tangle(d, EvalContext(2))


def test_frontier_budget_trips_within_one_row(monkeypatch):
    # a cup over 50 entries makes 2,500; the check stops it one 50-entry row
    # past the limit
    monkeypatch.setattr(evaluator, "MAX_FRONTIER", 100)
    d = close_braid(parse_braid_word("s1", 2))
    with pytest.raises(ValueError, match=r"the frontier reached \d+ entries") as exc:
        evaluate_closed(d, EvalContext(50))
    assert 100 < int(re.search(r"reached (\d+)", str(exc.value)).group(1)) <= 150


def test_frontier_budget_refuses_the_top_boundary_before_any_tile(monkeypatch):
    monkeypatch.setattr(evaluator, "MAX_FRONTIER", 10)
    d = braid_to_diagram(parse_braid_word("s1 s2", 3))
    with pytest.raises(ValueError, match=r"^the top boundary has 27 spin states, "
                       r"over the frontier limit of 10$"):
        evaluate_tangle(d, EvalContext(3))


def test_frontier_budget_refuses_a_cup_wider_than_the_limit(monkeypatch):
    monkeypatch.setattr(evaluator, "MAX_FRONTIER", 3)
    with pytest.raises(ValueError, match=r"^a cup makes 4 frontier entries"):
        evaluate_closed(close_braid(BraidWord(1)), EvalContext(4))


def test_frontier_budget_refuses_before_any_tile_table_is_built(monkeypatch):
    built = []
    monkeypatch.setattr(evaluator, "MAX_FRONTIER", 3)
    monkeypatch.setattr(evaluator, "tile_rows", lambda tile, n, gamma: built.append(tile))
    with pytest.raises(ValueError, match=r"^a cup makes 4 frontier entries"):
        evaluate_closed(close_braid(BraidWord(1)), EvalContext(4))
    with pytest.raises(ValueError, match=r"^the top boundary has 64 spin states"):
        evaluate_tangle(braid_to_diagram(parse_braid_word("s1 s2", 3)), EvalContext(4))
    assert built == []


def test_the_sweep_and_the_edge_oracle_build_one_table_per_distinct_tile(monkeypatch):
    real = evaluator.tile_rows
    built = []

    def counted(tile, n, gamma=ONE):
        built.append(tile)
        return real(tile, n, gamma)

    monkeypatch.setattr(evaluator, "tile_rows", counted)
    d = close_braid(parse_braid_word("s1 s2 S1 t2 s1", 3))
    tiles = [Tile.CUP_RIGHT, Tile.CAP_LEFT, Tile.CROSS_POS, Tile.CROSS_NEG, Tile.CROSS_SING]
    values = []
    for evaluate in (evaluate_closed, oracle_edge_enumeration):
        built.clear()
        values.append(evaluate(d, EvalContext(2)))
        assert sorted(built, key=str) == sorted(tiles, key=str)
    assert values[0] == values[1]


def test_oracles_on_corpus_small():
    for name, d in corpus_diagrams()[:8]:
        ctx = EvalContext(2)
        v = evaluate_closed(d, ctx)
        assert oracle_edge_enumeration(d, ctx) == v, name
        assert oracle_rotation_states(d, ctx) == v, name


def test_oracle_edge_cap():
    big = close_braid(parse_braid_word("s1 s2 s1 s2 s1 s2", 3))
    with pytest.raises(OracleSizeError):
        oracle_edge_enumeration(big, EvalContext(2), edge_cap=4)


def test_oracle_crossing_cap():
    tre = close_braid(parse_braid_word("s1 s1 s1", 2))
    with pytest.raises(OracleSizeError):
        oracle_rotation_states(tre, EvalContext(2), crossing_cap=2)


def test_rotation_oracle_resolves_vert_alt():
    # the closed-off alternating vertex: its smoothing leaves one loop and
    # its turnback two, so the oracle gives gamma * ([n] + [n]^2)
    d = Diagram([[Tile.CUP_RIGHT], [Tile.VERT_ALT], [Tile.CAP_LEFT]])
    for n in (2, 3):
        for gamma in (ONE, Q, Q + QINV):
            ctx = EvalContext(n, gamma)
            want = gamma * (quantum_int(n) + quantum_int(n) * quantum_int(n))
            assert oracle_rotation_states(d, ctx) == want == evaluate_closed(d, ctx)


def test_rotation_oracle_sees_a_vertex_turnback_of_the_wrong_weight(monkeypatch):
    # a sweep whose vertex turnback weighs q^((a-c)/2) in place of
    # q^((a+c)/2) disagrees with the oracle, which states the vertex itself
    ctx = EvalContext(3, Q)
    twist = [[Tile.CUP_LEFT, I, I], [I, Tile.CROSS_POS, I], [I, I, Tile.CAP_LEFT]]
    fixtures = [
        Diagram([[Tile.CUP_RIGHT], [Tile.VERT_ALT], [Tile.CAP_LEFT]]),
        Diagram([[Tile.CUP_RIGHT], [Tile.VERT_ALT]] + twist + [[Tile.CAP_RIGHT]]),
        Diagram([[Tile.CUP_RIGHT], [Tile.VERT_ALT], [Tile.VERT_ALT], [Tile.CAP_LEFT]]),
    ]
    oracle = [oracle_rotation_states(d, ctx) for d in fixtures]
    assert oracle == [evaluate_closed(d, ctx) for d in fixtures]
    monkeypatch.setattr(evaluator, "tile_rows", vert_alt_mutant(
        turnback=lambda a, c: LaurentPoly.half_power(a - c)))
    assert all(evaluate_closed(d, ctx) != v for d, v in zip(fixtures, oracle))
    assert oracle == [oracle_rotation_states(d, ctx) for d in fixtures]


def test_vert_alt_closed_loop_value():
    # the closed-off alternating vertex: gamma * ([n] + [n]^2) by resolution
    for n in (2, 3):
        for gamma in (ONE, Q, Q + QINV):
            ctx = EvalContext(n, gamma)
            d = Diagram([[Tile.CUP_RIGHT], [Tile.VERT_ALT], [Tile.CAP_LEFT]])
            got = evaluate_closed(d, ctx)
            want = gamma * (quantum_int(n) + quantum_int(n) * quantum_int(n))
            assert got == want
            assert oracle_edge_enumeration(d, ctx) == got


def test_normalized_invariant():
    n = 2
    ctx = EvalContext(n)
    tre = close_braid(parse_braid_word("s1 s1 s1", 2))
    assert normalized_invariant(tre, ctx) == LaurentPoly.q_power(-3) * evaluate_closed(tre, ctx)
    assert normalized_invariant(ccw_circle(), ctx) == quantum_int(n)
    # closure of s1 S1 is the closure of the identity 2-braid: a 2-unlink
    unlink = close_braid(parse_braid_word("s1 S1", 2))
    assert writhe(unlink) == 0
    assert normalized_invariant(unlink, ctx) == quantum_int(n) * quantum_int(n)


def test_markov_stabilization():
    # closing w * sigma_k on k+1 strands multiplies the closure of w by q^n
    rng = random.Random(7)
    for n in (2, 3):
        ctx = EvalContext(n)
        for _ in range(5):
            w = random_word(rng, 2, rng.randrange(0, 4))
            base = evaluate_closed(close_braid(w), ctx)
            up = BraidWord(3, w.letters + ((Tile.CROSS_POS, 2),))
            down = BraidWord(3, w.letters + ((Tile.CROSS_NEG, 2),))
            assert evaluate_closed(close_braid(up), ctx) == LaurentPoly.q_power(n) * base
            assert evaluate_closed(close_braid(down), ctx) == LaurentPoly.q_power(-n) * base


def test_conjugation_invariance():
    rng = random.Random(11)
    for n in (2, 3):
        ctx = EvalContext(n)
        for _ in range(6):
            k = rng.choice((2, 3))
            u = random_word(rng, k, rng.randrange(1, 4))
            v = random_word(rng, k, rng.randrange(1, 4))
            uv = BraidWord(k, u.letters + v.letters)
            vu = BraidWord(k, v.letters + u.letters)
            assert evaluate_closed(close_braid(uv), ctx) == evaluate_closed(close_braid(vu), ctx)


def test_mirror_property():
    rng = random.Random(13)
    for n in (2, 3):
        ctx = EvalContext(n)
        for _ in range(6):
            k = rng.choice((2, 3))
            w = random_word(rng, k, rng.randrange(0, 5))
            d = close_braid(w)
            assert evaluate_closed(mirror(d), ctx) == evaluate_closed(d, ctx).invert_q()


def test_connected_sum_examples():
    for n in (2, 3):
        ctx = EvalContext(n)
        qn = quantum_int(n)
        circle = ccw_circle()
        assert evaluate_closed(connected_sum(circle, circle), ctx) == qn
        assert evaluate_closed(disjoint_union(circle, circle), ctx) == qn * qn
        tre = close_braid(parse_braid_word("s1 s1 s1", 2))
        v = evaluate_closed(tre, ctx)
        assert qn * evaluate_closed(connected_sum(tre, tre), ctx) == v * v


def test_multiplicativity():
    rng = random.Random(17)
    for n in (2, 3):
        ctx = EvalContext(n)
        qn = quantum_int(n)
        for _ in range(4):
            a = close_braid(random_word(rng, 2, rng.randrange(0, 4)))
            b = close_braid(random_word(rng, rng.choice((1, 2)), rng.randrange(0, 3)))
            va, vb = evaluate_closed(a, ctx), evaluate_closed(b, ctx)
            assert evaluate_closed(disjoint_union(a, b), ctx) == va * vb
            assert qn * evaluate_closed(connected_sum(a, b), ctx) == va * vb


def test_integer_powers_on_closures():
    rng = random.Random(19)
    ctx = EvalContext(3)
    for _ in range(8):
        w = random_word(rng, rng.choice((1, 2, 3)), rng.randrange(0, 5))
        v = evaluate_closed(close_braid(w), ctx)
        assert v.has_only_integer_powers()


def test_tangle_tensor_indexing():
    # an open positive crossing evaluates to exactly its matrix
    for n in (2, 3):
        d = braid_to_diagram(parse_braid_word("s1", 2))
        assert evaluate_tangle(d, EvalContext(n)) == crossing_matrix(Tile.CROSS_POS, n)


@pytest.mark.parametrize("n,k,length", [(2, 4, 14), (3, 3, 12), (3, 4, 11), (4, 3, 12), (2, 5, 12)])
def test_closure_is_weighted_trace_beyond_oracle_caps(n, k, length):
    """Closure value = Tr(rho(w) h^(x k)) with h = diag(q^s), Turaev's
    enhanced Yang-Baxter trace; free of the oracles' size caps."""
    w = random_word(random.Random(f"trace {n} {k} {length}"), k, length)
    mat = rho(w, n).matrix
    want = ZERO
    for i, spins in enumerate(itertools.product(spin_set(n), repeat=k)):
        want = want + LaurentPoly.q_power(sum(spins)) * mat[i, i]
    assert evaluate_closed(close_braid(w), EvalContext(n)) == want


# Tiles that fit on the adjacent in-strand pair with these orientations.
_PAIR_TILES = {
    (D, D): (Tile.CROSS_POS, Tile.CROSS_NEG, Tile.CROSS_SING),
    (D, U): (Tile.CAP_LEFT, Tile.VERT_ALT),
    (U, D): (Tile.CAP_RIGHT,),
}


@st.composite
def sliced_diagrams(draw, max_width=4, max_slices=6):
    """A valid sliced diagram built level by level, with its bottom orientations.

    Each slice reads the level left to right: at every position it may put a
    cup, and it consumes the next strand with an id or the next pair with a
    tile whose orientations match, so one slice mixes tiles of different
    widths.  No level is wider than max_width.
    """
    level = tuple(draw(st.one_of(
        st.just(()), st.lists(st.sampled_from((D, U)), min_size=1, max_size=max_width))))
    top, slices = level, []
    for _ in range(draw(st.integers(1, max_slices))):
        tiles, out, i = [], [], 0
        while True:
            pair = level[i:i + 2]
            choices = [I] if i < len(level) else ["end"]
            choices += _PAIR_TILES.get(pair, ())
            if len(out) + len(level) - i + 2 <= max_width:
                choices += CUPS
            tile = draw(st.sampled_from(choices))
            if tile == "end":
                break
            tiles.append(tile)
            out += tile_out_orients(tile, level[i:i + tile.width_in])
            i += tile.width_in
        if tiles:
            slices.append(tiles)
            level = tuple(out)
    return Diagram(slices, top), level


def _cap_off(d: Diagram, level) -> Diagram:
    """Close a diagram with empty top by capping the leftmost unlike pair, slice by slice."""
    slices = list(d.slices)
    while level:
        i = next(j for j in range(len(level) - 1) if level[j] != level[j + 1])
        cap = Tile.CAP_LEFT if level[i] is D else Tile.CAP_RIGHT
        slices.append([I] * i + [cap] + [I] * (len(level) - i - 2))
        level = level[:i] + level[i + 2:]
    return Diagram(slices)


gammas = st.dictionaries(st.integers(-3, 3), st.integers(-2, 2), max_size=2).map(LaurentPoly)


@settings(deadline=None, derandomize=True, max_examples=150)
@given(drawn=sliced_diagrams(), n=st.sampled_from((2, 3)), gamma=gammas)
def test_sweep_matches_transfer_on_random_diagrams(drawn, n, gamma):
    """Random valid diagrams, open and closed, with mixed orientations: the
    frontier sweep, transfer_eval and the edge oracle agree exactly."""
    d, level = drawn
    ctx = EvalContext(n, gamma)
    assert evaluate_tangle(d, ctx) == transfer_eval(d, ctx)
    if d.top:
        return
    closed = _cap_off(d, level)
    value = evaluate_closed(closed, ctx)
    assert transfer_eval(closed, ctx) == PolyMatrix(1, 1, {(0, 0): value})
    try:
        oracle = oracle_edge_enumeration(closed, ctx)
    except OracleSizeError:
        return
    assert oracle == value


@settings(deadline=None, derandomize=True, max_examples=200)
@given(drawn=sliced_diagrams(), n=st.sampled_from((2, 3)), gamma=gammas)
def test_rotation_oracle_matches_the_sweep_on_random_closed_diagrams(drawn, n, gamma):
    """Random diagrams capped off, alternating vertices included: the
    rotation oracle, which resolves every crossing and vertex itself, and
    the sweep agree exactly."""
    d, level = drawn
    if d.top:
        return
    closed = _cap_off(d, level)
    ctx = EvalContext(n, gamma)
    try:
        oracle = oracle_rotation_states(closed, ctx, crossing_cap=6)
    except OracleSizeError:
        return
    assert oracle == evaluate_closed(closed, ctx)
