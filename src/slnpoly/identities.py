"""Executable verification of the model's algebraic identities at a given n.

Every check compares exact Laurent polynomials, never samples of q, so a
pass is a proof at that n.  Checks come in two layers: small predicate
helpers that take explicit inputs (so tests can feed perturbed inputs as
negative controls), and check_* suite functions that assemble CheckResult
reports from the real model data.  The predicates take PolyMatrix values,
except cross-channel unitarity, which reads tile_rows tables by spins.

Several identities live in mixed-orientation frames where a crossing or a
singular vertex sits between antiparallel strands.  Those are built from
the downward-only tiles by bending one strand around the tile with a cup
and a cap (the sideways gadgets below); composing a gadget with its
reflection is the antiparallel second Reidemeister move and must give the
identity, which pins the handedness bookkeeping.
"""

from __future__ import annotations

from .braidrep import CheckResult, check_monoid_relations
from .diagram import MIRROR_TILE, Diagram, Orient, Tile
from .evaluator import EvalContext, evaluate_tangle
from .laurent import ONE, Q, QINV, ZERO, LaurentPoly, quantum_int
from .spintensor import (
    CROSSINGS,
    PolyMatrix,
    crossing_matrix,
    kron,
    mat_mul,
    spin_set,
    tile_rows,
    turn_weight,
)


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)


# -- tensor-level predicates (reusable with perturbed inputs) -----------------


def ybe_holds(r: PolyMatrix, n: int) -> bool:
    """(R x I)(I x R)(R x I) == (I x R)(R x I)(I x R) on n^3 x n^3 matrices."""
    eye = PolyMatrix.identity(n)
    a = kron(r, eye)
    b = kron(eye, r)
    return mat_mul(mat_mul(a, b), a) == mat_mul(mat_mul(b, a), b)


def channel_unitarity_holds(r: PolyMatrix, rbar: PolyMatrix) -> bool:
    eye = PolyMatrix.identity(r.rows)
    return mat_mul(r, rbar) == eye and mat_mul(rbar, r) == eye


def cross_channel_unitarity_holds(r_rows: dict, rbar_rows: dict, n: int) -> bool:
    """The index-twisted unitarity: summing Rbar^{ia}_{jb} R^{jd}_{ic} over i, j
    against the bend weights q^((b+d)/2 - i) gives d^a_c d^d_b.

    The weight factor is the contribution of the cup and cap that carry the
    wrapped strand in the sideways picture; without it the bare contraction
    is not a delta.  R and Rbar are tile_rows tables, and the sum runs
    over Rbar's nonzero entries, every d, and the entries of R's row (j, d)
    whose out-spins start with i: O(n^3) products.
    """
    spins = spin_set(n)
    total: dict[tuple[int, int, int, int], LaurentPoly] = {}
    for (i, a), row in rbar_rows.items():
        for (j, b), wbar in row:
            for d in spins:
                for (top, c), w in r_rows.get((j, d), ()):
                    if top == i:
                        key = (a, b, c, d)
                        term = LaurentPoly.half_power(b + d - 2 * i) * wbar * w
                        total[key] = total.get(key, ZERO) + term
    return ({k: p for k, p in total.items() if p}
            == {(a, b, a, b): ONE for a in spins for b in spins})


def zigzag_weights_cancel(n: int) -> bool:
    """The four cup/cap weight pairings multiply to 1 at every spin."""
    pairs = (
        (Tile.CUP_RIGHT, Tile.CAP_RIGHT),
        (Tile.CAP_LEFT, Tile.CUP_LEFT),
        (Tile.CUP_LEFT, Tile.CAP_LEFT),
        (Tile.CAP_RIGHT, Tile.CUP_RIGHT),
    )
    return all(
        turn_weight(u, s) * turn_weight(v, s) == ONE
        for u, v in pairs
        for s in spin_set(n)
    )


# -- diagram fixtures ----------------------------------------------------------

_I = Tile.ID
_D, _U = Orient.DOWN, Orient.UP


def sideways_gadget(tile: Tile) -> list[list[Tile]]:
    """Crossing of a (down, up) strand pair, realized with one cup and one cap.

    Maps boundary orientations (down, up) on top to (up, down) below; the up
    strand is bent over the left so the crossing tile sees two downward
    strands.
    """
    return [
        [Tile.CUP_LEFT, _I, _I],
        [_I, tile, _I],
        [_I, _I, Tile.CAP_LEFT],
    ]


def _pad(slices: list[list[Tile]], left: int, right: int) -> list[list[Tile]]:
    return [[_I] * left + s + [_I] * right for s in slices]


_REFLECT_TILE = {
    **MIRROR_TILE,
    Tile.CUP_RIGHT: Tile.CUP_LEFT, Tile.CUP_LEFT: Tile.CUP_RIGHT,
    Tile.CAP_LEFT: Tile.CAP_RIGHT, Tile.CAP_RIGHT: Tile.CAP_LEFT,
}


def _reflect(slices) -> list[list[Tile]]:
    """Left-right mirror of a slice stack.

    Tile order reverses, and turn chirality and crossing signs flip, so the
    reflection of a sideways gadget maps (up, down) on top to (down, up)
    below through a crossing of the opposite sign.
    """
    return [[_REFLECT_TILE.get(t, t) for t in reversed(s)] for s in slices]


def reflect_diagram(d: Diagram) -> Diagram:
    """Left-right mirror of a diagram; its top boundary reverses too."""
    if any(t is Tile.VERT_ALT for _, _, t in d.tiles()):
        raise ValueError("reflection of the alternating vertex is not representable")
    return Diagram(_reflect(d.slices), tuple(reversed(d.top)))


def turnback_pair(n: int) -> PolyMatrix:
    """Cap over cup in the (down, up) frame: entries q^((a+c)/2) d_ab d_cd."""
    d = Diagram([[Tile.CAP_LEFT], [Tile.CUP_RIGHT]], (_D, _U))
    return evaluate_tangle(d, EvalContext(n))


def curled_vertex(tile: Tile) -> Diagram:
    """A crossing-type singular vertex carried into the (down, up) frame by a curl.

    Two adjacent legs of the vertex are bent around its right side and cross
    once on the way; with a positive crossing this is the move that would,
    if the polynomial were R6-invariant, equal q times the alternating
    vertex.
    """
    if tile not in MIRROR_TILE:
        raise ValueError("the curl is a classical crossing")
    return Diagram([
        [_I, _I, Tile.CUP_RIGHT],
        [_I, Tile.CAP_RIGHT, _I],
        [_I, Tile.CUP_RIGHT, _I],
        [Tile.CROSS_SING, _I, _I],
        [_I, Tile.CUP_LEFT, _I, _I, _I],
        [_I, _I, tile, _I, _I],
        [_I, _I, _I, Tile.CAP_LEFT, _I],
        [_I, _I, Tile.CAP_LEFT],
    ], (_D, _U))


def vertex_kink(side: str) -> Diagram:
    """A singular vertex with two adjacent legs closed into a curl (1-in/1-out).

    The left kink is the reflect_diagram of the right one.
    """
    right = Diagram([
        [_I, Tile.CUP_RIGHT],
        [Tile.CROSS_SING, _I],
        [_I, Tile.CAP_LEFT],
    ], (_D,))
    return right if side == "right" else reflect_diagram(right)


def mixed_vertex_triangle() -> Diagram:
    """Three singular vertices in the (down, up, down) frame.

    Vertices alternate between the bent pair at columns (1, 2) and the plain
    downward pair at columns (2, 3); reflect_diagram gives the triangle that
    starts at the other pair.
    """
    gadget = sideways_gadget(Tile.CROSS_SING)
    return Diagram(
        _pad(gadget, 0, 1) + [[_I, Tile.CROSS_SING]] + _pad(_reflect(gadget), 0, 1),
        (_D, _U, _D),
    )


def turnback_exchange() -> Diagram:
    """Cap the antiparallel pair at columns (1, 2), reopen it in place (3 strands)."""
    return Diagram([[Tile.CAP_LEFT, _I], [Tile.CUP_RIGHT, _I]], (_D, _U, _D))


# -- the check suites ----------------------------------------------------------


def check_ybe(n: int) -> list[CheckResult]:
    out = []
    for name, tile in (("R", Tile.CROSS_POS), ("Rbar", Tile.CROSS_NEG)):
        ok = ybe_holds(crossing_matrix(tile, n), n)
        out.append(CheckResult(f"ybe-{name}-n{n}", ok))
    return out


def check_unitarity(n: int) -> list[CheckResult]:
    r = crossing_matrix(Tile.CROSS_POS, n)
    rbar = crossing_matrix(Tile.CROSS_NEG, n)
    out = [
        CheckResult(f"channel-unitarity-n{n}", channel_unitarity_holds(r, rbar)),
        CheckResult(f"cross-channel-unitarity-n{n}", cross_channel_unitarity_holds(
            tile_rows(Tile.CROSS_POS, n), tile_rows(Tile.CROSS_NEG, n), n)),
        CheckResult(f"zigzag-weights-n{n}", zigzag_weights_cancel(n)),
    ]
    # The four S-shaped planar wiggles must evaluate to the identity strand.
    ctx = EvalContext(n)
    eye = PolyMatrix.identity(n)
    # The left wiggles are the reflections of the right ones.
    right_wiggles = {
        "down": Diagram([[_I, Tile.CUP_LEFT], [Tile.CAP_LEFT, _I]], (_D,)),
        "up": Diagram([[_I, Tile.CUP_RIGHT], [Tile.CAP_RIGHT, _I]], (_U,)),
    }
    for way, d in right_wiggles.items():
        for side, wiggle in (("right", d), ("left", reflect_diagram(d))):
            out.append(CheckResult(f"zigzag-diagram-{way}-{side}-n{n}",
                                   evaluate_tangle(wiggle, ctx) == eye))
    # Antiparallel second Reidemeister move: a sideways crossing composed
    # with its reflection, of opposite sign, is the identity.  This is the
    # diagram-level face of cross-channel unitarity.
    eye2 = PolyMatrix.identity(n * n)
    for label, tile in (("pos-neg", Tile.CROSS_POS), ("neg-pos", Tile.CROSS_NEG)):
        gadget = sideways_gadget(tile)
        d = Diagram(gadget + _reflect(gadget), (_D, _U))
        out.append(CheckResult(f"antiparallel-R2-{label}-n{n}",
                               evaluate_tangle(d, ctx) == eye2))
    return out


def check_singular_relations(n: int) -> list[CheckResult]:
    r = crossing_matrix(Tile.CROSS_POS, n)
    rbar = crossing_matrix(Tile.CROSS_NEG, n)
    q = crossing_matrix(Tile.CROSS_SING, n)
    eye = PolyMatrix.identity(n * n)
    out = [
        CheckResult(f"RQ=QR=qQ-n{n}",
                    mat_mul(r, q) == q.scale(Q) and mat_mul(q, r) == q.scale(Q)),
        CheckResult(f"RbarQ=QRbar=qinvQ-n{n}",
                    mat_mul(rbar, q) == q.scale(QINV) and mat_mul(q, rbar) == q.scale(QINV)),
        CheckResult(f"Q=R+qinvI-n{n}", q == r + eye.scale(QINV)),
        CheckResult(f"Q=Rbar+qI-n{n}", q == rbar + eye.scale(Q)),
        CheckResult(f"R-Rbar=(q-qinv)I-n{n}", r - rbar == eye.scale(Q - QINV)),
    ]
    support_ok = True
    conservation_ok = True
    for tile in CROSSINGS:
        for (a, b), row in tile_rows(tile, n).items():
            for (c, d), _ in row:
                if a + b != c + d:
                    conservation_ok = False
                if tile is Tile.CROSS_SING and not ((a, b) == (c, d) or d == a != b == c):
                    support_ok = False
    out.append(CheckResult(f"conservation-law-n{n}", conservation_ok))
    out.append(CheckResult(f"Q-support-n{n}", support_ok))
    return out


def check_curl_vertex(n: int) -> list[CheckResult]:
    """A classical crossing on two adjacent legs of a singular vertex scales it."""
    ctx = EvalContext(n)
    q_mat = crossing_matrix(Tile.CROSS_SING, n)
    cases = (
        ("pos-curl-above", Tile.CROSS_POS, True, Q),
        ("pos-curl-below", Tile.CROSS_POS, False, Q),
        ("neg-curl-above", Tile.CROSS_NEG, True, QINV),
        ("neg-curl-below", Tile.CROSS_NEG, False, QINV),
    )
    out = []
    for label, x, above, factor in cases:
        slices = [[x], [Tile.CROSS_SING]] if above else [[Tile.CROSS_SING], [x]]
        got = evaluate_tangle(Diagram(slices, (_D, _D)), ctx)
        out.append(CheckResult(f"curl-{label}-n{n}", got == q_mat.scale(factor)))
    return out


def check_moy(n: int) -> list[CheckResult]:
    """The five planar graph skein relations, as exact tensor identities."""
    ctx = EvalContext(n)
    out = []

    eye = PolyMatrix.identity(n)
    for side in ("right", "left"):
        got = evaluate_tangle(vertex_kink(side), ctx)
        out.append(CheckResult(f"moy-kink-{side}-n{n}",
                               got == eye.scale(quantum_int(n + 1))))

    q_mat = crossing_matrix(Tile.CROSS_SING, n)
    bigon = evaluate_tangle(Diagram([[Tile.CROSS_SING], [Tile.CROSS_SING]], (_D, _D)), ctx)
    out.append(CheckResult(f"moy-parallel-bigon-n{n}",
                           bigon == q_mat.scale(quantum_int(2))))

    gadget = sideways_gadget(Tile.CROSS_SING)
    anti = Diagram(gadget + _reflect(gadget), (_D, _U))
    got = evaluate_tangle(anti, ctx)
    want = PolyMatrix.identity(n * n) + turnback_pair(n).scale(quantum_int(n + 2))
    out.append(CheckResult(f"moy-antiparallel-bigon-n{n}", got == want))

    q1 = kron(q_mat, eye)
    q2 = kron(eye, q_mat)
    lhs = mat_mul(mat_mul(q1, q2), q1) + q2
    rhs = mat_mul(mat_mul(q2, q1), q2) + q1
    out.append(CheckResult(f"moy-triangle-sum-n{n}", lhs == rhs))

    nplus3 = quantum_int(n + 3)
    tri = mixed_vertex_triangle()
    exch = turnback_exchange()
    lhs5 = evaluate_tangle(tri, ctx) - evaluate_tangle(exch, ctx).scale(nplus3)
    rhs5 = (evaluate_tangle(reflect_diagram(tri), ctx)
            - evaluate_tangle(reflect_diagram(exch), ctx).scale(nplus3))
    out.append(CheckResult(f"moy-mixed-triangle-n{n}", lhs5 == rhs5))
    return out


def check_gamma_extension(n: int, gamma: LaurentPoly) -> list[CheckResult]:
    """Theorem-level checks for the alternating-vertex extension.

    (i) the rigid-vertex moves R4 and R5 hold for the supplied gamma: a
    strand slides past the alternating vertex, and a classical crossing
    on its antiparallel legs is absorbed exactly as the resolution
    predicts;
    (ii)/(iii) the curl move that would make the invariant topological
    fails: its defect tensors are reported, vanish after evaluating at
    q = 1 with gamma = 1, and are nonzero symbolically.
    """
    ctx = EvalContext(n, gamma)
    plain_ctx = EvalContext(n)
    out = []

    # R4: slide a downward strand past the vertex, above vs below, for the
    # two self-consistent over/under sign pairs: the reflected gadget of a
    # crossing over a plain crossing of the same sign.
    top = (_D, _U, _D)
    for label, tile in (("over", Tile.CROSS_POS), ("under", Tile.CROSS_NEG)):
        slide = _pad(_reflect(sideways_gadget(tile)), 1, 0) + [[tile, _I]]
        below = Diagram([[Tile.VERT_ALT, _I]] + slide, top)
        above = Diagram(slide + [[_I, Tile.VERT_ALT]], top)
        ok = evaluate_tangle(below, ctx) == evaluate_tangle(above, ctx)
        out.append(CheckResult(f"gamma-R4alt-{label}-n{n}", ok))

    # R5: the twist on the vertex's antiparallel legs, resolved: the
    # identity branch passes the twist through, the turnback branch absorbs
    # it as a kink worth q^(+-n).
    crossed_turnback = evaluate_tangle(
        Diagram([[Tile.CAP_LEFT], [Tile.CUP_LEFT]], (_D, _U)), plain_ctx)
    for label, tile, e in (("pos", Tile.CROSS_POS, n), ("neg", Tile.CROSS_NEG, -n)):
        twist = sideways_gadget(tile)
        kinked = evaluate_tangle(
            Diagram([[Tile.CAP_LEFT], [Tile.CUP_RIGHT]] + twist, (_D, _U)), plain_ctx)
        out.append(CheckResult(
            f"gamma-R5alt-kink-{label}-n{n}",
            kinked == crossed_turnback.scale(LaurentPoly.q_power(e))))
        lhs = evaluate_tangle(Diagram([[Tile.VERT_ALT]] + twist, (_D, _U)), ctx)
        bare = evaluate_tangle(Diagram(twist, (_D, _U)), plain_ctx)
        want = bare.scale(gamma) + crossed_turnback.scale(gamma * LaurentPoly.q_power(e))
        out.append(CheckResult(f"gamma-R5alt-{label}-n{n}", lhs == want))

    # The R6-style curl: defect tensors of the rotated vertex against
    # q^(+-1) times the alternating vertex, at gamma = 1.
    one_ctx = EvalContext(n, ONE)
    v_alt = evaluate_tangle(Diagram([[Tile.VERT_ALT]], (_D, _U)), one_ctx)
    p1 = PolyMatrix.identity(n * n)
    p2 = turnback_pair(n)
    for label, tile, e in (("pos", Tile.CROSS_POS, 1), ("neg", Tile.CROSS_NEG, -1)):
        lhs = evaluate_tangle(curled_vertex(tile), plain_ctx)
        expansion = p1.scale(LaurentPoly.q_power(e * (n + 1))) + p2
        out.append(CheckResult(f"gamma-curl-expansion-{label}-n{n}", lhs == expansion))
        defect = lhs - v_alt.scale(LaurentPoly.q_power(e))
        at_one_is_zero = all(
            p.eval_at(1, 1) == 0 for _, p in defect.items()
        )
        out.append(CheckResult(f"gamma-curl-defect-at-q1-{label}-n{n}", at_one_is_zero))
        if n == 2:
            out.append(CheckResult(
                f"gamma-curl-defect-symbolic-{label}-n{n}", bool(defect)))
    return out


# Every verify suite, in the order `verify --suite all` runs them.  Each takes
# n first; further parameters name the verify options it reads.
SUITES = {
    "ybe": check_ybe,
    "unitarity": check_unitarity,
    "singular": check_singular_relations,
    "curl": check_curl_vertex,
    "moy": check_moy,
    "gamma": check_gamma_extension,
    "monoid": check_monoid_relations,
}
