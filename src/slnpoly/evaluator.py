"""Tangle evaluation by sparse frontier contraction, plus brute-force oracles.

The main entry point, evaluate_tangle, sweeps a validated diagram top to
bottom keeping a sparse map from spin tuples on the current level to
polynomial amplitudes.  It contracts one tile at a time, right to left
within a slice so that the positions of the tiles still to come stay valid,
and rewrites only the legs that tile touches; an id tile carries the
identity delta and is skipped.  Every other tile is read from one row
table, _tile_rows, which the sweep builds once per evaluation and the
edge-enumeration oracle reads too; it maps in-spins to the nonzero
(out-spins, weight) entries:

  cups/caps  the diagonal weights q^(+-a/2) together with the spin pairing,
  crossings  the entries of the R / Rbar / Q tensors,
  vert_alt   gamma * (antiparallel identity) + gamma * (turnback pair),
             i.e. entries gamma*(d_ac d_bd + q^((a+c)/2) d_ab d_cd).

Closed diagrams give a 1x1 tensor.  Two independent oracles recompute the
same values literally from the state-model definition: one enumerates spin
assignments on diagram edges and multiplies elementary tensor entries, the
other enumerates crossing resolutions, traces loops, and sums weighted
rotation contributions q^(rot * label).  Both are deliberately structured
nothing like the frontier sweep.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import eq, gt, lt, ne

from .diagram import CAPS, CROSSINGS, CUPS, Diagram, DiagramError, Tile, require_valid, writhe
from .laurent import ONE, Q, QINV, ZERO, LaurentPoly
from .spintensor import (
    PolyMatrix,
    crossing_rows,
    flat_index,
    spin_set,
    turn_weight,
)


@dataclass(frozen=True)
class EvalContext:
    """Evaluation parameters: the spin count n and the vertex weight gamma."""

    n: int
    gamma: LaurentPoly = ONE

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"evaluation needs n >= 2, got {self.n}")


# The largest frontier the sweep keeps.  An entry costs about 0.5 KB, so a
# frontier at the limit takes about 0.25 GB.
MAX_FRONTIER = 500_000


class OracleSizeError(ValueError):
    """Raised when a diagram exceeds an oracle's configured size cap."""


# Signed turning contribution of one turn tile to the loop through it;
# a full counterclockwise circle picks up +2, i.e. rotation number +1.
TURN_ROT = {
    Tile.CUP_RIGHT: 1,
    Tile.CAP_LEFT: 1,
    Tile.CUP_LEFT: -1,
    Tile.CAP_RIGHT: -1,
}


def _tile_rows(tile: Tile, ctx: EvalContext) -> dict:
    """A fresh table of a non-id tile's entries: in-spins -> ((out_spins, weight), ...)."""
    n = ctx.n
    if tile in CROSSINGS:
        return crossing_rows(tile, n)
    spins = spin_set(n)
    rows: dict[tuple[int, ...], list[tuple[tuple[int, ...], LaurentPoly]]] = {}
    if tile in CUPS:
        rows[()] = [((a, a), turn_weight(tile, a)) for a in spins]
    elif tile in CAPS:
        for a in spins:
            rows[(a, a)] = [((), turn_weight(tile, a))]
    else:
        g = ctx.gamma
        for a, b in itertools.product(spins, repeat=2):
            if a != b:
                rows[(a, b)] = [((a, b), g)]
            else:
                rows[(a, a)] = [((c, c), g * LaurentPoly.half_power(a + c) + g * (c == a))
                                for c in spins]
    return {ins: tuple(row) for ins, row in rows.items()}


def evaluate_tangle(d: Diagram, ctx: EvalContext) -> PolyMatrix:
    """The boundary tensor of an open tangle, rows = top spins, cols = bottom.

    Spin tuples are flattened by flat_index, the same convention as the
    braid representation, so an all-down braid diagram evaluates to exactly
    its representation matrix.  A frontier over MAX_FRONTIER entries raises
    ValueError: the top boundary's n^top_width states and a cup's n entries
    are refused before anything is allocated, and the sweep stops within
    one tile row of the limit.
    """
    require_valid(d)
    n = ctx.n
    if n ** d.top_width > MAX_FRONTIER:
        raise ValueError(f"the top boundary has {n ** d.top_width} spin states, "
                         f"over the frontier limit of {MAX_FRONTIER}")
    if n > MAX_FRONTIER and any(t in CUPS for _, _, t in d.tiles()):
        raise ValueError(f"a cup makes {n} frontier entries, "
                         f"over the limit of {MAX_FRONTIER}")
    tables = {t: _tile_rows(t, ctx) for t in {t for _, _, t in d.tiles()} - {Tile.ID}}
    # Frontier keyed by (top assignment, current level assignment).
    frontier: dict[tuple[tuple[int, ...], tuple[int, ...]], LaurentPoly] = {
        (t, t): ONE for t in itertools.product(spin_set(n), repeat=d.top_width)
    }
    for i, tiles in enumerate(d.slices):
        pos = sum(t.width_in for t in tiles)
        for tile in reversed(tiles):
            pos -= tile.width_in
            if tile is Tile.ID:
                continue
            end = pos + tile.width_in
            rows = tables[tile]
            new: dict[tuple[tuple[int, ...], tuple[int, ...]], LaurentPoly] = {}
            for (top, cur), amp in frontier.items():
                for outs, w in rows.get(cur[pos:end], ()):
                    key = (top, cur[:pos] + outs + cur[end:])
                    acc = new.get(key, ZERO) + amp * w
                    if acc:
                        new[key] = acc
                    elif key in new:
                        del new[key]
                if len(new) > MAX_FRONTIER:
                    raise ValueError(f"slice {i}, tile {tile.value} at position {pos}: "
                                     f"the frontier reached {len(new)} entries, "
                                     f"over the limit of {MAX_FRONTIER}")
            frontier = new
    entries = {(flat_index(top, n), flat_index(bot, n)): amp
               for (top, bot), amp in frontier.items()}
    return PolyMatrix(n ** d.top_width, n ** d.bottom_width, entries)


def evaluate_closed(d: Diagram, ctx: EvalContext) -> LaurentPoly:
    """The scalar invariant of a closed diagram."""
    if not d.is_closed():
        raise DiagramError("evaluate_closed requires a closed diagram")
    return evaluate_tangle(d, ctx)[0, 0]


def normalized_invariant(d: Diagram, ctx: EvalContext) -> LaurentPoly:
    """q^(-writhe) times the closed evaluation."""
    return LaurentPoly.q_power(-writhe(d)) * evaluate_closed(d, ctx)


# -- oracle 1: enumerate spins on edges ---------------------------------------


def _tile_instances(d: Diagram):
    """All tiles with their in/out slot coordinates (level, column)."""
    instances = []
    for i, tiles in enumerate(d.slices):
        in_pos = 0
        out_pos = 0
        for t in tiles:
            ins = tuple((i, in_pos + k) for k in range(t.width_in))
            outs = tuple((i + 1, out_pos + k) for k in range(t.width_out))
            instances.append((t, ins, outs))
            in_pos += t.width_in
            out_pos += t.width_out
    return instances


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != x:
            self.parent[x] = p = self.parent.setdefault(p, p)
            x = p
            p = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _full_entries(tile: Tile, ctx: EvalContext):
    """All nonzero entries of a tile as (in_spins + out_spins, weight)."""
    return [(ins + outs, w) for ins, row in _tile_rows(tile, ctx).items() for outs, w in row]


def oracle_edge_enumeration(d: Diagram, ctx: EvalContext, edge_cap: int = 16) -> LaurentPoly:
    """Literal state sum: assign a spin to every edge, multiply tensor entries.

    Edges are maximal strand segments through id tiles.  The sum is taken by
    backtracking over the non-id tiles so that spin assignments inconsistent
    with a tensor's support are pruned immediately.
    """
    if not d.is_closed():
        raise DiagramError("the edge-enumeration oracle requires a closed diagram")
    require_valid(d)
    uf = _UnionFind()
    nodes = []
    for t, ins, outs in _tile_instances(d):
        if t is Tile.ID:
            uf.union(ins[0], outs[0])
        else:
            nodes.append((t, ins + outs))
    edges = {uf.find(slot) for _, legs in nodes for slot in legs}
    if len(edges) > edge_cap:
        raise OracleSizeError(f"{len(edges)} edges exceeds the cap of {edge_cap}")
    node_entries = [
        (tuple(uf.find(slot) for slot in legs), _full_entries(t, ctx))
        for t, legs in nodes
    ]

    total = ZERO
    assignment: dict = {}

    def recurse(i: int, weight: LaurentPoly):
        nonlocal total
        if i == len(node_entries):
            total = total + weight
            return
        legs, entries = node_entries[i]
        for spins, w in entries:
            touched = []
            ok = True
            for leg, s in zip(legs, spins):
                have = assignment.get(leg)
                if have is None:
                    assignment[leg] = s
                    touched.append(leg)
                elif have != s:
                    ok = False
                    break
            if ok:
                recurse(i + 1, weight * w)
            for leg in touched:
                del assignment[leg]

    recurse(0, ONE)
    return total


# -- oracle 2: enumerate crossing resolutions and trace loops -----------------

# Resolutions: (wiring, relation between the two strand spins, weight).
# "par" keeps in1->out1, in2->out2; "cross" exchanges them.
_RESOLUTIONS = {
    Tile.CROSS_POS: (("par", lt, Q - QINV), ("par", eq, Q), ("cross", ne, ONE)),
    Tile.CROSS_NEG: (("par", gt, QINV - Q), ("par", eq, QINV), ("cross", ne, ONE)),
    Tile.CROSS_SING: (
        ("par", lt, Q),
        ("par", gt, QINV),
        ("par", eq, Q + QINV),
        ("cross", ne, ONE),
    ),
}


def oracle_rotation_states(d: Diagram, ctx: EvalContext, crossing_cap: int = 10) -> LaurentPoly:
    """Resolution-state oracle: sum of a_sigma * q^(rot . label) over states.

    Every crossing is replaced by a decorated splice or a flat crossing,
    loops of the resolved diagram are traced, and each consistent constant
    spin labeling contributes its weight times q^(sum rot(l)*label(l)) with
    rot computed as half the signed turn count along the loop.
    """
    if not d.is_closed():
        raise DiagramError("the rotation-state oracle requires a closed diagram")
    require_valid(d)
    instances = _tile_instances(d)
    if any(t is Tile.VERT_ALT for t, _, _ in instances):
        raise DiagramError("the rotation-state oracle does not handle alternating vertices")
    crossings = [(t, ins, outs) for t, ins, outs in instances if t in CROSSINGS]
    if len(crossings) > crossing_cap:
        raise OracleSizeError(f"{len(crossings)} crossings exceeds the cap of {crossing_cap}")

    spins = spin_set(ctx.n)
    total = ZERO
    for combo in itertools.product(*(_RESOLUTIONS[t] for t, _, _ in crossings)):
        uf = _UnionFind()
        for t, ins, outs in instances:
            if t is Tile.ID:
                uf.union(ins[0], outs[0])
            elif t in CUPS:
                uf.union(outs[0], outs[1])
            elif t in CAPS:
                uf.union(ins[0], ins[1])
        weight = ONE
        constraints = []
        for (wiring, rel, w), (_, ins, outs) in zip(combo, crossings):
            weight = weight * w
            if wiring == "par":
                uf.union(ins[0], outs[0])
                uf.union(ins[1], outs[1])
            else:
                uf.union(ins[0], outs[1])
                uf.union(ins[1], outs[0])
            constraints.append((ins[0], ins[1], rel))

        rot2: dict = {}
        for t, ins, outs in instances:
            if t in CUPS:
                loop = uf.find(outs[0])
                rot2[loop] = rot2.get(loop, 0) + TURN_ROT[t]
            elif t in CAPS:
                loop = uf.find(ins[0])
                rot2[loop] = rot2.get(loop, 0) + TURN_ROT[t]
        loops = sorted({uf.find(s) for t, ins, outs in instances for s in ins + outs})
        rot = {}
        for loop in loops:
            half = rot2.get(loop, 0)
            if half % 2:
                raise AssertionError("odd turn count on a closed loop")
            rot[loop] = half // 2
        cons = [(uf.find(x), uf.find(y), rel) for x, y, rel in constraints]

        state_sum = ZERO
        label: dict = {}

        def recurse(i: int, exponent: int):
            nonlocal state_sum
            if i == len(loops):
                state_sum = state_sum + LaurentPoly.q_power(exponent)
                return
            loop = loops[i]
            for s in spins:
                label[loop] = s
                if all(test(label[x], label[y])
                       for x, y, test in cons
                       if x in label and y in label):
                    recurse(i + 1, exponent + rot[loop] * s)
            del label[loop]

        recurse(0, 0)
        total = total + weight * state_sum
    return total
