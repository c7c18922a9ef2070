"""Sliced Morse diagrams of oriented tangles with singular and alternating vertices.

A diagram is a top-to-bottom stack of slices; a slice is a left-to-right row
of tiles.  Strands crossing a horizontal level carry an orientation, DOWN
(with the sweep) or UP (against it).  Each non-id tile needs fixed
orientations on its in-legs and makes fixed ones on its out-legs, as
spintensor.SIGNATURE states them; an id tile passes one strand of either
orientation through.  Cups create a strand pair and caps consume one;
crossings join two downward strands, and crossings of strands in any other
position are expressed by composing with cups and caps; vert_alt is the
alternating-oriented rigid vertex, (DOWN, UP) on both sides.

Cups and caps come in two flavours because the two traversal directions
carry different weights q^(+-a/2); a counterclockwise circle is the stack
[cup_right], [cap_left] and a clockwise one [cup_left], [cap_right].
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .spintensor import CAPS, CROSSINGS, CUPS, SIGNATURE, Orient, Tile


class DiagramError(ValueError):
    """Raised when a diagram fails validation or an operation's preconditions."""


def tile_out_orients(tile: Tile, ins: tuple[Orient, ...]) -> tuple[Orient, ...]:
    """Out-orientations of a tile given its in-orientations; raises on mismatch."""
    if len(ins) != tile.width_in:
        raise DiagramError(f"{tile.value} expects {tile.width_in} strands, got {len(ins)}")
    if tile is Tile.ID:
        return ins
    need, out = SIGNATURE[tile]
    if ins != need:
        raise DiagramError(f"{tile.value} needs its strands oriented "
                           f"{', '.join(o.value for o in need)}; got "
                           f"{', '.join(o.value for o in ins)}")
    return out


@dataclass(frozen=True)
class Diagram:
    """An oriented sliced diagram; immutable after construction."""

    slices: tuple[tuple[Tile, ...], ...]
    top: tuple[Orient, ...] = ()

    def __init__(self, slices, top=()):
        object.__setattr__(self, "slices", tuple(tuple(s) for s in slices))
        object.__setattr__(self, "top", tuple(top))

    @property
    def top_width(self) -> int:
        return len(self.top)

    @property
    def bottom_width(self) -> int:
        if not self.slices:
            return self.top_width
        return sum(t.width_out for t in self.slices[-1])

    def is_closed(self) -> bool:
        return not self.top and self.bottom_width == 0

    def tiles(self):
        for i, s in enumerate(self.slices):
            for j, t in enumerate(s):
                yield i, j, t


def validate(d: Diagram) -> list[str]:
    """Check widths and orientation consistency; returns a list of problems.

    An empty list means the diagram is valid.  Each entry pinpoints the
    first offending slice/tile by index.
    """
    errors: list[str] = []
    level = d.top
    for i, s in enumerate(d.slices):
        need = sum(t.width_in for t in s)
        if need != len(level):
            errors.append(f"slice {i}: consumes {need} strands but {len(level)} arrive")
            return errors
        out: list[Orient] = []
        pos = 0
        for j, t in enumerate(s):
            try:
                out.extend(tile_out_orients(t, level[pos:pos + t.width_in]))
            except DiagramError as exc:
                errors.append(f"slice {i}, tile {j}: {exc}")
                return errors
            pos += t.width_in
        level = tuple(out)
    return errors


def require_valid(d: Diagram) -> None:
    problems = validate(d)
    if problems:
        raise DiagramError("; ".join(problems))


# -- braid words -------------------------------------------------------------


@dataclass(frozen=True)
class BraidWord:
    """A singular braid word on `strands` strands: (crossing tile, index) letters."""

    strands: int
    letters: tuple[tuple[Tile, int], ...] = ()

    def __init__(self, strands: int, letters=()):
        if strands < 1:
            raise ValueError(f"braids need at least one strand, got {strands}")
        letters = tuple(letters)
        for tile, i in letters:
            if tile not in CROSSINGS:
                raise ValueError(f"braid letters are crossing tiles, got {tile!r}")
            if not 1 <= i < strands:
                raise ValueError(f"generator index {i} out of range for {strands} strands")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", letters)


_TOKEN_RE = re.compile(r"^([sSt])(\d+)$")

LETTER_TILE = {"s": Tile.CROSS_POS, "S": Tile.CROSS_NEG, "t": Tile.CROSS_SING}


def parse_braid_word(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated tokens s<i>, S<i>, t<i> into a braid word."""
    letters = []
    for pos, token in enumerate(text.split()):
        m = _TOKEN_RE.match(token)
        if not m:
            raise ValueError(f"bad braid token {token!r} at position {pos}")
        tile, i = LETTER_TILE[m.group(1)], int(m.group(2))
        if not 1 <= i < strands:
            raise ValueError(f"token {token!r} at position {pos}: index {i} "
                             f"out of range for {strands} strands")
        letters.append((tile, i))
    return BraidWord(strands, letters)


def braid_to_diagram(w: BraidWord) -> Diagram:
    """The open all-strands-down tangle of a braid word."""
    k = w.strands
    slices = []
    for tile, i in w.letters:
        slices.append([Tile.ID] * (i - 1) + [tile] + [Tile.ID] * (k - i - 1))
    return Diagram(slices, (Orient.DOWN,) * k)


def close_braid(w: BraidWord) -> Diagram:
    """Trace closure of a braid: nested cups, the body, nested caps.

    The k return strands run upward to the right of the body, so each body
    slice is the braid's slice padded with k id tiles; the closure of the
    empty 1-strand word is the counterclockwise circle.
    """
    k = w.strands
    cups = [(Tile.ID,) * j + (Tile.CUP_RIGHT,) + (Tile.ID,) * j for j in range(k)]
    body = [s + (Tile.ID,) * k for s in braid_to_diagram(w).slices]
    caps = [(Tile.ID,) * j + (Tile.CAP_LEFT,) + (Tile.ID,) * j for j in reversed(range(k))]
    return Diagram(cups + body + caps)


def writhe(d: Diagram) -> int:
    """Signed classical crossing count; singular and alternating vertices count 0."""
    w = 0
    for _, _, t in d.tiles():
        if t is Tile.CROSS_POS:
            w += 1
        elif t is Tile.CROSS_NEG:
            w -= 1
    return w


MIRROR_TILE = {Tile.CROSS_POS: Tile.CROSS_NEG, Tile.CROSS_NEG: Tile.CROSS_POS}


def mirror(d: Diagram) -> Diagram:
    """Swap positive and negative classical crossings; an involution."""
    return Diagram(tuple(tuple(MIRROR_TILE.get(t, t) for t in s) for s in d.slices), d.top)


def disjoint_union(a: Diagram, b: Diagram) -> Diagram:
    """Place two closed diagrams side by side."""
    if not a.is_closed() or not b.is_closed():
        raise DiagramError("disjoint union is defined for closed diagrams only")
    depth = max(len(a.slices), len(b.slices))
    slices = []
    for i in range(depth):
        left = a.slices[i] if i < len(a.slices) else ()
        right = b.slices[i] if i < len(b.slices) else ()
        slices.append(tuple(left) + tuple(right))
    return Diagram(slices)


def connected_sum(a: Diagram, b: Diagram) -> Diagram:
    """Splice two closed diagrams along two parallel arcs.

    The leftmost cap of a's final slice and the leftmost cup of b's first
    slice are removed and the freed strand pairs joined straight through,
    which realizes the connected sum along the corresponding edges.  Raises
    if the freed orientations disagree.
    """
    if not a.is_closed() or not b.is_closed():
        raise DiagramError("connected sum is defined for closed diagrams only")
    if not a.slices or not b.slices:
        raise DiagramError("connected sum needs nonempty diagrams")
    last = a.slices[-1]
    first = b.slices[0]
    if not last or last[0] not in CAPS:
        raise DiagramError("first diagram must end in a cap slice to splice")
    if not first or first[0] not in CUPS:
        raise DiagramError("second diagram must start with a cup slice to splice")
    cap, cup = last[0], first[0]
    if SIGNATURE[cap][0] != SIGNATURE[cup][1]:
        raise DiagramError(f"orientations at splice disagree: {cap.value} vs {cup.value}")
    opened_a = a.slices[:-1] + ((Tile.ID, Tile.ID) + last[1:],)
    opened_b = ((Tile.ID, Tile.ID) + first[1:],) + b.slices[1:]
    return Diagram(opened_a + opened_b)


# -- the line-oriented JSON file format --------------------------------------


def to_json(d: Diagram) -> str:
    obj = {
        "top": [o.value for o in d.top],
        "slices": [[t.value for t in s] for s in d.slices],
    }
    return json.dumps(obj)


def from_json(text: str) -> Diagram:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiagramError(f"invalid diagram JSON: {exc}") from exc
    if not isinstance(obj, dict) or "slices" not in obj:
        raise DiagramError("diagram JSON must be an object with a 'slices' key")
    try:
        top = tuple(Orient(o) for o in obj.get("top", []))
        slices = tuple(tuple(Tile(name) for name in s) for s in obj["slices"])
    except (TypeError, ValueError) as exc:
        raise DiagramError(f"invalid diagram JSON: {exc}") from exc
    d = Diagram(slices, top)
    require_valid(d)
    return d
