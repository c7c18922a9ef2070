import itertools

import pytest

from slnpoly.diagram import (
    BraidWord,
    Diagram,
    DiagramError,
    Orient,
    Tile,
    braid_to_diagram,
    close_braid,
    connected_sum,
    disjoint_union,
    from_json,
    mirror,
    parse_braid_word,
    tile_out_orients,
    to_json,
    validate,
    writhe,
)

D, U = Orient.DOWN, Orient.UP


def test_parse_braid_word():
    w = parse_braid_word("s1 s1 s1", 2)
    assert w.letters == ((Tile.CROSS_POS, 1),) * 3
    w = parse_braid_word("s1 S2 t1", 3)
    assert w.letters == ((Tile.CROSS_POS, 1), (Tile.CROSS_NEG, 2), (Tile.CROSS_SING, 1))
    assert parse_braid_word("", 2).letters == ()


def test_parse_braid_word_errors():
    with pytest.raises(ValueError, match="out of range"):
        parse_braid_word("s3", 2)
    with pytest.raises(ValueError, match="position 1"):
        parse_braid_word("s1 x2", 3)
    with pytest.raises(ValueError):
        parse_braid_word("s0", 2)


def test_braid_to_diagram():
    d = braid_to_diagram(BraidWord(1))
    assert d.slices == () and d.top == (D,)
    d = braid_to_diagram(parse_braid_word("s1", 2))
    assert d.slices == ((Tile.CROSS_POS,),)
    d = braid_to_diagram(parse_braid_word("t1", 3))
    assert d.slices == ((Tile.CROSS_SING, Tile.ID),)
    assert not validate(d)


def test_close_braid_circle():
    circle = close_braid(BraidWord(1))
    assert circle.slices == ((Tile.CUP_RIGHT,), (Tile.CAP_LEFT,))
    assert circle.is_closed()
    assert not validate(circle)


def test_close_braid_structure():
    for text, k in (("s1 s1 s1", 2), ("t1", 2), ("s1 S2 s1 S2", 3)):
        d = close_braid(parse_braid_word(text, k))
        assert d.is_closed()
        assert not validate(d)
        cups = sum(t in (Tile.CUP_RIGHT, Tile.CUP_LEFT) for _, _, t in d.tiles())
        caps = sum(t in (Tile.CAP_RIGHT, Tile.CAP_LEFT) for _, _, t in d.tiles())
        assert cups == caps == k


def test_writhe():
    assert writhe(close_braid(parse_braid_word("s1 s1 s1", 2))) == 3
    assert writhe(close_braid(parse_braid_word("s1 S1", 2))) == 0
    assert writhe(close_braid(parse_braid_word("t1", 2))) == 0


def test_mirror():
    tre = close_braid(parse_braid_word("s1 s1 s1", 2))
    m = mirror(tre)
    assert m == close_braid(parse_braid_word("S1 S1 S1", 2))
    assert mirror(m) == tre
    assert writhe(m) == -writhe(tre)
    plain = close_braid(parse_braid_word("t1", 2))
    assert mirror(plain) == plain


def test_validate_width_error():
    d = Diagram([[Tile.ID, Tile.ID]], (D,))
    problems = validate(d)
    assert problems and "slice 0" in problems[0]


def test_validate_orientation_error():
    d = Diagram([[Tile.CROSS_POS]], (D, U))
    problems = validate(d)
    assert problems and "oriented down" in problems[0]


# Each non-id tile's in -> out orientations, stated here from the tile
# conventions rather than read from spintensor.SIGNATURE.
TILE_ORIENTS = {
    Tile.CUP_RIGHT: ((), (D, U)),
    Tile.CUP_LEFT: ((), (U, D)),
    Tile.CAP_LEFT: ((D, U), ()),
    Tile.CAP_RIGHT: ((U, D), ()),
    Tile.CROSS_POS: ((D, D), (D, D)),
    Tile.CROSS_NEG: ((D, D), (D, D)),
    Tile.CROSS_SING: ((D, D), (D, D)),
    Tile.VERT_ALT: ((D, U), (D, U)),
}


@pytest.mark.parametrize("tile", [t for t in Tile if t is not Tile.ID])
def test_tile_out_orients_accepts_exactly_the_signature(tile):
    need, out = TILE_ORIENTS[tile]
    for ins in itertools.product(Orient, repeat=tile.width_in):
        if ins == need:
            assert tile_out_orients(tile, ins) == out
        else:
            with pytest.raises(DiagramError, match=f"^{tile.value} "):
                tile_out_orients(tile, ins)


def test_validate_cap_mismatch():
    d = Diagram([[Tile.CAP_LEFT]], (U, D))
    assert validate(d)


def test_vert_alt_orientations():
    ok = Diagram([[Tile.VERT_ALT]], (D, U))
    assert not validate(ok)
    bad = Diagram([[Tile.VERT_ALT]], (D, D))
    assert validate(bad)


def test_disjoint_union():
    circle = close_braid(BraidWord(1))
    tre = close_braid(parse_braid_word("s1 s1 s1", 2))
    u = disjoint_union(circle, tre)
    assert u.is_closed()
    assert not validate(u)
    with pytest.raises(DiagramError):
        disjoint_union(braid_to_diagram(BraidWord(2)), circle)


def test_connected_sum():
    circle = close_braid(BraidWord(1))
    tre = close_braid(parse_braid_word("s1 s1 s1", 2))
    s = connected_sum(tre, circle)
    assert s.is_closed()
    assert not validate(s)
    assert writhe(s) == 3
    with pytest.raises(DiagramError):
        connected_sum(braid_to_diagram(BraidWord(2)), circle)
    with pytest.raises(DiagramError, match="nonempty"):
        connected_sum(Diagram([]), circle)
    with pytest.raises(DiagramError, match="end in a cap"):
        connected_sum(Diagram([[Tile.CUP_RIGHT], [Tile.CAP_LEFT], []]), circle)
    with pytest.raises(DiagramError, match="start with a cup"):
        connected_sum(circle, Diagram([[], [Tile.CUP_RIGHT], [Tile.CAP_LEFT]]))
    clockwise = Diagram([[Tile.CUP_LEFT], [Tile.CAP_RIGHT]])
    with pytest.raises(DiagramError, match="disagree: cap_right vs cup_right"):
        connected_sum(clockwise, circle)


def test_constructions_validate():
    words = [("", 1), ("s1", 2), ("t1 S1", 2), ("s1 S2 s1 S2", 3), ("t1 s2 t2", 3)]
    for text, k in words:
        w = parse_braid_word(text, k)
        assert not validate(braid_to_diagram(w))
        assert not validate(close_braid(w))


def test_json_roundtrip():
    tre = close_braid(parse_braid_word("s1 t1 S1", 2))
    assert from_json(to_json(tre)) == tre
    alt = Diagram([[Tile.VERT_ALT]], (D, U))
    assert from_json(to_json(alt)) == alt


def test_json_format_names():
    text = '{"top": ["down", "down"], "slices": [["cross_pos"], ["cross_sing"]]}'
    d = from_json(text)
    assert d.slices == ((Tile.CROSS_POS,), (Tile.CROSS_SING,))


def test_json_rejects_invalid():
    with pytest.raises(DiagramError):
        from_json("not json")
    with pytest.raises(DiagramError):
        from_json('{"top": [], "slices": [["no_such_tile"]]}')
    with pytest.raises(DiagramError):
        from_json('{"top": ["down"], "slices": [["cap_left"]]}')
    for text in ('{"slices": 5}', '{"slices": [null]}', '{"slices": [], "top": 3}'):
        with pytest.raises(DiagramError):
            from_json(text)
    for text in ('[]', '{"top": []}'):
        with pytest.raises(DiagramError, match="'slices' key"):
            from_json(text)


def test_braid_word_validation():
    with pytest.raises(ValueError):
        BraidWord(0)
    with pytest.raises(ValueError):
        BraidWord(2, [(Tile.CROSS_POS, 2)])
    for letter in ((Tile.ID, 1), (Tile.CUP_RIGHT, 1), ("s", 1)):
        with pytest.raises(ValueError, match="crossing tiles"):
            BraidWord(2, [letter])
