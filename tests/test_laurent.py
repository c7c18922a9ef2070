from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from slnpoly.laurent import LaurentPoly, ONE, Q, QINV, ZERO, parse_poly, quantum_int

polys = st.dictionaries(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(LaurentPoly)


def test_add_basic():
    assert Q + QINV == LaurentPoly({2: 1, -2: 1})
    assert (Q - QINV) + QINV == Q
    assert ZERO + Q == Q


def test_mul_basic():
    half = LaurentPoly.half_power(1)
    assert half * half == Q
    assert (Q - QINV) * (Q + QINV) == LaurentPoly({4: 1, -4: -1})
    assert Q * ONE == Q


def test_canonical_no_zero_coeffs():
    p = LaurentPoly({2: 1}) - LaurentPoly({2: 1})
    assert p.coeffs == {}
    assert p == ZERO
    assert not p


def test_constructor_drops_zeros_and_rejects_non_integral_exponents():
    assert LaurentPoly({2: 0, -1: 3, 0: 0}).coeffs == {-1: 3}
    assert LaurentPoly({2: 0}) == ZERO
    with pytest.raises(TypeError):
        LaurentPoly({1.5: 1})
    with pytest.raises(TypeError):
        LaurentPoly({2.0: 1})


def test_invert_q():
    p = LaurentPoly({4: 1, 0: 3})
    assert p.invert_q() == LaurentPoly({-4: 1, 0: 3})
    sym = Q + QINV
    assert sym.invert_q() == sym


@given(polys)
def test_invert_q_involution(p):
    assert p.invert_q().invert_q() == p


@given(polys, polys)
def test_invert_q_ring_homomorphism(a, b):
    assert (a * b).invert_q() == a.invert_q() * b.invert_q()
    assert (a + b).invert_q() == a.invert_q() + b.invert_q()


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(derandomize=True, max_examples=50)
@given(st.lists(st.tuples(polys, polys), max_size=5))
def test_sum_of_products_is_the_sum_of_the_products(pairs):
    total = ZERO
    for a, b in pairs:
        total = total + a * b
    assert LaurentPoly.sum_of_products(pairs) == total
    assert LaurentPoly.sum_of_products(iter(pairs)) == total


def test_sum_of_products_of_nothing_is_zero():
    assert LaurentPoly.sum_of_products([]) == ZERO
    assert LaurentPoly.sum_of_products([(Q, QINV), (ONE, -ONE)]).coeffs == {}


def test_eval_at():
    p = Q + QINV
    assert p.eval_at(1, 1) == 2
    assert (Q - QINV).eval_at(1, 1) == 0
    assert (Q - QINV).eval_at(1, -1) == 0
    assert LaurentPoly({4: 1}).eval_at(4, 2) == 16
    half = LaurentPoly.half_power(1)
    assert half.eval_at(4, 2) == 2
    assert half.eval_at(Fraction(1, 4), Fraction(1, 2)) == Fraction(1, 2)


def test_eval_at_rejects_bad_sqrt():
    with pytest.raises(ValueError):
        ONE.eval_at(2, 1)
    with pytest.raises(ValueError):
        ONE.eval_at(0, 0)


def test_quantum_int():
    assert quantum_int(0) == ZERO
    assert quantum_int(1) == ONE
    assert quantum_int(2) == Q + QINV
    assert quantum_int(3) == LaurentPoly({4: 1, 0: 1, -4: 1})
    with pytest.raises(ValueError):
        quantum_int(-1)


def test_quantum_int_closed_form():
    qmqi = Q - QINV
    for m in range(1, 13):
        assert quantum_int(m) * qmqi == LaurentPoly({2 * m: 1, -2 * m: -1})
        assert quantum_int(m).invert_q() == quantum_int(m)


def test_display_grammar():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(Q) == "q"
    assert str(QINV) == "q^-1"
    assert str(LaurentPoly({-4: 1, 0: 2, 4: 1})) == "q^-2 + 2 + q^2"
    assert str(LaurentPoly({1: 3, 3: -1})) == "3*q^(1/2) - q^(3/2)"
    assert str(LaurentPoly({0: -5, 2: 1})) == "-5 + q"
    assert str(LaurentPoly({-1: 2})) == "2*q^(-1/2)"


@given(polys)
def test_parse_roundtrip(p):
    assert parse_poly(str(p)) == p


def test_parse_rejects_garbage():
    for text in ("", "q^", "q +", "2q^", "x + 1", "q^(1/3)"):
        with pytest.raises(ValueError):
            parse_poly(text)


def test_integer_power_predicate():
    assert (Q + ONE).has_only_integer_powers()
    assert not LaurentPoly.half_power(3).has_only_integer_powers()


def test_pow():
    assert (Q + ONE) ** 0 == ONE
    assert (Q + ONE) ** 2 == Q * Q + 2 * Q + ONE
    with pytest.raises(ValueError):
        Q ** -1
