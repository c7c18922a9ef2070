"""Exact integer-coefficient Laurent polynomials in q^(1/2).

Exponents are stored in *half-exponent units*: the key ``e`` of the
coefficient dictionary stands for q^(e/2), so even keys are integer powers
of q and odd keys are genuine half powers.  Turn weights of the state model
live at half powers while every closed evaluation lands back in integer
powers, so a single integer-keyed dictionary covers both without a
fractional exponent type.

Coefficients are Python ints (arbitrary precision).  Zero coefficients are
never stored, hence equality of the dictionaries is equality of
polynomials.  Values are immutable once constructed and safe to share.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import Iterable, Mapping


class LaurentPoly:
    """A Laurent polynomial in q^(1/2) over the integers, in canonical form."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        """Drop zero coefficients; a non-integral exponent raises TypeError."""
        self._coeffs = {operator.index(e): c for e, c in (coeffs or {}).items() if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def q_power(cls, k: int) -> "LaurentPoly":
        """q^k for an integer power k."""
        return cls({2 * k: 1})

    @classmethod
    def half_power(cls, e: int) -> "LaurentPoly":
        """q^(e/2) where e counts half-exponent units."""
        return cls({e: 1})

    @classmethod
    def sum_of_products(
            cls, pairs: Iterable[tuple["LaurentPoly", "LaurentPoly"]]) -> "LaurentPoly":
        """The sum of a * b over the (a, b) pairs, accumulated in one coefficient dict."""
        out: dict[int, int] = {}
        for a, b in pairs:
            for e1, c1 in a._coeffs.items():
                for e2, c2 in b._coeffs.items():
                    e = e1 + e2
                    out[e] = out.get(e, 0) + c1 * c2
        return cls(out)

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> dict[int, int]:
        """Half-exponent -> coefficient map (a copy, canonical form)."""
        return dict(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def has_only_integer_powers(self) -> bool:
        """True if every exponent is an even number of half units."""
        return all(e % 2 == 0 for e in self._coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "LaurentPoly":
        return self * -1

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self._coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative powers are only defined for monomials; not needed here")
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._coeffs == ({0: other} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._coeffs.items())))

    # -- the q -> q^-1 involution and numeric evaluation --------------------

    def invert_q(self) -> "LaurentPoly":
        """Replace q by q^-1 (mirror-image substitution); an involution."""
        return LaurentPoly({-e: c for e, c in self._coeffs.items()})

    def eval_at(self, q0, sqrt_q0) -> Fraction:
        """Exact value after substituting q^(1/2) := sqrt_q0.

        Both arguments may be ints or Fractions; sqrt_q0 must square to q0
        and q0 must be nonzero, otherwise ValueError is raised.
        """
        q0 = Fraction(q0)
        s = Fraction(sqrt_q0)
        if q0 == 0:
            raise ValueError("evaluation at q = 0 is undefined for Laurent polynomials")
        if s * s != q0:
            raise ValueError(f"sqrt_q0**2 = {s * s} != q0 = {q0}")
        return sum((c * s ** e for e, c in self._coeffs.items()), Fraction(0))

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for i, (e, c) in enumerate(sorted(self._coeffs.items())):
            mag = _term_str(e, abs(c))
            if i == 0:
                parts.append(mag if c > 0 else "-" + mag)
            else:
                parts.append((" + " if c > 0 else " - ") + mag)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def _term_str(e: int, mag: int) -> str:
    """Render |coeff|*q^(e/2) per the canonical display grammar."""
    if e == 0:
        return str(mag)
    if e % 2 == 0:
        k = e // 2
        power = "q" if k == 1 else f"q^{k}"
    else:
        power = f"q^({e}/2)"
    return power if mag == 1 else f"{mag}*{power}"


# Handy module-level constants.
ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
Q = LaurentPoly.q_power(1)
QINV = LaurentPoly.q_power(-1)


def quantum_int(m: int) -> LaurentPoly:
    """The quantum integer [m] = q^(m-1) + q^(m-3) + ... + q^(1-m); [0] = 0."""
    if m < 0:
        raise ValueError(f"quantum integer undefined for negative m = {m}")
    return LaurentPoly({2 * k: 1 for k in range(m - 1, -m - 1, -2)})


_POWER = r"q(?:\^(?:\((?P<half{0}>-?\d+)/2\)|(?P<int{0}>-?\d+)))?"
_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:"
    r"(?P<coeff>\d+)(?:\s*\*?\s*" + _POWER.format("1") + r")?"
    r"|" + _POWER.format("2") + r")"
)


def parse_poly(text: str) -> LaurentPoly:
    """Parse the canonical display grammar back into a LaurentPoly.

    Accepts the forms produced by str(): signed sums of terms like ``3``,
    ``q``, ``q^-2``, ``2*q^3``, ``5*q^(1/2)``.  Raises ValueError on
    anything else.
    """
    s = text.rstrip()
    if not s.strip():
        raise ValueError("empty polynomial string")
    if s.strip() == "0":
        return ZERO
    out: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"malformed polynomial {text!r} at offset {pos}")
        if m.group("sign") is None and not first:
            raise ValueError(f"missing sign separator in {text!r} at offset {pos}")
        coeff = int(m.group("coeff")) if m.group("coeff") else 1
        has_q = "q" in m.group(0)
        if not has_q:
            e = 0
        elif m.group("half1") or m.group("half2"):
            e = int(m.group("half1") or m.group("half2"))
        elif m.group("int1") or m.group("int2"):
            e = 2 * int(m.group("int1") or m.group("int2"))
        else:
            e = 2
        if m.group("sign") == "-":
            coeff = -coeff
        out[e] = out.get(e, 0) + coeff
        pos = m.end()
        first = False
    return LaurentPoly(out)
