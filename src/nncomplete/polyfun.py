"""Exact univariate polynomials and rational functions over the rationals.

Used to track how matrix entries and polygon vertices move as a single
parameter t varies.  Provides exact arithmetic, evaluation, rational root
extraction, and Sturm-sequence isolation of irrational real roots.

Root finding and gcds work on primitive integer coefficients, and their
cost is polynomial in the degree and in the coefficient bit size:

- a linear polynomial has its root in closed form;
- otherwise the real roots of the square-free part are isolated by
  bisection with its Sturm chain (Collins & Akritas 1976).  A rational
  root p/q of an integer polynomial with leading coefficient L has q | L,
  and two such fractions differ by at least 1/L^2, so each root is
  narrowed to an interval shorter than 1/(2 L^2) and the midpoint's
  ``limit_denominator(L)`` is the only candidate, which is tested exactly;
- ``Poly.gcd`` runs a primitive pseudo-remainder sequence;
- ``SharedDenominator`` writes several rational functions over one
  integer denominator, so that a linear combination of them is one
  integer polynomial, reduced by a single gcd.

A ``Poly`` is immutable, so its square-free part and Sturm chain are
computed once, on first use, and kept on it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class Poly:
    """Univariate polynomial with Fraction coefficients, low degree first."""

    __slots__ = ("coeffs", "_sturm")

    def __init__(self, coeffs):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self._sturm = None  # filled by _sturm_chain()

    @classmethod
    def x(cls) -> "Poly":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __call__(self, t) -> Fraction:
        t = Fraction(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        return other is not None and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            ]
        )

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 1)
        rem = list(self.coeffs)
        d = other.degree
        lead = other.leading()
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            f = rem[-1] / lead
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
            rem.pop()
        return Poly(q), Poly(rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.leading()
        return Poly([c / lead for c in self.coeffs])

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor; zero only if both are zero."""
        g = _int_gcd(_integer_primitive(self.coeffs), _integer_primitive(other.coeffs))
        return Poly(g).monic()

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*t")
            else:
                terms.append(f"{c}*t^{i}")
        return "Poly(" + " + ".join(terms) + ")"

    # -- roots --------------------------------------------------------

    def _sturm_chain(self) -> tuple:
        """Sturm chain of the primitive integer square-free part, computed
        once.  Each member is a positive multiple of the classical one, so
        sign variations are the same."""
        if self._sturm is None:
            p = _integer_primitive(self.coeffs)
            sq = p
            if len(p) > 2:
                g = _int_gcd(p, _primitive(_derivative(p)))
                if len(g) > 1:
                    sq = _primitive(_pdivmod(p, g)[0])
            chain = [sq]
            if len(sq) > 1:
                chain.append(_primitive(_derivative(sq)))
                while True:
                    r = _pdivmod(chain[-2], chain[-1])[1]
                    if not r:
                        break
                    chain.append(_primitive([-c for c in r]))
            self._sturm = tuple(chain)
        return self._sturm

    def _roots(self) -> list[tuple[Fraction, Fraction]]:
        """One bisection with the Sturm chain, sorted: (r, r) for each
        rational root r and a bracket (a, b] for each irrational one.

        Each bracket holding one root is narrowed below 1/(2 L^2), and the
        ``limit_denominator(L)`` candidate is tested exactly.
        """
        if self.is_zero():
            raise ValueError("zero polynomial has every root")
        if self.degree < 1:
            return []
        if self.degree == 1:
            r = -self.coeffs[0] / self.coeffs[1]
            return [(r, r)]
        chain = self._sturm_chain()
        sq = chain[0]
        lead = abs(sq[-1])
        width = Fraction(1, 2 * lead * lead)
        b = _cauchy_bound(sq)
        out = []
        stack = [(-b, b, _variations(chain, -b), _variations(chain, b))]
        while stack:
            lo, hi, v_lo, v_hi = stack.pop()
            n = v_lo - v_hi
            if n == 0:
                continue
            if n > 1:
                mid = (lo + hi) / 2
                v_mid = _variations(chain, mid)
                stack.append((lo, mid, v_lo, v_mid))
                stack.append((mid, hi, v_mid, v_hi))
                continue
            # one simple root r in (lo, hi]: halve by the sign of sq alone
            v_hi = _scaled_value(sq, hi)
            if v_hi == 0:
                out.append((hi, hi))
                continue
            s_hi = v_hi > 0
            while hi - lo >= width:
                mid = (lo + hi) / 2
                v = _scaled_value(sq, mid)
                if v == 0:
                    out.append((mid, mid))
                    break
                if (v > 0) == s_hi:
                    hi = mid
                else:
                    lo = mid
            else:
                # r is in the open (lo, hi); the candidate may also be a
                # root next to it, so it must lie inside
                cand = ((lo + hi) / 2).limit_denominator(lead)
                rational = lo < cand < hi and _scaled_value(sq, cand) == 0
                out.append((cand, cand) if rational else (lo, hi))
        return sorted(out)

    def rational_roots(self) -> list[Fraction]:
        """All rational roots, each listed once, sorted."""
        return [a for a, b in self._roots() if a == b]

    def count_roots(self, a: Fraction, b: Fraction) -> int:
        """Number of distinct real roots in (a, b], a < b, via Sturm."""
        chain = self._sturm_chain()
        return _variations(chain, Fraction(a)) - _variations(chain, Fraction(b))

    def isolate_real_roots(self) -> list[tuple[Fraction, Fraction]]:
        """Disjoint rational intervals (a, b], one per distinct real root.

        A rational root r yields the degenerate interval (r, r].
        """
        return self._roots()


def _as_poly(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly([x])
    return None


# -- integer coefficient tuples, low degree first -------------------------


def _primitive(cs) -> tuple:
    """Integer coefficients divided by their (positive) content."""
    g = gcd(*cs)
    return tuple(c // g for c in cs) if g > 1 else tuple(cs)


def _integer_primitive(coeffs) -> tuple:
    """Primitive integer polynomial that is a positive multiple of the
    Fraction polynomial ``coeffs``."""
    m = lcm(*(c.denominator for c in coeffs))
    return _primitive([c.numerator * (m // c.denominator) for c in coeffs])


def _derivative(cs) -> list:
    return [i * c for i, c in enumerate(cs)][1:]


def _pdivmod(a, b) -> tuple[list, list]:
    """Pseudo-division (q, r) with |lc(b)|^k a = q b + r for some k >= 0
    and deg r < deg b: quotient and remainder are positive multiples of
    the rational ones."""
    lead = b[-1]
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 1)
    r = list(a)
    while len(r) - 1 >= db:
        k = len(r) - 1 - db
        f = r[-1] * sign
        if scale != 1:
            r = [c * scale for c in r]
            q = [c * scale for c in q]
        q[k] += f
        for i, c in enumerate(b):
            r[k + i] -= f * c
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return q, r


def _int_gcd(a, b) -> tuple:
    """Primitive gcd of two primitive integer polynomials."""
    while b:
        a, b = b, _primitive(_pdivmod(a, b)[1])
    return a


def _scaled_value(cs, x: Fraction) -> int:
    """den(x)^deg * P(x): an integer with the sign of P(x)."""
    p, q = x.numerator, x.denominator
    acc = 0
    qk = 1
    for c in reversed(cs):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _variations(chain, x: Fraction) -> int:
    """Sign changes of the chain at x, zeros dropped."""
    signs = [v > 0 for v in (_scaled_value(p, x) for p in chain) if v != 0]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def _cauchy_bound(cs) -> Fraction:
    """All real roots of the polynomial lie in (-B, B)."""
    return 1 + Fraction(max(abs(c) for c in cs[:-1]), abs(cs[-1]))


class RationalFunction:
    """Quotient of two polynomials, kept in lowest terms with monic
    denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=Poly([1])):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Poly([1])
        elif not (num.is_constant() or den.is_constant()):
            g = num.gcd(den)
            if g.degree >= 1:
                num = num // g
                den = den // g
        lead = den.leading()
        if lead != 1:
            num = Poly([c / lead for c in num.coeffs])
            den = Poly([c / lead for c in den.coeffs])
        self.num = num
        self.den = den

    @classmethod
    def constant(cls, c) -> "RationalFunction":
        return cls(Poly([c]))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def __call__(self, t) -> Fraction:
        t = Fraction(t)
        d = self.den(t)
        if d == 0:
            raise ZeroDivisionError(f"pole at t = {t}")
        return self.num(t) / d

    def defined_at(self, t) -> bool:
        return self.den(t) != 0

    def __eq__(self, other) -> bool:
        other = _as_rf(other)
        return (
            other is not None
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __add__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return other / self

    def __repr__(self) -> str:
        if self.den == Poly([1]):
            return f"RationalFunction({self.num!r})"
        return f"RationalFunction({self.num!r} / {self.den!r})"


def _as_rf(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, Poly):
        return RationalFunction(x)
    if isinstance(x, (int, Fraction)):
        return RationalFunction(Poly([x]))
    return None


class SharedDenominator:
    """Rational functions f_1, ..., f_k over one denominator: f_i =
    nums[i] / den, where den is the lcm of their reduced denominators.

    ``den`` and each of ``nums`` are integer coefficient tuples, low degree
    first, padded with zeros to one length.  A linear combination of the
    f_i is then one integer polynomial over den (Basu, Pollack & Roy),
    with no rational-function sum and no gcd per term.
    """

    __slots__ = ("den", "nums")

    def __init__(self, functions):
        fs = [_as_rf(f) for f in functions]
        den = Poly([1])
        for f in fs:
            if not f.den.is_constant() and f.den != den:
                den = f.den if den.is_constant() else den * (f.den // den.gcd(f.den))
        polys = [den] + [f.num if f.den == den else f.num * (den // f.den) for f in fs]
        width = max(len(p.coeffs) for p in polys)
        scale = lcm(*(c.denominator for p in polys for c in p.coeffs))
        ints = [
            [c.numerator * (scale // c.denominator) for c in p.coeffs] + [0] * (width - len(p.coeffs))
            for p in polys
        ]
        g = gcd(*(c for cs in ints for c in cs))
        self.den, *nums = (tuple(c // g for c in cs) for cs in ints)
        self.nums = tuple(nums)

    def combination_roots(self, constant, weights) -> list[Fraction]:
        """Sorted rational roots of the numerator and of the denominator
        of constant + sum(w_i * f_i) in lowest terms; none for zero."""
        cs = [Fraction(constant), *map(Fraction, weights)]
        scale = lcm(*(c.denominator for c in cs))
        c0, *ws = (c.numerator * (scale // c.denominator) for c in cs)
        num = [c0 * x for x in self.den]
        for w, n in zip(ws, self.nums, strict=True):
            if w:
                num = [a + w * x for a, x in zip(num, n)]
        while num and num[-1] == 0:
            num.pop()
        if not num:
            return []
        den = list(self.den)
        while den[-1] == 0:
            den.pop()
        num, den = _primitive(num), _primitive(den)
        if len(num) > 1 and len(den) > 1:
            g = _int_gcd(num, den)
            if len(g) > 1:
                num, den = _pdivmod(num, g)[0], _pdivmod(den, g)[0]
        return sorted(r for p in (num, den) if len(p) > 1 for r in Poly(p).rational_roots())
