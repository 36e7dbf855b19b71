"""Exact scalar field: fractions of polynomials over Q in declared real
parameters.

Parameters are transcendental by default; a parameter may instead be
quadratic, i.e. carry the minimal relation t^2 = D for a positive
non-square rational D.  Scalars are kept in canonical form (coprime
numerator/denominator, denominator free of quadratic parameters and monic
under the lexicographic order), so equality is structural.

Sign and feasibility decisions are made against a Witness: an assignment
of exact rational values to transcendental parameters and of a root choice
+-sqrt(D_i) to quadratic ones.  At the witness every scalar has an exact
value in the real field K = Q(sqrt(D_1), ..., sqrt(D_k)): a Fraction, or a
Surd over the products of the roots, whose sign is decided by the sign
test for towers of quadratic extensions (Basu, Pollack, Roy, Algorithms in
Real Algebraic Geometry, ch. 10).  A value that is not symbolically zero
but vanishes at the witness is Indeterminate.
"""

from __future__ import annotations

import enum
import functools
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from .errors import Indeterminate, UnsupportedEntries

Q = Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


class Parameter:
    """A declared real parameter, transcendental or quadratic (t^2 = D)."""

    __slots__ = ("name", "kind", "D")

    def __init__(self, name: str, kind: str = "transcendental", D=None):
        if kind not in ("transcendental", "quadratic"):
            raise ValueError(f"unknown parameter kind {kind!r}")
        if kind == "quadratic":
            D = _as_fraction(D)
            if D <= 0:
                raise ValueError("quadratic discriminant must be positive")
            if isqrt(D.numerator * D.denominator) ** 2 == \
                    D.numerator * D.denominator:
                raise ValueError("quadratic discriminant must be a non-square")
        elif D is not None:
            raise ValueError("only quadratic parameters carry a discriminant")
        self.name = name
        self.kind = kind
        self.D = D

    def __repr__(self):
        if self.kind == "quadratic":
            return f"Parameter({self.name!r}, quadratic, D={self.D})"
        return f"Parameter({self.name!r})"

    def __eq__(self, other):
        return (isinstance(other, Parameter) and self.name == other.name
                and self.kind == other.kind and self.D == other.D)

    def __hash__(self):
        return hash((self.name, self.kind, self.D))


# ---------------------------------------------------------------------------
# polynomials
#
# A monomial is a tuple of (name, exponent) pairs sorted by name with all
# exponents positive; the empty tuple is the constant monomial.  Terms map
# monomials to nonzero Fractions.  Quadratic parameters are reduced on the
# fly (t^k -> D^(k//2) * t^(k%2)) so their degree never reaches 2.
# ---------------------------------------------------------------------------

_ONE_MONO = ()


def _merge_params(a: dict, b: dict) -> dict:
    if not b:
        return a
    if not a:
        return b
    out = dict(a)
    for name, p in b.items():
        q = out.get(name)
        if q is None:
            out[name] = p
        elif q != p:
            raise ValueError(f"conflicting declarations for parameter {name!r}")
    return out


class Poly:
    """Multivariate polynomial over Q in the declared parameters."""

    __slots__ = ("terms", "params")

    def __init__(self, terms: dict, params: dict):
        self.terms = terms
        self.params = params

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(c, params=None) -> "Poly":
        c = _as_fraction(c)
        return Poly({} if c == 0 else {_ONE_MONO: c}, params or {})

    @staticmethod
    def var(p: Parameter) -> "Poly":
        return Poly({((p.name, 1),): Q(1)}, {p.name: p})

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ONE_MONO in self.terms)

    def const_value(self) -> Fraction:
        if not self.terms:
            return Q(0)
        return self.terms[_ONE_MONO]

    def variables(self) -> set:
        out = set()
        for mono in self.terms:
            for name, _ in mono:
                out.add(name)
        return out

    def has_quadratic(self) -> bool:
        return any(self.params[v].kind == "quadratic" for v in self.variables())

    # -- arithmetic ---------------------------------------------------------

    def _reduce_mono(self, mono):
        """Reduce quadratic exponents; returns (factor, reduced monomial)."""
        factor = Q(1)
        out = []
        for name, e in mono:
            p = self.params.get(name)
            if p is not None and p.kind == "quadratic" and e >= 2:
                factor *= p.D ** (e // 2)
                e = e % 2
            if e:
                out.append((name, e))
        return factor, tuple(out)

    def __add__(self, other: "Poly") -> "Poly":
        params = _merge_params(self.params, other.params)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = terms.get(mono, Q(0)) + c
            if s:
                terms[mono] = s
            else:
                terms.pop(mono, None)
        return Poly(terms, params)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()}, self.params)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        params = _merge_params(self.params, other.params)
        terms: dict = {}
        tmp = Poly({}, params)
        for m1, c1 in self.terms.items():
            d1 = dict(m1)
            for m2, c2 in other.terms.items():
                merged = dict(d1)
                for name, e in m2:
                    merged[name] = merged.get(name, 0) + e
                mono = tuple(sorted(merged.items()))
                factor, mono = tmp._reduce_mono(mono)
                c = c1 * c2 * factor
                s = terms.get(mono, Q(0)) + c
                if s:
                    terms[mono] = s
                else:
                    terms.pop(mono, None)
        return Poly(terms, params)

    def scale(self, c) -> "Poly":
        c = _as_fraction(c)
        if c == 0:
            return Poly({}, self.params)
        return Poly({m: c * v for m, v in self.terms.items()}, self.params)

    # -- lex order helpers --------------------------------------------------

    def _vorder(self):
        return sorted(self.variables())

    def _key(self, mono, vorder):
        d = dict(mono)
        return tuple(d.get(v, 0) for v in vorder)

    def leading(self, vorder=None):
        """Leading (monomial, coefficient) under lex order."""
        if not self.terms:
            return _ONE_MONO, Q(0)
        if vorder is None:
            vorder = self._vorder()
        mono = max(self.terms, key=lambda m: self._key(m, vorder))
        return mono, self.terms[mono]

    def leading_coeff(self) -> Fraction:
        return self.leading()[1]

    # -- display ------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        vorder = self._vorder()
        monos = sorted(self.terms, key=lambda m: self._key(m, vorder), reverse=True)
        parts = []
        for mono in monos:
            c = self.terms[mono]
            factors = []
            for name, e in mono:
                factors.append(name if e == 1 else f"{name}^{e}")
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += sign + body
        return out

    __repr__ = __str__

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


# -- gcd over the transcendental variables ----------------------------------

def _content(polys):
    """gcd of a list of transcendental-only polynomials."""
    g = None
    for p in polys:
        if p.is_zero():
            continue
        g = p if g is None else _gcd2(g, p)
        if g.is_const():
            break
    if g is None:
        return None
    return _monic(g)


def _monic(p: Poly) -> Poly:
    lc = p.leading_coeff()
    if lc == 0 or lc == 1:
        return p
    return p.scale(Q(1) / lc)


def _to_univariate(p: Poly, v: str):
    """Coefficients of p in the variable v, low to high degree."""
    coeffs: dict = {}
    for mono, c in p.terms.items():
        d = dict(mono)
        e = d.pop(v, 0)
        rest = tuple(sorted(d.items()))
        coeffs.setdefault(e, {})[rest] = coeffs.setdefault(e, {}).get(rest, Q(0)) + c
    deg = max(coeffs) if coeffs else 0
    out = []
    for e in range(deg + 1):
        out.append(Poly({m: c for m, c in coeffs.get(e, {}).items() if c}, p.params))
    return out


def _from_univariate(coeffs, v: str, params) -> Poly:
    out = Poly({}, params)
    xe = Poly.const(1, params)
    x = Poly.var(params[v])
    for e, c in enumerate(coeffs):
        if not c.is_zero():
            out = out + (c * xe)
        if e < len(coeffs) - 1:
            xe = xe * x
    return out


def _udeg(u):
    d = len(u) - 1
    while d >= 0 and u[d].is_zero():
        d -= 1
    return d


def _gcd2(a: Poly, b: Poly) -> Poly:
    """gcd of two nonzero polynomials in transcendental variables only."""
    avars = a.variables() | b.variables()
    if not avars:
        return Poly.const(1, _merge_params(a.params, b.params))
    if a.is_const() or b.is_const():
        return Poly.const(1, _merge_params(a.params, b.params))
    v = sorted(avars)[0]
    params = _merge_params(a.params, b.params)
    A = _to_univariate(a, v)
    B = _to_univariate(b, v)
    ca = _content([c for c in A if not c.is_zero()]) or Poly.const(1, params)
    cb = _content([c for c in B if not c.is_zero()]) or Poly.const(1, params)
    A = [poly_divexact(c, ca) for c in A]
    B = [poly_divexact(c, cb) for c in B]
    cont = _gcd2(ca, cb) if not (ca.is_const() and cb.is_const()) else Poly.const(1, params)
    # primitive PRS
    while True:
        da, db = _udeg(A), _udeg(B)
        if db < 0:
            break
        if da < db:
            A, B = B, A
            continue
        R = _pseudo_rem(A, B, params)
        A = B
        B = R
        dr = _udeg(B)
        if dr >= 0:
            cr = _content([c for c in B[: dr + 1] if not c.is_zero()])
            if cr is not None and not cr.is_const():
                B = [poly_divexact(c, cr) if not c.is_zero() else c for c in B]
            # the rational content too, or the coefficients grow
            # exponentially along the sequence
            coeffs = [x for c in B for x in c.terms.values()]
            k = Q(gcd(*(x.numerator for x in coeffs)),
                  lcm(*(x.denominator for x in coeffs)))
            B = [c.scale(1 / k) for c in B]
    da = _udeg(A)
    prim = _from_univariate(A[: da + 1], v, params) if da >= 0 else Poly.const(1, params)
    cg = _content([c for c in A[: da + 1] if not c.is_zero()])
    if cg is not None and not cg.is_const():
        prim = poly_divexact(prim, cg)
    return _monic(cont * prim)


def _pseudo_rem(A, B, params):
    """Pseudo-remainder of univariate polynomial lists (Poly coefficients)."""
    da, db = _udeg(A), _udeg(B)
    lb = B[db]
    R = list(A[: da + 1])
    while True:
        dr = _udeg(R)
        if dr < db:
            break
        lr = R[dr]
        R = [c * lb for c in R]
        shift = dr - db
        for i in range(db + 1):
            R[i + shift] = R[i + shift] - lr * B[i]
    return R


def poly_gcd(a: Poly, b: Poly) -> Poly:
    if a.is_zero():
        return _monic(b) if not b.is_zero() else Poly.const(1, b.params)
    if b.is_zero():
        return _monic(a)
    return _gcd2(a, b)


def poly_divexact(a: Poly, b: Poly) -> Poly:
    """Exact division a / b; b must divide a (b transcendental-only)."""
    if b.is_const():
        return a.scale(Q(1) / b.const_value())
    params = _merge_params(a.params, b.params)
    vorder = sorted(a.variables() | b.variables())
    rem = Poly(dict(a.terms), params)
    bmono, bc = b.leading(vorder)
    bdict = dict(bmono)
    out: dict = {}
    while not rem.is_zero():
        rmono, rc = rem.leading(vorder)
        rdict = dict(rmono)
        qdict = {}
        ok = True
        for name, e in bdict.items():
            if rdict.get(name, 0) < e:
                ok = False
                break
        if not ok:
            raise ArithmeticError("poly_divexact: not divisible")
        for name, e in rdict.items():
            q = e - bdict.get(name, 0)
            if q:
                qdict[name] = q
        qmono = tuple(sorted(qdict.items()))
        qc = rc / bc
        out[qmono] = out.get(qmono, Q(0)) + qc
        rem = rem - Poly({qmono: qc}, params) * b
    return Poly({m: c for m, c in out.items() if c}, params)


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

class Scalar:
    """Canonical fraction of two polynomials over Q in the declared
    parameters.  Immutable; equality is canonical-form equality.

    A scalar whose value is rational keeps it as one Fraction in ``q``,
    whatever parameters it was computed from, and computes with it
    directly; ``num``/``den`` are then built on demand as constant
    polynomials.  Any other scalar has ``q = None`` and keeps its canonical
    ``num``/``den``."""

    __slots__ = ("q", "_num", "_den")

    def __init__(self, num: Poly, den: Poly, _canonical=False):
        if den.is_zero():
            raise ZeroDivisionError("scalar with zero denominator")
        if not _canonical:
            num, den = _canonicalize(num, den)
        if num.is_const() and den.is_const():
            self.q = num.const_value() / den.const_value()
            return
        self.q = None
        self._num = num
        self._den = den

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_fraction(c) -> "Scalar":
        return _rational(_as_fraction(c))

    @staticmethod
    def of_param(p: Parameter) -> "Scalar":
        return Scalar(Poly.var(p), Poly.const(1, {p.name: p}), _canonical=True)

    @staticmethod
    def zero() -> "Scalar":
        return _ZERO

    @staticmethod
    def one() -> "Scalar":
        return _ONE

    # -- coercion ------------------------------------------------------------

    @staticmethod
    def coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, Parameter):
            return Scalar.of_param(x)
        return _rational(_as_fraction(x))

    @property
    def num(self) -> Poly:
        return self._num if self.q is None else Poly.const(self.q)

    @property
    def den(self) -> Poly:
        return self._den if self.q is None else Poly.const(1)

    @property
    def params(self) -> dict:
        if self.q is not None:
            return {}
        return _merge_params(self._num.params, self._den.params)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        if self.q is not None:
            return not self.q
        return self._num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def is_rational(self) -> bool:
        return self.q is not None

    def as_fraction(self) -> Fraction:
        if self.q is None:
            raise UnsupportedEntries(f"{self} is not rational")
        return self.q

    def is_integer(self) -> bool:
        return self.is_rational() and self.as_fraction().denominator == 1

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = Scalar.coerce(other)
        if self.q is not None and other.q is not None:
            return _rational(self.q + other.q)
        return Scalar(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        if self.q is not None:
            return _rational(-self.q)
        return Scalar(-self._num, self._den, _canonical=True)

    def __sub__(self, other):
        other = Scalar.coerce(other)
        if self.q is not None and other.q is not None:
            return _rational(self.q - other.q)
        return self + (-other)

    def __rsub__(self, other):
        other = Scalar.coerce(other)
        if self.q is not None and other.q is not None:
            return _rational(other.q - self.q)
        return other + (-self)

    def __mul__(self, other):
        other = Scalar.coerce(other)
        if self.q is not None and other.q is not None:
            return _rational(self.q * other.q)
        return Scalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if self.q is not None and other.q is not None:
            return _rational(self.q / other.q)
        return Scalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return Scalar.coerce(other) / self

    def __pow__(self, e: int):
        if self.q is not None:
            return _rational(self.q ** e)
        if e < 0:
            return Scalar.one() / self ** (-e)
        out = Scalar.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _rational(_as_fraction(other))
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.q is not None or other.q is not None:
            return self.q == other.q
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        if self.q is not None:
            return hash(self.q)
        return hash((self._num, self._den))

    # -- display -------------------------------------------------------------

    def __str__(self):
        if self.q is not None:
            return str(self.q)
        if self._den.is_const() and self._den.const_value() == 1:
            return str(self._num)
        return f"({self._num})/({self._den})"

    def __repr__(self):
        return str(self)


def _canonicalize(num: Poly, den: Poly):
    params = _merge_params(num.params, den.params)
    if num.is_zero():
        return Poly({}, params), Poly.const(1, params)
    # clear quadratic parameters from the denominator by conjugation
    while den.has_quadratic():
        qv = sorted(v for v in den.variables()
                    if params[v].kind == "quadratic")[0]
        u = _to_univariate(den, qv)
        p0 = u[0]
        p1 = u[1] if len(u) > 1 else Poly({}, params)
        t = Poly.var(params[qv])
        conj = p0 - p1 * t
        num = num * conj
        den = den * conj
        if den.has_quadratic() and qv in den.variables():
            raise ArithmeticError("conjugation failed to clear quadratic")
        if num.is_zero():
            return Poly({}, params), Poly.const(1, params)
    # divide by gcd of den with the transcendental coefficients of num
    qvars = sorted(v for v in num.variables() if params[v].kind == "quadratic")
    pieces = [num]
    for qv in qvars:
        nxt = []
        for p in pieces:
            nxt.extend(_to_univariate(p, qv))
        pieces = [p for p in nxt if not p.is_zero()]
    g = den
    for p in pieces:
        g = poly_gcd(g, p)
        if g.is_const():
            break
    if not g.is_const():
        num = poly_divexact(num, g)
        den = poly_divexact(den, g)
    lc = den.leading_coeff()
    if lc != 1:
        num = num.scale(Q(1) / lc)
        den = den.scale(Q(1) / lc)
    return num, den


def _rational(q: Fraction) -> Scalar:
    """Parameter-free scalar of value q (a Fraction)."""
    s = _new(Scalar)
    s.q = q
    return s


_new = object.__new__
_ZERO = _rational(Q(0))
_ONE = _rational(Q(1))


# ---------------------------------------------------------------------------
# witnesses and signs
# ---------------------------------------------------------------------------

class Sign(enum.Enum):
    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1


def _coprime_base(nums) -> list:
    """Pairwise coprime integers > 1 that multiply out to each of nums
    (positive integers).  Splitting a pair that shares g > 1 into g and the
    cofactors divides the product of all numbers in play by g, so there
    are at most log2 of that product splits."""
    base, todo = [], [x for x in nums if x > 1]
    while todo:
        x = todo.pop()
        b = next((b for b in base if gcd(x, b) > 1), None)
        if b is None:
            base.append(x)
        else:
            base.remove(b)
            g = gcd(x, b)
            todo += [y for y in (g, b // g, x // g) if y > 1]
    return base


def square_class(D: Fraction, quadratics) -> tuple | None:
    """(r, S) with sqrt(D) = r * prod(sqrt(p.D) for p in S), S a subset of
    the quadratic parameters and r >= 0 rational, when D times the product
    of S's discriminants is a rational square; None when no subset makes
    it one.  quadratics is iterated twice.

    n/d is a rational square exactly when n*d is a square.  Over a coprime
    base of these integers a product is a square exactly when each
    non-square base element occurs to an even power, so S solves a linear
    system over GF(2) in the exponent parities: no factoring is needed."""
    if D == 0:
        return Q(0), ()
    ints = [x.numerator * x.denominator for x in
            [p.D for p in quadratics] + [D]]
    base = [b for b in _coprime_base(ints) if isqrt(b) ** 2 != b]

    def parity(m):
        v = 0
        for j, b in enumerate(base):
            while m % b == 0:
                m, v = m // b, v ^ 1 << j
        return v

    pivots = {}   # leading bit -> (parities, mask of the rows summed in)
    for i, m in enumerate(ints):   # D's row comes last
        v, mask = parity(m), 1 << i
        while v and v.bit_length() in pivots:
            pv, pm = pivots[v.bit_length()]
            v, mask = v ^ pv, mask ^ pm
        if v:
            pivots[v.bit_length()] = (v, mask)
    if v:
        return None
    S = tuple(p for i, p in enumerate(quadratics) if mask >> i & 1)
    ds = prod((p.D for p in S), start=Q(1))
    x = D * ds
    return Q(isqrt(x.numerator), isqrt(x.denominator)) / ds, S


class Witness:
    """Exact rational values for transcendental parameters and root choices
    for quadratic ones; used only for sign and feasibility decisions.

    The quadratic parameter t^2 = n/d is b/d for the root b = +-sqrt(n*d),
    so values in K keep integer coefficients over products of the roots."""

    def __init__(self, values: dict):
        self.values, self._quad, self._roots = {}, {}, []
        for p, v in values.items():
            if not isinstance(p, Parameter):
                raise TypeError("witness keys must be Parameters")
            if p.kind == "quadratic":
                sign = 1 if _as_fraction(v) >= 0 else -1
                self.values[p.name] = (p, sign)
                self._quad[p.name] = (1 << len(self._roots), p.D.denominator)
                self._roots.append((p.D.numerator * p.D.denominator, sign))
            else:
                self.values[p.name] = (p, _as_fraction(v))

    def value(self, s: Scalar):
        """The exact value of s at the witness: a Fraction when it is
        rational, else a Surd.  Indeterminate when the denominator (free of
        quadratic parameters, so rational) vanishes there."""
        if s.q is not None:
            return s.q
        den = self._put(s._den)
        if not den:
            raise Indeterminate(f"denominator of {s} vanishes at the witness")
        return self._put(s._num) / den

    def _square(self, m: int) -> int:
        """The square of the product of the roots in the subset m."""
        return prod(R for i, (R, _) in enumerate(self._roots) if m >> i & 1)

    def _put(self, poly: Poly):
        """poly at the witness (quadratic exponents are reduced to 1)."""
        c = {}
        for mono, x in poly.terms.items():
            m = 0
            for name, e in mono:
                if name in self._quad:
                    bit, d = self._quad[name]
                    m, x = m | bit, x / d
                elif name in self.values:
                    x = x * self.values[name][1] ** e
                else:
                    raise UnsupportedEntries(f"parameter {name} not valued")
            c[m] = c.get(m, 0) + x
        L = lcm(*(x.denominator for x in c.values()))
        return _surd({m: x.numerator * (L // x.denominator)
                      for m, x in c.items()}, L, self)


@functools.total_ordering
class Surd:
    """An irrational element of K = Q(sqrt(D_1), ..., sqrt(D_k)) at a
    witness w: the sum of c[S]/den times the product of the roots in S over
    subsets S (bitmasks), with integers c[S] != 0 and den > 0 in lowest
    terms.  Arithmetic with ints, Fractions and Surds of one witness returns
    a Fraction whenever the result is rational; comparisons go through the
    exact sign.  Products of multiplicatively independent roots are
    linearly independent over Q, so a Surd is never zero and equality is
    structural."""

    __slots__ = ("c", "den", "w")

    def __init__(self, c: dict, den: int, w: Witness):
        self.c, self.den, self.w = c, den, w

    def sign(self) -> int:
        return _sign(self.c, self.w)

    def __add__(self, other):
        if isinstance(other, Surd):
            c2, d2 = other.c, other.den
        else:
            c2, d2 = {0: other.numerator}, other.denominator
        L = lcm(self.den, d2)
        c = {m: x * (L // self.den) for m, x in self.c.items()}
        for m, x in c2.items():
            c[m] = c.get(m, 0) + x * (L // d2)
        return _surd(c, L, self.w)

    def __mul__(self, other):
        if isinstance(other, Surd):
            return _surd(_mul(self.c, other.c, self.w),
                         self.den * other.den, self.w)
        return _surd({m: x * other.numerator for m, x in self.c.items()},
                     self.den * other.denominator, self.w)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return Surd({m: -x for m, x in self.c.items()}, self.den, self.w)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __truediv__(self, other):
        return self * (1 / (other if isinstance(other, Surd)
                            else Fraction(other)))

    def __rtruediv__(self, other):
        """other/self by conjugates, one root at a time: with b the last
        root in use, (alpha + beta*b)(alpha - beta*b) = alpha^2 - beta^2*b^2
        is free of b."""
        y = self
        while isinstance(y, Surd):
            bit = 1 << max(y.c).bit_length() - 1
            conj = Surd({m: -x if m & bit else x for m, x in y.c.items()},
                        y.den, y.w)
            other, y = conj * other, y * conj
        return other / y

    def __eq__(self, other):
        return (isinstance(other, Surd) and self.den == other.den
                and self.c == other.c)

    __hash__ = None

    def __lt__(self, other):
        d = self if not isinstance(other, Surd) and other == 0 \
            else self - other
        return (d.sign() if isinstance(d, Surd) else d) < 0


def _surd(c: dict, den: int, w: Witness):
    """The sum of c[S]/den times the roots in S, den > 0: a Fraction when no
    root is left, else a Surd in lowest terms."""
    c = {m: x for m, x in c.items() if x}
    if c.keys() <= {0}:
        return Fraction(c.get(0, 0), den)
    g = gcd(den, *c.values())
    if g > 1:
        c = {m: x // g for m, x in c.items()}
        den //= g
    return Surd(c, den, w)


def _mul(a: dict, b: dict, w: Witness) -> dict:
    """The product of two coefficient dicts over the roots of w."""
    out = {}
    for m1, x1 in a.items():
        for m2, x2 in b.items():
            x = x1 * x2 * w._square(m1 & m2) if m1 & m2 else x1 * x2
            out[m1 ^ m2] = out.get(m1 ^ m2, 0) + x
    return out


def _sign(c: dict, w: Witness) -> int:
    """Sign of the sum of c[S] times the roots in S (integer c).  With
    x = alpha + beta*b for the last root b in use, the sign is that of
    alpha or beta*b when they agree (or one is zero), else
    sign(alpha) * sign(alpha^2 - beta^2*b^2)."""
    top = max(c, default=0)
    if not top:
        x = c.get(0, 0)
        return (x > 0) - (x < 0)
    i = top.bit_length() - 1
    R, root_sign = w._roots[i]
    alpha = {m: x for m, x in c.items() if not m >> i & 1}
    beta = {m ^ 1 << i: x for m, x in c.items() if m >> i & 1}
    sa = _sign(alpha, w)
    sb = _sign(beta, w) * root_sign
    if sa == 0 or sa == sb:
        return sb
    if sb == 0:
        return sa
    d = _mul(alpha, alpha, w)
    for m, x in _mul(beta, beta, w).items():
        d[m] = d.get(m, 0) - R * x
    return sa * _sign(d, w)


def sign_at(s: Scalar, w: Witness) -> Sign:
    """Sign of s at the witness: symbolic zero test first, then the exact
    sign of w.value(s).  Indeterminate when s, or its denominator, is not
    symbolically zero but vanishes at the witness."""
    s = Scalar.coerce(s)
    if s.is_zero():
        return Sign.ZERO
    v = w.value(s)
    sign = v.sign() if isinstance(v, Surd) else (v > 0) - (v < 0)
    if not sign:
        raise Indeterminate(
            f"{s} vanishes at the witness but is not symbolically zero")
    return Sign(sign)
