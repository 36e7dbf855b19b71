"""Exact scalar field: fractions of polynomials in declared real parameters
with coefficients in K = Q(sqrt(D_1), ..., sqrt(D_k)).

Parameters are transcendental by default; a quadratic one, t^2 = D with
D = n/d a positive non-square in lowest terms, is the positive root
t = sqrt(n*d)/d.  A number in K has one form, the Surd, over the positive
roots.  A scalar free of transcendental parameters is its value, a
Fraction or a Surd; any other is a canonical fraction of polynomials in
the transcendental parameters with coefficients in K (coprime, the
denominator rational and monic in lex order), so equality is structural.
Outside this module polynomials are read through Poly.flat.

Signs are decided against a Witness: rational values for transcendental
parameters and a sign for each root.  There every scalar has an exact
value in K, a Surd relabelled for the signs (a coefficient flips when its
root subset holds an odd number of negative roots), whose sign is decided
by the sign test for towers of quadratic extensions (Basu, Pollack, Roy,
Algorithms in Real Algebraic Geometry, ch. 10).  A value that is not
symbolically zero but vanishes at the witness is Indeterminate.
"""

from __future__ import annotations

import enum
import functools
import threading
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import or_

from .errors import Indeterminate, UnsupportedEntries

Q = Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


# The positive roots, one per quadratic (name, D) declared in the process:
# root i is sqrt(R) for t = sqrt(R)/d of the parameter p, _ROOTS[i] =
# (R, d, p).  Entries never change, so values per root subset are cached.
_ROOT_LOCK = threading.Lock()
_ROOT_INDEX: dict = {}      # (name, D) -> i
_ROOTS: list = []


class Parameter:
    """A declared real parameter, transcendental or quadratic (t^2 = D).
    A quadratic one has the bit 1 << i of its root i; a transcendental one
    has bit 0."""

    __slots__ = ("name", "kind", "D", "bit")

    def __init__(self, name: str, kind: str = "transcendental", D=None):
        if kind not in ("transcendental", "quadratic"):
            raise ValueError(f"unknown parameter kind {kind!r}")
        self.name, self.kind, self.D, self.bit = name, kind, D, 0
        if kind == "quadratic":
            self.D = D = _as_fraction(D)
            if D <= 0:
                raise ValueError("quadratic discriminant must be positive")
            R = D.numerator * D.denominator
            if isqrt(R) ** 2 == R:
                raise ValueError("quadratic discriminant must be a non-square")
            with _ROOT_LOCK:
                i = _ROOT_INDEX.setdefault((name, D), len(_ROOTS))
                if i == len(_ROOTS):
                    _ROOTS.append((R, D.denominator, self))
            self.bit = 1 << i
        elif D is not None:
            raise ValueError("only quadratic parameters carry a discriminant")

    def __repr__(self):
        if self.kind == "quadratic":
            return f"Parameter({self.name!r}, quadratic, D={self.D})"
        return f"Parameter({self.name!r})"

    def __eq__(self, other):
        return (isinstance(other, Parameter) and self.name == other.name
                and self.kind == other.kind and self.D == other.D)

    def __hash__(self):
        return hash((self.name, self.kind, self.D))


def _in(m: int) -> list:
    """The table entries of the roots in the subset m."""
    return [r for i, r in enumerate(_ROOTS[:m.bit_length()]) if m >> i & 1]


def _root_params(m: int) -> dict:
    return {p.name: p for _, _, p in _in(m)}


@functools.cache
def _root_monomial(m: int) -> tuple:
    """(monomial, f) with the product of the roots in the subset m equal to
    f times the monomial in their parameters: sqrt(R) = d*t."""
    return (tuple(sorted((p.name, 1) for _, _, p in _in(m))),
            prod(d for _, d, _ in _in(m)))


@functools.cache
def _square(m: int) -> int:
    """The square of the product of the roots in the subset m."""
    return prod(R for R, _, _ in _in(m))


# ---------------------------------------------------------------------------
# numbers in K
# ---------------------------------------------------------------------------

@functools.total_ordering
class Surd:
    """An irrational element of K: the sum of c[S]/den times the product of
    the positive roots in S over subsets S (bitmasks), with integers
    c[S] != 0 and den > 0 in lowest terms.  Arithmetic with ints,
    Fractions and Surds returns a Fraction whenever the result is rational;
    comparisons go through the exact sign.  Products of multiplicatively
    independent roots are linearly independent over Q, so a Surd is never
    zero and equality is structural.  Its hash is that of the scalar it is
    the value of."""

    __slots__ = ("c", "den", "_hash")

    def __init__(self, c: dict, den: int):
        self.c, self.den, self._hash = c, den, None

    def sign(self) -> int:
        return _sign(self.c)

    def __add__(self, other):
        if isinstance(other, Surd):
            c2, d2 = other.c, other.den
        else:
            c2, d2 = {0: other.numerator}, other.denominator
        L = lcm(self.den, d2)
        c = {m: x * (L // self.den) for m, x in self.c.items()}
        for m, x in c2.items():
            c[m] = c.get(m, 0) + x * (L // d2)
        return _surd(c, L)

    def __mul__(self, other):
        if isinstance(other, Surd):
            return _surd(_mul(self.c, other.c), self.den * other.den)
        return _surd({m: x * other.numerator for m, x in self.c.items()},
                     self.den * other.denominator)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return Surd({m: -x for m, x in self.c.items()}, self.den)

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
            conj = _conj(y, 1 << max(y.c).bit_length() - 1)
            other, y = conj * other, y * conj
        return other / y

    def __eq__(self, other):
        return (isinstance(other, Surd) and self.den == other.den
                and self.c == other.c)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((Poly.const(self), _ONE_POLY))
        return self._hash

    def __lt__(self, other):
        d = self if not isinstance(other, Surd) and other == 0 \
            else self - other
        return (d.sign() if isinstance(d, Surd) else d) < 0


def _surd(c: dict, den: int):
    """The sum of c[S]/den times the roots in S, den > 0: a Fraction when no
    root is left, else a Surd in lowest terms."""
    c = {m: x for m, x in c.items() if x}
    if c.keys() <= {0}:
        return Fraction(c.get(0, 0), den)
    g = gcd(den, *c.values())
    if g > 1:
        c = {m: x // g for m, x in c.items()}
        den //= g
    return Surd(c, den)


def _conj(x: Surd, bit: int) -> Surd:
    """x with the root of the given bit negated."""
    return Surd({m: -v if m & bit else v for m, v in x.c.items()}, x.den)


def _mul(a: dict, b: dict) -> dict:
    """The product of two coefficient dicts over the roots."""
    out = {}
    for m1, x1 in a.items():
        for m2, x2 in b.items():
            x = x1 * x2 * _square(m1 & m2) if m1 & m2 else x1 * x2
            out[m1 ^ m2] = out.get(m1 ^ m2, 0) + x
    return out


def _sign(c: dict) -> int:
    """Sign of the sum of c[S] times the positive roots in S (integer c).
    With x = alpha + beta*b for the last root b in use, the sign is that of
    alpha or beta*b when they agree (or one is zero), else
    sign(alpha) * sign(alpha^2 - beta^2*b^2)."""
    top = max(c, default=0)
    if not top:
        x = c.get(0, 0)
        return (x > 0) - (x < 0)
    bit = 1 << top.bit_length() - 1
    alpha = {m: x for m, x in c.items() if not m & bit}
    beta = {m ^ bit: x for m, x in c.items() if m & bit}
    sa, sb = _sign(alpha), _sign(beta)
    if sa == 0 or sa == sb:
        return sb
    if sb == 0:
        return sa
    d = _mul(alpha, alpha)
    R = _square(bit)
    for m, x in _mul(beta, beta).items():
        d[m] = d.get(m, 0) - R * x
    return sa * _sign(d)


class _Root(dict):
    """An element of Z[sqrt(D_1), ..., sqrt(D_k)], a row entry of the
    simplex's Surd tableaux: nonzero ints over the root subsets (as
    Surd.c), with the products, differences, exact divisions by an int
    and signs its loop takes."""

    def __mul__(self, other):
        return _Root({m: x for m, x in _mul(self, other).items() if x})

    def __sub__(self, other):
        out = dict(self)
        for m, x in other.items():
            out[m] = out.get(m, 0) - x
        return _Root({m: x for m, x in out.items() if x})

    def __floordiv__(self, g: int):
        return _Root({m: x // g for m, x in self.items()})

    def __lt__(self, zero):
        return _sign(self) < 0

    def __gt__(self, zero):
        return _sign(self) > 0


# ---------------------------------------------------------------------------
# polynomials
#
# A monomial is a tuple of (name, exponent) pairs sorted by name with all
# exponents positive, over transcendental parameters only; the empty tuple
# is the constant monomial.  Terms map monomials to nonzero coefficients in
# K, Fractions or Surds.
# ---------------------------------------------------------------------------

_ONE_MONO = ()


class Poly:
    """Multivariate polynomial in the transcendental parameters with
    coefficients in K.  A transcendental parameter is its name, so a
    polynomial is its terms and nothing else."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(c) -> "Poly":
        c = c if type(c) is Surd else _as_fraction(c)
        return Poly({} if c == 0 else {_ONE_MONO: c})

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ONE_MONO in self.terms)

    def const_value(self):
        return self.terms.get(_ONE_MONO, Q(0))

    def variables(self) -> set:
        return {name for mono in self.terms for name, _ in mono}

    def flat(self) -> dict:
        """The terms over all parameter names: the product of the roots in
        S times a monomial becomes a monomial in the quadratic parameters
        too, with a Fraction coefficient.  ValueError when one name stands
        for two parameters, which the view would merge."""
        roots = functools.reduce(or_, map(_roots, self.terms.values()), 0)
        names = _root_params(roots)
        if roots and (len(names) < roots.bit_count()
                      or names.keys() & self.variables()):
            raise ValueError(f"conflicting declarations of {sorted(names)}")
        out = {}
        for mono, x in self.terms.items():
            if type(x) is not Surd:
                out[mono] = x
                continue
            for m, c in x.c.items():
                rmono, f = _root_monomial(m)
                out[tuple(sorted(mono + rmono))] = Fraction(c * f, x.den)
        return out

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, 0) + c
        return Poly({m: c for m, c in terms.items() if c})

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        terms: dict = {}
        for m1, c1 in self.terms.items():
            d1 = dict(m1)
            for m2, c2 in other.terms.items():
                merged = dict(d1)
                for name, e in m2:
                    merged[name] = merged.get(name, 0) + e
                mono = tuple(sorted(merged.items()))
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return Poly({m: c for m, c in terms.items() if c})

    def scale(self, c) -> "Poly":
        c = c if type(c) is Surd else _as_fraction(c)
        if c == 0:
            return Poly({})
        return Poly({m: c * v for m, v in self.terms.items()})

    def __floordiv__(self, other: "Poly") -> "Poly":
        return poly_divexact(self, other)

    # -- lex order helpers --------------------------------------------------

    @staticmethod
    def _key(mono, vorder):
        d = dict(mono)
        return tuple(d.get(v, 0) for v in vorder)

    def leading(self):
        """Leading (monomial, coefficient) under lex order."""
        if not self.terms:
            return _ONE_MONO, Q(0)
        vorder = sorted(self.variables())
        mono = max(self.terms, key=lambda m: self._key(m, vorder))
        return mono, self.terms[mono]

    def leading_coeff(self):
        return self.leading()[1]

    # -- display ------------------------------------------------------------

    def __str__(self):
        """The flat terms in decreasing lex order, each as its sign, then
        |coefficient| unless it is 1 beside a monomial, then the monomial."""
        terms = self.flat()
        vorder = sorted({name for mono in terms for name, _ in mono})
        out = ""
        for mono in sorted(terms, key=lambda m: self._key(m, vorder),
                           reverse=True):
            c = terms[mono]
            factors = [n if e == 1 else f"{n}^{e}" for n, e in mono]
            if not factors or abs(c) != 1:
                factors.insert(0, str(abs(c)))
            out += ("-" if c < 0 else "+" if out else "") + "*".join(factors)
        return out or "0"

    __repr__ = __str__

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.flat().items()))


_ONE_POLY = Poly.const(1)


# -- gcd over the transcendental variables ----------------------------------

def _content(polys):
    """gcd of a list of nonzero polynomials with rational coefficients."""
    g = None
    for p in polys:
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
        coeffs.setdefault(d.pop(v, 0), {})[tuple(sorted(d.items()))] = c
    return [Poly(coeffs.get(e, {}))
            for e in range(max(coeffs, default=0) + 1)]


def _from_univariate(coeffs, v: str) -> Poly:
    return Poly({tuple(sorted(mono + ((v, e),))) if e else mono: x
                 for e, c in enumerate(coeffs) for mono, x in c.terms.items()})


def _udeg(u):
    return max((d for d, c in enumerate(u) if not c.is_zero()), default=-1)


def _gcd2(a: Poly, b: Poly) -> Poly:
    """gcd of two nonzero polynomials with rational coefficients, monic:
    in one variable _int_gcd, in more the primitive PRS over Poly
    coefficients in the least variable, with gcds in the others as
    contents."""
    if a.is_const() or b.is_const():
        return _ONE_POLY
    names = a.variables() | b.variables()
    if len(names) == 1:
        return _int_gcd(_int_coeffs(a), _int_coeffs(b), names.pop())
    v = min(names)
    A = _to_univariate(a, v)
    B = _to_univariate(b, v)
    ca = _content([c for c in A if not c.is_zero()]) or _ONE_POLY
    cb = _content([c for c in B if not c.is_zero()]) or _ONE_POLY
    A = [poly_divexact(c, ca) for c in A]
    B = [poly_divexact(c, cb) for c in B]
    cont = _gcd2(ca, cb)
    # primitive PRS
    while True:
        da, db = _udeg(A), _udeg(B)
        if db < 0:
            break
        if da < db:
            A, B = B, A
            continue
        A, B = B, _pseudo_rem(A, B)
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
    prim = _from_univariate(A[: da + 1], v) if da >= 0 else _ONE_POLY
    cg = _content([c for c in A[: da + 1] if not c.is_zero()])
    if cg is not None and not cg.is_const():
        prim = poly_divexact(prim, cg)
    return _monic(cont * prim)


def _pseudo_rem(A, B):
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


def _dense(p: Poly) -> list:
    """The coefficients of p in its one variable, low degree first."""
    degs = {mono[0][1] if mono else 0: x for mono, x in p.terms.items()}
    return [degs.get(e, 0) for e in range(max(degs, default=0) + 1)]


def _int_coeffs(p: Poly) -> list:
    """A one-variable p with rational coefficients as coprime ints, high
    degree first: p times the positive rational that clears it."""
    u = _dense(p)[::-1]
    L = lcm(*(x.denominator for x in u))
    u = [x.numerator * (L // x.denominator) for x in u]
    g = gcd(*u)
    return [x // g for x in u]


def _int_gcd(A: list, B: list, v: str) -> Poly:
    """The monic gcd in Q[v] of int coefficient lists, high degree first:
    the primitive PRS (Geddes, Czapor, Labahn, Algorithms for Computer
    Algebra, 1992, ch. 7), each pseudo-remainder over its ints' gcd."""
    if len(A) < len(B):
        A, B = B, A
    while len(B) > 1:
        lb, n, R = B[0], len(B), A
        while len(R) >= n:
            # R <- (lb*R - lr*v^k*B)/gcd(lb, lr): the top term cancels
            g = gcd(lb, R[0])
            f, h = lb // g, R[0] // g
            R = [f * x - h * y for x, y in zip(R[1:n], B[1:])] + \
                [f * x for x in R[n:]]
            R = R[next((i for i, x in enumerate(R) if x), len(R)):]
        if not R:
            lc, top = B[0], n - 1
            return Poly({((v, top - i),) if i < top else _ONE_MONO: Q(x, lc)
                         for i, x in enumerate(B) if x})
        g = gcd(*R)
        A, B = B, [x // g for x in R]
    return _ONE_POLY


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """gcd of two polynomials with rational coefficients, monic; 1 for 0, 0."""
    if a.is_zero():
        return _monic(b) if not b.is_zero() else _ONE_POLY
    if b.is_zero():
        return _monic(a)
    return _gcd2(a, b)


def poly_divexact(a: Poly, b: Poly) -> Poly:
    """Exact division a / b in K[params]; b must divide a, else
    ArithmeticError.  Long division in the least variable v: on lists of
    coefficients in K when v is the only one (b's may lie anywhere in K,
    its leading one is inverted once), else on lists of Polys in the
    others, each quotient coefficient an exact division of its own."""
    if b.is_const():
        return a.scale(Q(1) / b.const_value())
    names = a.variables() | b.variables()
    v = min(names)
    if len(names) > 1:
        return _from_univariate(_divexact_dense(
            _to_univariate(a, v), _to_univariate(b, v), poly_divexact), v)
    B = _dense(b)
    inv = 1 / B[-1]
    q = _divexact_dense(_dense(a), B, lambda x, _: x * inv)
    return Poly({((v, k),) if k else _ONE_MONO: x
                 for k, x in enumerate(q) if x})


def _divexact_dense(A: list, B: list, div) -> list:
    """The quotient of coefficient lists, low degree first (B's top entry
    nonzero), with div the exact division of coefficients; ArithmeticError
    on a remainder."""
    n = len(B) - 1
    out = A[n:]
    for k in range(len(out) - 1, -1, -1):
        x = out[k] = A[k + n] and div(A[k + n], B[n])
        if x:
            for i in range(n):
                A[k + i] = A[k + i] - x * B[i]
    if any(A[:n]):
        raise ArithmeticError("poly_divexact: not divisible")
    return out


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

class Scalar:
    """Canonical fraction of two polynomials in the transcendental
    parameters with coefficients in K.  Immutable; equality is
    canonical-form equality.

    A scalar free of transcendental parameters keeps its value in ``q``, a
    Fraction or a Surd, whatever parameters it was computed from, and
    computes with it directly; ``num``/``den`` are then built on demand as
    constant polynomials.  Any other scalar has ``q = None`` and keeps its
    canonical ``num``/``den``.  A sum, product or quotient of such a scalar
    with a constant k in K keeps ``den`` and is canonical as it stands
    (see ``_scaled``), so only two transcendental operands canonicalise."""

    __slots__ = ("q", "_num", "_den", "_hash")

    def __init__(self, num: Poly, den: Poly, _canonical=False):
        if den.is_zero():
            raise ZeroDivisionError("scalar with zero denominator")
        if not _canonical:
            num, den = _canonicalize(num, den)
        if num.is_const() and den.is_const():
            self.q = num.const_value()      # the monic den is 1
            return
        self.q = None
        self._num = num
        self._den = den

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_fraction(c) -> "Scalar":
        return _const(_as_fraction(c))

    @staticmethod
    def of_param(p: Parameter) -> "Scalar":
        if p.bit:
            return _const(Surd({p.bit: 1}, p.D.denominator))
        return Scalar(Poly({((p.name, 1),): Q(1)}), _ONE_POLY,
                      _canonical=True)

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
        return _const(_as_fraction(x))

    @property
    def num(self) -> Poly:
        return self._num if self.q is None else Poly.const(self.q)

    @property
    def den(self) -> Poly:
        return self._den if self.q is None else _ONE_POLY

    @property
    def params(self) -> dict:
        """{name: Parameter} read off the canonical form: Parameter(n) for
        each variable n of num and den, as a transcendental parameter is
        its name, and the parameter of each root the value uses."""
        if self.q is not None:
            return _root_params(_roots(self.q))
        roots = functools.reduce(or_, map(_roots, self._num.terms.values()), 0)
        names = self._num.variables() | self._den.variables()
        return {**{n: Parameter(n) for n in sorted(names)},
                **_root_params(roots)}

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        if self.q is not None:
            return not self.q
        return self._num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def is_rational(self) -> bool:
        return type(self.q) is Fraction

    def as_fraction(self) -> Fraction:
        if type(self.q) is not Fraction:
            raise UnsupportedEntries(f"{self} is not rational")
        return self.q

    def is_integer(self) -> bool:
        return self.is_rational() and self.as_fraction().denominator == 1

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = Scalar.coerce(other)
        if other.q is not None:
            if self.q is not None:
                return _const(self.q + other.q)
            return self._shifted(other.q)
        if self.q is not None:
            return other._shifted(self.q)
        return Scalar(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        if self.q is not None:
            return _const(-self.q)
        return Scalar(-self._num, self._den, _canonical=True)

    def __sub__(self, other):
        other = Scalar.coerce(other)
        if self.q is not None and other.q is not None:
            return _const(self.q - other.q)
        return self + (-other)

    def __rsub__(self, other):
        return Scalar.coerce(other) - self

    def __mul__(self, other):
        other = Scalar.coerce(other)
        if other.q is not None:
            if self.q is not None:
                return _const(self.q * other.q)
            return self._scaled(other.q)
        if self.q is not None:
            return other._scaled(self.q)
        return Scalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if other.q is not None:
            if self.q is not None:
                return _const(self.q / other.q)
            return self._scaled(1 / other.q)
        return Scalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return Scalar.coerce(other) / self

    # With a constant k in K the result is canonical as it stands: the
    # denominator is kept, and as K[x] is the direct sum of Q[x]*sqrt(S)
    # over the root subsets S, multiplying by a unit k or adding k*den is
    # an invertible Q[x]-linear change of num's parts that keeps their gcd
    # with den at 1.

    def _scaled(self, k):
        """self * k for a transcendental self and k in K."""
        if not k:
            return _ZERO
        return Scalar(self._num.scale(k), self._den, _canonical=True)

    def _shifted(self, k):
        """self + k for a transcendental self and k in K."""
        if not k:
            return self
        return Scalar(self._num + self._den.scale(k), self._den,
                      _canonical=True)

    def __pow__(self, e: int):
        if type(self.q) is Fraction:
            return _const(self.q ** e)
        if e < 0:
            return Scalar.one() / self ** (-e)
        out = Scalar.one()
        for bit in bin(e)[2:]:      # square and multiply, high bits first
            out = out * out * self if bit == "1" else out * out
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _const(_as_fraction(other))
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.q is not None or other.q is not None:
            return self.q == other.q
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        # formed on first use: a transcendental scalar hashes its flat terms
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self.q if self.q is not None
                              else (self._num, self._den))
            return self._hash

    # -- display -------------------------------------------------------------

    def __str__(self):
        if type(self.q) is Fraction:
            return str(self.q)
        num, den = self.num, self.den
        if den.is_const() and den.const_value() == 1:
            return str(num)
        return f"({num})/({den})"

    def __repr__(self):
        return str(self)


def _roots(x) -> int:
    """The roots x uses (a Fraction none), as a bitmask."""
    return functools.reduce(or_, x.c, 0) if type(x) is Surd else 0


def _canonicalize(num: Poly, den: Poly):
    if num.is_zero():
        return num, _ONE_POLY
    # clear the roots from the denominator: conjugating its coefficients
    # over the last root b in use turns alpha + beta*b into
    # alpha^2 - beta^2*b^2, free of b
    while True:
        top = max((max(x.c) for x in den.terms.values() if type(x) is Surd),
                  default=0)
        if not top:
            break
        bit = 1 << top.bit_length() - 1
        conj = Poly({m: _conj(x, bit) if type(x) is Surd else x
                     for m, x in den.terms.items()})
        num, den = num * conj, den * conj
    # divide by the gcd of den with the rational part of num at each subset
    # of the roots
    pieces: dict = {}
    for mono, x in num.terms.items():
        if type(x) is Surd:
            for m, c in x.c.items():
                pieces.setdefault(m, {})[mono] = Fraction(c, x.den)
        else:
            pieces.setdefault(0, {})[mono] = x
    g = den
    for terms in pieces.values():
        if g.is_const():
            break
        g = poly_gcd(g, Poly(terms))
    if not g.is_const():
        num = poly_divexact(num, g)
        den = poly_divexact(den, g)
    lc = den.leading_coeff()
    if lc != 1:
        num = num.scale(Q(1) / lc)
        den = den.scale(Q(1) / lc)
    return num, den


def _const(q) -> Scalar:
    """Parameter-free scalar of value q (a Fraction or a Surd)."""
    s = _new(Scalar)
    s.q = q
    return s


_new = object.__new__
_ZERO = _const(Q(0))
_ONE = _const(Q(1))


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
    """Exact rational values for transcendental parameters and root signs
    for quadratic ones; used only for sign and feasibility decisions.
    values maps each name to (Parameter, value), the value of a quadratic
    one being its sign, 1 or -1."""

    def __init__(self, values: dict):
        self.values = {}
        self._valued = self._negative = 0      # root bitmasks
        for p, v in values.items():
            if not isinstance(p, Parameter):
                raise TypeError("witness keys must be Parameters")
            if p.bit:
                sign = 1 if _as_fraction(v) >= 0 else -1
                self.values[p.name] = (p, sign)
                self._valued |= p.bit
                self._negative |= p.bit if sign < 0 else 0
            else:
                self.values[p.name] = (p, _as_fraction(v))

    def value(self, s: Scalar):
        """The exact value of s at the witness: a Fraction when it is
        rational, else a Surd.  Indeterminate when the denominator (with
        rational coefficients, so rational) vanishes there."""
        q = s.q
        if type(q) is Fraction:
            return q
        if q is not None:
            return self._relabel(q)
        den = self._at(s._den)
        if not den:
            raise Indeterminate(f"denominator of {s} vanishes at the witness")
        return self._at(s._num) / den

    def values_of(self, vectors) -> list:
        """The value of each entry of each vector, as lists."""
        return [[self.value(x) for x in v] for v in vectors]

    def _relabel(self, x: Surd) -> Surd:
        """x with the witness's roots: a coefficient flips its sign when its
        subset holds an odd number of negative roots."""
        used = _roots(x)
        missing = used & ~self._valued
        if missing:
            name = _ROOTS[(missing & -missing).bit_length() - 1][2].name
            raise UnsupportedEntries(f"parameter {name} not valued")
        neg = used & self._negative
        if not neg:
            return x
        return Surd({m: -c if (m & neg).bit_count() & 1 else c
                     for m, c in x.c.items()}, x.den)

    def sign(self, x) -> int:
        """The sign of x's value, 0 where it vanishes, for a Poly or x in K."""
        v = self._at(x) if type(x) is Poly else \
            self._relabel(x) if type(x) is Surd else x
        return v.sign() if type(v) is Surd else (v > 0) - (v < 0)

    def _at(self, poly: Poly):
        """poly at the witness."""
        total = Q(0)
        for mono, x in poly.terms.items():
            x = self._relabel(x) if type(x) is Surd else x
            for name, e in mono:
                p, val = self.values.get(name, (None, None))
                if p is None or p.bit:
                    raise UnsupportedEntries(f"parameter {name} not valued")
                x = x * val ** e
            total = total + x
        return total


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
