"""Moduli deciders: the GL_n(Z) action on calibrated-torus parameters,
2-dimensional continued-fraction equivalence, quantum-P2 orbits under S3,
weighted projective weights, Hopf lattice equivalence, and orbit
canonicalization for maximal-length calibrated tori."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from .errors import (InternalError, NotRational, NotUnimodular, OutOfDomain,
                     OutOfZone, Singular, SingularBlock, UnsupportedField)
from .linalg import (Matrix, int_det, mat_inverse, monomial_coordinates,
                     stacked_hnf)
from .scalars import Poly, Scalar, Sign, Surd, Witness, sign_at

Q = Fraction


# ---------------------------------------------------------------------------
# the GL_n(Z) action on hbar points
# ---------------------------------------------------------------------------

def _check_unimodular(H: Matrix):
    if not H.is_integer():
        raise NotUnimodular("H must have integer entries")
    if abs(int_det(H.to_int_rows())) != 1:
        raise NotUnimodular("H must have determinant +-1")


def torus_act(hbar: Matrix, H: Matrix) -> Matrix:
    """(H1 + hbar H3)^{-1} (H2 + hbar H4) for the block split of H after
    row/column d; a right action on d x (n-d) parameter matrices."""
    d = hbar.nrows
    n = d + hbar.ncols
    if H.nrows != n or H.ncols != n:
        raise ValueError("H must be n x n")
    _check_unimodular(H)
    H1 = Matrix([r[:d] for r in H.rows[:d]])
    H2 = Matrix([r[d:] for r in H.rows[:d]])
    H3 = Matrix([r[:d] for r in H.rows[d:]])
    H4 = Matrix([r[d:] for r in H.rows[d:]])
    try:
        lead_inv = mat_inverse(H1 + hbar * H3)
    except Singular:
        raise SingularBlock("H1 + hbar*H3 is singular") from None
    return lead_inv * (H2 + hbar * H4)


# ---------------------------------------------------------------------------
# quadratic numbers and continued fractions
# ---------------------------------------------------------------------------

def quadratic_surd(x: Scalar):
    """A constant scalar of the supported field as an intrinsic key: the
    Fraction x for rational x; for irrational x = u + v sqrt(D) the unique
    integers (P, Q, N) with x = (P + sqrt N)/Q, Q | N - P^2 and
    N = B^2 - 4AC, the discriminant of x's primitive integer minimal
    polynomial A X^2 + B X + C with A > 0.  N is a GL_2(Z) invariant and
    equal values get equal keys whatever parameter names their field.
    Raises UnsupportedField for anything else."""
    x = Scalar.coerce(x)
    k = x.q
    roots = [m for m in k.c if m] if isinstance(k, Surd) else []
    if k is None or len(roots) > 1 or roots and roots[0] & roots[0] - 1:
        raise UnsupportedField(
            "2d equivalence supports rational and quadratic scalars only")
    if not roots:
        return k
    # x = u + v*t, and r = v*t has the rational square v^2 D
    u = Q(k.c.get(0, 0), k.den)
    r = k - u
    # X^2 - 2u X + (u^2 - v^2 D) times the lcm A of its denominators is
    # primitive: were a prime p to divide A, B and C, A/p would clear them
    b, c = -2 * u, u * u - r * r
    A = lcm(b.denominator, c.denominator)
    B, C = int(b * A), int(c * A)
    N = B * B - 4 * A * C
    # x is the larger root (-B + sqrt N)/(2A) iff v > 0
    return (-B, 2 * A, N) if k.c[roots[0]] > 0 else (B, -2 * A, N)


def _cf_step(P, Q, N, s):
    """One step x = k + 1/x' of the continued fraction of x = (P + sqrt N)/Q,
    s = isqrt(N): returns x' as (P', Q') and the partial quotient k."""
    k = (P + s) // Q if Q > 0 else (P + s + 1) // Q
    P = k * Q - P
    return P, (N - P * P) // Q, k


def _convergent(M, k):
    """M [[k, 1], [1, 0]]: for x = k + 1/x', M . x = M' . x' (Moebius)."""
    (a, b), (c, d) = M
    return ((a * k + b, a), (c * k + d, c))


def continued_fraction_walk(P: int, Q: int, N: int):
    """Walk the continued fraction of x = (P + sqrt N)/Q, with N not a
    square and Q | N - P^2, to its first reduced complete quotient
    (P', Q'): 0 < P' <= s and s - P' < Q' <= s + P' for s = isqrt(N).

    Returns (P', Q', M) with x = M . (P' + sqrt N)/Q'.  Lagrange's theorem
    makes the walk finite; by Galois' theorem the expansion is purely
    periodic from the reduced quotient on."""
    s = isqrt(N)
    M = ((1, 0), (0, 1))
    while not (0 < P <= s and s - P < Q <= s + P):
        P, Q, k = _cf_step(P, Q, N, s)
        M = _convergent(M, k)
    return P, Q, M


def _advance(P, Q, N, s, M, steps):
    """M times the convergents of `steps` steps from (P + sqrt N)/Q."""
    for _ in range(steps):
        P, Q, k = _cf_step(P, Q, N, s)
        M = _convergent(M, k)
    return M


def _moebius_to_H(mat):
    """Moebius matrix [[alpha,beta],[gamma,delta]] (x -> (a x + b)/(c x + d))
    to the action convention H = [[p,r],[q,s]], a.H = (r + s a)/(p + q a)."""
    (alpha, beta), (gamma, delta) = mat
    return Matrix([[delta, beta], [gamma, alpha]])


def _mat_mul2(m1, m2):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _mat_adj2(m):
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


def act_2d(a_scalar: Scalar, H: Matrix) -> Scalar:
    """a . H = (r + s a)/(p + q a) for H = [[p, r], [q, s]]."""
    _check_unimodular(H)
    p, r = H.rows[0]
    q, s = H.rows[1]
    a = Scalar.coerce(a_scalar)
    denominator = p + q * a
    if denominator.is_zero():
        raise SingularBlock("p + q a vanishes")
    return (r + s * a) / denominator


def torus_equiv_2d(a, b) -> Matrix | None:
    """GL_2(Z) equivalence of two scalars under the standard action:
    rationals are all equivalent (via 0, Bezout); quadratic irrationals are
    equivalent iff b's reduced continued-fraction cycle contains a's first
    reduced complete quotient; mixed cases are inequivalent.  Returns a
    witnessing H, checked by act_2d(a, H) = b, or None."""
    sa, sb = quadratic_surd(a), quadratic_surd(b)
    if isinstance(sa, Fraction) != isinstance(sb, Fraction):
        return None
    if isinstance(sa, Fraction):
        # a . Ha = 0 and b . Hb = 0 with det Hb = 1, so H = Ha adj(Hb)
        H = Matrix(_mat_mul2(_bezout_to_zero(sa),
                             _mat_adj2(_bezout_to_zero(sb))))
    elif sa[2] != sb[2]:
        # the discriminant N is a GL_2(Z) invariant
        return None
    else:
        # a and b are written over one N, so equal complete quotients have
        # equal (P, Q).  Both reduced cycles are walked in lockstep, without
        # convergents, until one side reaches the other's start: the side
        # that gets there first has taken the shorter way round one cycle
        Pa, Qa, Ma = continued_fraction_walk(*sa)
        Pb, Qb, Mb = continued_fraction_walk(*sb)
        N = sa[2]
        s = isqrt(N)
        x, y, steps = (Pa, Qa), (Pb, Qb), 0
        while y != (Pa, Qa) and x != (Pb, Qb):
            x = _cf_step(*x, N, s)[:2]
            y = _cf_step(*y, N, s)[:2]
            steps += 1
            if y == (Pb, Qb):
                # b's whole cycle is walked and misses a's reduced quotient
                return None
        if y == (Pa, Qa):
            Mb = _advance(Pb, Qb, N, s, Mb, steps)
        else:
            Ma = _advance(Pa, Qa, N, s, Ma, steps)
        # a = Ma . t and b = Mb . t, so b = Mb Ma^{-1} . a
        H = _moebius_to_H(_mat_mul2(Mb, _mat_adj2(Ma)))
    c = act_2d(a, H)
    if c != b and quadratic_surd(c) != sb:
        raise InternalError("equivalence witness does not map a to b")
    return H


def _bezout_to_zero(a: Fraction):
    """H with a . H = 0: for a = p/q reduced, ps + rq = 1 gives
    H = [[r, -p], [s, q]] of determinant 1."""
    p, q = a.numerator, a.denominator
    s = pow(p, -1, q)
    return (((1 - s * p) // q, -p), (s, q))


# ---------------------------------------------------------------------------
# quantum P2 orbits
# ---------------------------------------------------------------------------

@dataclass
class OrbitReport:
    canonical: object
    witnesses: dict = field(default_factory=dict)
    isotropy: str = "trivial"
    orbit: list = field(default_factory=list)

    def to_json(self):
        out = {"canonical": _jsonable(self.canonical),
               "isotropy": self.isotropy,
               "orbit": [_jsonable(x) for x in self.orbit]}
        if self.witnesses:
            out["witnesses"] = {k: _jsonable(v)
                                for k, v in self.witnesses.items()}
        return out


def _jsonable(x):
    if isinstance(x, Matrix):
        return [[str(v) for v in r] for r in x.rows]
    if isinstance(x, (tuple, list)):
        return [_jsonable(v) for v in x]
    return str(x)


def p2_sigma(ab):
    a, b = ab
    return (b, a)


def p2_tau(ab):
    a, b = ab
    return (Scalar.one() / b, -a / b)


def p2_orbit(a, b, w: Witness) -> OrbitReport:
    """S3 orbit of (a, b) under sigma(a,b) = (b,a), tau(a,b) = (1/b, -a/b);
    canonical representative = lexicographically least canonical-string
    pair; isotropy per the classification (full S3 only at (-1,-1), Z2 on
    the three reflection loci)."""
    a, b = Scalar.coerce(a), Scalar.coerce(b)
    for x in (a, b):
        if x.is_zero() or sign_at(x, w) is not Sign.NEGATIVE:
            raise OutOfDomain("p2 moduli chart needs a < 0 and b < 0")
    pt = (a, b)
    words = {
        "id": lambda p: p,
        "sigma": p2_sigma,
        "tau": p2_tau,
        "tau2": lambda p: p2_tau(p2_tau(p)),
        "sigma.tau": lambda p: p2_sigma(p2_tau(p)),
        "tau.sigma": lambda p: p2_tau(p2_sigma(p)),
    }
    images = {name: f(pt) for name, f in words.items()}
    distinct = []
    for name, q in images.items():
        if not any(q == r for _, r in distinct):
            distinct.append((name, q))
    canonical = min((q for _, q in distinct),
                    key=lambda q: (str(q[0]), str(q[1])))
    minus_one = Scalar.from_fraction(-1)
    if pt == (minus_one, minus_one):
        isotropy = "S3"
    elif a == b:
        isotropy = "Z2(sigma)"
    elif b == minus_one:
        isotropy = "Z2(sigma.tau)"
    elif a == minus_one:
        isotropy = "Z2(tau.sigma)"
    else:
        isotropy = "trivial"
    wit = {name: q for name, q in images.items() if q == canonical}
    return OrbitReport(canonical=canonical,
                       witnesses={k: v for k, v in wit.items()},
                       isotropy=isotropy,
                       orbit=[q for _, q in distinct])


# ---------------------------------------------------------------------------
# weighted projective weights
# ---------------------------------------------------------------------------

def wps_weights(a, b) -> tuple:
    """Weights of the weighted projective space for negative rationals
    a, b: with |a| = p/q and |b| = r/s reduced,
    alpha = lcm(q, s), beta = lcm(sp/gcd(sp, qr), p),
    gamma = lcm(qr/gcd(sp, qr), r)."""
    a, b = Scalar.coerce(a), Scalar.coerce(b)
    if not (a.is_rational() and b.is_rational()):
        raise NotRational("weights need rational a and b")
    fa, fb = a.as_fraction(), b.as_fraction()
    if fa >= 0 or fb >= 0:
        raise OutOfDomain("weights need a < 0 and b < 0")
    p, q = abs(fa.numerator), fa.denominator
    r, s = abs(fb.numerator), fb.denominator
    alpha = lcm(q, s)
    g = gcd(s * p, q * r)
    beta = lcm(s * p // g, p)
    gamma = lcm(q * r // g, r)
    return alpha, beta, gamma


# ---------------------------------------------------------------------------
# Hopf surface equivalence
# ---------------------------------------------------------------------------

def _is_real_integer(z) -> bool:
    """A complex scalar pair (re, im) is a (real) integer point of the
    lattice."""
    re, im = z
    return im.is_zero() and re.is_integer()


def hopf_zone_check(pair, w: Witness) -> int:
    """Both parameters on the same side of the line Im z = 1; returns the
    side (+1/-1) or raises OutOfZone."""
    sides = []
    for (re, im) in pair:
        s = sign_at(im - 1, w)
        if s is Sign.ZERO:
            raise OutOfZone("Im lambda = 1")
        sides.append(1 if s is Sign.POSITIVE else -1)
    if sides[0] != sides[1]:
        raise OutOfZone("parameters on opposite sides of Im z = 1")
    return sides[0]


def hopf_equiv(pair1, pair2, w: Witness) -> dict:
    """Equivalence of Hopf parameters (lambda3, lambda4): equal up to the
    integer lattice Z + Z (componentwise real integers) directly or after
    switching; isotropy Z2 iff lambda4 - lambda3 is an integer."""
    p1 = [tuple(Scalar.coerce(x) for x in z) for z in pair1]
    p2 = [tuple(Scalar.coerce(x) for x in z) for z in pair2]
    hopf_zone_check(p1, w)
    hopf_zone_check(p2, w)

    def diff(z1, z2):
        return (z1[0] - z2[0], z1[1] - z2[1])

    direct = (_is_real_integer(diff(p2[0], p1[0])) and
              _is_real_integer(diff(p2[1], p1[1])))
    switched = (_is_real_integer(diff(p2[0], p1[1])) and
                _is_real_integer(diff(p2[1], p1[0])))
    iso1 = _is_real_integer(diff(p1[1], p1[0]))
    out = {"equivalent": direct or switched,
           "isotropy": "Z2" if iso1 else "trivial"}
    if direct or switched:
        i, j = (0, 1) if direct else (1, 0)
        out["witness"] = {"kind": "direct" if direct else "switched",
                          "shift": [str(x) for z in (diff(p2[0], p1[i]),
                                                     diff(p2[1], p1[j]))
                                    for x in z]}
    return out


# ---------------------------------------------------------------------------
# canonicalization of maximal-length calibrated tori
# ---------------------------------------------------------------------------

def _marked_form(cols, perm, d: int):
    """Left-GL_d(Z) canonical form of the hbar with the given monomial
    coordinates (one block per column), columns taken in the order perm,
    and U with U hbar = the form.  Left GL_d(Z) leaves each column's
    denominator and monomials unchanged and acts on its coefficients by
    the same matrix.  The coefficients of all columns, stacked and cleared
    by one integer, have a unique row Hermite normal form; every entry is
    rebuilt from it.  Distinct monomials are linearly independent over Q,
    so U hbar equals the form exactly when U maps the stacked coefficients
    to the HNF."""
    blocks = [cols[j] for j in perm]
    L, H, U = stacked_hnf(blocks, d)
    rows = [[] for _ in range(d)]
    t = 0
    for D, monos, params, _ in blocks:
        monomials = [prod((Scalar.of_param(params[n]) ** e for n, e in m),
                          start=Scalar.one()) for m in monos]
        for i in range(d):
            rows[i].append(sum((Q(H[i][t + s], L) * x
                                for s, x in enumerate(monomials)),
                               Scalar.zero()) / Scalar(D, Poly.const(1)))
        t += len(monos)
    return Matrix(rows), U


def cal_torus_orbit_maximal(hbar: Matrix, mode: str = "full") -> OrbitReport:
    """Canonical representative of hbar under hbar -> H1^{-1} hbar s
    (full mode: H1 in GL_d(Z) and s a column permutation; marked mode:
    s = id), for rational and parametric entries alike.  Full mode keeps
    the least marked form over all s by canonical strings; the isotropy
    lists the s whose marked form equals hbar's own."""
    if mode not in ("full", "marked"):
        raise ValueError("mode must be 'full' or 'marked'")
    d, k = hbar.nrows, hbar.ncols
    cols = monomial_coordinates(hbar.rows)
    perms = list(itertools.permutations(range(k))) if mode == "full" \
        else [tuple(range(k))]
    best = base = None
    stab = []
    for perm in perms:
        canon, U = _marked_form(cols, perm, d)
        if base is None:
            base = canon
        if canon == base:
            stab.append(perm)
        key = [[str(x) for x in r] for r in canon.rows]
        if best is None or key < best[0]:
            best = (key, canon, U, perm)
    _, canon, U, perm = best
    witnesses = {"H1_inverse": Matrix(U)}
    if mode == "full":
        witnesses["s"] = list(perm)
    isotropy = "trivial" if len(stab) == 1 else \
        "permutations:" + ";".join(str(list(p)) for p in sorted(stab))
    return OrbitReport(canonical=canon, witnesses=witnesses,
                       isotropy=isotropy, orbit=[canon])
