import operator
import random
import time
from fractions import Fraction as Q
from itertools import combinations, product
from math import gcd, isqrt, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (RefScalar, affine_coefficients, approx, interval_sign,
                      ref_poly_divexact, ref_poly_gcd, ref_quadratic_surd,
                      ref_value)
from qtoric.calibration import Calibration, kernel_rank
from qtoric.errors import Indeterminate, UnsupportedEntries, UnsupportedField
from qtoric.lattice_fan import QLattice, gamma_rank
from qtoric.moduli import quadratic_surd
from qtoric.scalars import (Parameter, Poly, Scalar, Sign, Surd, Witness,
                            _int_coeffs, poly_divexact, poly_gcd, sign_at,
                            square_class)

A = Parameter("a")
B = Parameter("b")
T = Parameter("t", "quadratic", 2)
SA, SB, ST = Scalar.of_param(A), Scalar.of_param(B), Scalar.of_param(T)
W = Witness({A: Q(-7, 3), B: Q(-5, 4), T: Q(3, 2)})


def rand_scalar(rng, depth=2, leaves=(SA, SB, ST)):
    if depth == 0 or rng.random() < 0.4:
        pool = [*leaves, Scalar.from_fraction(Q(rng.randint(-4, 4),
                                                rng.randint(1, 4)))]
        return rng.choice(pool)
    x = rand_scalar(rng, depth - 1, leaves)
    y = rand_scalar(rng, depth - 1, leaves)
    op = rng.choice("+-*/")
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "*":
        return x * y
    return x / y if not y.is_zero() else x


def test_commutativity_example():
    assert (SA * SB - SB * SA).is_zero()


def test_quadratic_reduction_example():
    assert (ST * ST - 2).is_zero()
    assert (ST ** 4 - 4).is_zero()


def test_sign_examples():
    assert sign_at(SA, W) is Sign.NEGATIVE
    assert sign_at(SA * SB, W) is Sign.POSITIVE
    assert sign_at(ST - 1, W) is Sign.POSITIVE
    assert sign_at(ST - Q(3, 2), W) is Sign.NEGATIVE
    assert sign_at(Scalar.zero(), W) is Sign.ZERO


def test_sign_non_generic_witness_is_indeterminate():
    w = Witness({A: Q(-1)})
    with pytest.raises(Indeterminate):
        sign_at(SA + 1, w)
    # a value, or a denominator, that vanishes at the witness
    w = Witness({A: Q(1, 2), T: Q(1)})
    for x in (SA - Q(1, 2), ST / (2 * SA - 1), (SA - Q(1, 2)) * ST):
        with pytest.raises(Indeterminate):
            sign_at(x, w)
    with pytest.raises(Indeterminate):
        w.value(1 / (SA - Q(1, 2)))
    # sqrt(8) - 2 sqrt(2) is not symbolically zero in two independent
    # symbols, but it is zero at the witness
    T8 = Parameter("t8", "quadratic", 8)
    with pytest.raises(Indeterminate):
        sign_at(Scalar.of_param(T8) - 2 * ST, Witness({T: 1, T8: 1}))


def test_sign_stable_under_precision_increase():
    w = Witness({T: Q(1)})
    for x in (ST - 1, ST - 2, ST - Q(141421356, 100000000),
              ST - Q(577, 408), (ST - 1) ** 40 - Q(1, 10 ** 15)):
        exact = sign_at(x, w)
        decided = [interval_sign(x, w, bits) for bits in (64, 128, 256)]
        assert decided[-1] is exact
        assert all(d in (None, exact) for d in decided)


def test_high_powers_of_small_units_are_decided():
    # (sqrt2 - 1)^3000 is about 10^-1148, far below any fixed-precision
    # interval around it
    for root, e, want in ((1, 2000, Sign.POSITIVE), (1, 3000, Sign.POSITIVE),
                          (-1, 2001, Sign.NEGATIVE)):
        w = Witness({T: root})
        assert sign_at((ST - 1) ** e, w) is want
        assert sign_at(-(ST - 1) ** e, w) is Sign(-want.value)
    assert interval_sign((ST - 1) ** 2000, Witness({T: 1}), 4096) is None


ROOTS = [T, Parameter("u", "quadratic", 3),
         Parameter("v", "quadratic", Q(5, 7))]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 6), st.lists(st.booleans(), min_size=3,
                                          max_size=3),
       st.fractions(min_value=-5, max_value=5, max_denominator=7),
       st.integers(0, 60))
def test_exact_sign_matches_interval_sign(seed, signs, a, bits):
    """Wherever interval evaluation decides a sign, the exact sign agrees;
    values close to zero come from subtracting a rounding of the value."""
    w = Witness({A: a, **{p: 1 if s else -1 for p, s in zip(ROOTS, signs)}})
    x = rand_scalar(random.Random(seed), 3,
                    [SA, *map(Scalar.of_param, ROOTS)])
    try:
        w.value(x)
    except Indeterminate:       # a denominator that vanishes at a
        return
    x = x - Q(round(approx(x, w) * 2 ** bits), 2 ** bits)
    if x.is_zero():
        assert sign_at(x, w) is Sign.ZERO
        return
    try:
        exact = sign_at(x, w)
    except Indeterminate:
        assert interval_sign(x, w, 256) is None
        return
    for b in (64, 256):
        assert interval_sign(x, w, b) in (None, exact)


def _is_square(x):
    n = x.numerator * x.denominator
    return isqrt(n) ** 2 == n


def _brute_square_class(D, quads):
    """Reference: the first subset S, by size, with D * prod(S) a square."""
    for k in range(len(quads) + 1):
        for S in combinations(quads, k):
            if _is_square(D * prod((p.D for p in S), start=Q(1))):
                return S
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.fractions(Q(1, 12), 60, max_denominator=12), max_size=6),
       st.fractions(Q(0), 60, max_denominator=12))
def test_square_class_matches_subset_search(Ds, D):
    quads = []
    for i, d in enumerate(Ds):   # keep an independent set, as both callers do
        if not _is_square(d) and _brute_square_class(d, quads) is None:
            quads.append(Parameter(f"t{i}", "quadratic", d))
    got, want = square_class(D, quads), _brute_square_class(D, quads)
    assert (got is None) == (want is None)
    if got is not None:
        r, S = got
        assert S == want and r >= 0
        assert r * r * prod((p.D for p in S), start=Q(1)) == D


def test_square_class_is_polynomial_and_needs_no_factoring():
    # pq, qr, rp for three large primes: dependent, and no small factor
    p, q, r = 2 ** 61 - 1, 2 ** 89 - 1, 2 ** 107 - 1
    pq, qr = (Parameter(n, "quadratic", D)
              for n, D in (("pq", p * q), ("qr", q * r)))
    # sqrt(rp)/2 = sqrt(pq) * sqrt(qr) / (2q)
    assert square_class(Q(r * p, 4), [pq, qr]) == (Q(1, 2 * q), (pq, qr))
    assert square_class(Q(r), [pq, qr]) is None
    # forty independent roots and one that is the product of all of them
    primes = [n for n in range(2, 200) if all(n % d for d in range(2, n))][:40]
    quads = [Parameter(f"t{n}", "quadratic", n) for n in primes]
    start = time.perf_counter()
    assert square_class(Q(prod(primes)), quads) == (Q(1), tuple(quads))
    assert square_class(Q(prod(primes) * 199), quads) is None
    assert time.perf_counter() - start < 1.0


def test_field_axioms_randomized():
    rng = random.Random(2024)
    for _ in range(60):
        x = rand_scalar(rng)
        y = rand_scalar(rng)
        z = rand_scalar(rng)
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert (x - x).is_zero()
        if not x.is_zero():
            assert (x / x) == Scalar.one()
            assert (Scalar.one() / x) * x == Scalar.one()


def test_canonical_form_idempotent():
    rng = random.Random(77)
    for _ in range(40):
        x = rand_scalar(rng)
        again = Scalar(x.num, x.den)
        assert again == x
        assert str(again) == str(x)


def test_denominator_rationalized_and_monic():
    x = Scalar.one() / (Scalar.one() + ST)
    assert x == ST - 1
    y = (SA + 1) / (2 * SA)
    assert str(y) == "(1/2*a+1/2)/(a)"


def test_canonical_strings():
    assert str((-SB) / SA) == "(-b)/(a)"
    assert str(Scalar.from_fraction(Q(-1, 2))) == "-1/2"
    assert str(SA * SA - 1) == "a^2-1"


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 6), st.lists(st.booleans(), min_size=3,
                                          max_size=3),
       st.fractions(min_value=-5, max_value=5, max_denominator=7),
       st.none() | st.integers(0, 60))
def test_witness_values_compute_as_the_scalars_they_come_from(seed, signs,
                                                              a, bits):
    """Arithmetic on values in K equals Scalar arithmetic taken to the
    witness; each sign, and each comparison, agrees with interval
    evaluation wherever that decides.  With bits set, y is x shifted by a
    rounding of x, so x and y are close."""
    w = Witness({A: a, **{p: 1 if s else -1 for p, s in zip(ROOTS, signs)}})
    rng = random.Random(seed)
    leaves = [SA, *map(Scalar.of_param, ROOTS)]
    x = rand_scalar(rng, 2, leaves)
    try:
        vx = w.value(x)
        y = (rand_scalar(rng, 2, leaves) if bits is None else
             x - Q(round(approx(x, w) * 2 ** bits), 2 ** bits))
        vy = w.value(y)
    except Indeterminate:       # a denominator that vanishes at a
        return
    results = [(x, vx), (-x, -vx), (x + y, vx + vy), (x - y, vx - vy),
               (x * y, vx * vy), (3 - y, 3 - vy), (x * Q(2, 3), vx * Q(2, 3))]
    if vy:
        results += [(x / y, vx / vy), (1 / y, 1 / vy)]
    for s, v in results:
        assert w.value(s) == v
        if isinstance(v, Surd):     # lowest terms, some root in use
            assert v.c.keys() - {0} and all(v.c.values()) and v.den > 0
            assert gcd(v.den, *v.c.values()) == 1
        else:
            assert type(v) is Q
        sign = v.sign() if isinstance(v, Surd) else (v > 0) - (v < 0)
        assert interval_sign(s, w, 256) in (None, Sign(sign))
    if interval_sign(x - y, w, 256) is Sign.NEGATIVE:
        assert vx < vy and vx <= vy and vy > vx and vy >= vx
        assert not (vx > vy or vx >= vy or vx == vy)


def test_unvalued_quadratic_parameter_is_unsupported():
    for w in (Witness({A: Q(-7, 3)}), Witness({A: Q(0)})):
        for x in (ST, ST - 1, SA * ST, 1 / (SA + ST), (SA + 1) / ST):
            with pytest.raises(UnsupportedEntries):
                w.value(x)
            with pytest.raises(UnsupportedEntries):
                sign_at(x, w)


def test_one_name_declared_twice_in_a_scalar_is_refused():
    t3 = Scalar.of_param(Parameter("t", "quadratic", 3))
    ta = Scalar.of_param(Parameter("t"))
    for f in (lambda: ST + t3, lambda: ST * t3, lambda: ta + ST,
              lambda: ST * SA + ta):
        with pytest.raises(ValueError, match="conflicting declarations"):
            str(f())


# -- the K form against the polynomial path it replaced ----------------------

REF_LEAVES = {"one root": [T], "three roots": ROOTS,
              "mixed": [A, B, T, ROOTS[1]]}
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
       "/": operator.truediv}


def rand_pair(rng, depth, leaves):
    """A random scalar built twice, as a Scalar and as a RefScalar."""
    if depth == 0 or rng.random() < 0.4:
        leaf = rng.choice([*leaves, Q(rng.randint(-4, 4), rng.randint(1, 4))])
        return Scalar.coerce(leaf), RefScalar.of(leaf)
    x, r = rand_pair(rng, depth - 1, leaves)
    y, s = rand_pair(rng, depth - 1, leaves)
    assert y.is_zero() == (not s.num)
    op = OPS[rng.choice("+-*/" if not y.is_zero() else "+-*")]
    return op(x, y), op(r, s)


def outcome(f, x):
    try:
        return f(x)
    except UnsupportedField:
        return UnsupportedField


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(sorted(REF_LEAVES)),
       st.fractions(min_value=-5, max_value=5, max_denominator=7),
       st.fractions(min_value=-5, max_value=5, max_denominator=7))
def test_scalars_match_the_polynomial_reference(seed, leaves, a, b):
    """Scalars in K, and mixed ones, have the canonical terms, strings and
    hashes of the polynomial path with quadratic variables; their values
    agree with its values under every choice of root signs, and their signs
    with interval evaluation."""
    x, r = rand_pair(random.Random(seed), 3, REF_LEAVES[leaves])
    assert x.num.flat() == r.num and x.den.flat() == r.den
    assert str(x) == str(r) and hash(x) == hash(r)
    if x.params.keys() == r.params.keys():
        assert outcome(quadratic_surd, x) == outcome(ref_quadratic_surd, r)
    roots = [p for p in REF_LEAVES[leaves] if p.kind == "quadratic"]
    for signs in product((1, -1), repeat=len(roots)):
        w = Witness({A: a, B: b, **dict(zip(roots, signs))})
        try:
            want = ref_value(r, w)
        except Indeterminate:
            with pytest.raises(Indeterminate):
                w.value(x)
            continue
        got = w.value(x)
        assert got == want and type(got) is type(want)
        sign = got.sign() if isinstance(got, Surd) else (got > 0) - (got < 0)
        assert interval_sign(x, w, 256) in (None, Sign(sign))
        if sign or x.is_zero():
            assert sign_at(x, w) is Sign(sign)
        else:
            with pytest.raises(Indeterminate):
                sign_at(x, w)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(sorted(REF_LEAVES)))
def test_params_are_read_off_the_canonical_form(seed, leaves):
    """A scalar's parameters are the names in its flat num and den, the
    variables and the parameters of the roots, whatever it was computed
    from; a transcendental one is Parameter(name)."""
    x, _ = rand_pair(random.Random(seed), 3, REF_LEAVES[leaves])
    names = {n for p in (x.num, x.den) for m in p.flat() for n, _ in m}
    assert x.params == {p.name: p for p in REF_LEAVES[leaves]
                        if p.name in names}
    assert ((SA * SB + SA) - SA * SB).params == {"a": A}
    assert ((SB + ST) - SB).params == {"t": T}
    assert (SA * ST - SA * ST).params == {}


# -- arithmetic with a constant in K keeps the denominator -------------------

SU = Scalar.of_param(ROOTS[1])
CONSTANT_OPS = {
    "x+k": (lambda x, k: x + k, lambda xn, xd, kn, kd: (xn * kd + kn * xd,
                                                       xd * kd)),
    "k+x": (lambda x, k: k + x, lambda xn, xd, kn, kd: (kn * xd + xn * kd,
                                                       kd * xd)),
    "x-k": (lambda x, k: x - k, lambda xn, xd, kn, kd: (xn * kd - kn * xd,
                                                       xd * kd)),
    "k-x": (lambda x, k: k - x, lambda xn, xd, kn, kd: (kn * xd - xn * kd,
                                                       kd * xd)),
    "x*k": (lambda x, k: x * k, lambda xn, xd, kn, kd: (xn * kn, xd * kd)),
    "k*x": (lambda x, k: k * x, lambda xn, xd, kn, kd: (kn * xn, kd * xd)),
    "x/k": (lambda x, k: x / k, lambda xn, xd, kn, kd: (xn * kd, xd * kn)),
}
SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=5)
# k in K over the basis 1, t, u, t*u; the first entry alone is rational
CONSTANTS = st.one_of(st.sampled_from([(0,), (1,), (-1,)]),
                      st.tuples(SMALL), st.tuples(SMALL, SMALL, SMALL, SMALL))


def rand_transcendental(rng):
    """A scalar with a transcendental parameter, as a Scalar and a
    RefScalar: a product of random factors over a product of others."""
    leaves = REF_LEAVES["mixed"]
    while True:
        x, r = Scalar.one(), RefScalar.of(1)
        for _ in range(rng.randint(1, 3)):
            y, s = rand_pair(rng, 1, leaves)
            x, r = x * y, r * s
        for _ in range(rng.randint(0, 2)):
            y, s = rand_pair(rng, 1, leaves)
            if not y.is_zero():
                x, r = x / y, r / s
        if x.q is None:
            return x, r


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6), CONSTANTS)
def test_constant_operand_keeps_the_canonical_form(seed, coeffs):
    """x + k, k + x, x - k, k - x, x*k, k*x and x/k for a transcendental x
    and a constant k in K equal the fully canonicalised unreduced fraction
    and the polynomial reference, with the same string and hash.
    (a - t)/(a^2 - 2) is canonical although a - t divides a^2 - 2 in K[a]."""
    basis = [(Scalar.one(), RefScalar.of(1)), (ST, RefScalar.of(T)),
             (SU, RefScalar.of(ROOTS[1])),
             (ST * SU, RefScalar.of(T) * RefScalar.of(ROOTS[1]))]
    k, s = Scalar.zero(), RefScalar.of(0)
    for c, (b, rb) in zip(coeffs, basis):
        k, s = k + c * b, s + RefScalar.of(c) * rb
    assert k.q is not None
    special = ((SA - ST) / (SA * SA - 2),
               (RefScalar.of(A) - RefScalar.of(T))
               / (RefScalar.of(A) * RefScalar.of(A) - RefScalar.of(2)))
    assert str(special[0]) == "(a-t)/(a^2-2)"
    for x, r in (rand_transcendental(random.Random(seed)), special):
        for name, (op, unreduced) in CONSTANT_OPS.items():
            if name == "x/k" and k.is_zero():
                with pytest.raises(ZeroDivisionError):
                    x / k
                continue
            got, ref = op(x, k), op(r, s)
            slow = Scalar(*unreduced(x.num, x.den, k.num, k.den))
            assert got == slow and got.q == slow.q, name
            assert str(got) == str(slow) and hash(got) == hash(slow), name
            assert got.num.flat() == ref.num and got.den.flat() == ref.den
            assert str(got) == str(ref) and hash(got) == hash(ref), name


def test_quadratic_surd_reads_the_value():
    # a root that cancels leaves a value in Q(sqrt 2); the polynomial path
    # kept the parameters it was computed from and refused it
    assert quadratic_surd((SA + ST) - SA) == quadratic_surd(ST) == (0, 2, 8)
    U = Scalar.of_param(ROOTS[1])
    assert quadratic_surd((ST + U) - U) == quadratic_surd(ST)
    for x in (SA, ST * U, ST + U):
        with pytest.raises(UnsupportedField):
            quadratic_surd(x)


def test_gcd_cancellation():
    assert (SA * SA - SB * SB) / (SA + SB) == SA - SB
    assert (SA + 1) ** 3 / (SA + 1) ** 2 == SA + 1


SQRT2, SQRT3 = ST.q, Scalar.of_param(ROOTS[1]).q
MONOS = [(), (("a", 1),), (("b", 1),), (("a", 1), ("b", 1)), (("a", 2),)]


@st.composite
def surd_polys(draw, monos=MONOS):
    """A nonzero polynomial over the monomials (by default in a and b) with
    up to three terms, each coefficient c0 + c1 sqrt2 + c2 sqrt3 + c3 sqrt6
    in K."""
    terms = {}
    for mono in draw(st.lists(st.sampled_from(monos), min_size=1,
                              max_size=3, unique=True)):
        c = sum((Q(draw(st.integers(-3, 3))) * r
                 for r in (1, SQRT2, SQRT3, SQRT2 * SQRT3)), Q(0))
        if c:
            terms[mono] = c
    return Poly(terms or {(): Q(1)})


@settings(max_examples=150, deadline=None)
@given(surd_polys(), surd_polys())
@example(Poly({(("a", 1),): Q(1), (): SQRT3}),      # a + u, u^2 = 3
         Poly({(("a", 1),): SQRT2, (): Q(1)}))      # a t + 1, t^2 = 2
def test_poly_divexact_undoes_a_product_over_K(p, q):
    assert poly_divexact(p * q, q) == p


# -- the one-variable kernels against the recursive PRS and lex division ----

A_MONOS = [(("a", e),) if e else () for e in range(4)]
AB_MONOS = MONOS + [(("b", 2),)]
BIG = st.integers(2 ** 64, 2 ** 70)
COEFF = st.builds(Q, st.one_of(st.integers(-4, 4), BIG,
                               BIG.map(operator.neg)), st.integers(1, 5))


@st.composite
def rational_polys(draw, monos):
    """A polynomial over the monomials with rational coefficients, some
    above 2^64; zero or constant at times."""
    return Poly({m: c for m in draw(st.lists(st.sampled_from(monos),
                                             max_size=4, unique=True))
                 if (c := draw(COEFF))})


@st.composite
def gcd_pairs(draw):
    """(g f1, g f2) in a (degree up to 6) or in a and b, so that the gcd is
    g up to a unit when f1 and f2 are coprime."""
    monos = draw(st.sampled_from([A_MONOS, AB_MONOS]))
    g, f1, f2 = (draw(rational_polys(monos)) for _ in range(3))
    return g * f1, g * f2


AX = Poly({(("a", 1),): Q(1)})


@settings(max_examples=200, deadline=None)
@given(gcd_pairs())
@example((Poly({}), Poly({})))
@example((Poly({}), Poly.const(3) * AX))
@example((Poly.const(Q(2, 3)), AX))
@example(((AX + Poly.const(2 ** 65)) * (AX * AX - Poly.const(Q(1, 3))),
          (AX + Poly.const(2 ** 65)) * AX))
def test_poly_gcd_matches_the_recursive_prs(pair):
    p, q = pair
    g = poly_gcd(p, q)
    assert g == ref_poly_gcd(p, q)
    assert g.leading_coeff() == 1
    if p and p.variables() <= {"a"}:
        # the kernel's int list, reversed: coprime and a multiple of p
        u = _int_coeffs(p)[::-1]
        back = Poly({(("a", d),) if d else (): Q(x)
                     for d, x in enumerate(u) if x})
        assert gcd(*u) == 1 and back.scale(p.leading_coeff() / u[-1]) == p


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([A_MONOS, MONOS]).flatmap(
    lambda monos: st.tuples(surd_polys(monos), surd_polys(monos))))
@example((Poly({(("a", 1),): Q(1), (): SQRT3}),
          Poly({(("a", 1),): SQRT2, (): Q(1)})))
@example((Poly({(("a", 3),): SQRT3 - 1}), Poly({(("b", 1),): SQRT2})))
def test_poly_divexact_matches_the_lex_division(pair):
    p, q = pair
    assert poly_divexact(p * q, q) == ref_poly_divexact(p * q, q) == p
    assert poly_divexact(Poly({}), q) == Poly({})
    if not q.is_const():
        # q divides p q, hence not p q + sqrt 2
        for divexact in (poly_divexact, ref_poly_divexact):
            with pytest.raises(ArithmeticError):
                divexact(p * q + Poly.const(SQRT2), q)


def test_affine_coefficients():
    s = SA * 2 - SB / 3 + Q(1, 2)
    assert affine_coefficients(s, ["a", "b"]) == [Q(1, 2), Q(2), Q(-1, 3)]
    with pytest.raises(Exception):
        affine_coefficients(SA * SB, ["a", "b"])


def test_witness_value_is_a_fraction_exactly_when_rational():
    s = SA * 3 + 1
    assert W.value(s) == 3 * Q(-7, 3) + 1 and type(W.value(s)) is Q
    assert W.value((SA + Q(7, 3)) * ST) == 0
    assert isinstance(W.value(ST), Surd) and W.value(ST) * W.value(ST) == 2
    assert W.value(ST / 2 + SA) == W.value(ST) / 2 + Q(-7, 3)


# -- the parameter-free fast path ---------------------------------------------

FRACTIONS = st.fractions(min_value=-40, max_value=40, max_denominator=12)


def collapsed(q):
    """The constant q computed from the parameter a."""
    return (SA + q) - SA


@settings(max_examples=200, deadline=None)
@given(FRACTIONS, FRACTIONS, st.integers(-3, 3))
def test_rational_arithmetic_is_fraction_arithmetic(x, y, e):
    X, Y = Scalar.from_fraction(x), Scalar.from_fraction(y)
    results = [(X + y, x + y), (x + Y, x + y), (X - Y, x - y), (x - Y, x - y),
               (X * Y, x * y), (3 * X, 3 * x), (-X, -x)]
    if y:
        results += [(X / Y, x / y), (x / Y, x / y)]
    if x or e >= 0:
        results.append((X ** e, x ** e))
    for got, want in results:
        assert got.q == want and got.as_fraction() == want
        assert got.params == {} and got.is_rational()
        assert got.is_zero() == (want == 0)
        assert got == want and got == Scalar.from_fraction(want)
        assert sign_at(got, W).value == (want > 0) - (want < 0)
        assert W.value(got) == want


@settings(max_examples=200, deadline=None)
@given(FRACTIONS)
def test_rational_display_and_hash_match_polynomial_form(x):
    X = Scalar.from_fraction(x)
    P = Scalar(Poly.const(x), Poly.const(1))
    assert X.q == P.q == x and P.params == {}
    assert X == P and P == X and X == x
    assert str(X) == str(P) == str(Poly.const(x))
    assert hash(X) == hash(P) == hash(x)
    assert X.num == Poly.const(x) and X.den == Poly.const(1)


def parametric(rng):
    while True:
        s = rand_scalar(rng)
        if not s.is_rational():
            return s


def by_polys(op, u, v):
    """u op v from the num/den polynomials of u and v, then canonicalised."""
    if op == "+":
        return Scalar(u.num * v.den + v.num * u.den, u.den * v.den)
    if op == "-":
        return Scalar(u.num * v.den - v.num * u.den, u.den * v.den)
    if op == "*":
        return Scalar(u.num * v.num, u.den * v.den)
    return Scalar(u.num * v.den, u.den * v.num)


@settings(max_examples=100, deadline=None)
@given(FRACTIONS, st.integers(0, 10 ** 6))
def test_mixed_operations_match_polynomial_path(x, seed):
    p = parametric(random.Random(seed))
    X = Scalar.from_fraction(x)
    pairs = [(X + p, by_polys("+", X, p)), (p + X, by_polys("+", p, X)),
             (X - p, by_polys("-", X, p)), (p - X, by_polys("-", p, X)),
             (X * p, by_polys("*", X, p)), (p * X, by_polys("*", p, X)),
             (X / p, by_polys("/", X, p))]
    if x:
        pairs.append((p / X, by_polys("/", p, X)))
    for fast, slow in pairs:
        assert fast == slow and str(fast) == str(slow)
        assert hash(fast) == hash(slow) and fast.params == slow.params
        assert fast.q == slow.q


@settings(max_examples=100, deadline=None)
@given(FRACTIONS)
def test_collapsed_parametric_constant_is_a_fraction(x):
    X = Scalar.from_fraction(x)
    for c in (collapsed(x), (ST + x) - ST, (SA * SB + x) - SB * SA):
        assert c.q == x and c.params == {}
        assert c.is_rational() and c.as_fraction() == x
        assert c == X and X == c and c == x
        assert hash(c) == hash(X) and str(c) == str(X)
        assert quadratic_surd(c) == quadratic_surd(X) == x
    if x:
        assert (SA * x) / SA == X and ((SA * x) / SA).q == x


def test_collapsed_constants_in_lattice_ranks():
    two = collapsed(2)
    images_c = [[1, 0], [0, 1], [two, 1]]
    images_q = [[1, 0], [0, 1], [2, 1]]
    gc_, gq = QLattice(2, images_c), QLattice(2, images_q)
    assert gc_ == gq
    assert gamma_rank(gc_) == gamma_rank(gq) == 2
    kc = kernel_rank(Calibration(gc_, images_c, [], [1, 2, 3]))
    kq = kernel_rank(Calibration(gq, images_q, [], [1, 2, 3]))
    assert kc == kq == (1, [(-2, -1, 1)])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_parametric_form_is_never_constant(seed):
    """No scalar on the polynomial path (q is None) has a constant value,
    also after cancellations: e - e + c, e*c/e and e/e collapse to q."""
    rng = random.Random(seed)
    e, f = rand_scalar(rng, 3), rand_scalar(rng, 3)
    c = Scalar.from_fraction(Q(rng.randint(-4, 4), rng.randint(1, 4)))
    values = [e, f, e + f, e - f, e * f, (e + c) - e, (e * f + c) - f * e,
              (e + f) * (e - f) - e * e + f * f]
    if not e.is_zero():
        values += [f / e, (c * e) / e, e / e, (e * f) / e - f]
    for s in values:
        if s.q is None:
            assert not (s.num.is_const() and s.den.is_const()), s
    assert ((e + c) - e).q == c.q


def test_rational_zero_division():
    with pytest.raises(ZeroDivisionError):
        Scalar.one() / Scalar.zero()
    with pytest.raises(ZeroDivisionError):
        Scalar.zero() ** -1
    with pytest.raises(ZeroDivisionError):
        SA / Scalar.zero()
