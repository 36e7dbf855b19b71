import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtoric.calibration import Calibration, kernel_rank
from qtoric.errors import Indeterminate, UnsupportedField
from qtoric.lattice_fan import QLattice, gamma_rank
from qtoric.moduli import quadratic_surd
from qtoric.scalars import Parameter, Poly, Scalar, Sign, Witness, sign_at

A = Parameter("a")
B = Parameter("b")
T = Parameter("t", "quadratic", 2)
SA, SB, ST = Scalar.of_param(A), Scalar.of_param(B), Scalar.of_param(T)
W = Witness({A: Q(-7, 3), B: Q(-5, 4), T: Q(3, 2)})


def rand_scalar(rng, depth=2):
    if depth == 0 or rng.random() < 0.4:
        pool = [SA, SB, ST, Scalar.from_fraction(Q(rng.randint(-4, 4),
                                                   rng.randint(1, 4)))]
        return rng.choice(pool)
    x = rand_scalar(rng, depth - 1)
    y = rand_scalar(rng, depth - 1)
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


def test_sign_stable_under_precision_increase():
    for prec in (64, 128, 256):
        w = Witness({T: Q(1)}, precision=prec)
        assert sign_at(ST - 1, w) is Sign.POSITIVE
        assert sign_at(ST - 2, w) is Sign.NEGATIVE
        assert sign_at(ST - Q(141421356, 100000000), w) is Sign.POSITIVE


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


def test_gcd_cancellation():
    assert (SA * SA - SB * SB) / (SA + SB) == SA - SB
    assert (SA + 1) ** 3 / (SA + 1) ** 2 == SA + 1


def test_affine_coefficients():
    s = SA * 2 - SB / 3 + Q(1, 2)
    assert s.affine_coefficients(["a", "b"]) == [Q(1, 2), Q(2), Q(-1, 3)]
    with pytest.raises(Exception):
        (SA * SB).affine_coefficients(["a", "b"])


def test_witness_approx_exact_for_transcendental():
    s = SA * 3 + 1
    assert W.approx(s) == 3 * Q(-7, 3) + 1
    assert W.is_exact_for(s)
    assert not W.is_exact_for(ST)


# -- the parameter-free fast path ---------------------------------------------

FRACTIONS = st.fractions(min_value=-40, max_value=40, max_denominator=12)


def poly_form(q, params=None):
    """The same constant as a scalar on the polynomial path."""
    return Scalar.from_fraction(q, params or {"a": A})


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
        assert W.eval_scalar(got) == (want, want) and W.approx(got) == want


@settings(max_examples=200, deadline=None)
@given(FRACTIONS)
def test_rational_display_and_hash_match_polynomial_form(x):
    X, P = Scalar.from_fraction(x), poly_form(x)
    assert X.q is not None and P.q is None
    assert X == P and P == X
    assert str(X) == str(P) == str(Poly.const(x))
    assert X.sort_key() == P.sort_key()
    assert hash(X) == hash(P) == hash((Poly.const(x), Poly.const(1)))
    assert X.num == Poly.const(x) and X.den == Poly.const(1)


def parametric(rng):
    while True:
        s = rand_scalar(rng)
        if not s.is_rational():
            return s


@settings(max_examples=100, deadline=None)
@given(FRACTIONS, st.integers(0, 10 ** 6))
def test_mixed_operations_match_polynomial_path(x, seed):
    p = parametric(random.Random(seed))
    X, P = Scalar.from_fraction(x), poly_form(x, p.params)
    pairs = [(X + p, P + p), (p + X, p + P), (X - p, P - p), (p - X, p - P),
             (X * p, P * p), (p * X, p * P), (X / p, P / p)]
    if x:
        pairs.append((p / X, p / P))
    for fast, slow in pairs:
        assert fast == slow and str(fast) == str(slow)
        assert hash(fast) == hash(slow) and fast.params == slow.params


@settings(max_examples=100, deadline=None)
@given(FRACTIONS)
def test_collapsed_parametric_constant_keeps_params(x):
    c = (SA + x) - SA
    assert c.q is None and c.params == {"a": A}
    assert c.is_rational() and c.as_fraction() == x
    X = Scalar.from_fraction(x)
    assert c == X and X == c and c == x
    assert hash(c) == hash(X) and str(c) == str(X)
    # readers of params see the parameter the value was computed from
    with pytest.raises(UnsupportedField):
        quadratic_surd(c)
    assert quadratic_surd(X) == x


def test_collapsed_constants_in_lattice_ranks():
    two = (SA + 2) - SA
    images_c = [[1, 0], [0, 1], [two, 1]]
    images_q = [[1, 0], [0, 1], [2, 1]]
    gc_, gq = QLattice(2, images_c), QLattice(2, images_q)
    assert gc_.param_names() == ["a"] and gq.param_names() == []
    assert gamma_rank(gc_) == gamma_rank(gq) == 2
    kc = kernel_rank(Calibration(gc_, images_c, [], [1, 2, 3]))
    kq = kernel_rank(Calibration(gq, images_q, [], [1, 2, 3]))
    assert kc == kq == (1, [(-2, -1, 1)])


def test_rational_zero_division():
    with pytest.raises(ZeroDivisionError):
        Scalar.one() / Scalar.zero()
    with pytest.raises(ZeroDivisionError):
        Scalar.zero() ** -1
    with pytest.raises(ZeroDivisionError):
        SA / Scalar.zero()
