import random
from fractions import Fraction as Q
from math import gcd, isqrt, lcm

import pytest
from conftest import affine_coefficients, ref_inverse, wps_weights_chart_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from qtoric import moduli
from qtoric.errors import (NotRational, NotUnimodular, OutOfDomain,
                           OutOfZone, SingularBlock, UnsupportedField)
from qtoric.linalg import Matrix
from qtoric.moduli import (act_2d, cal_torus_orbit_maximal, hopf_equiv,
                           p2_orbit, p2_sigma, p2_tau, quadratic_surd,
                           torus_act, torus_equiv_2d, wps_weights)
from qtoric.scalars import Parameter, Scalar, Witness

A = Parameter("a")
B = Parameter("b")
T = Parameter("t", "quadratic", 2)
U3 = Parameter("u", "quadratic", 3)
SA, SB = Scalar.of_param(A), Scalar.of_param(B)
ST, SU = Scalar.of_param(T), Scalar.of_param(U3)
W = Witness({A: Q(-7, 3), B: Q(-5, 4), T: Q(3, 2), U3: Q(7, 4)})


def rand_unimodular(rng, n=2, steps=4):
    if n == 1:
        return Matrix([[rng.choice([1, -1])]])
    M = Matrix.identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        E = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        E[i][j] = rng.randint(-3, 3)
        M = M * Matrix(E)
    if rng.random() < 0.3:
        S = [[0] * n for _ in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        for r, c in enumerate(perm):
            S[r][c] = 1
        M = M * Matrix(S)
    return M


def test_torus_act_identity():
    hb = Matrix([[SA, SB]])
    assert torus_act(hb, Matrix.identity(3)) == hb


def test_torus_act_2d_formula():
    hb = Matrix([[SA]])
    H = Matrix([[2, 1], [1, 1]])
    out = torus_act(hb, H)
    assert out == Matrix([[(1 + SA) / (2 + SA)]])
    assert act_2d(SA, H) == (1 + SA) / (2 + SA)


def test_torus_act_bezout_to_zero():
    a = Q(3, 7)
    H = torus_equiv_2d(Scalar.from_fraction(a), Scalar.zero())
    assert H is not None
    assert act_2d(Scalar.from_fraction(a), H).is_zero()


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(2, 4),
       pool=st.sampled_from([[0, 1, -1, Q(1, 2), Q(-3, 2)],
                             [0, 1, ST, ST + 1, SU],
                             [0, 1, SA, SB, SA + 1]]))
def test_torus_act_matches_the_reference_inverse(seed, n, pool):
    # the action read off one in_basis of [H1 + hbar H3 | H2 + hbar H4]
    # equals the field inverse of the first block times the second
    rng = random.Random(seed)
    d = rng.randint(1, n - 1)
    H = rand_unimodular(rng, n)
    hbar = Matrix([[rng.choice(pool) for _ in range(n - d)]
                   for _ in range(d)])
    blocks = [Matrix([r[c] for r in rows])
              for rows in (H.rows[:d], H.rows[d:])
              for c in (slice(0, d), slice(d, n))]
    H1, H2, H3, H4 = blocks
    inv = ref_inverse(H1 + hbar * H3)
    if inv is None:
        with pytest.raises(SingularBlock):
            torus_act(hbar, H)
        return
    want = inv * (H2 + hbar * H4)
    got = torus_act(hbar, H)
    assert got == want
    assert [[str(x) for x in r] for r in got.rows] == \
        [[str(x) for x in r] for r in want.rows]


def test_torus_act_errors():
    with pytest.raises(NotUnimodular):
        torus_act(Matrix([[SA]]), Matrix([[2, 0], [0, 1]]))
    with pytest.raises(SingularBlock):
        # H1 + hbar H3 = 1 + a*... choose H making it vanish at hbar = -1
        torus_act(Matrix([[Scalar.from_fraction(-1)]]),
                  Matrix([[1, 0], [1, 1]]))
    with pytest.raises(SingularBlock):
        # H1 + hbar H3 = [[1, a], [1, a]], singular for every a
        torus_act(Matrix([[SA], [SA]]),
                  Matrix([[1, 0, 0], [1, 0, 1], [0, 1, 0]]))


def test_torus_act_group_law_randomized():
    rng = random.Random(99)
    checked = 0
    while checked < 120:
        a = Scalar.from_fraction(Q(rng.randint(-9, 9), rng.randint(1, 9)))
        H1, H2 = rand_unimodular(rng), rand_unimodular(rng)
        try:
            lhs = act_2d(a, H1 * H2)
            rhs = act_2d(act_2d(a, H1), H2)
        except SingularBlock:
            continue
        assert lhs == rhs
        checked += 1


def test_torus_act_matrix_group_law():
    rng = random.Random(98)
    checked = 0
    while checked < 30:
        hb = Matrix([[Scalar.from_fraction(Q(rng.randint(-5, 5),
                                             rng.randint(1, 4)))
                      for _ in range(2)]])
        H1 = rand_unimodular(rng, 3)
        H2 = rand_unimodular(rng, 3)
        try:
            lhs = torus_act(hb, H1 * H2)
            rhs = torus_act(torus_act(hb, H1), H2)
        except SingularBlock:
            continue
        assert lhs == rhs
        checked += 1


def test_equiv_2d_rationals():
    H = torus_equiv_2d(Scalar.from_fraction(Q(3, 7)),
                       Scalar.from_fraction(Q(5, 2)))
    assert H is not None
    assert act_2d(Scalar.from_fraction(Q(3, 7)), H) == Q(5, 2)


def test_equiv_2d_quadratic_translation():
    H = torus_equiv_2d(ST, 1 + ST)
    assert H is not None
    assert act_2d(ST, H) == 1 + ST
    # the obvious integer translation is also a valid witness
    assert act_2d(ST, Matrix([[1, 1], [0, 1]])) == 1 + ST


def test_equiv_2d_sqrt2_vs_sqrt3_absent():
    assert torus_equiv_2d(ST, SU) is None


def test_equiv_2d_mixed_absent():
    assert torus_equiv_2d(Scalar.from_fraction(2), ST) is None


def test_equiv_2d_bounded_orbit_oracle():
    # no small GL_2(Z) element carries sqrt2 to sqrt3
    bound = 8
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            for r in range(-bound, bound + 1):
                # solve s from det = +-1
                for dt in (1, -1):
                    num = dt + q * r
                    if p == 0:
                        continue
                    if num % p:
                        continue
                    s = num // p
                    if abs(s) > 50:
                        continue
                    H = Matrix([[p, r], [q, s]])
                    val = act_2d(ST, H)
                    assert val != SU
    # same-tail detection is symmetric
    H = torus_equiv_2d(1 + ST, ST)
    assert H is not None and act_2d(1 + ST, H) == ST


def test_equiv_2d_transitive_with_witnesses():
    a = Scalar.from_fraction(Q(2, 5))
    b = Scalar.from_fraction(Q(-7, 3))
    c = Scalar.from_fraction(4)
    Hab = torus_equiv_2d(a, b)
    Hbc = torus_equiv_2d(b, c)
    assert act_2d(a, Hab * Hbc) == 4


def test_equiv_2d_rejects_transcendental():
    with pytest.raises(UnsupportedField):
        torus_equiv_2d(SA, SB)


def _sqrt(D):
    return Scalar.of_param(Parameter(f"r{D}", "quadratic", D))


def _min_poly_discriminant(x: Scalar):
    """Discriminant B^2 - 4AC of the primitive integer minimal polynomial
    A X^2 + B X + C of an irrational u + v sqrt(D): a GL_2(Z) invariant."""
    (p,) = x.params.values()
    u, v = affine_coefficients(x, [p.name])
    b, c = -2 * u, u * u - v * v * p.D
    L = lcm(b.denominator, c.denominator)
    A, B, C = L, int(b * L), int(c * L)
    g = gcd(gcd(A, B), C)
    return (B * B - 4 * A * C) // (g * g)


def test_equiv_2d_same_discriminant_inequivalent():
    # sqrt 10 and sqrt(10)/2 both have discriminant 40, whose two classes
    # (x^2 - 10 y^2 and 2 x^2 - 5 y^2) keep them apart: b's reduced cycle
    # returns to its start without meeting a's reduced quotient
    r10 = _sqrt(10)
    assert _min_poly_discriminant(r10) == _min_poly_discriminant(r10 / 2)
    assert torus_equiv_2d(r10, r10 / 2) is None
    assert torus_equiv_2d(r10 / 2, r10) is None
    # sqrt(10)/5 = 1/(sqrt(10)/2) is in the class of sqrt(10)/2
    H = torus_equiv_2d(r10 / 2, r10 / 5)
    assert H is not None and act_2d(r10 / 2, H) == r10 / 5


def test_equiv_2d_match_deep_in_long_period(monkeypatch):
    # sqrt(1000003) has period 458; b is the complete quotient halfway
    # through it, so the walk of b's cycle meets a's first reduced quotient
    # only after about half a period
    D = 1000003
    s = isqrt(D)
    P, Qn = 0, 1
    for _ in range(229):
        k = (s + P) // Qn
        P = k * Qn - P
        Qn = (D - P * P) // Qn
    r = _sqrt(D)
    b = (P + r) / Qn
    steps = []
    step = moduli._cf_step

    def counted(*args):
        steps.append(1)
        return step(*args)

    monkeypatch.setattr(moduli, "_cf_step", counted)
    H = torus_equiv_2d(r, b)
    assert H is not None and act_2d(r, H) == b
    assert len(steps) >= 229


def _witness_bits(H):
    return max(abs(x.as_fraction().numerator).bit_length()
               for row in H.rows for x in row)


def test_equiv_2d_witness_takes_the_shorter_way_round():
    # b = -a - 6: a's cycle reaches b's reduced quotient in a few steps,
    # while b's cycle reaches a's only deep into a long period, where its
    # convergents had thousands of digits
    r = _sqrt(4000012)
    a = Q(17, 8) * r - Q(5, 4)
    b = -Q(17, 8) * r - Q(19, 4)
    H = torus_equiv_2d(a, b)
    assert H == Matrix([[-1, 6], [0, 1]])
    assert act_2d(a, H) == b


def test_equiv_2d_witness_is_short_when_the_period_is_long():
    r = _sqrt(557626)
    a = Q(35688059, 35688063) - Q(32, 35688063) * r
    b = Q(5, 4) - 2 * r
    H = torus_equiv_2d(a, b)
    assert H is not None and act_2d(a, H) == b
    assert _witness_bits(H) <= 32


def test_equiv_2d_across_square_classes_of_one_field():
    # sqrt 2 and sqrt(8)/2 are one number written with two parameters
    r2, r8 = _sqrt(2), _sqrt(8)
    H = torus_equiv_2d(r2, 1 + r8 / 2)
    assert H is not None
    assert quadratic_surd(act_2d(r2, H)) == quadratic_surd(1 + r8 / 2)


def test_equiv_2d_unequal_discriminants_skip_the_walk(monkeypatch):
    # the primitive minimal polynomials of a and b have discriminants
    # 51840155520000 and 792987978956800, a GL_2(Z) invariant, so the pair
    # is decided without a walk; walked over one common scaled N, it took
    # 931147 cycle steps
    r = _sqrt(1000003)
    a = Q(-3, 5) + Q(16, 9) * r
    b = Q(5, 8) - Q(20, 11) * r
    assert _min_poly_discriminant(a) != _min_poly_discriminant(b)

    def walk(*args):
        raise AssertionError("continued_fraction_walk entered")

    monkeypatch.setattr(moduli, "continued_fraction_walk", walk)
    assert torus_equiv_2d(a, b) is None


def test_equiv_2d_huge_discriminant():
    # the key of sqrt D is read off its minimal polynomial X^2 - D; finding
    # the square part of D by trial division would take O(sqrt D) steps
    r = _sqrt(10000000000000000051)
    H = torus_equiv_2d(r, 1 + r)
    assert H is not None and act_2d(r, H) == 1 + r


def _elementary_product(draws):
    M = Matrix.identity(2)
    for i, e in draws:
        E = [[1, 0], [0, 1]]
        E[i][1 - i] = e
        M = M * Matrix(E)
    return M


fractions = st.builds(Q, st.integers(-20, 20), st.integers(1, 12))
nonzero = fractions.filter(lambda x: x != 0)
# squarefree, so that each field is named by one parameter
discriminants = st.sampled_from([2, 3, 5, 6, 7, 10, 13, 19, 21, 94, 151,
                                 1000003])


@settings(max_examples=60, deadline=None)
@given(D=discriminants, u=fractions, v=nonzero, u2=fractions, v2=nonzero,
       draws=st.lists(st.tuples(st.integers(0, 1), st.integers(-4, 4)),
                      max_size=5),
       flip=st.booleans())
def test_equiv_2d_randomized_against_invariants(D, u, v, u2, v2, draws,
                                                flip):
    r = _sqrt(D)
    a = u + v * r
    H = _elementary_product(draws)
    if flip:
        H = H * Matrix([[0, 1], [1, 0]])
    b = act_2d(a, H)
    H2 = torus_equiv_2d(a, b)
    assert H2 is not None and act_2d(a, H2) == b
    # an unrelated b2 of the same field: discriminants of the primitive
    # minimal polynomials are GL_2(Z) invariants
    b2 = u2 + v2 * r
    H3 = torus_equiv_2d(a, b2)
    if _min_poly_discriminant(a) != _min_poly_discriminant(b2):
        assert H3 is None
    elif H3 is not None:
        assert act_2d(a, H3) == b2
    assert torus_equiv_2d(a, Scalar.from_fraction(u2)) is None


def _sqrt_ratio(N, D):
    """The rational m >= 0 with sqrt N = m sqrt D."""
    r = Q(N) / D
    m = Q(isqrt(r.numerator), isqrt(r.denominator))
    assert m * m == r
    return m


@settings(max_examples=60, deadline=None)
@given(D=discriminants, u=fractions, v=nonzero)
def test_continued_fraction_walk_is_a_continued_fraction(D, u, v):
    # v < 0 starts the walk at a negative Q
    x = u + v * _sqrt(D)
    P, Qn, N = quadratic_surd(x)
    P2, Q2, M = moduli.continued_fraction_walk(P, Qn, N)
    s = isqrt(N)
    assert 0 < P2 <= s and s - P2 < Q2 <= s + P2
    # x = M . y, and every partial quotient after the first is positive, so
    # after n >= 1 steps the bottom row (q_n, q_n-1) of M is nonnegative and
    # nondecreasing
    y = (P2 + _sqrt_ratio(N, D) * _sqrt(D)) / Q2
    assert act_2d(y, moduli._moebius_to_H(M)) == x
    (_, _), (q1, q0) = M
    assert M == ((1, 0), (0, 1)) or 0 <= q0 <= q1


@settings(max_examples=60, deadline=None)
@given(D=st.sampled_from([8, 12, 50, Q(8, 9), Q(5, 4), 4 * 1000003]),
       u=fractions, v=nonzero,
       draws=st.lists(st.tuples(st.integers(0, 1), st.integers(-4, 4)),
                      max_size=5))
def test_quadratic_surd_is_the_minimal_polynomial_key(D, u, v, draws):
    r = _sqrt(D)
    x = u + v * r
    P, Qn, N = quadratic_surd(x)
    assert (P + _sqrt_ratio(N, D) * r) / Qn == x
    assert (N - P * P) % Qn == 0
    assert N == _min_poly_discriminant(x)
    # N is a GL_2(Z) invariant
    assert quadratic_surd(act_2d(x, _elementary_product(draws)))[2] == N
    # the key depends on the value, not on the parameter naming the field
    r2, r8 = _sqrt(2), _sqrt(8)
    assert quadratic_surd(u + v * r2) == quadratic_surd(u + v * r8 / 2)
    assert quadratic_surd(u + 0 * r) == u


def test_p2_orbit_full_isotropy():
    rep = p2_orbit(Scalar.from_fraction(-1), Scalar.from_fraction(-1), W)
    assert rep.isotropy == "S3"
    assert len(rep.orbit) == 1


def test_p2_orbit_diagonal_z2():
    rng = random.Random(3)
    for _ in range(20):
        a = Q(-rng.randint(2, 30), rng.randint(1, 7))
        if a == -1:
            continue
        rep = p2_orbit(Scalar.from_fraction(a), Scalar.from_fraction(a), W)
        assert rep.isotropy == "Z2(sigma)"
        assert len(rep.orbit) == 3


def test_p2_orbit_reflection_loci():
    rep = p2_orbit(Scalar.from_fraction(-2), Scalar.from_fraction(-1), W)
    assert rep.isotropy == "Z2(sigma.tau)"
    rep2 = p2_orbit(Scalar.from_fraction(-1), Scalar.from_fraction(-2), W)
    assert rep2.isotropy == "Z2(tau.sigma)"


def test_p2_orbit_generic_size_six():
    rep = p2_orbit(Scalar.from_fraction(-2), Scalar.from_fraction(-3), W)
    assert rep.isotropy == "trivial"
    assert len(rep.orbit) == 6
    strs = {tuple(str(x) for x in q) for q in rep.orbit}
    assert ("-2", "-3") in strs and ("-3", "-2") in strs
    assert rep.canonical == min(rep.orbit,
                                key=lambda q: (str(q[0]), str(q[1])))


def test_p2_orbit_domain_check():
    with pytest.raises(OutOfDomain):
        p2_orbit(Scalar.from_fraction(1), Scalar.from_fraction(-1), W)


def test_s3_presentation_symbolic():
    pt = (SA, SB)
    t3 = p2_tau(p2_tau(p2_tau(pt)))
    assert (t3[0] - SA).is_zero() and (t3[1] - SB).is_zero()
    s2 = p2_sigma(p2_sigma(pt))
    assert (s2[0] - SA).is_zero() and (s2[1] - SB).is_zero()
    st2 = p2_sigma(p2_tau(p2_sigma(p2_tau(pt))))
    assert (st2[0] - SA).is_zero() and (st2[1] - SB).is_zero()


def test_wps_weights_examples():
    assert wps_weights(-1, -1) == (1, 1, 1)
    assert wps_weights(-2, -3) == (1, 2, 3)
    assert wps_weights(Q(-1, 2), -1) == (2, 1, 2)


def test_wps_weights_rejects_irrational():
    with pytest.raises(NotRational):
        wps_weights(SA, Scalar.from_fraction(-1))


def test_wps_weights_oracle_and_coprimality_200():
    rng = random.Random(12)
    for _ in range(200):
        a = Q(-rng.randint(1, 15), rng.randint(1, 15))
        b = Q(-rng.randint(1, 15), rng.randint(1, 15))
        wts = wps_weights(a, b)
        assert wts == wps_weights_chart_oracle(a, b)
        assert gcd(gcd(wts[0], wts[1]), wts[2]) == 1


def _pair(re3, im3, re4, im4):
    return ((Scalar.from_fraction(re3), Scalar.from_fraction(im3)),
            (Scalar.from_fraction(re4), Scalar.from_fraction(im4)))


def test_hopf_equiv_examples():
    p1 = _pair(Q(1, 3), 2, Q(1, 7), 3)
    shifted = _pair(Q(4, 3), 2, Q(1, 7), 3)
    res = hopf_equiv(p1, shifted, W)
    assert res["equivalent"] and res["witness"]["kind"] == "direct"
    switched = _pair(Q(1, 7), 3, Q(1, 3), 2)
    assert hopf_equiv(p1, switched, W)["equivalent"]
    diag = _pair(Q(1, 3), 2, Q(1, 3), 2)
    assert hopf_equiv(diag, diag, W)["isotropy"] == "Z2"
    # integer real difference with lambda4 - lambda3 integral
    int_diff = _pair(Q(1, 3), 2, Q(7, 3), 2)
    assert hopf_equiv(int_diff, int_diff, W)["isotropy"] == "Z2"


def test_hopf_not_equivalent_cases():
    p1 = _pair(Q(1, 3), 2, Q(1, 7), 3)
    other = _pair(Q(1, 2), 2, Q(1, 7), 3)
    assert not hopf_equiv(p1, other, W)["equivalent"]
    # an imaginary shift changes the surface
    imshift = _pair(Q(1, 3), 3, Q(1, 7), 3)
    assert not hopf_equiv(p1, imshift, W)["equivalent"]


def test_hopf_zone_enforced():
    inzone = _pair(Q(1, 3), 2, Q(1, 7), 3)
    offzone = _pair(Q(1, 3), 2, Q(1, 7), 0)
    with pytest.raises(OutOfZone):
        hopf_equiv(inzone, offzone, W)
    with pytest.raises(OutOfZone):
        hopf_equiv(offzone, inzone, W)


def test_hopf_equivalence_relation_on_samples():
    base = _pair(Q(1, 3), 2, Q(1, 7), 3)
    q1 = _pair(Q(4, 3), 2, Q(8, 7), 3)    # base + (1, 1)
    q2 = _pair(Q(8, 7), 3, Q(4, 3), 2)    # switched
    assert hopf_equiv(base, base, W)["equivalent"]
    assert hopf_equiv(base, q1, W)["equivalent"]
    assert hopf_equiv(q1, base, W)["equivalent"]
    assert hopf_equiv(q1, q2, W)["equivalent"]
    assert hopf_equiv(base, q2, W)["equivalent"]


def test_cal_torus_orbit_marked_and_full():
    hb = Matrix([[Q(1, 2), Q(3, 2)], [0, 1]])
    marked = cal_torus_orbit_maximal(hb, "marked")
    # canonical form is a left-GL_2(Z) invariant
    H1 = Matrix([[1, 1], [0, 1]])
    from qtoric.linalg import mat_inverse
    moved = mat_inverse(H1) * hb
    marked2 = cal_torus_orbit_maximal(moved, "marked")
    assert marked.canonical == marked2.canonical
    full = cal_torus_orbit_maximal(hb, "full")
    swapped = Matrix([[hb.rows[0][1], hb.rows[0][0]],
                      [hb.rows[1][1], hb.rows[1][0]]])
    full2 = cal_torus_orbit_maximal(swapped, "full")
    assert full.canonical == full2.canonical


def test_cal_torus_orbit_identity_isotropy():
    rep = cal_torus_orbit_maximal(Matrix.identity(2), "full")
    assert rep.isotropy.startswith("permutations")


def test_cal_torus_orbit_invariance_randomized():
    rng = random.Random(21)
    for _ in range(50):
        d, k = rng.choice([(1, 2), (2, 2), (2, 3)])
        hb = Matrix([[Q(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(k)] for _ in range(d)])
        H1 = rand_unimodular(rng, d)
        perm = list(range(k))
        rng.shuffle(perm)
        from qtoric.linalg import mat_inverse
        moved = mat_inverse(H1) * Matrix([[hb.rows[i][j] for j in perm]
                                          for i in range(d)])
        r1 = cal_torus_orbit_maximal(hb, "full")
        r2 = cal_torus_orbit_maximal(moved, "full")
        assert r1.canonical == r2.canonical


def _permuted(hb, perm):
    return Matrix([[r[j] for j in perm] for r in hb.rows])


def test_cal_torus_orbit_parametric_beyond_small_entries():
    # H1 = [[5, 2], [2, 1]] has an entry outside [-2, 2]
    hb = Matrix([[1, 0, SA], [0, 1, SB]])
    moved = Matrix([[5, 2], [2, 1]]) * hb
    for mode in ("marked", "full"):
        r1 = cal_torus_orbit_maximal(hb, mode)
        r2 = cal_torus_orbit_maximal(moved, mode)
        assert r1.canonical == r2.canonical == hb
        assert r2.witnesses["H1_inverse"] * moved == hb
        assert r1.isotropy == r2.isotropy == "trivial"
        assert "heuristic" not in str(r1.to_json())


def test_cal_torus_orbit_parametric_isotropy():
    # swapping the columns of [[a, a]] fixes it; of [[a, b]] it does not
    assert cal_torus_orbit_maximal(Matrix([[SA, SA]])).isotropy == \
        "permutations:[0, 1];[1, 0]"
    assert cal_torus_orbit_maximal(Matrix([[SA, SB]])).isotropy == "trivial"
    # -1 * [[a, -a]] swapped is [[a, -a]]
    assert cal_torus_orbit_maximal(Matrix([[SA, -SA]])).isotropy == \
        "permutations:[0, 1];[1, 0]"
    # the stabiliser of hbar itself, not of the least form [[a, a, b]]
    rep = cal_torus_orbit_maximal(Matrix([[SB, SA, SA]]))
    assert rep.canonical == Matrix([[SA, SA, SB]])
    assert rep.isotropy == "permutations:[0, 1, 2];[0, 2, 1]"


_ATOMS = [Scalar.one(), SA, SB, SA * SB, ST]


@st.composite
def _orbit_case(draw):
    d, k = draw(st.sampled_from([(1, 2), (2, 2), (2, 3)]))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    rows = [[draw(small) + draw(small) * draw(st.sampled_from(_ATOMS))
             for _ in range(k)] for _ in range(d)]
    i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, k - 1))
    rows[i][j] = draw(st.sampled_from(
        [SA / (SB - 2), (1 + SA) / (SA * SB + 1), ST / SA]))
    # a random unimodular H1: a sign times elementary matrices
    H1 = Matrix.identity(d).scale(draw(st.sampled_from([1, -1])))
    for _ in range(draw(st.integers(0, 5)) if d > 1 else 0):
        E = [[int(x == y) for y in range(d)] for x in range(d)]
        E[0][1] = draw(st.integers(-4, 4))
        H1 = H1 * Matrix(E if draw(st.booleans()) else E[::-1])
    return Matrix(rows), H1, draw(st.permutations(range(k)))


@settings(max_examples=60, deadline=None)
@given(_orbit_case())
def test_cal_torus_orbit_exact_on_parametric_entries(case):
    hb, H1, perm = case
    from qtoric.linalg import mat_inverse
    moved = mat_inverse(H1) * _permuted(hb, perm)
    cases = (hb, _permuted(hb, perm), moved)
    reports = [cal_torus_orbit_maximal(x, "full") for x in cases]
    assert reports[0].canonical == reports[1].canonical == reports[2].canonical
    # H1 leaves the stabiliser unchanged; s conjugates it
    assert reports[1].isotropy == reports[2].isotropy
    for x, rep in zip(cases, reports):
        w = rep.witnesses
        assert w["H1_inverse"] * _permuted(x, w["s"]) == rep.canonical
    marked = [cal_torus_orbit_maximal(x, "marked")
              for x in (hb, mat_inverse(H1) * hb)]
    assert marked[0].canonical == marked[1].canonical
