import itertools
import random
from fractions import Fraction as Q
from unittest import mock

import pytest
from conftest import (EMPTY_WITNESS, condition_KH_affine,
                      gamma_contains_affine, gamma_rank_affine,
                      is_polytopal_primal, kernel_rank_affine, minor_rank,
                      random_bipyramid_fan, random_circle_fan,
                      random_complete_fan, rand_fraction,
                      ref_certified_walls, ref_inverse, ref_rref,
                      twisted_prism_fan, validate_fan_all_pairs)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_gale_lvmb import random_lvmb

import qtoric.lattice_fan as lattice_fan_mod
from qtoric import lp
from qtoric.calibration import Calibration, kernel_rank
from qtoric.errors import Indeterminate
from qtoric.gale_lvmb import condition_KH
from qtoric.lattice_fan import (CombType, QLattice, QuantumFan,
                                comb_equivalent, comb_type, d_realizable,
                                fan_from_max_cones, fan_properties,
                                gamma_contains, gamma_rank, standardize_fan,
                                validate_fan, _complete_ridges, _is_complete,
                                _is_polytopal, _meet_in_common_face)
from qtoric.linalg import Matrix, gale_rows, primitive
from qtoric.morphism import check_fan_iso
from qtoric.scalars import Parameter, Scalar, Witness

A = Parameter("a")
B = Parameter("b")
T = Parameter("t", "quadratic", 2)
SA, SB, ST = Scalar.of_param(A), Scalar.of_param(B), Scalar.of_param(T)
W = Witness({A: Q(-7, 3), B: Q(-5, 4), T: Q(3, 2)})

P2_TYPE = CombType(3, [[], [1], [2], [3], [1, 2], [2, 3], [3, 1]])


def p2_deformation(a=SA, b=SB):
    gamma = QLattice(2, [[1, 0], [0, 1], [a, b]])
    return fan_from_max_cones(gamma, [[1, 0], [0, 1], [a, b]],
                              [[1, 2], [2, 3], [3, 1]])


def test_gamma_rank_examples():
    assert gamma_rank(QLattice(2, [[1, 0], [0, 1]])) == 2
    assert gamma_rank(QLattice(1, [[1], [ST]])) == 2
    assert gamma_rank(QLattice(1, [[1], [Q(1, 2)]])) == 1


def test_gamma_contains_examples():
    gl = QLattice(1, [[1], [ST]])
    assert gamma_contains(gl, [ST]) == (0, 1)
    assert gamma_contains(gl, [Scalar.from_fraction(2)]) == (2, 0)
    assert gamma_contains(gl, [ST / 2]) is None


def test_gamma_contains_small_coefficient_oracle():
    # brute-force search over small coefficients agrees with the solver
    gl = QLattice(1, [[1], [ST]])
    for target, expected in [(ST * 3 + 2, True), (ST / 2, False),
                             (Scalar.from_fraction(Q(5, 3)), False)]:
        found = None
        for c1 in range(-6, 7):
            for c2 in range(-6, 7):
                if (Scalar.from_fraction(c1) + ST * c2 - target).is_zero():
                    found = (c1, c2)
        assert (found is not None) == expected
        assert (gamma_contains(gl, [target]) is not None) == expected


def _random_entry(rng):
    """q0 + q1 a + q2 b + q3 t with t^2 = 2, each q zero half the time."""
    x = Scalar.zero()
    for s in (1, SA, SB, ST):
        if rng.random() < 0.5:
            x = x + rand_fraction(rng, -4, 4, 3) * s
    return x


def _combination(rng, gens, d, den=1):
    out = [Scalar.zero()] * d
    for g in gens:
        c = Q(rng.randint(-3, 3), den)
        out = [x + c * y for x, y in zip(out, g)]
    return out


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10 ** 6), d=st.sampled_from([1, 2, 3]))
def test_lattice_hnf_matches_affine_reference(seed, d):
    """Rank, membership, kernel bases and (K)/(H) read off one HNF per
    lattice agree with the per-query affine-coefficient routines, for
    random generators with repeated and dependent ones among them."""
    rng = random.Random(seed)
    gens = [[_random_entry(rng) for _ in range(d)]
            for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.5:
            gens.append(list(rng.choice(gens)))
        else:
            gens.append(_combination(rng, gens, d, rng.choice([1, 2])))
    rng.shuffle(gens)
    gamma = QLattice(d, gens)
    assert gamma_rank(gamma) == gamma_rank_affine(gamma)
    targets = [_combination(rng, gens, d), _combination(rng, gens, d, 2),
               [_random_entry(rng) for _ in range(d)], [0] * d,
               [Scalar.of_param(Parameter("c"))] + [0] * (d - 1)]
    for x in targets:
        assert gamma_contains(gamma, x) == gamma_contains_affine(gamma, x)
    cal = Calibration(gamma, gens, [], range(1, len(gens) + 1))
    assert kernel_rank(cal) == kernel_rank_affine(cal)
    assert condition_KH(gens, W) == condition_KH_affine(gens)


def test_non_affine_generators_answer_exactly():
    e1, e2 = [1, 0], [0, 1]
    square = QLattice(2, [e1, e2, [SA * SA, 0]])
    assert gamma_rank(square) == 3
    assert gamma_contains(square, [SA * SA + 2, 1]) == (2, 1, 1)
    assert gamma_contains(square, [SA * SA / 2, 0]) is None
    inverse = QLattice(2, [[1 / SA, 0], e1, e2])
    assert gamma_rank(inverse) == 3
    assert gamma_contains(inverse, [1 / (SA + 1), 0]) is None
    assert gamma_contains(inverse, [3 / SA + 1, -2]) == (3, 1, -2)
    assert gamma_rank(QLattice(2, [[SA * ST, 0], e1, e2])) == 3


def test_lattice_basis_is_computed_once(monkeypatch):
    calls = []
    for name in ("monomial_coordinates", "stacked_hnf"):
        real = getattr(lattice_fan_mod, name)
        monkeypatch.setattr(lattice_fan_mod, name,
                            lambda *args, name=name, real=real:
                            calls.append(name) or real(*args))
    gamma = QLattice(2, [[1, 0], [0, 1], [SA, SB]])
    assert gamma_rank(gamma) == 3
    for c in range(3):
        assert gamma_contains(gamma, [c + SA, c + SB]) == (c, c, 1)
    assert gamma.relations() == []
    assert calls == ["monomial_coordinates", "stacked_hnf"]


def test_validate_fan_ranks_maximal_cones_and_faces_of_dependent_ones(
        monkeypatch):
    # [1, 2, 3] and [3, 4, 6] are dependent; of their proper faces only
    # [2, 3], [3, 4], [3, 6], [4, 6] and [6] lie in no independent cone,
    # and of those only [3, 6] is dependent.  Each maximal cone takes one
    # value chart; the two without one, short of full rank at the witness,
    # take the symbolic rank, and the five faces a witness-first rank
    rays = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [0, 0, -1],
            [2, 2, 0]]
    fan = fan_from_max_cones(QLattice.standard(3), rays,
                             [[1, 2, 3], [1, 2, 4], [1, 3, 5], [3, 4, 6]])
    charts, at_witness, symbolic = [], [], []
    real_chart, real = QuantumFan.value_chart, lattice_fan_mod.rank
    monkeypatch.setattr(QuantumFan, "value_chart",
                        lambda self, c, w: charts.append(sorted(c))
                        or real_chart(self, c, w))
    monkeypatch.setattr(lattice_fan_mod, "rank",
                        lambda M, w=None: (symbolic if w is None
                                           else at_witness).append(M.ncols)
                        or real(M, w))
    rep = validate_fan(fan, EMPTY_WITNESS)
    assert sorted(v["detail"]["cone"] for v in rep.violations) == [
        [1, 2, 3], [3, 4, 6], [3, 6]]
    assert sorted(charts) == [[1, 2, 3], [1, 2, 4], [1, 3, 5], [3, 4, 6]]
    assert sorted(symbolic) == [3, 3]
    assert sorted(at_witness) == [1, 2, 2, 2, 2]
    monkeypatch.undo()
    assert rep.to_json() == validate_fan_all_pairs(fan, EMPTY_WITNESS).to_json()


def test_validate_p1_fan():
    fan = QuantumFan(QLattice(1, [[1]]), [[1], [-1]], [[], [1], [2]])
    assert validate_fan(fan, EMPTY_WITNESS).valid


def test_validate_overlapping_rays_invalid():
    fan = QuantumFan(QLattice(1, [[1]]), [[1], [2]], [[], [1], [2]])
    rep = validate_fan(fan, EMPTY_WITNESS)
    assert not rep.valid
    assert any(v["kind"] == "overlap" for v in rep.violations)


def test_validate_p2_deformation():
    assert validate_fan(p2_deformation(), W).valid


def test_validate_missing_face_and_zero_ray():
    fan = QuantumFan(QLattice(2, [[1, 0], [0, 1]]),
                     [[1, 0], [0, 1]], [[1, 2]])
    rep = validate_fan(fan, EMPTY_WITNESS)
    assert any(v["kind"] == "missing_face" for v in rep.violations)
    fan2 = QuantumFan(QLattice(1, [[1]]), [[0]], [[], [1]])
    rep2 = validate_fan(fan2, EMPTY_WITNESS)
    assert any(v["kind"] == "zero_generator" for v in rep2.violations)


def test_properties_irrational_p1():
    # gamma-complete quantum line: rays 1 and a, Gamma = Z + aZ
    gamma = QLattice(1, [[1], [SA]])
    fan = fan_from_max_cones(gamma, [[1], [SA]], [[1], [2]])
    props = fan_properties(fan, W)
    assert props.irrational and props.complete
    assert props.gamma_complete and props.polytopal


def test_properties_classical_p2():
    fan = fan_from_max_cones(QLattice(2, [[1, 0], [0, 1]]),
                             [[1, 0], [0, 1], [-1, -1]],
                             [[1, 2], [2, 3], [3, 1]])
    props = fan_properties(fan, EMPTY_WITNESS)
    assert not props.irrational
    assert props.complete and props.gamma_complete and props.polytopal


def test_properties_single_cone_not_complete():
    fan = fan_from_max_cones(QLattice(1, [[1]]), [[1]], [[1]])
    props = fan_properties(fan, EMPTY_WITNESS)
    assert not props.complete and not props.polytopal


def test_properties_p2_deformation():
    props = fan_properties(p2_deformation(), W)
    assert props.irrational and props.complete
    assert props.gamma_complete and props.polytopal


def test_non_polytopal_incomplete():
    fan = fan_from_max_cones(QLattice(2, [[1, 0], [0, 1]]),
                             [[1, 0], [0, 1]], [[1, 2]])
    assert not fan_properties(fan, EMPTY_WITNESS).polytopal


def test_singular_maximal_cone_at_witness_is_not_polytopal():
    # at a = 0 the rays (0, a) and (0, -a) vanish: every maximal cone of
    # the combinatorially complete fan is singular there
    fan = fan_from_max_cones(QLattice(2, [[1, 0], [0, 1]]),
                             [[1, 0], [0, SA], [-1, 0], [0, -SA]],
                             [[1, 2], [2, 3], [3, 4], [4, 1]])
    assert _is_complete(fan)
    ridges = _complete_ridges(fan)
    assert not _is_polytopal(fan, Witness({A: Q(0)}), ridges)
    assert _is_polytopal(fan, Witness({A: Q(1)}), ridges)


def test_comb_type_examples():
    D = comb_type(p2_deformation())
    assert D.poset == P2_TYPE.poset
    fan = QuantumFan(QLattice(1, [[1]]), [[1], [-1]], [[], [1], [2]])
    assert comb_type(fan).poset == frozenset(
        {frozenset(), frozenset({1}), frozenset({2})})


def test_blowup_pentagon_type():
    bu = fan_from_max_cones(QLattice(2, [[1, 0], [0, 1]]),
                            [[1, 0], [0, 1], [-1, -1], [-1, 0], [0, -1]],
                            [[1, 2], [2, 4], [3, 4], [3, 5], [1, 5]])
    assert validate_fan(bu, EMPTY_WITNESS).valid
    pentagon = CombType(5, [[], [1], [2], [3], [4], [5],
                            [1, 2], [2, 3], [3, 4], [4, 5], [5, 1]])
    perm = comb_equivalent(comb_type(bu), pentagon)
    assert perm is not None
    mapped = comb_type(bu).apply_permutation(perm)
    assert mapped.poset == pentagon.poset


def test_comb_equivalent_identity_is_lex_least():
    assert comb_equivalent(P2_TYPE, P2_TYPE) == {1: 1, 2: 2, 3: 3}


def test_comb_equivalent_different_ray_counts():
    pentagon = CombType(5, [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1]])
    square = CombType(4, [[1, 2], [2, 3], [3, 4], [4, 1]])
    assert comb_equivalent(pentagon, square) is None


def test_comb_equivalent_recovers_random_permutation():
    rng = random.Random(31)
    for _ in range(10):
        fan = random_circle_fan(rng, rng.randint(3, 6))
        D = comb_type(fan)
        perm_list = list(range(1, fan.nrays + 1))
        rng.shuffle(perm_list)
        perm = {i + 1: perm_list[i] for i in range(fan.nrays)}
        D2 = D.apply_permutation(perm)
        found = comb_equivalent(D, D2)
        assert found is not None
        assert D.apply_permutation(found).poset == D2.poset


def test_comb_equivalence_relation_properties():
    rng = random.Random(13)
    for _ in range(5):
        fan = random_circle_fan(rng, 5)
        D = comb_type(fan)
        assert comb_equivalent(D, D) is not None
        perm = {1: 3, 2: 1, 3: 2, 4: 5, 5: 4}
        D2 = D.apply_permutation(perm)
        fwd = comb_equivalent(D, D2)
        bwd = comb_equivalent(D2, D)
        assert fwd is not None and bwd is not None
        inv = {v: k for k, v in bwd.items()}
        assert D.apply_permutation(inv).poset == D2.poset
        # transitivity on a sampled triple
        perm2 = {1: 2, 2: 3, 3: 4, 4: 5, 5: 1}
        D3 = D2.apply_permutation(perm2)
        mid = comb_equivalent(D2, D3)
        assert mid is not None
        composed = {k: mid[v] for k, v in fwd.items()}
        assert D.apply_permutation(composed).poset == D3.poset
        assert comb_equivalent(D, D3) is not None


def test_standardize_already_standard():
    fan = p2_deformation()
    std, L = standardize_fan(fan)
    assert L == Matrix.identity(2)
    assert std.rays == fan.rays


def test_standardize_swap():
    gamma = QLattice(2, [[0, 1], [1, 0]])
    fan = fan_from_max_cones(gamma, [[0, 1], [1, 0], [-1, -1]],
                             [[1, 2], [2, 3], [3, 1]])
    std, L = standardize_fan(fan)
    assert L == Matrix([[0, 1], [1, 0]])
    assert [str(x) for x in std.rays[2]] == ["-1", "-1"]


def test_standardize_scaling():
    gamma = QLattice(2, [[2, 0], [0, 2]])
    fan = fan_from_max_cones(gamma, [[2, 0], [0, 2], [-2, -2]],
                             [[1, 2], [2, 3], [3, 1]])
    _, L = standardize_fan(fan)
    assert L == Matrix.identity(2).scale(Q(1, 2))


def test_standardize_idempotent_and_iso():
    rng = random.Random(8)
    for _ in range(10):
        fan = random_complete_fan(rng, rng.choice([2, 3]))
        std, L = standardize_fan(fan)
        std2, L2 = standardize_fan(std)
        assert L2 == Matrix.identity(fan.dim)
        assert std2.rays == std.rays
        res = check_fan_iso(L, fan, std, EMPTY_WITNESS)
        assert res.ok, res.reason


def _strs(vectors):
    return [[str(x) for x in v] for v in vectors]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), d=st.sampled_from([2, 3]),
       kind=st.sampled_from(["complete", "duplicate", "misplaced",
                             "parametric", "folded", "wound"]))
def test_standardize_fan_matches_the_reference_inverse(seed, d, kind):
    # the rays, L and Gamma read off one in_basis equal the greedy basis of
    # [rays | e] inverted by the field step and then applied to each vector
    fan = _fan_variant(random.Random(seed), d, kind)
    std, L = standardize_fan(fan)
    cols = [*fan.rays, *Matrix.identity(d).rows]
    _, picks = ref_rref([[c[i] for c in cols] for i in range(d)])
    ref = ref_inverse(Matrix.from_columns([cols[j] for j in picks]))
    assert L == ref and _strs(L.rows) == _strs(ref.rows)
    assert _strs(std.rays) == _strs(ref.apply(v) for v in fan.rays)
    assert _strs(std.gamma.generators) == \
        _strs(ref.apply(g) for g in fan.gamma.generators)
    assert std.cones == fan.cones


def test_d_realizable_examples():
    assert d_realizable([[1, 0], [0, 1], [-1, -1]], P2_TYPE, EMPTY_WITNESS)
    assert not d_realizable([[1, 0], [0, 1], [1, 1]], P2_TYPE, EMPTY_WITNESS)
    p1 = CombType(2, [[], [1], [2]])
    assert d_realizable([[1], [-1]], p1, EMPTY_WITNESS)
    assert d_realizable([[1], [SA]], p1, W)


def test_complete_fans_facet_pairing():
    rng = random.Random(17)
    for _ in range(10):
        fan = random_complete_fan(rng, rng.choice([2, 3]))
        maxc = fan.maximal_cones()
        for i in range(1, fan.nrays + 1):
            assert sum(1 for c in maxc if i in c) >= 2
        facets = {}
        for c in maxc:
            for i in c:
                f = c - {i}
                facets[f] = facets.get(f, 0) + 1
        assert all(v == 2 for v in facets.values())


def _ridge_pairing_complete(fan, dim_check=True):
    """Reference: maximal cones of dimension d, every (d-1)-face in exactly
    two of them, facet-adjacency graph connected (searched directly).  With
    dim_check false, d is the size of a maximal cone: the pseudomanifold
    test."""
    maxc = fan.maximal_cones()
    if not maxc:
        return False
    d = fan.dim if dim_check else len(maxc[0])
    if not d or any(len(c) != d for c in maxc):
        return False
    count = {}
    for c in maxc:
        for i in c:
            count[c - {i}] = count.get(c - {i}, 0) + 1
    if any(v != 2 for v in count.values()):
        return False
    seen, stack = {maxc[0]}, [maxc[0]]
    while stack:
        cur = stack.pop()
        for c in maxc:
            if c not in seen and len(c & cur) == d - 1:
                seen.add(c)
                stack.append(c)
    return len(seen) == len(maxc)


def _poset_fan(dim, nrays, max_cones):
    rays = [[1] * dim for _ in range(nrays)]
    return fan_from_max_cones(QLattice(dim, rays), rays, max_cones)


def test_is_complete_matches_ridge_pairing_reference():
    rng = random.Random(23)
    fans = []
    for _ in range(8):
        fans.append(random_circle_fan(rng, rng.randint(3, 7)))
        fans.append(random_bipyramid_fan(rng, rng.randint(3, 5)))
        fans.append(random_complete_fan(rng, rng.choice([1, 2, 3])))
    for fan in list(fans):
        maxc = [sorted(c) for c in fan.maximal_cones()]
        # one maximal cone dropped: a ridge lies in one cone only
        fans.append(_poset_fan(fan.dim, fan.nrays, maxc[1:]))
        # an extra lower-dimensional maximal cone on a new ray
        fans.append(_poset_fan(fan.dim, fan.nrays + 1,
                               maxc + [[fan.nrays + 1]]))
    fans += [
        # two disjoint circles: every ridge paired, ridge graph disconnected
        _poset_fan(2, 6, [[1, 2], [2, 3], [3, 1], [4, 5], [5, 6], [6, 4]]),
        # octahedron boundary plus a disjoint tetrahedron boundary in R^3
        _poset_fan(3, 10, [list(c) for c in itertools.product(
            [1, 2], [3, 4], [5, 6])] + [list(c) for c in
                                        itertools.combinations(
                                            [7, 8, 9, 10], 3)]),
        # a circle of 2-cones in R^3: a pseudomanifold of the wrong dimension
        _poset_fan(3, 4, [[1, 2], [2, 3], [3, 4], [4, 1]]),
        # a 1-dimensional pair of cones next to a 2-cone
        _poset_fan(2, 4, [[1], [2], [3, 4]]),
        # a ridge in three maximal cones
        _poset_fan(2, 4, [[1, 2], [1, 3], [1, 4], [2, 3], [3, 4]]),
        _poset_fan(1, 2, [[1], [2]]),
        _poset_fan(1, 3, [[1], [2], [3]]),
    ]
    results = []
    for fan in fans:
        got = _is_complete(fan), CombType.of_fan(fan).is_pseudomanifold()
        assert got == (_ridge_pairing_complete(fan),
                       _ridge_pairing_complete(fan, dim_check=False)), \
            fan.cones
        results.append(got)
    # the circle of 2-cones in R^3 is a pseudomanifold but not complete
    assert {(True, True), (False, False), (False, True)} == set(results)


def _fan_variant(rng, d, kind):
    """A random complete rational fan in R^d, or one spoiled by `kind`:
    "duplicate" adds a positive multiple of a ray and puts it in place of
    that ray in one maximal cone; "misplaced" replaces a ray by a random
    integer vector; "parametric" replaces a ray by c v_j + (a - a0) z, which
    equals c v_j at the witness a = a0 but not symbolically; "folded" moves
    a ray i of a maximal cone A into the interior of the cone B across the
    ridge opposite i, so A and B lie on one side of that ridge; "wound"
    joins every other ray of a circle of 5 or 7 rays, so the cones wind
    around twice (suspended by two poles in R^3)."""
    if kind == "wound":
        circle = random_circle_fan(rng, rng.choice([5, 7]))
        p = circle.nrays
        rays = [list(v) for v in circle.rays]
        maxc = [[i + 1, (i + 2) % p + 1] for i in range(p)]
        if d == 3:
            rays = [v + [0] for v in rays] + [[0, 0, 1], [0, 0, -1]]
            maxc = [c + [pole] for c in maxc for pole in (p + 1, p + 2)]
        return fan_from_max_cones(QLattice(d, rays), rays, maxc)
    fan = random_complete_fan(rng, d)
    rays = [list(v) for v in fan.rays]
    maxc = [sorted(c) for c in fan.maximal_cones()]
    i = rng.randint(1, len(rays))
    if kind == "duplicate":
        c = Q(rng.randint(1, 3), rng.randint(1, 3))
        rays.append([c * x for x in rays[i - 1]])
        c = rng.choice([c for c in maxc if i in c])
        c[c.index(i)] = len(rays)
    elif kind == "misplaced":
        rays[i - 1] = [rng.randint(-3, 3) for _ in range(d)]
    elif kind == "parametric":
        vj = rays[rng.randint(1, len(rays)) - 1]
        c = Q(rng.randint(-2, 3), rng.randint(1, 2))
        z = [rng.randint(-2, 2) for _ in range(d)]
        rays[i - 1] = [c * x + (SA + Q(7, 3)) * y for x, y in zip(vj, z)]
    elif kind == "folded":
        A = set(rng.choice([c for c in maxc if i in c]))
        B = next(set(c) for c in maxc if len(A & set(c)) == d - 1
                 and i not in c)
        rays[i - 1] = [sum(x) for x in zip(*(rays[j - 1] for j in B))]
    return fan_from_max_cones(QLattice(d, rays), rays, maxc)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10 ** 6), d=st.sampled_from([2, 3]),
       kind=st.sampled_from(["complete", "duplicate", "misplaced",
                             "parametric", "folded", "wound"]))
def test_validate_fan_matches_all_pairs_reference(seed, d, kind):
    fan = _fan_variant(random.Random(seed), d, kind)

    def outcome(validate):
        try:
            return validate(fan, W).to_json()
        except Indeterminate:
            return "Indeterminate"

    assert outcome(validate_fan) == outcome(validate_fan_all_pairs)


def test_validate_fan_dependent_at_the_witness_only():
    # (1, 0) and (1, a + 7/3) are independent symbolically but equal at
    # a = -7/3, so the one maximal cone certifies nothing about its faces,
    # and each ray meets the relative interior of the line they span
    rays = [[1, 0], [1, SA + Q(7, 3)]]
    fan = fan_from_max_cones(QLattice(2, [[1, 0], [0, 1]]), rays, [[1, 2]])
    rep = validate_fan(fan, W)
    assert rep.violations == [
        {"kind": "overlap", "detail": {"cones": cones}}
        for cones in ([[1], [2]], [[1], [1, 2]], [[2], [1, 2]])]
    assert rep.to_json() == validate_fan_all_pairs(fan, W).to_json()


def test_quadratic_overlap_matches_all_pairs_reference():
    # (2, t) = t * (t, 1) at t = sqrt 2, so rays 2 and 3 overlap; with the
    # root rounded, the two directions differed and the fan passed
    rays = [[1, 0], [ST, 1], [2, ST], [0, 1], [-1, -1]]
    gamma = QLattice(2, [[1, 0], [0, 1], [ST, 0], [0, ST]])
    fan = fan_from_max_cones(gamma, rays, [[1, 2], [3, 4], [4, 5], [5, 1]])
    rep = validate_fan(fan, W)
    assert rep.violations == [{"kind": "overlap",
                               "detail": {"cones": [[2], [3]]}}]
    assert rep.to_json() == validate_fan_all_pairs(fan, W).to_json()


def test_validate_fan_decides_each_pair_of_maximal_cones_once(monkeypatch):
    calls = []
    relint = lp.cones_relint_intersect
    monkeypatch.setattr(lp, "cones_relint_intersect",
                        lambda *args: calls.append(1) or relint(*args))
    fan = random_bipyramid_fan(random.Random(5), 5)
    assert validate_fan(fan, EMPTY_WITNESS).valid
    assert calls == []
    # a duplicated ray falls back to the pairs of cones under it
    rays = [list(v) for v in fan.rays] + [[2 * x for x in fan.rays[0]]]
    maxc = [sorted(c) for c in fan.maximal_cones()]
    c = next(c for c in maxc if 1 in c)
    c[c.index(1)] = len(rays)
    dup = fan_from_max_cones(QLattice(3, rays), rays, maxc)
    rep = validate_fan(dup, EMPTY_WITNESS)
    assert {"kind": "overlap", "detail": {"cones": [[1], [len(rays)]]}} \
        in rep.violations
    assert 0 < len(calls)


def test_validate_fan_certifies_complete_fans_without_lp(monkeypatch):
    # the ridge signs and the covered point decide these, on int rows
    # and, for the fan over t = sqrt 2, on ints beside Surds
    fans = [(random_bipyramid_fan(random.Random(s), k), EMPTY_WITNESS)
            for s, k in [(5, 5), (7, 3), (11, 4)]]
    fans.append((fan_from_max_cones(
        QLattice.standard(2), [[1, 0], [0, 1], [-1, -1]],
        [[1, 2], [2, 3], [3, 1]]), EMPTY_WITNESS))
    fans.append((p2_deformation(), W))
    fans.append((fan_from_max_cones(
        QLattice(2, [[1, 0], [0, 1], [ST, 0]]), [[1, 0], [-ST, 1], [-1, -1]],
        [[1, 2], [2, 3], [3, 1]]), Witness({T: 1})))

    def no_lp(*args):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(lp, "solve_lp", no_lp)
    for fan, w in fans:
        assert validate_fan(fan, w).to_json() == {"valid": True,
                                                  "violations": []}


def test_validate_fan_sends_a_doubly_wound_pentagon_to_the_lps():
    # each cone turns by less than a half turn, and five of them go round
    # twice, so every point off the rays lies in two cones
    rays = [[1, 0], [1, 3], [-2, 1], [-2, -1], [1, -3]]
    fan = fan_from_max_cones(QLattice.standard(2), rays,
                             [[1, 3], [3, 5], [5, 2], [2, 4], [4, 1]])
    coords = dict(enumerate(EMPTY_WITNESS.values_of(fan.rays), 1))

    def det(i, j):
        (a, b), (c, e) = coords[i], coords[j]
        return a * e - b * c

    # the ridge signs hold: at ray r, the cones [q, r] and [r, s] lie on
    # opposite sides of it
    for q, r, s in [(1, 3, 5), (3, 5, 2), (5, 2, 4), (2, 4, 1), (4, 1, 3)]:
        assert det(r, q) * det(r, s) < 0
    assert _is_complete(fan)
    assert lattice_fan_mod._certified_walls(coords, {
        A: fan.value_chart(A, EMPTY_WITNESS)
        for A in fan.maximal_cones()}, _complete_ridges(fan)) is None
    rep = validate_fan(fan, EMPTY_WITNESS)
    assert [v["kind"] for v in rep.violations] == ["overlap"] * 10
    assert rep.to_json() == validate_fan_all_pairs(fan, EMPTY_WITNESS).to_json()


def test_value_charts_certify_common_faces_before_the_lp(monkeypatch):
    # without the value-chart certificate, validate_fan ran lp.feasible 20
    # times on the doubly wound pentagon and 10 times on the fan of
    # test_quadratic_overlap_matches_all_pairs_reference
    calls = []
    feasible = lp.feasible
    monkeypatch.setattr(lp, "feasible",
                        lambda *args: calls.append(1) or feasible(*args))
    wound = fan_from_max_cones(
        QLattice.standard(2), [[1, 0], [1, 3], [-2, 1], [-2, -1], [1, -3]],
        [[1, 3], [3, 5], [5, 2], [2, 4], [4, 1]])
    quadratic = fan_from_max_cones(
        QLattice(2, [[1, 0], [0, 1], [ST, 0], [0, ST]]),
        [[1, 0], [ST, 1], [2, ST], [0, 1], [-1, -1]],
        [[1, 2], [3, 4], [4, 5], [5, 1]])
    for fan, before in ((wound, 20), (quadratic, 10)):
        calls.clear()
        rep = validate_fan(fan, W)
        assert len(calls) < before
        assert rep.to_json() == validate_fan_all_pairs(fan, W).to_json()


def _certificate_matches_the_lp(coords, charts):
    """On every pair A, B of the charts' cones, _meet_in_common_face with
    the charts equals the LP's answer alone, and skips the LP exactly when
    in A's value chart, or else in B's, each ray of B - F (F = A & B) has
    coordinates on the rays of A - F with a negative sum."""
    def certifies(A, B):
        if charts[A] is None:
            return False
        rows = dict(zip(sorted(A), charts[A][0]))
        return all(sum(sum(a * y for a, y in zip(rows[i], coords[j]))
                       for i in A - B) < 0 for j in B - A)

    for A, B in itertools.combinations(sorted(charts, key=sorted), 2):
        lp_only = _meet_in_common_face(coords, A, B)
        with mock.patch.object(lp, "feasible",
                               side_effect=lp.feasible) as feasible:
            assert _meet_in_common_face(coords, A, B, charts) == lp_only, \
                (A, B)
        assert feasible.called != (certifies(A, B) or certifies(B, A))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10 ** 6), d=st.sampled_from([2, 3]),
       kind=st.sampled_from(["complete", "duplicate", "misplaced",
                             "parametric", "folded", "wound"]),
       surd=st.booleans())
def test_common_face_certificate_matches_the_lp(seed, d, kind, surd):
    # the maximal cones, and the ridges as maximal cones, whose charts
    # carry a completion row; with surd, one ray is scaled by t = sqrt 2 or
    # moved along t z
    rng = random.Random(seed)
    fan = _fan_variant(rng, d, kind)
    rays = [list(v) for v in fan.rays]
    if surd:
        i = rng.randrange(len(rays))
        z = [rng.randint(-2, 2) for _ in range(d)]
        rays[i] = rng.choice([[ST * x for x in rays[i]],
                              [x + ST * y / 4 for x, y in zip(rays[i], z)]])
    maxc = fan.maximal_cones()
    for cones in (maxc, {A - {i} for A in maxc for i in A}):
        sub = QuantumFan(QLattice(d, rays), rays, cones)
        try:
            coords = lattice_fan_mod._witness_coords(sub, W)
        except Indeterminate:
            continue
        _certificate_matches_the_lp(coords, {
            A: sub.value_chart(A, W) for A in cones if A})


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_common_face_certificate_matches_the_lp_on_lvmb_data(rng):
    # the Gale-dual cones over the complements of E, as check_lvmb forms them
    datum = random_lvmb(rng)
    pts = W.values_of(datum.points)
    dual = {i: primitive(v) for i, v in enumerate(
        gale_rows([*zip(*pts), [Q(1)] * len(pts)]), 1)}
    _certificate_matches_the_lp(dual, {
        A: lattice_fan_mod._value_chart([dual[i] for i in sorted(A)], len(A))
        for A in (frozenset(dual) - e for e in datum.E)})


def test_validate_fan_folded_ray_fails_a_ridge_sign():
    # ray 4 = (-2, -1) lies on the side of ray 3 where ray 2 is, so the
    # cones [2, 3] and [3, 4] at the ridge [3] fold over each other; the
    # covered point (1, 1) of [1, 2] lies in no other cone, so only the
    # ridge sign rejects the fan
    rays = [[1, 0], [0, 1], [-1, -1], [-2, -1]]
    fan = fan_from_max_cones(QLattice.standard(2), rays,
                             [[1, 2], [2, 3], [3, 4], [4, 1]])
    coords = dict(enumerate(EMPTY_WITNESS.values_of(fan.rays), 1))
    assert _is_complete(fan)
    assert lattice_fan_mod._certified_walls(coords, {
        A: fan.value_chart(A, EMPTY_WITNESS)
        for A in fan.maximal_cones()}, _complete_ridges(fan)) is None
    rep = validate_fan(fan, EMPTY_WITNESS)
    assert not rep.valid
    assert rep.to_json() == validate_fan_all_pairs(fan, EMPTY_WITNESS).to_json()


def test_validate_fan_bipyramid_with_apex_pushed_through_a_facet():
    fan = random_bipyramid_fan(random.Random(3), 4)
    rays = [list(v) for v in fan.rays]
    # the north pole goes below the base plane, into the southern cones
    rays[-2] = [Q(1, 7), Q(1, 5), -1]
    pushed = fan_from_max_cones(QLattice(3, rays), rays,
                                [sorted(c) for c in fan.maximal_cones()])
    rep = validate_fan(pushed, EMPTY_WITNESS)
    assert any(v["kind"] == "overlap" for v in rep.violations)
    assert rep.to_json() == validate_fan_all_pairs(
        pushed, EMPTY_WITNESS).to_json()


def test_validate_fan_singular_at_the_witness_only_falls_through():
    # (-1, a + 7/3) is independent of (1, 0) symbolically, but equals
    # (-1, 0) at a = -7/3: the cone [1, 2] has no value chart at the
    # witness, so the certificate falls through, and there [1, 2] is a
    # line whose relative interior holds both of its rays
    rays = [[1, 0], [-1, SA + Q(7, 3)], [0, -1]]
    fan = fan_from_max_cones(QLattice(2, [[1, 0], [0, 1], [0, SA]]), rays,
                             [[1, 2], [2, 3], [3, 1]])
    assert _is_complete(fan)
    assert fan.value_chart([1, 2], W) is None
    rep = validate_fan(fan, W)
    assert rep.to_json() == {"valid": False, "violations": [
        {"kind": "overlap", "detail": {"cones": cones}}
        for cones in ([[1], [1, 2]], [[2], [1, 2]])]}
    assert rep.to_json() == validate_fan_all_pairs(fan, W).to_json()


def test_validate_fan_cone_that_is_a_line_at_the_witness():
    # v3 = -2 v1 at a = -7/3, so the cone [1, 3] is a line there, and its
    # relative interior holds both of its rays
    rays = [[-3, -1], [7, 2], [6, 2 * SA + Q(20, 3)]]
    fan = fan_from_max_cones(QLattice(2, [[1, 0], [0, 1], [0, 2 * SA]]),
                             rays, [[1, 2], [1, 3], [2, 3]])
    rep = validate_fan(fan, W)
    assert rep.to_json() == {"valid": False, "violations": [
        {"kind": "overlap", "detail": {"cones": cones}}
        for cones in ([[1], [1, 3]], [[3], [1, 3]])]}
    assert rep.to_json() == validate_fan_all_pairs(fan, W).to_json()


def test_validate_fan_ray_zero_at_the_witness_only_is_indeterminate():
    rays = [[1, 0], [0, 1], [SA + Q(7, 3), SA + Q(7, 3)], [-1, -1]]
    fan = fan_from_max_cones(QLattice(2, [[1, 0], [0, 1], [SA, SA]]), rays,
                             [[1, 2], [2, 4], [4, 1], [3]])
    with pytest.raises(Indeterminate, match="ray 3"):
        validate_fan(fan, W)
    with pytest.raises(Indeterminate):
        validate_fan_all_pairs(fan, W)


def test_validate_fan_never_valid_with_a_cone_singular_at_the_witness():
    singular = 0
    for seed in range(40):
        for d in (2, 3):
            fan = _fan_variant(random.Random(seed), d, "parametric")
            if all(fan.value_chart(c, W) is not None
                   for c in fan.maximal_cones()):
                continue
            singular += 1
            try:
                valid = validate_fan(fan, W).valid
            except Indeterminate:
                valid = False
            assert not valid
    assert singular


def test_validate_fan_eliminates_each_maximal_cone_once(monkeypatch):
    # on a valid fan, each maximal cone's witness values take one
    # inverse_rows, which serves as its rank and its chart, and no cone
    # is ranked otherwise
    fans = [(random_bipyramid_fan(random.Random(5), 5), EMPTY_WITNESS),
            (p2_deformation(), W)]
    calls = []
    real = lattice_fan_mod.inverse_rows

    def no_rank(*args):
        raise AssertionError("a rank was taken")

    monkeypatch.setattr(lattice_fan_mod, "inverse_rows",
                        lambda cols: calls.append(1) or real(cols))
    monkeypatch.setattr(lattice_fan_mod, "rank", no_rank)
    for fan, w in fans:
        calls.clear()
        assert validate_fan(fan, w).valid
        assert len(calls) == len(fan.maximal_cones())


def test_value_chart_exactly_when_the_witness_rank_is_full():
    fans = [_fan_variant(random.Random(seed), d, kind)
            for seed in range(12) for d in (2, 3)
            for kind in ("complete", "duplicate", "parametric")]
    fans.append(fan_from_max_cones(
        QLattice.standard(2), [[1, 0], [0, 1 / (SA + Q(7, 3))]], [[1, 2]]))
    short = 0
    for fan in fans:
        for c in fan.cones:
            chart = fan.value_chart(c, W)
            try:
                values = W.values_of(fan.cone_generators(c))
            except Indeterminate:
                assert chart is None
                continue
            if minor_rank(values) < len(c):
                assert chart is None
                short += 1
                continue
            # the rows invert the cleared values: ray k goes to D e_k, and
            # each is a positive multiple of the ray's values
            N, D = chart
            assert D > 0 and all(type(x) is int for r in N for x in r)
            for k, (i, v) in enumerate(zip(sorted(c), values)):
                cleared = fan.witness_values(W)[i - 1]
                assert [sum(a * x for a, x in zip(r, cleared)) for r in N] \
                    == [D * int(j == k) for j in range(fan.dim)]
                s = next(y / x for x, y in zip(v, cleared) if x)
                assert s > 0 and [s * x for x in v] == cleared
    assert short
    assert fans[-1].value_chart([1, 2], W) is None
    assert fans[-1].value_chart([1], W) is not None


def test_value_charts_and_walls_form_no_fraction_on_a_rational_fan(
        monkeypatch):
    fan = random_bipyramid_fan(random.Random(5), 5)
    ridges = _complete_ridges(fan)
    made, new = [], Q.__new__
    monkeypatch.setattr(Q, "__new__", staticmethod(
        lambda cls, *args, **kw: made.append(args) or new(cls, *args, **kw)))
    coords = lattice_fan_mod._witness_coords(fan, EMPTY_WITNESS)
    charts = {A: fan.value_chart(A, EMPTY_WITNESS)
              for A in fan.maximal_cones()}
    walls = lattice_fan_mod._certified_walls(coords, charts, ridges)
    monkeypatch.undo()
    assert walls and made == []
    assert Q(3, 6) == Q(1, 2) and type(Q(1) + 1) is Q


def _scaled(fan, scales):
    """The fan with ray k and the k-th generator of Gamma (the rays, for
    _fan_variant) times scales[k]."""
    gamma = QLattice(fan.dim, [[s * x for x in g] for s, g in
                               zip(scales, fan.gamma.generators)])
    return QuantumFan(gamma, [[s * x for x in v]
                              for s, v in zip(scales, fan.rays)], fan.cones)


FAN_KINDS = ["complete", "duplicate", "misplaced", "parametric", "folded",
             "wound"]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), d=st.sampled_from([2, 3]),
       kind=st.sampled_from(FAN_KINDS + ["mother"]))
def test_validate_and_properties_are_invariant_under_positive_scaling(
        seed, d, kind):
    # witness decisions read the cones of the rays only, so the cleared
    # rows (QuantumFan.witness_values) may stand for the values; the
    # scaled fan is also decided on its raw values, whose charts carry
    # other denominators D
    rng = random.Random(seed)
    if kind == "mother":
        fan = fan_from_max_cones(QLattice(3, MOTHER_RAYS), MOTHER_RAYS,
                                 MOTHER_CONES)
    else:
        fan = _fan_variant(rng, d, kind)
    scales = [Q(rng.randint(1, 12), rng.randint(1, 12)) for _ in fan.rays]
    scaled = _scaled(fan, scales)

    def outcome(fan):
        try:
            return (validate_fan(fan, W).to_json(),
                    fan_properties(fan, W).to_json())
        except Indeterminate:
            return "Indeterminate"

    assert outcome(scaled) == outcome(fan)
    with mock.patch.object(lattice_fan_mod, "primitive", list):
        assert outcome(_scaled(fan, scales)) == outcome(fan)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10 ** 6), d=st.sampled_from([2, 3]),
       kind=st.sampled_from(FAN_KINDS), surd=st.booleans())
def test_certified_walls_on_integer_charts_match_the_field_reference(
        seed, d, kind, surd):
    # with surd, one ray is taken times sqrt(2), so its values stay Surds
    # and the charts of its cones take the field step
    rng = random.Random(seed)
    fan = _fan_variant(rng, d, kind)
    if surd:
        fan = _scaled(fan, [ST if k == 0 else 1 for k in range(fan.nrays)])
    ridges = _complete_ridges(fan)
    coords = lattice_fan_mod._witness_coords(fan, W)
    walls = lattice_fan_mod._certified_walls(coords, {
        A: fan.value_chart(A, W) for A in fan.maximal_cones()}, ridges)
    ref = None if ridges is None else ref_certified_walls(fan, W)
    if ref is None or ref[0] is None or not ref[1]:
        assert walls is None
        return
    # the cleared ray i is scale[i] > 0 times its values
    scale = {i: next(y / x for x, y in zip(v, coords[i]) if x)
             for i, v in enumerate(W.values_of(fan.rays), 1)}
    assert [wall[:2] for wall in walls] == [wall[:2] for wall in ref[0]]
    for (A, j, x, D), (_, _, ref_x) in zip(walls, ref[0]):
        assert D > 0 and (surd or all(type(v) is int for v in x.values()))
        assert {a: v * Q(1, D) for a, v in x.items()} == {
            a: v * scale[j] / scale[a] for a, v in ref_x.items()}


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10 ** 6), d=st.sampled_from([2, 3]),
       kind=st.sampled_from(["circle", "bipyramid", "twisted", "complete",
                             "duplicate", "misplaced", "parametric",
                             "folded", "wound"]))
def test_is_polytopal_matches_primal_reference(seed, d, kind):
    # the kinds of _fan_variant, at W, include combinatorially complete
    # fans that are not fans at the witness ("folded", "wound")
    rng = random.Random(seed)
    w = EMPTY_WITNESS
    if kind == "circle":
        fan = random_circle_fan(rng, rng.randint(3, 7))
    elif kind == "bipyramid":
        fan = random_bipyramid_fan(rng, rng.randint(3, 5))
    elif kind == "twisted":
        fan = twisted_prism_fan(Q(rng.randint(-3, 3), rng.randint(2, 9)),
                                [rng.random() < 0.8 for _ in range(3)])
        # off convex position: nudge one ray
        i = rng.randrange(fan.nrays)
        rays = [list(v) for v in fan.rays]
        rays[i] = [x + Q(rng.randint(-1, 1), 8) for x in rays[i]]
        fan = fan_from_max_cones(fan.gamma, rays,
                                 [sorted(c) for c in fan.maximal_cones()])
    else:
        fan, w = _fan_variant(rng, d, kind), W
    assert (_is_polytopal(fan, w, _complete_ridges(fan))
            == is_polytopal_primal(fan, w))


def test_is_polytopal_takes_one_gordan_column_per_wall(monkeypatch):
    fan = random_bipyramid_fan(random.Random(5), 5)
    columns = []
    feasible = lp.feasible
    monkeypatch.setattr(lp, "feasible", lambda A, b: columns.append(
        len(A[0])) or feasible(A, b))
    assert _is_polytopal(fan, EMPTY_WITNESS, _complete_ridges(fan))
    assert columns == [len(fan.maximal_cones()) * fan.dim // 2]


def test_fan_properties_walks_the_ridges_once(monkeypatch):
    calls = []
    for name in ("_ridge_map", "_ridges"):
        real = getattr(lattice_fan_mod, name)
        monkeypatch.setattr(lattice_fan_mod, name,
                            lambda *args, name=name, real=real:
                            calls.append(name) or real(*args))
    p2 = fan_from_max_cones(QLattice.standard(2), [[1, 0], [0, 1], [-1, -1]],
                            [[1, 2], [2, 3], [3, 1]])
    props = fan_properties(p2, EMPTY_WITNESS)
    assert props.complete and props.polytopal
    assert calls == ["_ridge_map", "_ridges"]


def test_twisted_prism_is_complete_but_not_polytopal():
    twisted = twisted_prism_fan(0, [False, False, False])
    assert validate_fan(twisted, EMPTY_WITNESS).valid
    assert _is_complete(twisted)
    assert not _is_polytopal(twisted, EMPTY_WITNESS,
                             _complete_ridges(twisted))
    assert not is_polytopal_primal(twisted, EMPTY_WITNESS)
    mixed = twisted_prism_fan(0, [False, True, True])
    assert _is_polytopal(mixed, EMPTY_WITNESS, _complete_ridges(mixed))
    assert is_polytopal_primal(mixed, EMPTY_WITNESS)


MOTHER_RAYS = [[0, 10, 1], [-10, -6, 1], [10, -6, 1], [0, 2, 1], [-2, -1, 1],
               [2, -1, 1], [0, 0, -1]]
MOTHER_CONES = [[1, 2, 5], [1, 5, 4], [2, 3, 6], [2, 6, 5], [1, 2, 7],
                [2, 3, 7], [3, 1, 7], [4, 5, 6], [3, 1, 4], [3, 4, 6]]


def test_lifted_mother_of_all_examples_is_complete_but_not_polytopal():
    # the "mother of all examples" (De Loera-Rambau-Santos) lifted to height
    # 1 and closed by three cones through (0, 0, -1): the diagonals of the
    # three quadrilaterals between the inner and the outer triangle all
    # turn one way, so no convex lift exists, until one is flipped
    gamma = QLattice.standard(3)
    mother = fan_from_max_cones(gamma, MOTHER_RAYS, MOTHER_CONES)
    flipped = fan_from_max_cones(gamma, MOTHER_RAYS, MOTHER_CONES[:8]
                                 + [[3, 1, 6], [1, 4, 6]])
    for fan, polytopal in [(mother, False), (flipped, True)]:
        assert validate_fan(fan, EMPTY_WITNESS).valid
        props = fan_properties(fan, EMPTY_WITNESS)
        assert props.complete and props.polytopal == polytopal
        assert is_polytopal_primal(fan, EMPTY_WITNESS) == polytopal
