import itertools
import math
from unittest import mock
from fractions import Fraction as Q

from conftest import (int_rank, interiors_intersect_by_slack, interiors_slack,
                      ref_solve_lp)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qtoric import lp
from qtoric.lattice_fan import _meet_in_common_face
from qtoric.linalg import gale_rows, pivot
from qtoric.lp import solve_lp
from qtoric.scalars import Parameter, Scalar, Witness, _Root

# Beale's example: the textbook rule (most negative reduced cost, first
# minimal-ratio row) cycles from the slack basis; Bland's rule must not.
BEALE_A = [[1, 0, 0, Q(1, 4), -8, -1, 9],
           [0, 1, 0, Q(1, 2), -12, Q(-1, 2), 3],
           [0, 0, 1, 0, 0, 1, 0]]
BEALE_B = [0, 0, 1]
BEALE_C = [0, 0, 0, Q(-3, 4), 20, Q(-1, 2), 6]


def _recording(real, steps, limit=100):
    """The pivot kernel real, appending each pivot (row, column) to steps."""
    def step(rows, r, c):
        steps.append((r, c))
        assert len(steps) <= limit, "simplex does not terminate"
        real(rows, r, c)
    return step


def _solve_recording_pivots(A, b):
    """solve_lp(A, b), and the pivots of its one step, linalg.int_pivot,
    split by the ring of the rows it was passed: scalars._Root rows (a
    tableau with a Surd) and int rows.  Every entry of one tableau lies in
    one of the two rings."""
    roots, ints = [], []
    real = lp.int_pivot

    def step(rows, r, c):
        kinds = {type(v) for row in rows for v in row}
        assert kinds in ({int}, {_Root}), kinds
        (roots if kinds == {_Root} else ints).append((r, c))
        assert len(roots) + len(ints) <= 100, "simplex does not terminate"
        real(rows, r, c)

    with mock.patch.object(lp, "int_pivot", step):
        return solve_lp(A, b), roots, ints


def _solves(A, b, x):
    return all(v >= 0 for v in x) and all(
        sum(a * v for a, v in zip(row, x)) == bi for row, bi in zip(A, b))


def test_beale_terminates_at_a_feasible_point():
    x, roots, ints = _solve_recording_pivots(BEALE_A, BEALE_B)
    assert x is not None and _solves(BEALE_A, BEALE_B, x)
    assert ints and not roots


def test_beale_from_degenerate_slack_basis():
    # the field tableau; a column z (index 7) that never enters has 1 in
    # the cost row and 0 elsewhere
    F = [[Q(v) for v in row] + [Q(0), Q(b)]
         for row, b in zip(BEALE_A, BEALE_B)]
    F.append([Q(v) for v in BEALE_C] + [Q(1), Q(0)])
    # the same tableau with each row scaled to ints: the cost row stays
    # T[-1][7] times the field one
    T = [[int(v * math.lcm(*(w.denominator for w in row))) for v in row]
         for row in F]
    field, ints = [], []
    assert lp._simplex_core(F, [0, 1, 2], 7,
                            _recording(pivot, field)) == "optimal"
    assert lp._simplex_core(T, [0, 1, 2], 7,
                            _recording(lp.int_pivot, ints)) == "optimal"
    assert -F[-1][-1] == -Q(T[-1][-1], T[-1][7]) == Q(-5, 4)
    assert ints == field and ints


def test_infeasible():
    assert solve_lp([[1, 1]], [-1]) is None
    assert solve_lp([[1, 0], [1, 0]], [1, 2]) is None
    assert not lp.feasible([[1, -1], [0, 1]], [2, -1])


def test_empty_system_is_feasible():
    assert solve_lp([], []) == []
    assert lp.feasible([], [])


# -- differential test against enumeration of basic solutions ---------------

def _unique_solution(cols, b):
    """The solution of sum_k y_k cols[k] = b if the columns are linearly
    independent and the system is consistent, else None."""
    m, k = len(b), len(cols)
    rows = [[cols[j][i] for j in range(k)] + [b[i]] for i in range(m)]
    r = 0
    for c in range(k):
        sel = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if sel is None:
            return None
        rows[r], rows[sel] = rows[sel], rows[r]
        piv = rows[r][c]
        rows[r] = [v / piv for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        r += 1
    if any(rows[i][-1] != 0 for i in range(r, m)):
        return None
    return [rows[i][-1] for i in range(k)]


def _basic_feasible_solutions(A, b):
    m, n = len(A), len(A[0])
    for size in range(min(m, n) + 1):
        for S in itertools.combinations(range(n), size):
            y = _unique_solution([[A[i][j] for i in range(m)] for j in S], b)
            if y is None or any(v < 0 for v in y):
                continue
            x = [Q(0)] * n
            for j, v in zip(S, y):
                x[j] = v
            yield x


ENTRY = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3])

# exact values in Q(sqrt 2, sqrt 3) at a fixed witness, some of them within
# 10^-5 of zero or of one another
ST = Scalar.of_param(Parameter("t", "quadratic", 2))
SU = Scalar.of_param(Parameter("u", "quadratic", 3))
W = Witness({p: 1 for x in (ST, SU) for p in x.params.values()})
SQRT2 = W.value(ST)
K_ENTRY = st.sampled_from([W.value(x) for x in (
    ST, -ST, SU - 1, ST * SU - 2, ST + SU, 2 - ST * SU, Q(577, 408) - ST,
    ST - Q(577, 408), SU - Q(1351, 780), ST * SU - Q(2449, 1000), -SU)])


@st.composite
def small_systems(draw):
    """Rational systems, or systems with entries in Q(sqrt 2, sqrt 3)."""
    rational = draw(st.booleans())
    entry = ENTRY.map(Q) if rational else st.one_of(ENTRY.map(Q), K_ENTRY)
    rhs = st.integers(-3, 3).map(Q)
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    A = [[draw(entry) for _ in range(n)] for _ in range(m)]
    b = [draw(rhs if rational else st.one_of(rhs, K_ENTRY))
         for _ in range(m)]
    return A, b


@settings(max_examples=300, deadline=None)
@given(small_systems())
def test_solve_lp_matches_basic_solution_enumeration(data):
    A, b = data
    found = next(_basic_feasible_solutions(A, b), None) is not None
    x, roots, ints = _solve_recording_pivots(A, b)
    assert (x is not None) == found
    if found:
        assert len(x) == len(A[0]) and _solves(A, b, x)
    ref_steps = []
    ref = ref_solve_lp(A, b, ref_steps)
    assert roots + ints == ref_steps
    assert x == ref and [type(v) for v in x or []] == \
        [type(v) for v in ref or []]


def test_surd_tableau_takes_the_root_step():
    s2, s3 = SQRT2, W.value(SU)
    # the first ratio test compares sqrt(2)/sqrt(3) with 1/sqrt(2) and
    # picks the second row
    A = [[s3, 0, 1, 0], [s2, 1, 0, 0], [1, 1, 1, 1]]
    b = [s2, 1, 2]
    x, roots, ints = _solve_recording_pivots(A, b)
    ref_steps = []
    assert x == ref_solve_lp(A, b, ref_steps) and _solves(A, b, x)
    assert roots == ref_steps and roots[0] == (1, 0) and not ints


# -- Surd rows against the field simplex they replace ------------------------

K_VALUE = st.tuples(*[st.integers(-3, 3)] * 4).map(lambda c: sum(
    (Q(x) * r for x, r in zip(c, (1, SQRT2, W.value(SU), W.value(ST * SU)))),
    Q(0)))


@st.composite
def surd_systems(draw):
    """Systems with entries in Q(sqrt 2, sqrt 3), at least one a Surd, many
    degenerate (b_i = 0) or with b_i < 0, with rows repeated up to a factor
    in K."""
    entry = st.one_of(st.just(0), st.just(0), ENTRY.map(Q), K_VALUE, K_ENTRY)
    rhs = st.one_of(st.just(0), st.integers(-3, 3), K_VALUE)
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    A = [[draw(entry) for _ in range(n)] for _ in range(m)]
    b = [draw(rhs) for _ in range(m)]
    A[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = \
        draw(K_ENTRY)
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(A) - 1))
        f = draw(st.sampled_from([1, -1, SQRT2, 1 - SQRT2 * W.value(SU)]))
        A.append([f * v for v in A[k]])
        b.append(f * b[k])
    return A, b


@settings(max_examples=300, deadline=None)
@given(surd_systems())
@example(([[SQRT2, -1], [1, 1]], [0, -SQRT2]))
def test_surd_rows_match_the_field_simplex(data):
    A, b = data
    x, roots, ints = _solve_recording_pivots(A, b)
    ref_steps = []
    ref = ref_solve_lp(A, b, ref_steps)
    assert roots == ref_steps and not ints
    assert (x is None) == (ref is None)
    if x is not None:
        assert x == ref and _solves(A, b, x)
        assert [type(v) for v in x] == [type(v) for v in ref]


# -- rows of ints against the field simplex they replace ---------------------

SPARSE = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-3, 3),
                   st.builds(Q, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def sparse_rational_systems(draw):
    """Sparse rational systems, many degenerate (b_i = 0) or with b_i < 0,
    with up to two zero rows, copies or multiples of rows inserted."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 7))
    A = [[draw(SPARSE) for _ in range(n)] for _ in range(m)]
    b = [draw(SPARSE) for _ in range(m)]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(A) - 1))
        f = draw(st.sampled_from([0, 1, 1, -1, 2, Q(-1, 3)]))
        row, bk = [f * v for v in A[k]], f * b[k]
        if f == 0:
            bk = draw(st.sampled_from([0, 1]))
        i = draw(st.integers(0, len(A)))
        A.insert(i, row)
        b.insert(i, bk)
    return A, b


@settings(max_examples=500, deadline=None)
@given(sparse_rational_systems())
@example((BEALE_A, BEALE_B))
@example((BEALE_A, [0, 0, 0]))
@example(([row + [0] for row in BEALE_A] + [[0] * 8], [0, 0, 1, 0]))
def test_integer_rows_match_the_field_simplex(data):
    A, b = data
    x, roots, ints = _solve_recording_pivots(A, b)
    ref_steps = []
    ref = ref_solve_lp(A, b, ref_steps)
    assert ints == ref_steps and not roots
    assert (x is None) == (ref is None)
    if x is not None:
        assert all(type(v) is Q for v in x) and x == ref


def _dense_pivot(T, r, c):
    piv = T[r][c]
    T[r] = [v / piv for v in T[r]]
    for i in range(len(T)):
        if i != r and T[i][c] != 0:
            f = T[i][c]
            T[i] = [a - f * v for a, v in zip(T[i], T[r])]


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4), st.integers(2, 6), st.data())
def test_sparse_pivot_matches_dense_pivot(m, n, data):
    rational = st.builds(Q, ENTRY, st.integers(1, 3))
    entry = rational if data.draw(st.booleans()) else \
        st.one_of(rational, K_ENTRY)
    T = [[data.draw(entry) for _ in range(n)] for _ in range(m)]
    r = data.draw(st.integers(0, m - 1))
    nz = [j for j in range(n) if T[r][j] != 0]
    if not nz:
        return
    c = data.draw(st.sampled_from(nz))
    dense, sparse = [list(row) for row in T], [list(row) for row in T]
    _dense_pivot(dense, r, c)
    pivot(sparse, r, c)
    assert sparse == dense


# -- interiors as lifted cones, against the optimal-slack reference ----------

COORD = st.integers(-4, 4)
EPS = Q(1, 10 ** 9)
PUSH = st.sampled_from([0, 1, -1, Q(1, 4), Q(-1, 4), Q(1, 2), Q(-1, 2), 2, -2,
                        4, -4, EPS, -EPS])


def _full_dimensional(points):
    return int_rank([[*p, 1] for p in points]) == len(points[0]) + 1


@st.composite
def hull_pairs(draw):
    """Two full-dimensional point sets in R^d: random, reflected through a
    point of the first (sharing a vertex when it is one), sharing a facet
    on x_0 = 0, nested, equal or far apart.  The second set is then pushed
    along a random direction by a multiple of EPS, rational or times
    sqrt(2), so the hulls can come within about EPS of touching."""
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["random", "vertex", "facet", "nested",
                                 "equal", "disjoint"]))

    def points(k, first=COORD):
        return [[draw(first)] + [draw(COORD) for _ in range(d - 1)]
                for _ in range(k)]

    if kind == "facet":
        base = points(d, st.just(0))
        P = base + points(draw(st.integers(1, 2)), st.integers(1, 4))
        Q_ = base + points(draw(st.integers(1, 2)), st.integers(-4, -1))
    else:
        P = points(draw(st.integers(d + 1, d + 3)))
        if kind == "random":
            Q_ = points(draw(st.integers(d + 1, d + 3)))
        elif kind == "vertex":
            Q_ = [[2 * v - x for v, x in zip(P[0], p)] for p in P]
        elif kind == "nested":
            r = Q(draw(st.integers(1, 5)), 5)
            c = [sum(col) / Q(len(P)) for col in zip(*P)]
            Q_ = [[ci + r * (x - ci) for ci, x in zip(c, p)] for p in P]
        elif kind == "equal":
            Q_ = P[::-1]
        else:
            Q_ = [[x + 9 * (i == 0) for i, x in enumerate(p)] for p in P]
    assume(_full_dimensional(P) and _full_dimensional(Q_))
    u = [draw(st.integers(-2, 2)) for _ in range(d)]
    push = draw(PUSH) * EPS * draw(st.sampled_from([1, SQRT2]))
    P = [[Q(x) for x in p] for p in P]
    Q_ = [[Q(x) + push * ui for x, ui in zip(q, u)] for q in Q_]
    return P, Q_


@settings(max_examples=300, deadline=None)
@given(hull_pairs())
def test_interiors_exact_match_slack_reference(pair):
    # the hulls share interior points exactly when the Gale-dual cones over
    # the complements of their index sets meet in their common face
    P, Q_ = pair
    pts = P + Q_
    dual = dict(enumerate(gale_rows([*zip(*pts), [Q(1)] * len(pts)]), 1))
    first = frozenset(range(1, len(P) + 1))
    assert _meet_in_common_face(dual, frozenset(dual) - first, first) == \
        interiors_intersect_by_slack(P, Q_)
