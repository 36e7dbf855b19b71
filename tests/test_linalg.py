import random
import time
from fractions import Fraction as Q

import pytest
from conftest import int_kernel, int_rank, leibniz_det, ref_inverse, ref_rref
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtoric.errors import Singular
from qtoric.linalg import (Matrix, _rref, det, dot, gale_rows, hnf,
                           in_basis, int_det, int_solve, inverse_rows,
                           kernel_basis, mat_inverse, rank, solve_right)
from qtoric.scalars import Parameter, Scalar, Surd

A = Parameter("a")
B = Parameter("b")
SA, SB = Scalar.of_param(A), Scalar.of_param(B)
ST = Scalar.of_param(Parameter("t", "quadratic", 2))
SU = Scalar.of_param(Parameter("u", "quadratic", 3))
ONE, ZERO = Scalar.one(), Scalar.zero()


def test_inverse_identity():
    eye = Matrix.identity(3)
    assert mat_inverse(eye) == eye


def test_inverse_paper_example():
    M = Matrix([[-1, 1], [-1, 0]])
    assert mat_inverse(M) == Matrix([[0, -1], [1, -1]])


def test_inverse_symbolic_chart_matrix():
    A23 = Matrix([[-SB / SA, ONE], [ONE / SA, ZERO]])
    assert A23 * mat_inverse(A23) == Matrix.identity(2)
    assert mat_inverse(A23) == Matrix([[ZERO, SA], [ONE, SB]])


def test_singular_raises():
    with pytest.raises(Singular):
        mat_inverse(Matrix([[1, 2], [2, 4]]))


def rand_matrix(rng, n):
    pool = [SA, SB, ONE, ZERO,
            Scalar.from_fraction(Q(rng.randint(-3, 3), rng.randint(1, 3)))]
    return Matrix([[rng.choice(pool) for _ in range(n)] for _ in range(n)])


def test_inverse_randomized_100():
    rng = random.Random(11)
    done = 0
    while done < 100:
        n = rng.choice([2, 2, 3])
        M = rand_matrix(rng, n)
        if rank(M) < n:
            continue
        assert M * mat_inverse(M) == Matrix.identity(n)
        done += 1


def test_kernel_examples():
    M = Matrix([[ONE, ZERO, SA], [ZERO, ONE, SB]])
    ker = kernel_basis(M)
    assert len(ker) == 1
    assert [str(x) for x in ker[0]] == ["-a", "-b", "1"]
    assert kernel_basis(Matrix.identity(3)) == []


def test_kernel_blowup_reproduces_gale_rows():
    h = Matrix([[1, 0, -1, -1, 0], [0, 1, -1, 0, -1]])
    ker = kernel_basis(h)
    G = Matrix.from_columns(ker)
    assert G == Matrix([[1, 1, 0], [1, 0, 1],
                        [1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_kernel_properties_randomized():
    rng = random.Random(5)
    for _ in range(30):
        m, n = rng.randint(1, 3), rng.randint(2, 5)
        pool = [SA, ONE, ZERO,
                Scalar.from_fraction(rng.randint(-3, 3))]
        M = Matrix([[rng.choice(pool) for _ in range(n)] for _ in range(m)])
        ker = kernel_basis(M)
        for v in ker:
            assert all(x.is_zero() for x in M.apply(v))
        if ker:
            K = Matrix.from_columns(ker)
            assert rank(K) == len(ker)
        assert len(ker) == n - rank(M)


def test_hnf_examples():
    H, U = hnf([[2, 0], [0, 3]])
    assert H == [[2, 0], [0, 3]] and U == [[1, 0], [0, 1]]
    H, U = hnf([[1, 2], [2, 4]])
    assert H[0] == [1, 2] and H[1] == [0, 0]
    H, U = hnf([[0, 1], [1, 0]])
    assert H == [[1, 0], [0, 1]] and U == [[0, 1], [1, 0]]


def _is_hnf(H):
    pivots = []
    for row in H:
        nz = [j for j, v in enumerate(row) if v != 0]
        if not nz:
            continue
        p = nz[0]
        if pivots and p <= pivots[-1]:
            return False
        if row[p] <= 0:
            return False
        pivots.append(p)
    # entries above each pivot reduced into [0, pivot)
    rows = [r for r in H if any(v != 0 for v in r)]
    for i, row in enumerate(rows):
        p = next(j for j, v in enumerate(row) if v != 0)
        for k in range(i):
            if not (0 <= rows[k][p] < row[p]):
                return False
    return True


def test_hnf_properties_randomized():
    rng = random.Random(9)
    for _ in range(50):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        H, U = hnf(M)
        assert _is_hnf(H)
        UM = [[sum(U[i][k] * M[k][j] for k in range(m)) for j in range(n)]
              for i in range(m)]
        assert UM == H
        assert abs(leibniz_det(U)) == 1


@st.composite
def _unimodular_and_matrix(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    M = [draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
         for _ in range(m)]
    # zero rows and rows that are combinations of the others
    for i in range(m):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "combine"]))
        if kind == "zero":
            M[i] = [0] * n
        elif kind == "combine" and m > 1:
            c = [draw(st.integers(-2, 2)) for _ in range(m)]
            M[i] = [sum(c[k] * M[k][j] for k in range(m) if k != i)
                    for j in range(n)]
    # U: a product of row swaps, sign flips and row additions
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        op = draw(st.sampled_from(["swap", "negate", "add"]))
        if op == "swap":
            U[i], U[j] = U[j], U[i]
        elif op == "negate":
            U[i] = [-x for x in U[i]]
        elif i != j:
            q = draw(st.integers(-5, 5))
            U[i] = [a + q * b for a, b in zip(U[i], U[j])]
    return U, M


@settings(max_examples=200, deadline=None)
@given(_unimodular_and_matrix())
def test_hnf_is_invariant_under_left_unimodular(case):
    U, M = case
    m, n = len(M), len(M[0])
    UM = [[sum(U[i][k] * M[k][j] for k in range(m)) for j in range(n)]
          for i in range(m)]
    assert abs(int_det(U)) == 1
    assert hnf(UM)[0] == hnf(M)[0]


def test_int_solve_and_kernel():
    assert int_solve([[2]], [3]) is None
    assert int_solve([[2]], [4]) == (2,)
    assert int_solve([[1, 0], [0, 1]], [2, -5]) == (2, -5)
    ker = int_kernel([[1, 0, -1], [0, 1, -1]])
    assert ker == [(1, 1, 1)]
    assert int_rank([[1, 2], [2, 4], [3, 6]]) == 1


def test_int_kernel_saturated():
    # kernel of [2, -2] over Z is spanned by (1,1), not (2,2)
    ker = int_kernel([[2, -2]])
    assert sorted(map(tuple, ker)) == [(1, 1)]


def test_int_det_matches_scalar_det():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 5)
        M = [[rng.choice([0, 0, 0, 1, -1, 2, rng.randint(-40, 40)])
              for _ in range(n)] for _ in range(n)]
        assert int_det(M) == leibniz_det(M) == det(Matrix(M)).as_fraction()
    assert int_det([]) == 1
    assert int_det([[0, 1], [1, 0]]) == -1
    with pytest.raises(ValueError):
        int_det([[1, 2]])
    assert det(Matrix([])) == ONE
    assert det(Matrix([[ST, ONE], [2 * ONE, ST]])) == ZERO     # t^2 = 2


DET_ENTRIES = {
    "transcendental": st.sampled_from([ZERO, ONE, -2 * ONE, SA, SB, SA + 1,
                                       SA * SB - 2, ONE / (SA + 1),
                                       SB / (SA - SB)]),
    "surd": st.sampled_from([ZERO, ONE, -2 * ONE, ST, -ST, ST + 1, SU,
                             ST * SU, SU / 2 - 1]),
}
DET_ENTRIES["mixed"] = st.one_of(*DET_ENTRIES.values(), st.sampled_from(
    [SA * ST, ST / (SB + 1), SA + SU]))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(DET_ENTRIES)), st.integers(1, 4), st.data())
def test_scalar_det_matches_leibniz(kind, n, data):
    M = [[data.draw(DET_ENTRIES[kind]) for _ in range(n)] for _ in range(n)]
    if data.draw(st.booleans()) and n > 1:    # a dependent row
        s, t = data.draw(DET_ENTRIES[kind]), data.draw(DET_ENTRIES[kind])
        M[-1] = [s * x + t * y for x, y in zip(M[0], M[1 % (n - 1)])]
    assert det(Matrix(M)) == leibniz_det(M)


# -- sparse elimination against the dense reference --------------------------

def _dense_rref(rows):
    """Leftmost-pivot rref that rewrites every column on each pivot."""
    rows = [list(r) for r in rows]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots, r = [], 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if not rows[i][c].is_zero()),
                   None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = Scalar.one() / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _dense_kernel(M):
    red, pivots = _dense_rref(M.rows)
    out = []
    for f in (c for c in range(M.ncols) if c not in pivots):
        v = [ZERO] * M.ncols
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        out.append(tuple(v))
    return out


def _same(a, b):
    """Equal entry by entry, in value, display and representation."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert len(x) == len(y)
        for u, v in zip(x, y):
            assert u == v and str(u) == str(v) and u.q == v.q


SPARSE = st.sampled_from([0, 0, 0, 0, 0, 1, -1, 2, Q(1, 2), Q(-3, 4), 5])


@st.composite
def sparse_matrices(draw, square=False):
    m = draw(st.integers(1, 5))
    n = m if square else draw(st.integers(1, 6))
    return Matrix([[draw(SPARSE) for _ in range(n)] for _ in range(m)])


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_rref_and_kernel_match_dense_reference(M):
    red, pivots = _rref(M.rows)
    dred, dpivots = _dense_rref(M.rows)
    assert pivots == dpivots
    _same(red, dred)
    _same(kernel_basis(M), _dense_kernel(M))


@settings(max_examples=200, deadline=None)
@given(sparse_matrices(square=True))
def test_inverse_matches_dense_reference(M):
    n = M.nrows
    aug = [list(M.rows[i]) + list(Matrix.identity(n).rows[i])
           for i in range(n)]
    red, pivots = _dense_rref(aug)
    if pivots[:n] != list(range(n)):
        with pytest.raises(Singular):
            mat_inverse(M)
        return
    _same(mat_inverse(M).rows, [r[n:] for r in red[:n]])


def test_sparse_rref_on_parametric_matrices_matches_values():
    rng = random.Random(21)
    for _ in range(40):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        pool = [SA, SB, ZERO, ZERO, ZERO, ONE, Scalar.from_fraction(Q(-1, 2))]
        M = Matrix([[rng.choice(pool) for _ in range(n)] for _ in range(m)])
        red, pivots = _rref(M.rows)
        dred, dpivots = _dense_rref(M.rows)
        assert pivots == dpivots
        assert [list(map(str, r)) for r in red] == \
            [list(map(str, r)) for r in dred]


def test_parametric_rref_keeps_gcd_coefficients_small():
    # Cancelling these entries takes polynomial gcds in a and b whose
    # pseudo-remainder sequence grows exponentially in coefficient size
    # unless each remainder is made primitive over Q as well.
    cols = [[2, 0, 0, SA], [0, Q(-3, 4), SA, Q(1, 2)], [SA * SB, SA, 5, 0],
            [ONE / SB, 0, SA, 0], [0, 0, SA, SA + ONE]]
    t0 = time.monotonic()
    assert rank(Matrix.from_columns(cols)) == 4
    assert time.monotonic() - t0 < 5.0


# -- rational rows on ints against the field step ---------------------------

BIG = 10 ** 30
RATIONAL = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1, 2, -3]),
    st.builds(Q, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(Q, st.integers(-BIG, BIG), st.integers(1, BIG)))


@st.composite
def rational_rows(draw):
    """Fraction rows (witness values), Scalar rows, or the [cols | I] shape
    of inverse_rows: Scalar columns beside a Fraction identity.  Tall or
    wide, with zero rows, zero columns and dependent columns."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    cols = []
    for _ in range(n):
        kind = draw(st.sampled_from(["entries", "zero", "combination"]))
        if kind == "zero":
            col = [Q(0)] * m
        elif kind == "combination" and cols:
            u, v = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            s, t = Q(draw(RATIONAL)), Q(draw(RATIONAL))
            col = [s * x + t * y for x, y in zip(u, v)]
        else:
            col = [Q(draw(RATIONAL)) for _ in range(m)]
        cols.append(col)
    rows = [list(r) for r in zip(*cols)]
    if draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))] = [Q(0)] * n
    shape = draw(st.sampled_from(["fractions", "scalars", "inverse_rows"]))
    if shape != "fractions":
        rows = [[Scalar.from_fraction(x) for x in r] for r in rows]
    if shape == "inverse_rows":
        rows = [[*r, *(Q(int(k == i)) for k in range(m))]
                for i, r in enumerate(rows)]
    return rows


def _value(x):
    return x.q if type(x) is Scalar else x


@settings(max_examples=300, deadline=None)
@given(rational_rows())
@example([[Q(-3), Q(2), Q(1), Q(0)], [Q(-5), Q(1), Q(0), Q(1)]])
@example([[Scalar.from_fraction(Q(-BIG + 1, BIG - 7)), Q(1, 3)],
          [Q(2, 7), Scalar.from_fraction(Q(BIG, 3))]])
def test_integer_rref_matches_the_field_step(rows):
    red, pivots = _rref(rows)
    ref, ref_pivots = ref_rref(rows)
    assert pivots == ref_pivots
    assert [list(map(_value, r)) for r in red] == \
        [list(map(_value, r)) for r in ref]
    # Scalars when the input held one, Fractions otherwise
    held = Scalar if any(type(x) is Scalar for r in rows for x in r) else Q
    assert all(type(x) is held and type(_value(x)) is Q
               for r in red for x in r)


def _inverse_of_picks(cols, d):
    """(picks, B^-1): the picks of in_basis([cols | I]) among cols, and the
    inverse of their matrix B as rows, read off the identity block, or None
    when the picks do not span R^d."""
    n = len(cols)
    picks, coords = in_basis([*cols, *([Q(int(k == i)) for k in range(d)]
                                       for i in range(d))])
    picks = [j for j in picks if j < n]
    return picks, [list(r) for r in zip(*coords[n:])] \
        if len(picks) == d else None


INT_OR_SURD = st.one_of(st.integers(-4, 4),
                        st.sampled_from([ST.q, -ST.q, (ST + 1).q, SU.q]))


@st.composite
def int_or_surd_rows(draw):
    """Rows of ints, or of ints and Surds (witness values)."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    entry = draw(st.sampled_from([st.integers(-4, 4), INT_OR_SURD]))
    return [[draw(entry) for _ in range(n)] for _ in range(m)]


@settings(max_examples=200, deadline=None)
@given(int_or_surd_rows())
@example([[1, 3], [2, 4]])
@example([[1, ST.q], [2, 3]])
def test_int_and_mixed_int_surd_rows_match_the_field_step(rows):
    # ints are rational, and beside a Surd they enter the field step as
    # Fractions, so no int is ever inverted into a float: the first
    # example is the inverse of [[1, 2], [3, 4]], which gave -2.0 and 1.5
    field = [[Q(x) if type(x) is int else x for x in r] for r in rows]
    red, pivots = _rref(rows)
    assert (red, pivots) == ref_rref(field)
    m, n = len(rows), len(rows[0])
    picks, inv = _inverse_of_picks([list(c) for c in zip(*rows)], m)
    ref, ref_pivots = ref_rref([[*r, *(Q(int(k == i)) for k in range(m))]
                                for i, r in enumerate(field)])
    assert picks == [j for j in ref_pivots if j < n]
    assert inv == ([r[n:] for r in ref] if len(picks) == m else None)
    assert all(type(x) in (Q, Surd) for r in red + (inv or []) for x in r)


# -- transcendental rows, fraction-free, against the field step ---------------

def _small(draw):
    return Q(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))


@st.composite
def k_params_entry(draw):
    """An entry over K[a, b]: zero, affine or quadratic in a and b, with a
    coefficient a*sqrt2 + 1 or sqrt3, or over a non-constant denominator
    such as a + 1."""
    kind = draw(st.sampled_from(["zero", "zero", "affine", "quadratic",
                                 "surd", "fraction"]))
    if kind == "zero":
        return ZERO
    x = _small(draw) + _small(draw) * draw(st.sampled_from([SA, SB]))
    if kind == "quadratic":
        x = x * draw(st.sampled_from([SA, SB, SA + SB])) + _small(draw)
    elif kind == "surd":
        x = x + draw(st.sampled_from([SA * ST + 1, SU]))
    elif kind == "fraction":
        x = x / draw(st.sampled_from([SA + 1, SB - 2]))
    return x


@st.composite
def k_params_rows(draw):
    """Rows over K[a, b] with at least one transcendental entry: tall or
    wide, with zero rows, zero columns and columns that are combinations
    of earlier ones with parametric multipliers, or in the [cols | I]
    shape of inverse_rows."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4 // m + 1))
    cols = []
    for _ in range(n):
        kind = draw(st.sampled_from(["entries", "entries", "zero",
                                     "combination"]))
        if kind == "zero":
            col = [ZERO] * m
        elif kind == "combination" and cols:
            u, v = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            s, t = draw(st.sampled_from([ONE, -ONE, SA, SB + 1, ST])), \
                Scalar.from_fraction(_small(draw))
            col = [s * x + t * y for x, y in zip(u, v)]
        else:
            col = [draw(k_params_entry()) for _ in range(m)]
        cols.append(col)
    rows = [list(r) for r in zip(*cols)]
    if draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))] = [ZERO] * n
    if all(x.q is not None for r in rows for x in r):
        rows[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = SA
    if draw(st.booleans()):
        rows = [[*r, *(Q(int(k == i)) for k in range(m))]
                for i, r in enumerate(rows)]
    return rows


@settings(max_examples=150, deadline=None)
@given(k_params_rows())
@example([[SA, SA * ST + 1], [ONE / (SA + 1), SB]])
@example([[SA, 2 * SA, Q(1), Q(0)], [SB, 2 * SB, Q(0), Q(1)]])
def test_fraction_free_rref_matches_the_field_step(rows):
    red, pivots = _rref(rows)
    ref, ref_pivots = ref_rref(rows)
    assert pivots == ref_pivots
    assert all(type(x) is Scalar for r in red for x in r)
    assert red == [[Scalar.coerce(x) for x in r] for r in ref]
    assert rank(Matrix(rows)) == len(pivots)


DOT_ENTRIES = {
    "rational": SPARSE,
    "surd": st.sampled_from([ST, -ST, ST + 1, SU, ST * SU, ST / 2, ONE]),
    "transcendental": st.sampled_from([SA, SA + ONE, ONE / SB, SA * ST]),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["rational", "surd", "transcendental", "mixed"]),
       st.integers(0, 5), st.data())
def test_dot_matches_the_scalar_loop(kind, n, data):
    entry = (st.one_of(*DOT_ENTRIES.values()) if kind == "mixed"
             else DOT_ENTRIES[kind])
    u = [data.draw(entry) for _ in range(n)]
    v = [data.draw(entry) for _ in range(n)]
    ref = Scalar.zero()
    for a, b in zip(u, v):
        ref = ref + Scalar.coerce(a) * Scalar.coerce(b)
    got = dot(u, v)
    assert type(got) is Scalar
    assert got == ref and str(got) == str(ref) and got.q == ref.q
    assert type(got.q) is type(ref.q)


def test_dot_of_empty_vectors_is_zero():
    assert dot([], []) == Scalar.zero()
    assert type(dot([], []).q) is Q


# -- leftmost pivots against the greedy "first independent columns" loop -----

def _greedy_pivots(cols):
    """Reference: keep column j when it is independent of those kept."""
    kept = []
    for j, c in enumerate(cols):
        cand = [cols[i] for i in kept] + [c]
        if rank(Matrix.from_columns(cand)) == len(cand):
            kept.append(j)
    return kept


PARAMETRIC = st.sampled_from([SA, SB, -SA, SA * SB, SA + ONE, ONE / SB])


@st.composite
def column_lists(draw):
    """Rational or parametric columns, with zero columns and columns that
    are combinations of earlier ones mixed in."""
    entry = SPARSE if draw(st.booleans()) else st.one_of(SPARSE, PARAMETRIC)
    d = draw(st.integers(1, 4))
    cols = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["entries", "zero", "combination"]))
        if kind == "zero":
            col = [ZERO] * d
        elif kind == "combination" and cols:
            u, v = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            s, t = Scalar.coerce(draw(entry)), Scalar.coerce(draw(entry))
            col = [s * x + t * y for x, y in zip(u, v)]
        else:
            col = [Scalar.coerce(draw(entry)) for _ in range(d)]
        cols.append(tuple(col))
    return d, cols


@settings(max_examples=200, deadline=None)
@given(column_lists())
def test_pivot_columns_is_the_greedy_basis(case):
    d, cols = case
    piv, inv = _inverse_of_picks(cols, d)
    assert piv == _greedy_pivots(cols)
    assert len(piv) == (rank(Matrix.from_columns(cols)) if cols else 0) <= d
    if cols:    # the inverse of the picked columns, when they span R^d
        assert (inv is None) == (len(piv) < d)
        if inv is not None:
            B = Matrix.from_columns([cols[j] for j in piv])
            assert Matrix(inv) * B == B * Matrix(inv) == Matrix.identity(d)


@st.composite
def int_columns(draw):
    """1 to d columns in Z^d, d <= 3: the witness values of a cone's rays,
    dependent ones included."""
    d = draw(st.integers(1, 3))
    return [[draw(st.integers(-5, 5)) for _ in range(d)]
            for _ in range(draw(st.integers(1, d)))]


@settings(max_examples=200, deadline=None)
@given(int_columns())
@example([[1, 0], [0, -1]])     # the last Bareiss pivot is -1
def test_inverse_rows_of_int_columns_are_ints_over_a_positive_D(cols):
    # the value chart's shape: the columns, then the canonical vectors
    d = len(cols[0])
    cols = cols + [[int(i == j) for i in range(d)] for j in range(d)]
    picks, N, D = inverse_rows(cols)
    assert type(D) is int and D > 0
    assert all(type(x) is int for r in N for x in r)
    ref = ref_inverse(Matrix.from_columns([cols[j] for j in picks]))
    assert [[Q(x, D) for x in r] for r in N] == \
        [[x.as_fraction() for x in r] for r in ref.rows]


# -- gale_rows and in_basis against the field reference ----------------------

WITNESS_VALUE = st.one_of(
    st.integers(-3, 3), st.sampled_from([0, 0, 0]),
    st.builds(Q, st.integers(-4, 4), st.integers(1, 4)),
    st.sampled_from([ST.q, -ST.q, (ST / 2 + 1).q, SU.q, (ST * SU).q]))


@st.composite
def value_rows(draw):
    """Rows of witness values (ints, Fractions, Surds): tall or wide, with
    columns that are combinations of earlier ones."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    cols = []
    for _ in range(n):
        if cols and draw(st.booleans()):
            u, v = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            s, t = draw(WITNESS_VALUE), draw(WITNESS_VALUE)
            cols.append([s * x + t * y for x, y in zip(u, v)])
        else:
            cols.append([draw(WITNESS_VALUE) for _ in range(m)])
    return [list(r) for r in zip(*cols)]


@settings(max_examples=200, deadline=None)
@given(value_rows())
@example([[1, 2, 3]])
@example([[0, 0], [0, 0]])
@example([[1, ST.q, 2], [2, 3, ST.q]])
def test_gale_rows_on_witness_values_match_the_reference_kernel(rows):
    field = [[Q(x) if type(x) is int else x for x in r] for r in rows]
    ref, pivots = ref_rref(field)
    free = [c for c in range(len(rows[0])) if c not in pivots]
    expect = [[Q(f == c) for f in free] for c in range(len(rows[0]))]
    for r, c in enumerate(pivots):
        expect[c] = [-ref[r][f] for f in free]
    got = gale_rows(rows)
    assert got == expect
    assert all(type(x) in (Q, Surd) for g in got for x in g)
    # row c is the Gale vector of column c: the rows annihilate them
    for row in field:
        for k in range(len(free)):
            assert not sum((x * g[k] for x, g in zip(row, got)), Q(0))


@st.composite
def basis_cases(draw):
    """(d, cols): Scalar columns in R^d, d = 0 included, with rational,
    Surd or transcendental entries, zero columns and combinations of
    earlier columns, so the picks need not span."""
    pool = draw(st.sampled_from([
        SPARSE, st.one_of(SPARSE, st.sampled_from([ST, -ST, ST / 2, SU])),
        st.one_of(SPARSE, PARAMETRIC)]))
    d = draw(st.integers(0, 3))
    cols = []
    for _ in range(draw(st.integers(0, 5))):
        how = draw(st.sampled_from(["entries", "zero", "combination"]))
        if how == "zero":
            col = [ZERO] * d
        elif how == "combination" and cols:
            u, v = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            s, t = Scalar.coerce(draw(pool)), Scalar.coerce(draw(pool))
            col = [s * x + t * y for x, y in zip(u, v)]
        else:
            col = [Scalar.coerce(draw(pool)) for _ in range(d)]
        cols.append(tuple(col))
    return d, cols


@settings(max_examples=150, deadline=None)
@given(basis_cases())
@example((0, [(), ()]))
@example((2, [(ONE, ST), (2 * ONE, 2 * ST), (ZERO, SA)]))
@example((2, [(ONE, SA), (SA, SA * SA)]))
def test_in_basis_matches_the_reference_inverse(case):
    d, cols = case
    picks, coords = in_basis(cols)
    assert picks == _greedy_pivots(cols)
    assert [len(c) for c in coords] == [len(picks)] * len(cols)
    assert all(type(x) is Scalar for c in coords for x in c)
    for k, j in enumerate(picks):
        assert coords[j] == tuple(ONE if i == k else ZERO
                                  for i in range(len(picks)))
    if len(picks) == d:     # B^-1 times each column, B^-1 by the field step
        inv = ref_inverse(Matrix.from_columns([cols[j] for j in picks]))
        for c, col in zip(coords, cols):
            assert list(map(str, c)) == list(map(str, inv.apply(col)))
            assert c == inv.apply(col)
    else:                   # the coordinates rebuild every column
        for c, col in zip(coords, cols):
            assert tuple(sum((x * cols[j][i] for x, j in zip(c, picks)), ZERO)
                         for i in range(d)) == col


@st.composite
def linear_systems(draw):
    """(M, b, consistent): rows of M are drawn, or are combinations of two
    earlier rows; b = M x0 for a drawn x0, except that a combination row
    may get a nonzero shift of its right-hand side, which makes the system
    inconsistent."""
    entry = SPARSE if draw(st.booleans()) else st.one_of(SPARSE, PARAMETRIC)

    def scalar():
        return Scalar.coerce(draw(entry))

    n = draw(st.integers(1, 4))
    x0 = [scalar() for _ in range(n)]
    rows, rhs, consistent = [], [], True
    for _ in range(draw(st.integers(1, 5))):
        if rows and draw(st.booleans()):
            i = draw(st.integers(0, len(rows) - 1))
            j = draw(st.integers(0, len(rows) - 1))
            s, t, shift = scalar(), scalar(), scalar()
            rows.append([s * x + t * y for x, y in zip(rows[i], rows[j])])
            rhs.append(s * rhs[i] + t * rhs[j] + shift)
            consistent = consistent and shift.is_zero()
        else:
            rows.append([scalar() for _ in range(n)])
            rhs.append(sum((r * x for r, x in zip(rows[-1], x0)), ZERO))
    return Matrix(rows), rhs, consistent


@settings(max_examples=200, deadline=None)
@given(linear_systems())
def test_solve_right_solves_exactly_the_consistent_systems(case):
    M, b, consistent = case
    x = solve_right(M, b)
    assert (x is not None) == consistent
    if x is not None:
        assert all((u - v).is_zero() for u, v in zip(M.apply(x), b))
