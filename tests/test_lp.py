import itertools
from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from qtoric import lp
from qtoric.lp import solve_lp

# Beale's example: the textbook rule (most negative reduced cost, first
# minimal-ratio row) cycles from the slack basis; Bland's rule must not.
BEALE_A = [[1, 0, 0, Q(1, 4), -8, -1, 9],
           [0, 1, 0, Q(1, 2), -12, Q(-1, 2), 3],
           [0, 0, 1, 0, 0, 1, 0]]
BEALE_B = [0, 0, 1]
BEALE_C = [0, 0, 0, Q(-3, 4), 20, Q(-1, 2), 6]


def _counting_pivots(monkeypatch, limit=100):
    count = [0]
    real = lp._pivot

    def pivot(T, basis, r, c):
        count[0] += 1
        assert count[0] <= limit, "simplex does not terminate"
        real(T, basis, r, c)

    monkeypatch.setattr(lp, "_pivot", pivot)
    return count


def test_beale_terminates_at_optimum(monkeypatch):
    _counting_pivots(monkeypatch)
    res = solve_lp(BEALE_A, BEALE_B, BEALE_C)
    assert res.status == "optimal"
    assert res.objective == Q(-5, 4)
    assert res.x == [Q(3, 4), 0, 0, 1, 0, 1, 0]


def test_beale_from_degenerate_slack_basis(monkeypatch):
    count = _counting_pivots(monkeypatch)
    T = [[Q(v) for v in row] + [Q(b)] for row, b in zip(BEALE_A, BEALE_B)]
    T.append([Q(v) for v in BEALE_C] + [Q(0)])
    basis = [0, 1, 2]
    assert lp._simplex_core(T, basis, 7) == "optimal"
    assert -T[-1][-1] == Q(-5, 4)
    assert count[0] > 0


def test_infeasible():
    assert solve_lp([[1, 1]], [-1], [0, 0]).status == "infeasible"
    assert solve_lp([[1, 0], [1, 0]], [1, 2], [0, 0]).status == "infeasible"
    assert not lp.feasible([[1, -1], [0, 1]], [2, -1])


def test_unbounded():
    assert solve_lp([[1, -1]], [0], [-1, 0]).status == "unbounded"
    assert solve_lp([[1, -1, 0]], [1], [0, -1, 0]).status == "unbounded"


# -- differential test against enumeration of basic solutions ---------------

def _unique_solution(cols, b):
    """The solution of sum_k y_k cols[k] = b if the columns are linearly
    independent and the system is consistent, else None."""
    m, k = len(b), len(cols)
    rows = [[Q(cols[j][i]) for j in range(k)] + [Q(b[i])] for i in range(m)]
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


def _brute_force(A, b, c):
    n = len(c)
    values = [sum(ci * xi for ci, xi in zip(c, x))
              for x in _basic_feasible_solutions(A, b)]
    if not values:
        return "infeasible", None
    # unbounded iff some extreme ray d >= 0, A d = 0, sum d = 1 has c.d < 0
    rays = _basic_feasible_solutions(A + [[1] * n], [0] * len(A) + [1])
    if any(sum(ci * di for ci, di in zip(c, d)) < 0 for d in rays):
        return "unbounded", None
    return "optimal", min(values)


ENTRY = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3])


@st.composite
def small_lps(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    A = [[draw(ENTRY) for _ in range(n)] for _ in range(m)]
    b = [draw(st.integers(-3, 3)) for _ in range(m)]
    c = [draw(st.integers(-3, 3)) for _ in range(n)]
    return A, b, c


@settings(max_examples=300, deadline=None)
@given(small_lps())
def test_solve_lp_matches_basic_solution_enumeration(data):
    A, b, c = data
    status, best = _brute_force(A, b, c)
    res = solve_lp(A, b, c)
    assert res.status == status
    if status == "optimal":
        assert res.objective == best
        assert all(v >= 0 for v in res.x)
        for row, bi in zip(A, b):
            assert sum(a * v for a, v in zip(row, res.x)) == bi
        assert sum(ci * xi for ci, xi in zip(c, res.x)) == best


def _dense_pivot(T, basis, r, c):
    piv = T[r][c]
    T[r] = [v / piv for v in T[r]]
    for i in range(len(T)):
        if i != r and T[i][c] != 0:
            f = T[i][c]
            T[i] = [a - f * v for a, v in zip(T[i], T[r])]
    basis[r] = c


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4), st.integers(2, 6), st.data())
def test_sparse_pivot_matches_dense_pivot(m, n, data):
    T = [[Q(data.draw(ENTRY), data.draw(st.integers(1, 3)))
          for _ in range(n)] for _ in range(m)]
    r = data.draw(st.integers(0, m - 1))
    nz = [j for j in range(n) if T[r][j] != 0]
    if not nz:
        return
    c = data.draw(st.sampled_from(nz))
    dense, sparse = [list(row) for row in T], [list(row) for row in T]
    b1, b2 = list(range(m)), list(range(m))
    _dense_pivot(dense, b1, r, c)
    lp._pivot(sparse, b2, r, c)
    assert sparse == dense and b1 == b2
