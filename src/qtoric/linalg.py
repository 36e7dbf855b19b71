"""Exact linear algebra over the scalar field, plus integer-lattice
routines (Hermite normal form, integer kernels and solves, and the
monomial coordinates that turn scalar vectors into integer rows).

The kernel routine uses a fixed deterministic pivot rule: the leftmost
linearly independent columns are the pivots and every free column receives
an identity block.  Several downstream identities (notably the Gale vectors
of the blow-up example) depend on this normalization bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import Indeterminate, Singular
from .scalars import Poly, Scalar, poly_divexact, poly_gcd


def _s(x) -> Scalar:
    return Scalar.coerce(x)


class Matrix:
    """Immutable rectangular matrix of Scalars."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        rows = tuple(tuple(_s(x) for x in r) for r in rows)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged matrix")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0

    # -- constructors --------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Matrix":
        one, zero = Scalar.one(), Scalar.zero()
        return Matrix([[one if i == j else zero for j in range(n)]
                       for i in range(n)])

    @staticmethod
    def zero(m: int, n: int) -> "Matrix":
        z = Scalar.zero()
        return Matrix([[z] * n for _ in range(m)])

    @staticmethod
    def from_columns(cols) -> "Matrix":
        cols = [tuple(c) for c in cols]
        if not cols:
            return Matrix([])
        return Matrix([[cols[j][i] for j in range(len(cols))]
                       for i in range(len(cols[0]))])

    def column(self, j: int):
        return tuple(r[j] for r in self.rows)

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def scale(self, c) -> "Matrix":
        c = _s(c)
        return Matrix([[c * x for x in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch in product")
            ocols = other.columns()
            return Matrix([[dot(r, c) for c in ocols] for r in self.rows])
        return self.apply(other)

    def apply(self, vec):
        """Matrix times column vector."""
        vec = tuple(_s(x) for x in vec)
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch in apply")
        return tuple(dot(r, vec) for r in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix([[self.rows[i][j] for i in range(self.nrows)]
                       for j in range(self.ncols)])

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __str__(self):
        return "[" + "; ".join(", ".join(str(x) for x in r)
                               for r in self.rows) + "]"

    __repr__ = __str__

    def is_integer(self) -> bool:
        return all(x.is_integer() for r in self.rows for x in r)

    def to_int_rows(self):
        return [[int(x.as_fraction()) for x in r] for r in self.rows]


def dot(u, v) -> Scalar:
    out = Scalar.zero()
    for a, b in zip(u, v):
        out = out + _s(a) * _s(b)
    return out


def pivot(rows, r, c):
    """One Gauss-Jordan step on the nonzero entry rows[r][c]: row r is
    scaled to 1 at c, and column c is cleared from every other row.  The
    entries are field elements (Scalars, Fractions or Surds, never ints).
    The pivot is inverted once, and only the columns where row r is nonzero
    change; row r may have nonzero entries left of c."""
    prow = rows[r]
    inv = 1 / prow[c]
    nz = [j for j, v in enumerate(prow) if v]
    for j in nz:
        prow[j] = inv * prow[j]
    for i, row in enumerate(rows):
        f = row[c]
        if i != r and f:
            for j in nz:
                row[j] = row[j] - f * prow[j]


def _rref(rows):
    """Reduced row echelon form with leftmost pivots, of Scalars or of
    witness values (Fractions and Surds).

    Returns (rref rows, pivot column list)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        pivot(rows, r, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(M: Matrix, w=None) -> int:
    """The rank of M.  With a witness w, the rank of M's values at w comes
    first: it is a lower bound, so min(M.nrows, M.ncols) there is the rank.
    A shortfall, or a value that is Indeterminate, falls back to the
    symbolic rank."""
    if w is not None:
        try:
            at_w = len(_rref([[w.value(x) for x in r] for r in M.rows])[1])
        except Indeterminate:
            at_w = None
        if at_w == min(M.nrows, M.ncols):
            return at_w
    return len(_rref(M.rows)[1])


def basis_inverse(cols) -> tuple:
    """(picks, inverse): the indices of the leftmost linearly independent
    columns, column j picked exactly when it is independent of columns
    0..j-1 (the greedy, lexicographically first basis of their span), and
    the rows of B^-1 for the matrix B of the picked columns when they span
    the space, else None.  One elimination of [cols | I]: its pivots are
    B's columns, so the row operations that turn B into I turn I into
    B^-1.  Entries are Scalars, or Fractions and Surds."""
    n = len(cols)
    d = len(cols[0]) if cols else 0
    red, pivots = _rref([[*(c[i] for c in cols),
                          *(Fraction(int(k == i)) for k in range(d))]
                         for i in range(d)])
    picks = [j for j in pivots if j < n]
    return picks, [r[n:] for r in red] if len(picks) == d else None


def det(M: Matrix) -> Scalar:
    """The product of the pivots of Gauss-Jordan elimination on M, with
    the sign of its row swaps."""
    if M.nrows != M.ncols:
        raise ValueError("determinant of a non-square matrix")
    rows, out = [list(r) for r in M.rows], Scalar.one()
    for c in range(M.nrows):
        sel = next((i for i in range(c, M.nrows) if rows[i][c]), None)
        if sel is None:
            return Scalar.zero()
        if sel != c:
            rows[c], rows[sel], out = rows[sel], rows[c], -out
        out = out * rows[c][c]
        pivot(rows, c, c)
    return out


def mat_inverse(M: Matrix) -> Matrix:
    """Exact inverse; raises Singular when the determinant is the zero
    scalar."""
    if M.nrows != M.ncols:
        raise ValueError("inverse of a non-square matrix")
    _, inv = basis_inverse(M.columns())
    if inv is None:
        raise Singular("matrix is symbolically singular")
    return Matrix(inv)


def solve_right(M: Matrix, b) -> tuple | None:
    """One solution x of M x = b over the scalar field, or None."""
    b = tuple(_s(x) for x in b)
    if len(b) != M.nrows:
        raise ValueError("shape mismatch in solve")
    aug = [list(M.rows[i]) + [b[i]] for i in range(M.nrows)]
    red, pivots = _rref(aug)
    if M.ncols in pivots:
        return None
    x = [Scalar.zero()] * M.ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][-1]
    return tuple(x)


def kernel_basis(M: Matrix) -> list:
    """Basis of the right kernel with the deterministic pivot rule:
    leftmost independent columns are pivots, free columns carry an
    identity block."""
    red, pivots = _rref(M.rows)
    free = [c for c in range(M.ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Scalar.zero()] * M.ncols
        v[f] = Scalar.one()
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# integer-lattice routines (plain Python ints)
# ---------------------------------------------------------------------------

def hnf(M) -> tuple:
    """Row Hermite normal form with transform: returns (H, U) with
    H = U*M, U unimodular, pivot entries positive and entries above each
    pivot reduced into [0, pivot)."""
    A = [list(map(int, r)) for r in M]
    m = len(A)
    n = len(A[0]) if A else 0
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def addmul(i, j, q):
        # row_i += q * row_j
        A[i] = [a + q * b for a, b in zip(A[i], A[j])]
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]

    def negate(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    r = 0
    for c in range(n):
        # euclidean elimination below row r in column c
        while True:
            nz = [i for i in range(r, m) if A[i][c] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(A[i][c]))
            swap(r, piv)
            if A[r][c] < 0:
                negate(r)
            done = True
            for i in range(r + 1, m):
                if A[i][c] != 0:
                    q = A[i][c] // A[r][c]
                    addmul(i, r, -q)
                    if A[i][c] != 0:
                        done = False
            if done:
                break
        if r < m and A[r][c] != 0:
            for i in range(r):
                q = A[i][c] // A[r][c]
                if q:
                    addmul(i, r, -q)
            r += 1
    return A, U


def int_det(M) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every intermediate entry is an integer minor."""
    A = [list(map(int, r)) for r in M]
    n = len(A)
    if any(len(r) != n for r in A):
        raise ValueError("determinant of a non-square matrix")
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            sel = next((i for i in range(k + 1, n) if A[i][k]), None)
            if sel is None:
                return 0
            A[k], A[sel] = A[sel], A[k]
            sign = -sign
        akk, rk = A[k][k], A[k]
        for i in range(k + 1, n):
            ri = A[i]
            aik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * akk - aik * rk[j]) // prev
        prev = akk
    return sign * A[-1][-1] if n else 1


def int_solve(M, b) -> tuple | None:
    """One integral solution x of M x = b (M integer matrix, b integer
    vector), or None when none exists."""
    if not M:
        return None
    # solve x^T M^T = b^T: row-reduce M^T with transform, then express b
    return hnf_solve(*hnf([list(col) for col in zip(*M)]), b)


def hnf_solve(H, U, b) -> tuple | None:
    """One integral x with x A = b, given the row Hermite normal form
    H = U A of an integer matrix A, or None when none exists."""
    y = [0] * len(H)
    rem = list(map(int, b))
    for i, row in enumerate(H):
        piv = next((j for j, v in enumerate(row) if v != 0), None)
        if piv is None:
            continue
        if rem[piv] % row[piv] != 0:
            return None
        q = rem[piv] // row[piv]
        y[i] = q
        if q:
            rem = [a - q * v for a, v in zip(rem, row)]
    if any(v != 0 for v in rem):
        return None
    x = [0] * len(U)
    for i, q in enumerate(y):
        if q:
            x = [a + q * v for a, v in zip(x, U[i])]
    return tuple(x)


def monomial_coordinates(vectors) -> list:
    """Rational coordinates of scalar vectors, one block per coordinate j:
    (D, monos, params, rows), where D is the monic lcm of the denominators
    of the j-th entries, monos the sorted monomials of D times those
    entries, and D v_j = sum_t rows[i][t] monos[t] for the i-th vector v.
    Reduced monomials in algebraically independent transcendental
    parameters and multiplicatively independent roots are linearly
    independent over Q, so a Q-linear relation holds among the vectors
    exactly when it holds among their rows, block by block."""
    out = []
    for col in zip(*vectors):
        D, params = Poly.const(1), {}
        for x in col:
            params.update(x.params)
            if not x.den.is_const():
                D = poly_divexact(D * x.den, poly_gcd(D, x.den))
        nums = [cleared(x, D) for x in col]
        monos = sorted({m for t in nums for m in t})
        out.append((D, monos, params,
                    [[t.get(m, 0) for m in monos] for t in nums]))
    return out


def stacked_hnf(blocks, m: int) -> tuple:
    """(L, H, U) for the m vectors whose monomial coordinates are the given
    blocks: the least integer L clearing the coordinates, and the row HNF
    H = U M of the matrix M whose i-th row is L times vector i's
    coordinates, block after block."""
    rows = [[c for *_, block in blocks for c in block[i]] for i in range(m)]
    L = lcm(*(c.denominator for row in rows for c in row))
    H, U = hnf([[int(c * L) for c in row] for row in rows])
    return L, H, U


def cleared(x: Scalar, D: Poly) -> dict | None:
    """The flat terms of the polynomial D x, or None when D x is not one."""
    if x.q is not None:
        return D.scale(x.q).flat()
    try:
        return (x.num * poly_divexact(D, x.den)).flat()
    except ArithmeticError:
        return None
