"""Exact linear algebra over the scalar field, plus integer-lattice
routines (Hermite normal form, integer kernels and solves, and the
monomial coordinates that turn scalar vectors into integer rows).

The one kernel routine, gale_rows, uses a fixed deterministic pivot rule:
the leftmost linearly independent columns are the pivots and every free
column receives an identity block.  Several downstream identities (notably
the Gale vectors of the blow-up example) depend on this normalization bit
for bit.  A change of basis is one in_basis, with no inverse formed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .errors import Indeterminate, Singular
from .scalars import (_ONE, _ONE_POLY, _ZERO, Poly, Scalar, _const,
                      poly_divexact, poly_gcd)

_Q0, _Q1 = Fraction(0), Fraction(1)


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
    """sum u_i v_i.  When every entry lies in K (its Scalar has a value q),
    the values are multiplied and summed, and the sum is wrapped once."""
    u, v = [_s(a) for a in u], [_s(b) for b in v]
    if all(x.q is not None for x in (*u, *v)):
        return _const(sum((a.q * b.q for a, b in zip(u, v)), _Q0))
    out = Scalar.zero()
    for a, b in zip(u, v):
        out = out + a * b
    return out


def pivot(rows, r, c):
    """One Gauss-Jordan step on the nonzero entry rows[r][c]: row r is
    scaled to 1 at c, and column c is cleared from every other row.  The
    entries are field elements (Scalars, Fractions or Surds, never ints).
    The pivot is inverted once, and only the columns where row r is nonzero
    change; row r may have nonzero entries left of c.  The step for Surd
    rows, the Surd simplex and det; rational rows take int_pivot and
    transcendental ones _bareiss."""
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


def int_pivot(T, r, c):
    """The division-free step on rows of ints at p = T[r][c] != 0 (Bareiss,
    Math. Comp. 22, 1968): row r stays, and every other row with
    f = T[i][c] != 0 becomes p*T[i] - f*T[r] over the gcd g of its entries.
    Row r is then p times the row the field step (pivot) leaves, and a row
    that was l times the field row becomes p*l/g times it.  So each row
    stays a nonzero multiple of the field row, and a positive one when
    p > 0, as the simplex, which pivots at p > 0 and reads signs off its
    rows, needs."""
    prow = T[r]
    p = prow[c]
    for i, row in enumerate(T):
        f = row[c]
        if f and i != r:
            new = [p * v - f * w for v, w in zip(row, prow)]
            g = gcd(*new)
            T[i] = [v // g for v in new] if g > 1 else new


def _bareiss(rows, r, c):
    """Bareiss's step on rows of Polys at p = rows[r][c] != 0: with prev the
    pivot of the step before, the leftmost nonzero entry of row r - 1 (1 at
    the first step), every other row becomes (p*row - row[c]*rows[r]) / prev,
    an exact division (poly_divexact).  Every entry stays a minor of the
    input, and the earlier pivot rows end with p at their pivots
    (fraction-free Gauss-Jordan: Nakos, Turner, Williams, ACM SIGSAM Bull.
    31(3), 1997)."""
    prow = rows[r]
    p = prow[c]
    prev = next(x for x in rows[r - 1] if x) if r else _ONE_POLY
    for i, row in enumerate(rows):
        f = row[c]
        if i == r or not f and p == prev:
            continue
        new = [p * x - f * y if f and y else p * x if x else x
               for x, y in zip(row, prow)]
        rows[i] = new if prev == _ONE_POLY else \
            [poly_divexact(v, prev) if v else v for v in new]


def _integer_row(row):
    """row times the lcm of its denominators, as ints, when every entry is
    rational: an int, a Fraction or a Scalar whose value is one; else
    None."""
    vals = [x.q if type(x) is Scalar else x for x in row]
    if any(type(x) is not Fraction and type(x) is not int for x in vals):
        return None
    s = lcm(*(x.denominator for x in vals))
    return [x.numerator * (s // x.denominator) for x in vals]


def primitive(vec) -> list:
    """The primitive int vector that is a positive multiple of vec when its
    entries are rational (_integer_row), else vec itself."""
    ints = _integer_row(vec)
    g = gcd(*ints) if ints else 0
    return vec if ints is None else [x // g for x in ints] if g > 1 else ints


def _cleared(row) -> tuple:
    """(nums, dens): Polys with row[j] = nums[j] / prod(dens), for dens the
    distinct non-constant denominators of the row's Scalars."""
    fracs = [(x.num, x.den) if type(x) is Scalar else
             (Poly.const(x), _ONE_POLY) for x in row]
    dens = []
    for _, d in fracs:
        if d != _ONE_POLY and d not in dens:
            dens.append(d)
    return [prod((e for e in dens if e != d), start=n)
            for n, d in fracs], dens


def _reduce(rows):
    """(N, pivots, D): the reduced row echelon form with leftmost pivots of
    rows of Scalars or of witness values (ints, Fractions, Surds) is N/D,
    in the ring the rows are reduced in.  Rational rows (_integer_row) take
    int_pivot, and each is scaled to the lcm D > 0 of the pivots.  Rows
    that hold a transcendental Scalar are cleared into Polys (_cleared) and
    take _bareiss, which leaves the last pivot D on every pivot row.  Other
    rows take pivot on their values in K, ints as Fractions, and D = 1."""
    red, step = [_integer_row(r) for r in rows], int_pivot
    if None in red:
        transcendental = any(type(x) is Scalar and x.q is None
                             for r in rows for x in r)
        red = [_cleared(r)[0] if transcendental else
               [x.q if type(x) is Scalar else Fraction(x) if type(x) is int
                else x for x in r] for r in rows]
        step = _bareiss if transcendental else pivot
    nrows = len(red)
    ncols = len(red[0]) if red else 0
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if red[i][c]), None)
        if sel is None:
            continue
        red[r], red[sel] = red[sel], red[r]
        step(red, r, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    ps = [row[c] for row, c in zip(red, pivots)]
    if step is pivot:
        return red, pivots, 1
    if step is _bareiss:
        return red, pivots, ps[-1] if ps else _ONE_POLY
    D = lcm(*ps)
    return [[x * (D // p) for x in row] for row, p in zip(red, ps)] + \
        red[r:], pivots, D


def ratio(y, D) -> Scalar:
    """The canonical Scalar y/D, with shared 0 and 1, for y and D Polys,
    ints, or y in K over an int D."""
    if not y:
        return _ZERO
    if y == D:
        return _ONE
    if type(D) is Poly:
        return Scalar(y, D)
    return _const(Fraction(y, D) if type(y) is int else y / D if D != 1
                  else y)


def _held(rows) -> bool:
    """Whether rows hold a Scalar; else they are witness values."""
    return any(type(x) is Scalar for r in rows for x in r)


def _rref(rows):
    """Reduced row echelon form with leftmost pivots, of Scalars or of
    witness values: _reduce's N/D entry by entry (ratio), as Scalars when
    the input held one, else as their values, Fractions and Surds.
    Returns (rref rows, pivot column list)."""
    red, pivots, D = _reduce(rows)
    out = [[ratio(x, D) for x in r] for r in red]
    return (out if _held(rows) else [[x.q for x in r] for r in out]), pivots


def gale_rows(rows) -> list:
    """The Gale vectors of the columns: row c of the kernel basis with
    leftmost pivots, from one _rref.  A free column c gets its unit row
    (Scalars, or Fractions for witness values), a pivot column minus its
    reduced row at the free columns."""
    red, pivots = _rref(rows)
    n = len(rows[0]) if rows else 0
    free = [c for c in range(n) if c not in pivots]
    one, zero = (_ONE, _ZERO) if _held(rows) else (_Q1, _Q0)
    out = [[one if f == c else zero for f in free] for c in range(n)]
    for r, c in enumerate(pivots):
        out[c] = [-red[r][f] for f in free]
    return out


def in_basis(cols) -> tuple:
    """(picks, coords): the leftmost linearly independent columns, as in
    inverse_rows, and every column's coordinates in them, read off one
    _rref of cols; coords[j] = B^-1 cols[j] when the picks' matrix B is
    square.  A caller puts the basis it prefers first."""
    d = len(cols[0]) if cols else 0
    red, picks = _rref([[c[i] for c in cols] for i in range(d)])
    red = red[:len(picks)]
    return picks, [tuple(r[j] for r in red) for j in range(len(cols))]


def rank(M: Matrix, w=None) -> int:
    """The rank of M.  With a witness w, the rank of M's values there comes
    first: it is a lower bound, so min(M.nrows, M.ncols) there is the rank.
    A shortfall, or a value that is Indeterminate, falls back to the
    symbolic rank.  Only the pivots are read, so no entry is divided."""
    full = min(M.nrows, M.ncols)
    if w is not None:
        try:
            if len(_reduce(w.values_of(M.rows))[1]) == full:
                return full
        except Indeterminate:
            pass
    return len(_reduce(M.rows)[1])


def inverse_rows(cols) -> tuple:
    """(picks, N, D): the indices of the leftmost linearly independent
    columns, column j picked exactly when it is independent of columns
    0..j-1 (the greedy, lexicographically first basis of their span), and
    the inverse of the matrix B of the picked columns as N/D (_reduce) when
    they span the space, else N = None.  One elimination of [cols | I]: the
    row operations that turn B into D*I turn I into N."""
    n = len(cols)
    d = len(cols[0]) if cols else 0
    red, pivots, D = _reduce([[*(c[i] for c in cols),
                               *(_Q1 if k == i else _Q0 for k in range(d))]
                              for i in range(d)])
    picks = [j for j in pivots if j < n]
    return picks, [r[n:] for r in red] if len(picks) == d else None, D


def apply_rows(N, D, vec) -> tuple:
    """(y, E) with (N/D) vec = y/E, with no gcd: in K over the int D when
    N and vec lie in K, else in Polys over D times vec's denominators."""
    vec = [_s(x) for x in vec]
    if type(D) is not Poly and all(x.q is not None for x in vec):
        return [sum((n * x.q for n, x in zip(row, vec) if n), _Q0)
                for row in N], D
    nums, dens = _cleared(vec)
    return [sum((n * p if type(n) is Poly else p.scale(n)
                 for n, p in zip(row, nums) if n), Poly({}))
            for row in N], \
        prod(dens, start=D if type(D) is Poly else Poly.const(D))


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
    """Exact inverse, read off in_basis([M's columns | I]); raises Singular
    when the determinant is the zero scalar."""
    n = M.nrows
    if n != M.ncols:
        raise ValueError("inverse of a non-square matrix")
    picks, coords = in_basis([*M.columns(), *Matrix.identity(n).rows])
    if picks != list(range(n)):
        raise Singular("matrix is symbolically singular")
    return Matrix.from_columns(coords[n:])


def solve_right(M: Matrix, b) -> tuple | None:
    """One solution x of M x = b over the scalar field, or None: b in the
    leftmost independent columns of M (in_basis)."""
    b = tuple(_s(x) for x in b)
    if len(b) != M.nrows:
        raise ValueError("shape mismatch in solve")
    picks, coords = in_basis([*M.columns(), b])
    if M.ncols in picks:
        return None
    x = [_ZERO] * M.ncols
    for c, y in zip(picks, coords[-1]):
        x[c] = y
    return tuple(x)


def kernel_basis(M: Matrix) -> list:
    """Basis of the right kernel with the deterministic pivot rule: the
    columns of gale_rows(M.rows), so free columns carry an identity
    block."""
    return list(zip(*gale_rows(M.rows)))


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
