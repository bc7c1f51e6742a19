"""Exact scalar and linear algebra kernel.

Two number domains, one type each.  Every rational value is a
fractions.Fraction: structure constants, subspace bases, forms, minors,
LP data.  Complex values arise only in matrix realizations and Fock
operators, both held as realize.SparseOp, and only SparseOp adds and
multiplies them.  A single complex entry or coefficient is a Scalar, a
Gaussian rational a + bi with b != 0 and no arithmetic of its own;
Scalar(a, 0) is the Fraction a, so the two types never hold the same
number.  A vector is a plain list, and a rational matrix (a Gram or
derivation table) is a list of its rows.  All operations are exact:
there is no floating point anywhere in this package.  Elimination runs
on rational rows only.  Echelon, kernel and solve are fraction-free:
rows are scaled to coprime ints and updated by cross-multiplication with
content removal (Bareiss style), so entries stay small integers instead
of accumulating denominators; LinSolver takes its columns in that form,
as (row, den) pairs of a sparse int row and its denominator.  Dense
Fraction elimination remains in diagonalize, the congruence
diagonalisation of a symmetric form that the Sylvester test (positivity)
and tangentrep read, and in poly.char_poly.
The exact LP on the fraction-free rows is in positivity, which only the
unitarity report loads.

Everything here is a pure function on immutable values and safe to call
concurrently.
"""

from fractions import Fraction
from math import gcd, lcm

_F0 = Fraction(0)
_F1 = Fraction(1)


class Scalar:
    """Gaussian rational a + bi with b != 0, in lowest terms: a value, not
    an arithmetic type.

    Scalar(a, b) returns the Fraction a when b == 0, so a Scalar is never
    zero.  It has real, imag, conjugate(), negation, equality and a hash,
    and no binary operators: every sum and product of complex values is
    taken by realize.SparseOp on Gaussian integers, and a Scalar met by
    + - * / raises TypeError.
    """

    __slots__ = ("real", "imag")

    def __new__(cls, real=0, imag=0):
        real = real if isinstance(real, Fraction) else Fraction(real)
        imag = imag if isinstance(imag, Fraction) else Fraction(imag)
        return _complex(real, imag) if imag else real

    def __neg__(self):
        return _complex(-self.real, -self.imag)

    def conjugate(self):
        return _complex(self.real, -self.imag)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.real == other.real and self.imag == other.imag
        return False

    def __hash__(self):
        return hash((self.real, self.imag))

    def __repr__(self):
        if not self.real:
            return "%si" % self.imag
        return "(%s%s%si)" % (self.real, "+" if self.imag > 0 else "", self.imag)


def _complex(re, im):
    """Scalar re + im i for Fractions re and im != 0."""
    s = object.__new__(Scalar)
    s.real = re
    s.imag = im
    return s


ZERO = _F0
ONE = _F1
MINUS_ONE = Fraction(-1)
I = Scalar(0, 1)


# vectors are plain lists of Fraction, matrices lists of rows

def is_symmetric(m):
    """True iff the row list m is square and equal to its transpose."""
    # list comparison tries identity first, so shared ZERO entries are free
    return all(len(r) == len(m) for r in m) and m == [list(c) for c in zip(*m)]


def vec_zero(n):
    return [ZERO] * n


def vec_unit(n, i):
    v = [ZERO] * n
    v[i] = ONE
    return v


def vec_is_zero(v):
    return not any(v)


def _lin_comb(coeffs, vectors, n):
    """sum_a coeffs[a] * vectors[a] as a length-n vector; zip stops at the
    shorter of coeffs and vectors."""
    out = [ZERO] * n
    for c, v in zip(coeffs, vectors):
        if c:
            for j, a in enumerate(v):
                if a:
                    out[j] = out[j] + c * a
    return out


def diagonalize(s):
    """Congruence diagonalisation of the rows s of a rational symmetric
    matrix: yields (d_k, t_k) for k = 0, 1, ... with T^T s T = diag(d)
    and det T = 1 for the matrix T with columns t_k.

    A column is final once yielded, so a reader may stop early.  A nonzero
    pivot is eliminated symmetrically; a zero pivot whose row has a first
    nonzero entry s_kj is made -1 first by (t_k, t_j) <- (tau t_k - t_j,
    t_k) with tau = (s_jj + 1) / (2 s_kj).
    """
    n = len(s)
    s = [row[:] for row in s]
    t = [vec_unit(n, k) for k in range(n)]        # t[k] is column k of T
    for k in range(n):
        rk = s[k]
        j = None if rk[k] else next((j for j in range(k + 1, n) if rk[j]), None)
        if j is not None:
            tau = (s[j][j] + 1) / (2 * rk[j])
            t[k], t[j] = [tau * a - b for a, b in zip(t[k], t[j])], t[k]
            s[k], s[j] = [tau * a - b for a, b in zip(rk, s[j])], rk
            rk = s[k]
            for row in s[k:]:
                row[k], row[j] = tau * row[k] - row[j], row[k]
        p = rk[k]
        for i in range(k + 1, n):
            if rk[i]:
                f = rk[i] / p
                ri = s[i]
                for c in range(k + 1, n):
                    if rk[c]:
                        ri[c] -= f * rk[c]
                t[i] = [b - f * a if a else b for a, b in zip(t[k], t[i])]
        yield p, t[k]


# ---------------------------------------------------------------------------
# fraction-free elimination on sparse rows
# ---------------------------------------------------------------------------
#
# A sparse row is a dict {column: value} with no zero values.  Rows fed to
# the echelon may hold Fractions; they are scaled to clear denominators and
# divided by their content, so every stored row is a dict {column: int}
# with coprime entries, and the cross-multiplication update runs on ints.

def _row_from_list(v):
    # the identity test skips the shared ZERO entries without a call
    return {j: a for j, a in enumerate(v) if a is not ZERO and a}


def _int_row(vec):
    """(row, d): d * vec as a sparse int row, d the lcm of its denominators."""
    row = _row_from_list(vec)
    d = lcm(*[a.denominator for a in row.values()])
    return {j: a.numerator * (d // a.denominator) for j, a in row.items()}, d


def _row_content_reduce(row):
    """Scale a rational row to coprime ints, keeping the signs; a row of
    ints is only divided by its content."""
    if not row:
        return row
    if all(type(a) is int for a in row.values()):
        return _row_divide_content(row)
    den = lcm(*[a.denominator for a in row.values()])
    return _row_divide_content(
        {j: a.numerator * (den // a.denominator) for j, a in row.items()})


def _row_divide_content(row):
    """An int row divided by the gcd of its entries."""
    num = gcd(*row.values())
    if num == 1:
        return row
    return {j: a // num for j, a in row.items()}


def _row_cross(piv, pv, row, rv):
    """pv*row - rv*piv divided by gcd(pv, rv), on int rows; the pivot
    column cancels."""
    f = gcd(pv, rv)
    if f != 1:
        pv //= f
        rv //= f
    out = {j: pv * a for j, a in row.items()}
    for j, a in piv.items():
        c = out.get(j, 0) - rv * a
        if c:
            out[j] = c
        else:
            out.pop(j, None)
    return out


class Echelon:
    """Incremental row echelon form over the rationals.

    Rows are kept fraction-free: each pivot row is a dict {column: int}
    with coprime entries.  `add` reduces an incoming row by the current
    pivots and installs it if a new pivot survives; `residual` reduces
    without installing.  Fractions are built only by `rref` (and by
    LinSolver.row_coords), when a row is divided by its pivot.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.pivots = {}          # pivot column -> int row dict

    @property
    def rank(self):
        return len(self.pivots)

    def _reduce(self, row):
        row = _row_content_reduce(row)
        while row:
            c = min(row)
            piv = self.pivots.get(c)
            if piv is None:
                return c, row
            row = _row_divide_content(_row_cross(piv, piv[c], row, row[c]))
        return None, row

    def add(self, row):
        c, red = self._reduce(row)
        if c is None:
            return False
        self.pivots[c] = red
        return True

    def add_list(self, vec):
        return self.add(_row_from_list(vec))

    def extend(self, vecs):
        """Add dense vectors in order; the indices of those that raised
        the rank."""
        return [i for i, v in enumerate(vecs) if self.add_list(v)]

    def residual(self, row):
        return self._reduce(row)[1]

    def rref(self):
        """Fully reduced rows, pivots normalised to 1, sorted by pivot col;
        built on each call, not kept, as a Subspace keeps its echelon."""
        cols = sorted(self.pivots)
        done = {}                 # pivot column -> int row, zero at later pivots
        for c in reversed(cols):
            row = self.pivots[c]
            for c2 in cols:
                if c2 > c and c2 in row:
                    piv = done[c2]
                    row = _row_divide_content(_row_cross(piv, piv[c2], row, row[c2]))
            done[c] = row
        return [(c, {j: Fraction(a, done[c][c]) for j, a in done[c].items()})
                for c in cols]

    def basis_vectors(self):
        """RREF basis as dense vectors (canonical basis of the row space)."""
        out = []
        for _, row in self.rref():
            v = vec_zero(self.ncols)
            for j, a in row.items():
                v[j] = a
            out.append(v)
        return out

    def kernel_basis(self):
        """Basis of {v : row . v = 0 for all rows}."""
        rref = self.rref()
        pivset = {c for c, _ in rref}
        free = [j for j in range(self.ncols) if j not in pivset]
        out = []
        for f in free:
            v = vec_unit(self.ncols, f)
            for c, row in rref:
                a = row.get(f)
                if a is not None:
                    v[c] = -a
            out.append(v)
        return out


def kernel(rows, ncols):
    """Exact basis of {x : row . x = 0 for every row}, as dense vectors
    of length ncols; the rows are sparse."""
    ech = Echelon(ncols)
    for row in rows:
        ech.add(row)
    return ech.kernel_basis()


def solve(rows, rhs, ncols):
    """The exact solution x of row_i . x = rhs_i with every free variable
    zero, or None if the system is inconsistent; the rows are sparse.

    Each equation is the row (row_i | rhs_i) of [A | b]; once in RREF, a
    pivot row reads x_c + (free part) = its rhs entry, and a pivot in the
    rhs column means 0 = 1.
    """
    ech = Echelon(ncols + 1)
    for row, b in zip(rows, rhs, strict=True):
        ech.add({**row, ncols: b} if b else row)
    if ncols in ech.pivots:
        return None
    x = vec_zero(ncols)
    for c, row in ech.rref():
        if ncols in row:
            x[c] = row[ncols]
    return x


class LinSolver:
    """Repeated exact solves of B x = v for a fixed column basis B.

    Each column is given as a pair (row, den), the vector row / den for a
    sparse int row and a positive int den, as _int_row writes it.  Stores
    the echelon of [B^T | I] so each solve is a single reduction.  Columns
    must be linearly independent.  Fraction-free reduction rescales rows,
    so the query carries its own tracker column: the residual of the query
    row equals lam*(vec | 0 | 1) - sum mu_i*(col_i | e_i | 0), and a
    vanishing main part gives vec = sum (mu_i/lam) col_i exactly.
    """

    def __init__(self, columns, dim):
        self.dim = dim
        self.n = len(columns)
        self.ech = Echelon(dim + self.n + 1)
        for i, (row, den) in enumerate(columns):
            self.ech.add({**row, dim + i: den})
        # a column in the span of the earlier ones reduces to its tracker part
        if any(c >= dim for c in self.ech.pivots):
            raise ValueError("columns are linearly dependent")

    def row_coords(self, row, den=1):
        """x with B x = row / den for a sparse row and a nonzero int den,
        or None."""
        found = self.int_coords(row, den)
        if found is None:
            return None
        ints, scale = found
        out = vec_zero(self.n)
        for i, a in ints.items():
            out[i] = Fraction(a, scale)
        return out

    def int_coords(self, row, den=1):
        """(x, s) with B x = s * row / den, x a sparse int row and s a
        positive int, read off the residual; or None.  The tracker entry
        den makes the residual's lam * den."""
        _, red = self.ech._reduce({**row, self.dim + self.n: den})
        if any(j < self.dim for j in red):
            return None
        scale = red[self.dim + self.n]
        # x_i = -red[dim + i] / scale, written over a positive scale
        sign = -1 if scale > 0 else 1
        return ({j - self.dim: sign * a for j, a in red.items() if j < self.dim + self.n},
                -sign * scale)
