"""Complex matrices and matrix realizations.

SparseOp is the one complex matrix type: the matrix realizations of the
families and the Fock operators are both SparseOps, their nonzero
entries column by column as Gaussian integers over one common
denominator.  It is also the one Gaussian arithmetic: an exact.Scalar
has no operators and is only read into Gaussian integers
(_gaussian_ints), so every complex sum and product is taken here, on
ints.  A matrix family is given as a real span of (p|q)-graded complex
matrices; from_matrix_span reads each matrix's parity off its blocks,
turns a bracket-closed span into structure constants and keeps the
coordinate map back to the matrices.  Complex matrices are realified
only by SparseOp.real_row, by one fixed convention: row-major, each
entry a + bi contributing the real pair (a, b), in that order, as one
sparse int row over the matrix's denominator.  The matrix building
blocks of the families (entry dicts {(i, j): value}, the bases of u(n),
su(n), so(n) and sp(n), the odd blocks of u(p|q), and _span, which
turns entry dicts into the algebra they span) are here as well.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .exact import LinSolver, ONE, MINUS_ONE, I
from .spaces import SuperAlgebraError, SuperSpace
from .core import SuperAlgebra


def _gaussian_ints(values):
    """(den, pairs): Fraction or Scalar values as Gaussian integers
    (a, b) = den * value over their least common denominator den."""
    den = lcm(*[x.denominator for v in values for x in (v.real, v.imag)])
    return den, [(v.real.numerator * (den // v.real.denominator),
                  v.imag.numerator * (den // v.imag.denominator))
                 for v in values]


class SparseOp:
    """Square complex matrix kept as sparse columns over one integer
    denominator.

    cols[j] = {i: (a, b)} holds the nonzero entries (a + b i) / den of
    column j.  The form is canonical: den > 0, no stored zeros, gcd of den
    and every a and b is 1, den 1 for the zero operator; so == is value
    equality.
    """

    __slots__ = ("den", "cols")

    def __init__(self, den, cols):
        """Canonical form of positive den and Gaussian integer columns;
        the column dicts are kept, not copied, when they hold no zero."""
        cols = [{i: e for i, e in col.items() if e != (0, 0)}
                if (0, 0) in col.values() else col for col in cols]
        g = den
        for col in cols:
            if g == 1:
                break
            g = gcd(g, *chain.from_iterable(col.values()))
        if g != 1:
            den //= g
            cols = [{i: (a // g, b // g) for i, (a, b) in col.items()}
                    for col in cols]
        self.den = den
        self.cols = cols

    @classmethod
    def zero(cls, dim):
        return cls(1, [{} for _ in range(dim)])

    @classmethod
    def identity(cls, dim):
        return cls(1, [{j: (1, 0)} for j in range(dim)])

    @classmethod
    def from_entries(cls, dim, entries):
        """The dim x dim matrix with the entries {(i, j): value}, values
        Fraction or Scalar, and zero elsewhere."""
        if any(not (0 <= i < dim and 0 <= j < dim) for i, j in entries):
            raise ValueError("entry outside the %d x %d matrix" % (dim, dim))
        den, pairs = _gaussian_ints(list(entries.values()))
        cols = [{} for _ in range(dim)]
        for (i, j), e in zip(entries, pairs):
            cols[j][i] = e
        return cls(den, cols)

    @property
    def dim(self):
        return len(self.cols)

    def _same_dim(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def _combine(self, other, sign):
        self._same_dim(other)
        den = lcm(self.den, other.den)
        p, q = den // self.den, sign * (den // other.den)
        cols = []
        for x, y in zip(self.cols, other.cols):
            col = {i: (a * p, b * p) for i, (a, b) in x.items()}
            for i, (a, b) in y.items():
                c, d = col.get(i, (0, 0))
                col[i] = (c + a * q, d + b * q)
            cols.append(col)
        return SparseOp(den, cols)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __matmul__(self, other):
        self._same_dim(other)
        xcols = self.cols
        cols = []
        for y in other.cols:
            col = {}
            get = col.get
            for k, (c, d) in y.items():
                for i, (a, b) in xcols[k].items():
                    e, f = get(i, (0, 0))
                    col[i] = (e + a * c - b * d, f + a * d + b * c)
            cols.append(col)
        return SparseOp(self.den * other.den, cols)

    def scale(self, s):
        """s times self, for a Fraction or Scalar s (zero included)."""
        r, ((p, q),) = _gaussian_ints([s])
        return SparseOp(self.den * r, [
            {i: (a * p - b * q, a * q + b * p) for i, (a, b) in col.items()}
            for col in self.cols])

    def conj_transpose(self):
        cols = [{} for _ in self.cols]
        for j, col in enumerate(self.cols):
            for i, (a, b) in col.items():
                cols[i][j] = (a, -b)
        return SparseOp(self.den, cols)

    def is_zero(self):
        return not any(self.cols)

    def real_row(self):
        """(row, den): the real coordinates of the matrix as the vector
        row / den for a sparse int row, entry (i, j) = (a + bi) / den of an
        n x n matrix at 2 (i n + j) (a) and 2 (i n + j) + 1 (b)."""
        n = self.dim
        row = {}
        for j, col in enumerate(self.cols):
            for i, (a, b) in col.items():
                k = 2 * (i * n + j)
                if a:
                    row[k] = a
                if b:
                    row[k + 1] = b
        return row, self.den

    def __eq__(self, other):
        return (isinstance(other, SparseOp) and self.den == other.den
                and self.cols == other.cols)

    def __repr__(self):
        return "SparseOp(%d, %r)" % (self.den, self.cols)


def block_parity(op, p):
    """0 for a matrix with entries only in the diagonal blocks of the (p|q)
    grading, 1 for one with entries only in the off-diagonal blocks (the
    zero matrix is even); SuperAlgebraError for a matrix with both."""
    odd = {(i < p) != (j < p) for j, col in enumerate(op.cols) for i in col}
    if len(odd) > 1:
        raise SuperAlgebraError("matrix has entries in even and odd blocks")
    return int(odd.pop()) if odd else 0


def supercommutator(x, y, px, py):
    xy = x @ y
    yx = y @ x
    if px and py:
        return xy + yx
    return xy - yx


class NotClosedError(SuperAlgebraError):
    def __init__(self, i, j, residual):
        self.pair = (i, j)
        self.residual = residual
        super().__init__("span not closed under the bracket at pair (%d, %d)" % (i, j))


class MatrixRealization:
    """Coordinate map between a structure-constant algebra and its matrices."""

    def __init__(self, mats, p):
        self.mats = mats
        self.p = p
        self.q = mats[0].dim - p
        self.solver = LinSolver([m.real_row() for m in mats], 2 * mats[0].dim ** 2)

    def from_matrix(self, m):
        """Real coordinates of a matrix in the spanning basis, or None."""
        return self.solver.row_coords(*m.real_row())


def from_matrix_span(mats, p):
    """SuperAlgebra of a bracket-closed real span of (p|q)-graded complex
    matrices, given as SparseOps of size p + q.

    Each matrix's parity is read off its blocks, and even matrices must
    come first.  Returns (algebra, realization); raises NotClosedError
    when a supercommutator leaves the real span.
    """
    parities = [block_parity(m, p) for m in mats]
    if any(p1 < p0 for p0, p1 in zip(parities, parities[1:])):
        raise SuperAlgebraError("even matrices must precede odd ones")
    real = MatrixRealization(mats, p)
    n = len(mats)
    space = SuperSpace.make(n - sum(parities), sum(parities))
    table = {}
    for i in range(n):
        for j in range(i, n):
            if i == j and parities[i] == 0:
                continue
            m = supercommutator(mats[i], mats[j], parities[i], parities[j])
            if m.is_zero():
                continue
            found = real.solver.int_coords(*m.real_row())
            if found is None:
                raise NotClosedError(i, j, m)
            # each basis matrix has one parity and the basis is independent,
            # so a homogeneous bracket has no coordinates of the other parity
            ints, scale = found
            table[(i, j)] = {k: Fraction(a, scale) for k, a in ints.items()}
    alg = SuperAlgebra(space, table, meta={"realization": real})
    return alg, real


# ---------------------------------------------------------------------------
# matrix building blocks: a matrix is written as its entries {(i, j): value}
# ---------------------------------------------------------------------------

def _shift(entries, r, c, f=lambda v: v):
    """The entries moved down r rows and right c columns, each value v
    replaced by f(v)."""
    return {(i + r, j + c): f(v) for (i, j), v in entries.items()}


# (a, b) of the antihermitian off-diagonal pairs a E_jk + b E_kj: the real
# one, then the imaginary one
_ANTIHERMITIAN = ((ONE, MINUS_ONE), (I, I))


def _off_diagonal(n, pairs):
    """a E_jk + b E_kj for j < k, interleaved: every (a, b) in pairs for
    one (j, k) before the next."""
    return [{(j, k): a, (k, j): b} for j in range(n) for k in range(j + 1, n)
            for a, b in pairs]


def u_matrix_basis(n):
    """u(n, C): i E_jj, then E_jk - E_kj and i(E_jk + E_kj) for j < k."""
    return [{(j, j): I} for j in range(n)] + _off_diagonal(n, _ANTIHERMITIAN)


def su_matrix_basis(n):
    """su(n, C): traceless diagonal i(E_jj - E_{j+1,j+1}) then off-diagonals."""
    return ([{(j, j): I, (j + 1, j + 1): -I} for j in range(n - 1)]
            + _off_diagonal(n, _ANTIHERMITIAN))


def so_matrix_basis(n):
    """so(n): the real half of the off-diagonals of u(n)."""
    return _off_diagonal(n, _ANTIHERMITIAN[:1])


def sp_matrix_basis(n):
    """Compact sp(n) as 2n x 2n complex: [[A, B], [-conj(B), conj(A)]],
    A antihermitian, B symmetric."""
    out = [{**a, **_shift(a, n, n, lambda v: v.conjugate())}
           for a in u_matrix_basis(n)]
    sym = [{(j, j): v} for j in range(n) for v in (ONE, I)]
    for b in sym + _off_diagonal(n, ((ONE, ONE), (I, I))):
        out.append({**_shift(b, 0, n), **_shift(b, n, 0, lambda v: -v.conjugate())})
    return out


def simple_matrix_basis(kind, n):
    if kind == "su":
        return su_matrix_basis(n), n
    if kind == "so":
        return so_matrix_basis(n), n
    if kind == "sp":
        return sp_matrix_basis(n), 2 * n
    raise ValueError("unknown compact simple tag %r" % (kind,))


def _u_odd_blocks(p, q):
    """Odd part of u(p|q): [[0, B], [iB*, 0]] for B = E_jk and iE_jk."""
    return [{(j, p + k): v, (p + k, j): w}
            for j in range(p) for k in range(q) for v, w in ((ONE, I), (I, ONE))]


def _span(size, p, mats):
    """The algebra spanned by the entry dicts mats, (p|size - p)-graded."""
    return from_matrix_span([SparseOp.from_entries(size, e) for e in mats], p)[0]
