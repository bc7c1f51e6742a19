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
on rational rows only and is fraction-free: rows are scaled to coprime
ints and updated by cross-multiplication with content removal (Bareiss
style), so entries stay small integers instead of accumulating
denominators.

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


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]


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
    LinSolver.coords), when a row is divided by its pivot.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.pivots = {}          # pivot column -> int row dict
        self._rref = None

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
        self._rref = None
        return True

    def add_list(self, vec):
        return self.add(_row_from_list(vec))

    def extend(self, vecs):
        """Add dense vectors in order; the indices of those that raised
        the rank."""
        return [i for i, v in enumerate(vecs) if self.add_list(v)]

    def residual(self, row):
        return self._reduce(row)[1]

    def contains_list(self, vec):
        return not self.residual(_row_from_list(vec))

    def rref(self):
        """Fully reduced rows, pivots normalised to 1, sorted by pivot col."""
        if self._rref is not None:
            return self._rref
        cols = sorted(self.pivots)
        done = {}                 # pivot column -> int row, zero at later pivots
        for c in reversed(cols):
            row = self.pivots[c]
            for c2 in cols:
                if c2 > c and c2 in row:
                    piv = done[c2]
                    row = _row_divide_content(_row_cross(piv, piv[c2], row, row[c2]))
            done[c] = row
        self._rref = [(c, {j: Fraction(a, done[c][c]) for j, a in done[c].items()})
                      for c in cols]
        return self._rref

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
            v = vec_zero(self.ncols)
            v[f] = ONE
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

    Stores the echelon of [B^T | I] so each solve is a single reduction.
    Columns must be linearly independent.  Fraction-free reduction rescales
    rows, so the query carries its own tracker column: the residual of the
    query row equals lam*(vec | 0 | 1) - sum mu_i*(col_i | e_i | 0), and a
    vanishing main part gives vec = sum (mu_i/lam) col_i exactly.
    """

    def __init__(self, columns, dim):
        self.dim = dim
        self.n = len(columns)
        self.ech = Echelon(dim + self.n + 1)
        for i, col in enumerate(columns):
            row = _row_from_list(col)
            row[dim + i] = ONE
            self.ech.add(row)
        # a column in the span of the earlier ones reduces to its tracker part
        if any(c >= dim for c in self.ech.pivots):
            raise ValueError("columns are linearly dependent")

    def coords(self, vec):
        """x with B x = vec, or None if vec is outside the span."""
        return self.row_coords(_row_from_list(vec))

    def row_coords(self, row, den=1):
        """x with B x = row / den for a sparse row and a nonzero int den,
        or None; the tracker entry den makes the residual's lam * den."""
        _, red = self.ech._reduce({**row, self.dim + self.n: den})
        if any(j < self.dim for j in red):
            return None
        scale = red[self.dim + self.n]
        out = vec_zero(self.n)
        for j, a in red.items():
            if j < self.dim + self.n:
                out[j - self.dim] = Fraction(-a, scale)
        return out


# ---------------------------------------------------------------------------
# positive definiteness with exact certificates
# ---------------------------------------------------------------------------

class PosDefResult:
    """Outcome of the Sylvester test.

    ok          -- True iff the matrix is positive definite
    minors      -- leading principal minors D_1..D_k computed along the way
    witness     -- on failure, exact v with v^T g v <= 0
    witness_value -- the value v^T g v
    congruence  -- on success, the rows of T with T^T g T diagonal; its
                   k-th diagonal entry is D_k / D_{k-1}
    """

    __slots__ = ("ok", "minors", "witness", "witness_value", "congruence")

    def __init__(self, ok, minors, witness=None, witness_value=None,
                 congruence=None):
        self.ok = ok
        self.minors = minors
        self.witness = witness
        self.witness_value = witness_value
        self.congruence = congruence


def quad_form(g, v):
    """v^T g v for the rows g of a rational symmetric matrix."""
    acc = _F0
    for i, row in enumerate(g):
        if not v[i]:
            continue
        for j, a in enumerate(row):
            if a and v[j]:
                acc += v[i] * a * v[j]
    return acc


def is_positive_definite(g):
    """Sylvester criterion via symmetric elimination, exact witness on failure.

    g is a list of rows, symmetric with rational entries; a non-symmetric
    or complex input raises ValueError.
    """
    if not all(isinstance(a, Fraction) for row in g for a in row):
        raise ValueError("rational symmetric matrix required")
    if not is_symmetric(g):
        raise ValueError("non-symmetric input rejected")
    n = len(g)
    s = [row[:] for row in g]
    # congruence transform T with T^T g T = s throughout; column k of T
    # carries the witness coordinates back to the original basis.
    t = [[_F1 if i == j else _F0 for j in range(n)] for i in range(n)]
    minors = []
    det = _F1

    def failure(v, holds):
        """The witness v, after re-checking its value on g itself."""
        val = quad_form(g, v)
        if not holds(val):
            raise ArithmeticError("Sylvester witness fails its exact re-check")
        return PosDefResult(False, minors, v, val)

    for k in range(n):
        p = s[k][k]
        if p > 0:
            det *= p
            minors.append(det)
            fs = [s[k][j] / p for j in range(k + 1, n)]
            for i in range(k + 1, n):
                fi = fs[i - k - 1]
                if not fi:
                    continue
                srow_k = s[k]
                srow_i = s[i]
                for j in range(k + 1, n):
                    if srow_k[j]:
                        srow_i[j] -= fi * srow_k[j]
            for j in range(k + 1, n):
                fj = fs[j - k - 1]
                s[k][j] = _F0
                s[j][k] = _F0
                if fj:
                    for i in range(n):
                        if t[i][k]:
                            t[i][j] -= fj * t[i][k]
            continue
        if p < 0:
            return failure([t[i][k] for i in range(n)], lambda val: val == p)
        # p == 0: degenerate direction, or a 2x2 indefinite block
        row_nz = None
        for j in range(k + 1, n):
            if s[k][j]:
                row_nz = j
                break
        if row_nz is None:
            return failure([t[i][k] for i in range(n)], lambda val: val == 0)
        j = row_nz
        sv = s[k][j]
        sigma = s[j][j]
        tt = (sigma + 1) / (2 * sv)
        return failure([tt * t[i][k] - t[i][j] for i in range(n)],
                       lambda val: val < 0)
    return PosDefResult(True, minors, congruence=t)


# ---------------------------------------------------------------------------
# exact feasibility LP:  find t with A t >= 1 componentwise
# ---------------------------------------------------------------------------

# simplex pivots feasible_point may take before it gives up
LP_PIVOT_CAP = 20000


class UnsolvedLP(ArithmeticError):
    """feasible_point neither found a point nor proved there is none."""


def _check_farkas(rows, y, nvars):
    """Raise UnsolvedLP unless y >= 0, sum y_i row_i = 0 and sum y_i > 0,
    which proves that no t has row . t >= 1 for every row."""
    if min(y) < 0 or sum(y) <= 0 or any(_lin_comb(y, rows, nvars)):
        raise UnsolvedLP("Farkas vector fails the exact re-check")


def feasible_point(rows, nvars):
    """Exact rational t with row . t >= 1 for every row, or None.

    rows are lists of Fractions.  Phase-1 simplex with Bland's rule over
    the columns u, w, s, z of t = u - w, surplus s and artificial z, on
    sparse int rows that store only u, s and the rhs: each row keeps
    w = -u and z = -s, and tableau row i is tab[i] over its basic entry.
    The cost row's z entries are -s - scale, scale being its own scale.
    None comes with a Farkas vector that passed its exact re-check: it
    certifies that {A t >= 1}, or any positive scaling of it, is
    infeasible.  Raises UnsolvedLP when the simplex stops without an
    optimal tableau (LP_PIVOT_CAP pivots, or no leaving row) or the point
    or Farkas vector it reads off fails the exact re-check: neither
    outcome proves anything.
    """
    m = len(rows)
    n2 = 2 * nvars
    rhs, scale = n2 + 2 * m, n2 + 2 * m + 1
    tab = [_row_content_reduce({**_row_from_list(row), n2 + i: -1, rhs: 1})
           for i, row in enumerate(rows)]
    # cost row of min sum z: the sum of the rows, zero on the z columns
    sums = _row_from_list(sum(a for a in col if a) for col in zip(*rows))
    obj = _row_content_reduce({**sums, **{n2 + i: -1 for i in range(m)}, rhs: m, scale: 1})
    basis = [n2 + m + i for i in range(m)]

    def entry(r, c):
        """Row r's entry in dense column c (u, w, s, z order)."""
        if c < nvars or n2 <= c < n2 + m:
            return r.get(c, 0)
        return -r.get(c - nvars, 0) if c < n2 else -r.get(c - m, 0) - r.get(scale, 0)

    for _ in range(LP_PIVOT_CAP):
        us = [(j, a) for j, a in obj.items() if j < nvars]
        ss = [(j, a) for j, a in obj.items() if n2 <= j < rhs]
        enter = min([j for j, a in us if a > 0] or [j + nvars for j, a in us if a < 0]
                    or [j for j, a in ss if a > 0]
                    or [j + m for j, a in ss if a < -obj[scale]] or [-1])
        if enter < 0:
            break
        # ratio test by cross-multiplication, Bland tie-break on basis index
        col = [entry(r, enter) for r in tab]
        leave = -1
        for i, a in enumerate(col):
            if a > 0:
                b = tab[i].get(rhs, 0)
                if leave < 0 or b * pv < best * a or (
                        b * pv == best * a and basis[i] < basis[leave]):
                    leave, pv, best = i, a, b
        if leave < 0:
            # phase 1 is bounded below by 0, so the tableau is inconsistent
            raise UnsolvedLP("no leaving row for entering column %d" % enter)
        piv = tab[leave]
        for i, a in enumerate(col):
            if i != leave and a:
                tab[i] = _row_divide_content(_row_cross(piv, pv, tab[i], a))
        obj = _row_divide_content(_row_cross(piv, pv, obj, entry(obj, enter)))
        basis[leave] = enter
    else:
        raise UnsolvedLP("pivot cap of %d reached" % LP_PIVOT_CAP)
    if obj.get(rhs):
        _check_farkas(rows, [-obj.get(n2 + i, 0) for i in range(m)], nvars)
        return None                                # infeasible, exactly
    t = [_F0] * nvars
    for b, r in zip(basis, tab):
        if b < n2:
            x = Fraction(r.get(rhs, 0), entry(r, b))
            t[b % nvars] = x if b < nvars else -x
    # exact re-check; simplex bookkeeping must never be trusted blindly
    for row in rows:
        if sum(a * t[j] for j, a in enumerate(row) if a) < 1:
            raise UnsolvedLP("simplex point fails the exact re-check")
    return t

