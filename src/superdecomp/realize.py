"""Block matrices and matrix realizations.

A matrix family is given as a real span of (p|q)-graded complex block
matrices; from_matrix_span turns a bracket-closed span into structure
constants and keeps the coordinate map back to the matrices.  Complex
matrices are realified by one fixed convention: a complex basis vector e
contributes the real pair (e, ie), in that order.
"""

from .exact import LinSolver, Matrix
from .core import SuperAlgebra, SuperAlgebraError, SuperSpace


class NotClosedError(SuperAlgebraError):
    def __init__(self, i, j, residual):
        self.pair = (i, j)
        self.residual = residual
        super().__init__("span not closed under the bracket at pair (%d, %d)" % (i, j))


class BlockMatrix:
    """(p|q)-graded complex matrix with a parity tag.

    Even matrices have vanishing off-diagonal blocks, odd ones vanishing
    diagonal blocks.
    """

    __slots__ = ("p", "q", "full", "parity")

    def __init__(self, p, q, full, parity):
        if not full.rows == full.cols == p + q:
            raise ValueError("block matrix must be square of size p + q")
        self.p = p
        self.q = q
        self.full = full
        self.parity = parity
        for r in range(p + q):
            for c in range(p + q):
                in_diag = (r < p) == (c < p)
                v = full.data[r][c]
                if parity == 0 and not in_diag and v:
                    raise SuperAlgebraError("even block matrix with odd block entries")
                if parity == 1 and in_diag and v:
                    raise SuperAlgebraError("odd block matrix with even block entries")

    @classmethod
    def from_blocks(cls, a=None, b=None, c=None, d=None, p=None, q=None):
        if a is not None:
            p = a.rows
        if d is not None:
            q = d.rows
        if b is not None:
            p, q = b.rows, b.cols
        full = Matrix(p + q, p + q)
        parity = 1 if (a is None and d is None) else 0
        if a is not None:
            for i in range(p):
                for j in range(p):
                    full.data[i][j] = a.data[i][j]
        if d is not None:
            for i in range(q):
                for j in range(q):
                    full.data[p + i][p + j] = d.data[i][j]
        if b is not None:
            parity = 1
            for i in range(p):
                for j in range(q):
                    full.data[i][p + j] = b.data[i][j]
        if c is not None:
            parity = 1
            for i in range(q):
                for j in range(p):
                    full.data[p + i][j] = c.data[i][j]
        return cls(p, q, full, parity)


def realify_matrix(m):
    """Flatten a complex matrix to rational coordinates, (e, ie) convention."""
    out = []
    for row in m.data:
        for a in row:
            out.append(a.real)
            out.append(a.imag)
    return out


def supercommutator(x, y, px, py):
    xy = x @ y
    yx = y @ x
    if px and py:
        return xy + yx
    return xy - yx


class MatrixRealization:
    """Coordinate map between a structure-constant algebra and its matrices."""

    def __init__(self, mats, parities, p, q):
        self.mats = mats
        self.parities = parities
        self.p = p
        self.q = q
        n = p + q
        self.coord_dim = 2 * n * n
        self.solver = LinSolver([realify_matrix(m) for m in mats], self.coord_dim)

    def to_matrix(self, coords):
        n = self.p + self.q
        out = Matrix(n, n)
        for c, m in zip(coords, self.mats):
            if c:
                out = out + m.scale(c)
        return out

    def from_matrix(self, m):
        """Real coordinates of a matrix in the spanning basis, or None."""
        return self.solver.coords(realify_matrix(m))


def from_matrix_span(blocks):
    """SuperAlgebra of a bracket-closed real span of block matrices.

    Input order must be even matrices first.  Returns (algebra, realization);
    raises NotClosedError when a supercommutator leaves the real span, and
    reports a parity violation when a bracket lands in wrong-parity
    coordinates.
    """
    parities = [bm.parity for bm in blocks]
    if any(p1 < p0 for p0, p1 in zip(parities, parities[1:])):
        raise SuperAlgebraError("even matrices must precede odd ones")
    p, q = blocks[0].p, blocks[0].q
    mats = [bm.full for bm in blocks]
    real = MatrixRealization(mats, parities, p, q)
    n = len(blocks)
    space = SuperSpace.make(n - sum(parities), sum(parities))
    table = {}
    for i in range(n):
        for j in range(i, n):
            if i == j and parities[i] == 0:
                continue
            m = supercommutator(mats[i], mats[j], parities[i], parities[j])
            if m.is_zero():
                continue
            coords = real.from_matrix(m)
            if coords is None:
                raise NotClosedError(i, j, m)
            want = (parities[i] + parities[j]) % 2
            terms = {}
            for k, c in enumerate(coords):
                if not c:
                    continue
                if parities[k] != want:
                    raise SuperAlgebraError(
                        "parity violation: bracket (%d,%d) meets basis %d" % (i, j, k))
                terms[k] = c
            if terms:
                table[(i, j)] = terms
    alg = SuperAlgebra(space, table, meta={"realization": real})
    return alg, real
