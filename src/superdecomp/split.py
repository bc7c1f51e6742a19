"""Splitting a module into simple summands: an exact commutant MeatAxe.

A module is given by its actions as integer columns, as
calculus.module_actions writes them (the contract is stated there).
split_module solves the module's commutant once and splits by an element
of its basis (a coprime factorisation of its characteristic polynomial,
or the kernel of a zero divisor) or by spin-up from a unit vector, then
splits each part under the actions restricted to it on int rows, with a
corner of the parent's commutant as its own.  Every kernel and solve is
read off integer echelon rows; commutant elements are dense columns.
"""

from .exact import (
    Echelon, LinSolver, _int_row, _lin_comb, _row_from_list, kernel, solve, vec_unit,
    vec_zero,
)
from .poly import peval_matrix, primary_polynomials
from .spaces import SuperAlgebraError, Subspace
from .calculus import _columns, module_commutant


class DecompositionError(SuperAlgebraError):
    def __init__(self, message, evidence=None):
        super().__init__(message)
        self.evidence = evidence


def _act(cols, row):
    """m row for a square m in column form and a sparse int row."""
    u = {}
    for j, x in row.items():
        for i, a in cols[j]:
            u[i] = u.get(i, 0) + a * x
    return {i: a for i, a in u.items() if a}


def spin_up(actions, v, dim):
    """Smallest invariant subspace containing v, for actions as integer
    columns; runs on int rows."""
    ech = Echelon(dim)
    rows = [_int_row(v)[0]]
    idx = 0
    while idx < len(rows):
        w = rows[idx]
        idx += 1
        if not ech.add(w):
            continue
        rows.extend(_act(cols, w) for cols in actions)
    return Subspace._spanned(ech)


def _lift(basis, vecs):
    return [_lin_comb(v, basis, len(basis[0])) for v in vecs]


def _kernel_of(cols):
    """ker m for a square m given by its dense columns, read off its rows."""
    n = len(cols)
    return kernel([{s: col[r] for s, col in enumerate(cols) if col[r]}
                   for r in range(n)], n)


def _invariant_complement(comm, wbasis, dim):
    """Invariant complement of an invariant subspace W = span(wbasis), or
    None when there is none (the module is then not semisimple).

    comm is a basis of the module's commutant, each element a list of
    columns.  The complement is ker T for T = sum c_i comm[i] with T w = w
    on W and T(M) inside W; such a T is an equivariant projection onto W,
    and one exists exactly when W has an invariant complement.  T(M)
    inside W reads phi T = 0 for every phi in the annihilator of W; phi C
    is phi's combination of the rows of C.
    """
    ann = kernel([_row_from_list(w) for w in wbasis], dim)
    blocks = [([_lin_comb(w, c, dim) for c in comm], w) for w in wbasis]
    blocks += [([_lin_comb(phi, zip(*c), dim) for c in comm], vec_zero(dim))
               for phi in ann]
    rows, rhs = [], []
    for images, target in blocks:
        for r in range(dim):
            rows.append({i: img[r] for i, img in enumerate(images) if img[r]})
            rhs.append(target[r])
    x = solve(rows, rhs, len(comm))
    if x is None:
        return None
    return _kernel_of([_lin_comb(x, [c[s] for c in comm], dim) for s in range(dim)])


def split_module(actions, dim):
    """Decompose a semisimple module into pieces, exactly.

    The actions are integer columns.  Returns a list of (basis,
    certificate) pairs; the bases are lists of coordinate vectors.  A piece
    is split by an element of its commutant basis (a coprime factorisation
    of the characteristic polynomial, or the kernel of a zero divisor) or
    by a unit vector whose spin-up is proper.  A piece that none of these
    split is returned with its commutant dimension as its certificate,
    {"commutant_dim": n}.  That proves the piece simple only when the
    commutant dimension is 1: once a simple module occurs with multiplicity
    2 or more, every vector may spin up to the whole piece while the
    commutant basis yields no split.

    The commutant is solved once; each piece's is a corner of it.  A piece
    tries each element of its commutant basis at most once, then at most
    dim spin-ups, and the recursion makes at most 2 dim - 1 pieces.
    """
    if dim == 0:
        return []
    return _split(actions, dim, module_commutant(actions, dim))


def _split(actions, dim, comm):
    """split_module given the commutant basis comm: each part's projection e
    lies in span(comm) = E, and its commutant eEe is its block of comm."""
    parts = _split_parts(actions, dim, comm)
    if parts is None:
        return [([vec_unit(dim, i) for i in range(dim)], {"commutant_dim": len(comm)})]
    rows = [_int_row(v) for part in parts for v in part]
    solver = LinSolver(rows, dim)
    maps = [_columns([(_act(cols, v), d) for v, d in rows], solver)
            for cols in actions + [_int_columns(t) for t in comm]]
    out, hi = [], 0
    for part in parts:
        lo, hi = hi, hi + len(part)
        sub = [[[(i - lo, a) for i, a in col if lo <= i < hi] for col in cols[lo:hi]]
               for cols in maps]
        corner = _canonical(sub[len(actions):], len(part))
        out.extend((_lift(part, vecs), cert)
                   for vecs, cert in _split(sub[:len(actions)], len(part), corner))
    return out


def _int_columns(t):
    """The dense columns of a map t as int columns, up to a positive factor."""
    cols = [[] for _ in t]
    for x, a in _int_row([e for col in t for e in col])[0].items():
        cols[x // len(t)].append((x % len(t), a))
    return cols


def _canonical(maps, n):
    """module_commutant's basis of the span of maps of Q^n in column form:
    unit entries at the free columns of its equations, the entries of the
    row-major matrix independent, on the span, of the free ones after them."""
    ech = Echelon(n * n)
    for cols in maps:
        ech.add({n * n - 1 - r * n - s: a for s, col in enumerate(cols) for r, a in col})
    return [[v[n * n - 1 - s::-n] for s in range(n)] for v in reversed(ech.basis_vectors())]


def _split_parts(actions, dim, comm):
    """Bases of invariant subspaces whose direct sum is the module: the
    primary kernels of a commutant element, or W and an invariant
    complement of it.  None when neither the commutant basis nor spin-up
    from a unit vector splits the module."""
    for theta in comm:
        pieces = primary_polynomials(theta)
        if len(pieces) < 2:
            # a singular commutant element is a zero divisor: its kernel is
            # a proper invariant subspace even without a coprime factor split
            ker = _kernel_of(theta)
            if 0 < len(ker) < dim:
                return _with_complement(comm, ker, dim)
            continue
        parts = [_kernel_of(peval_matrix(p, theta)) for p in pieces]
        if sum(map(len, parts)) != dim:
            raise DecompositionError("primary decomposition dimensions do not add up")
        return parts
    for i in range(dim):
        w = spin_up(actions, vec_unit(dim, i), dim)
        if w.dim < dim:
            return _with_complement(comm, w.basis, dim)
    return None


def _with_complement(comm, wbasis, dim):
    comp = _invariant_complement(comm, wbasis, dim)
    if comp is None:
        raise DecompositionError("module is not semisimple",
                                 evidence={"invariant_dim": len(wbasis)})
    return [wbasis, comp]
