"""Splitting a module into simple summands: an exact commutant MeatAxe.

A module is given by its actions as integer columns (the contract is
stated in calculus.even_actions).  decomp and ideals act on a subspace
of an algebra by the Lie generators among the acting elements only
(lie_generators): they have the same invariant subspaces and the same
commutant.  split_module splits a piece by an element of its commutant
basis (a coprime factorisation of its characteristic polynomial, or the
kernel of a zero divisor) or by spin-up from a unit vector, then splits
each part in its own coordinates, under the actions restricted to it.
Every kernel and solve is read off integer echelon rows; commutant
elements are held as lists of dense columns.  A search that hits its
iteration cap raises InconclusiveSplit rather than guessing.
"""

from fractions import Fraction
from math import gcd, lcm

from .exact import (
    Echelon, LinSolver, ZERO, ONE, _lin_comb, _row_from_list, kernel, solve, vec_zero,
)
from .poly import char_poly_and_rational_split, peval_matrix, pmul
from .spaces import SuperAlgebraError, Subspace
from .core import _bracket_rows, _int_row
from .invariants import require_superalgebra
from .calculus import module_commutant

SPLIT_CAP = 64


class DecompositionError(SuperAlgebraError):
    def __init__(self, message, evidence=None):
        super().__init__(message)
        self.evidence = evidence


class InconclusiveSplit(DecompositionError):
    def __init__(self):
        super().__init__("module splitting inconclusive after iteration cap")


def _columns(images, solver):
    """Integer columns, in the coordinates of solver's basis, of the map
    that sends basis vector j to images[j], scaled by a positive factor to
    coprime ints; raises when an image leaves the span.  Each column is
    read off the solver's residual as ints over a scale of its own."""
    found = [solver.int_coords(_row_from_list(w)) for w in images]
    if None in found:
        raise DecompositionError("subspace is not invariant")
    den = lcm(*[s for _, s in found])
    cols = [sorted((i, a * (den // s)) for i, a in x.items()) for x, s in found]
    c = gcd(*(a for col in cols for _, a in col))
    return [[(i, a // c) for i, a in col] for col in cols] if c > 1 else cols


def lie_generators(g, vecs):
    """Those of the homogeneous vecs, in order, outside the Lie algebra
    generated by the earlier ones: by graded Jacobi, a subspace they leave
    invariant, or a map commuting with them, is so for that whole algebra.
    The closure is expanded on int rows only until the next vec lies in it."""
    require_superalgebra(g)
    ad, _ = g.adjoint_table()
    ech = Echelon(g.dim)
    rows, gens = [], []                 # rows span the closure found so far
    done = 0                            # rows bracketed with every earlier one
    for v in vecs:
        row = _int_row(v)[0]
        while done < len(rows) and ech.residual(row):
            for w in rows[:done + 1]:
                u = _bracket_rows(ad, rows[done], w)
                if ech.add(u):
                    rows.append(u)
            done += 1
        if ech.add(row):
            gens.append(v)
            rows.append(row)
    return gens


def module_actions(g, elements, basis_vecs):
    """Actions on span(basis_vecs), as integer columns, of the Lie generators
    among elements: they have the invariant subspaces and commutant of all."""
    solver = LinSolver(basis_vecs, g.dim)
    return [_columns([g.bracket(x, v) for v in basis_vecs], solver)
            for x in lie_generators(g, elements)]


def _apply(cols, v):
    """m v for a square m in column form."""
    out = [ZERO] * len(cols)
    for j, x in enumerate(v):
        if x:
            for i, a in cols[j]:
                out[i] = out[i] + a * x
    return out


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
        for cols in actions:
            u = {}
            for j, x in w.items():
                for i, a in cols[j]:
                    u[i] = u.get(i, 0) + a * x
            rows.append({i: a for i, a in u.items() if a})
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


def _unit(dim, i):
    v = vec_zero(dim)
    v[i] = ONE
    return v


class SplitBudget:
    def __init__(self, cap):
        self.left = cap


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
    commutant basis yields no split.  More than SPLIT_CAP commutant
    elements tried in all raises InconclusiveSplit.
    """
    return _split_rec(actions, dim, SplitBudget(SPLIT_CAP))


def _split_rec(actions, dim, budget):
    if dim == 0:
        return []
    comm = module_commutant(actions, dim)
    parts = _split_parts(actions, dim, budget, comm)
    if parts is None:
        return [([_unit(dim, i) for i in range(dim)], {"commutant_dim": len(comm)})]
    # each part is split in its own coordinates, under the actions
    # restricted to it, and its pieces are lifted back to these
    out = []
    for basis in parts:
        solver = LinSolver(basis, dim)
        sub = [_columns([_apply(cols, v) for v in basis], solver) for cols in actions]
        out.extend((_lift(basis, vecs), cert)
                   for vecs, cert in _split_rec(sub, len(basis), budget))
    return out


def _split_parts(actions, dim, budget, comm):
    """Bases of invariant subspaces whose direct sum is the module: the
    primary kernels of a commutant element, or W and an invariant
    complement of it.  None when neither the commutant basis nor spin-up
    from a unit vector splits the module."""
    for theta in comm:
        if budget.left <= 0:
            raise InconclusiveSplit()
        budget.left -= 1
        _, factors, _ = char_poly_and_rational_split(theta)
        pieces = []
        for f, e in factors:
            p = [Fraction(1)]
            for _ in range(e):
                p = pmul(p, f)
            pieces.append(p)
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
        w = spin_up(actions, _unit(dim, i), dim)
        if w.dim < dim:
            return _with_complement(comm, w.basis, dim)
    return None


def _with_complement(comm, wbasis, dim):
    comp = _invariant_complement(comm, wbasis, dim)
    if comp is None:
        raise DecompositionError("module is not semisimple",
                                 evidence={"invariant_dim": len(wbasis)})
    return [wbasis, comp]
