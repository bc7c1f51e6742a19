"""The subspace calculus on core's integer adjoint table and echelon
rows: derived algebra, bracket spans of subspaces, ideals, module
actions as integer columns and module commutants.  module_actions is
the one writer of action columns; it acts by exactly the elements it is
given, and a caller that wants fewer actions passes lie_generators of
them, which have the same invariant subspaces and the same commutant.
decomp, split, ideals, classify and unitar use it; check, construct and
the spin representations load none of it.
"""

from math import gcd, lcm

from .exact import Echelon, LinSolver, _int_row
from .spaces import SuperAlgebraError, Subspace
from .core import _bracket_rows, per_algebra
from .invariants import require_superalgebra


# ---------------------------------------------------------------------------
# bracket spans and ideals
# ---------------------------------------------------------------------------

@per_algebra
def derived(g):
    """Span of all brackets of basis pairs: the rows of the table."""
    ech = Echelon(g.dim)
    for terms in g.table.values():
        ech.add(terms)
    return Subspace._spanned(ech)


def is_perfect(g):
    return derived(g).dim == g.dim


def bracket_span(g, u_sub, w_sub):
    """Span of [U, W] for two subspaces, from their int rows."""
    ad, _ = g.adjoint_table()
    ws = w_sub._rows()
    ech = Echelon(g.dim)
    for u in u_sub._rows():
        for w in ws:
            v = _bracket_rows(ad, u, w)
            if v:
                ech.add(v)
    return Subspace._spanned(ech)


def is_ideal(g, s):
    ad, _ = g.adjoint_table()
    rows = s._rows()
    for i in range(g.dim):
        for u in rows:
            if s._ech.residual(_bracket_rows(ad, {i: 1}, u)):
                return False
    return True


# ---------------------------------------------------------------------------
# module actions and module commutants
# ---------------------------------------------------------------------------

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


def _columns(images, solver):
    """Integer columns, in the coordinates of solver's basis, of the map
    that sends basis vector j to images[j] = (row, den), the vector
    row / den for a sparse int row and a positive int den, scaled by a
    positive factor to coprime ints; raises when an image leaves the span.
    Each column is read off the solver's residual as ints over a scale of
    its own, which takes in that image's den."""
    found = [solver.int_coords(row, den) for row, den in images]
    if None in found:
        raise SuperAlgebraError("subspace is not invariant")
    den = lcm(*[s for _, s in found])
    cols = [sorted((i, a * (den // s)) for i, a in x.items()) for x, s in found]
    c = gcd(*(a for col in cols for _, a in col))
    return [[(i, a // c) for i, a in col] for col in cols] if c > 1 else cols


def module_actions(g, elements, basis_vecs):
    """ad x on span(basis_vecs) for each of the elements x, in column form:
    cols[j] lists (i, value) over the nonzero entries of column j, in
    increasing i, in the coordinates of basis_vecs.

    Every action in column form has int entries and is known only up to a
    positive factor.  On the int rows d_x x and d_j v_j the adjoint table
    gives den d_x d_j [x, v_j]; column j is solved for over d_j, so every
    column of an action carries the same factor den d_x, and the action
    is divided by the gcd of its entries, so that the equation rows built
    from it carry no common factor.  The factor changes neither the
    commutant, nor the invariant forms, nor the invariant subspaces, so
    readers take the columns as they are."""
    ad, _ = g.adjoint_table()
    rows = [_int_row(v) for v in basis_vecs]
    solver = LinSolver(rows, g.dim)
    return [_columns([(_bracket_rows(ad, x, v), d) for v, d in rows], solver)
            for x, _ in map(_int_row, elements)]


def module_commutant(actions, dim):
    """Basis of {T : A T = T A for every action A}, exact; the actions are
    in column form, as module_actions writes them, and each basis element
    is the list of its dense columns, so T v is _lin_comb(v, T, dim).

    The identity always commutes, so once the equations reach rank
    dim^2 - 1 the solution space is the scalars and the remaining
    equations are skipped.
    """
    npos = dim * dim

    def var(r, s):
        return r * dim + s

    def equations():
        for cols in actions:
            rows = [[] for _ in range(dim)]
            for s, col in enumerate(cols):
                for r, v in col:
                    rows[r].append((s, v))
            for r in range(dim):
                for c in range(dim):
                    # (A T - T A)[r][c] = sum_s A[r][s] T[s][c] - T[r][s] A[s][c]
                    row = {}
                    for s, v in rows[r]:
                        key = var(s, c)
                        row[key] = row.get(key, 0) + v
                    for s, w in cols[c]:
                        key = var(r, s)
                        row[key] = row.get(key, 0) - w
                    yield {k: v for k, v in row.items() if v}

    ech = Echelon(npos)
    for row in equations():
        if row:
            ech.add(row)
        if ech.rank == npos - 1:
            break
    return [[[combo[var(r, s)] for r in range(dim)] for s in range(dim)]
            for combo in ech.kernel_basis()]
