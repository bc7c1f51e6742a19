"""The subspace calculus on core's integer adjoint table and echelon
rows: derived algebra, bracket spans of subspaces, ideals, even actions
as integer columns and module commutants.  decomp, split, ideals,
classify and unitar use it; check, construct and the spin
representations load none of it.
"""

from math import gcd

from .exact import Echelon
from .spaces import Subspace
from .core import _bracket_rows, per_algebra


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
# even actions and module commutants
# ---------------------------------------------------------------------------

def even_actions(g, part):
    """ad e_x restricted to the basis index range `part` (the even or the
    odd indices), for even basis x, in column form: cols[j] lists (i, value)
    over the nonzero entries of column j, in increasing i.

    Every action in column form, here and in split, has int entries and
    is known only up to a positive factor: these are the adjoint table's
    entries, den times ad e_x, divided by the gcd of the action's entries,
    so that the equation rows built from them carry no common factor.  The
    factor changes neither the commutant, nor the invariant forms, nor the
    invariant subspaces, so readers take the columns as they are."""
    lo = part.start
    ad, _ = g.adjoint_table()
    out = []
    for x in g.space.even_indices():
        c = gcd(*(a for j in part for a in ad[x][j].values()))
        out.append([sorted((k - lo, a // c) for k, a in ad[x][j].items()) for j in part])
    return out


def module_commutant(actions, dim):
    """Basis of {T : A T = T A for every action A}, exact; the actions are
    in column form and each basis element is the list of its dense
    columns, so T v is _lin_comb(v, T, dim).

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
