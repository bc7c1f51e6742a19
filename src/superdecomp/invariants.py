"""The invariants of a superalgebra read off its integer adjoint table.

The graded Jacobi check (verify_superalgebra, and require_superalgebra,
which refuses an input naming its first Violation), centralizers, the
center and the dimension of the even center, which are centralizers
too, and the Killing form, each computed on core's integer adjoint
table; and InvariantForm, the symmetric bilinear form on an index range
that the extensions and the unitarity report hold.
"""

from fractions import Fraction

from .exact import Echelon, is_symmetric, kernel, vec_zero
from .spaces import SuperAlgebraError, Subspace
from .core import _bracket_rows, _int_row, per_algebra


class Violation:
    """First failing identity found by verify_superalgebra: its kind
    ("parity", "skew" or "jacobi") and the basis indices it fails on."""

    def __init__(self, kind, indices):
        self.kind = kind
        self.indices = indices

    def __repr__(self):
        return "Violation(%s, %s)" % (self.kind, self.indices)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@per_algebra
def verify_superalgebra(g):
    """Exact check of parity closure, super skew symmetry and graded Jacobi.

    Returns None when everything holds, otherwise the first Violation,
    named by its kind and indices.  Computed once per algebra, so a
    caller may re-check an extension its constructor already certified.

    Jacobi runs on the integer adjoint table, where both sides are scaled
    by den**2.  Once skew symmetry holds, the defect of triple (j, i, k) is
    -(-1)^{|i||j|} times that of (i, j, k), so pairs i <= j suffice, and
    the first failing triple in lexicographic order is the same as over
    all pairs.  Every term of the defect brackets e_k with e_i, e_j or a
    basis vector of [e_i, e_j], so only k in the supports of those
    adjoint rows are visited; every other k has zero defect.  A pair with
    [e_i, e_j] = 0 is skipped when the support of ad e_i misses the image
    of ad e_j and the support of ad e_j misses the image of ad e_i: then
    every term vanishes for every k.  Most cross-summand pairs of a direct
    sum are skipped this way.
    """
    par = g.space.parities
    for (i, j), terms in g.table.items():
        want = (par[i] + par[j]) % 2
        for k, v in terms.items():
            if par[k] != want:
                return Violation("parity", (i, j, k))
        if i == j and par[i] == 0 and terms:
            return Violation("skew", (i, i))
    ad, _ = g.adjoint_table()
    n = g.dim
    supp = [{k for k, terms in enumerate(ad_i) if terms} for ad_i in ad]
    image = [set().union(*ad_i) for ad_i in ad]
    for i in range(n):
        ad_i = ad[i]
        for j in range(i, n):
            ij = ad_i[j]
            if not ij and supp[i].isdisjoint(image[j]) and supp[j].isdisjoint(image[i]):
                continue
            ad_j = ad[j]
            sign = -1 if par[i] and par[j] else 1
            for k in sorted(supp[i].union(supp[j], *[supp[m] for m in ij])):
                # [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] - sign [e_j,[e_i,e_k]]
                defect = {}
                for m, a in ad_j[k].items():
                    for c, b in ad_i[m].items():
                        defect[c] = defect.get(c, 0) + a * b
                for m, a in ij.items():
                    for c, b in ad[m][k].items():
                        defect[c] = defect.get(c, 0) - a * b
                for m, a in ad_i[k].items():
                    a *= sign
                    for c, b in ad_j[m].items():
                        defect[c] = defect.get(c, 0) - a * b
                if any(defect.values()):
                    return Violation("jacobi", (i, j, k))
    return None


def require_superalgebra(g):
    """Refuse g, naming its first Violation, unless it is a Lie superalgebra."""
    viol = verify_superalgebra(g)
    if viol is not None:
        raise SuperAlgebraError("input is not a Lie superalgebra: %r" % (viol,))


# ---------------------------------------------------------------------------
# centralizers and the Killing form
# ---------------------------------------------------------------------------

@per_algebra
def center(g):
    """{x : [x, g] = 0}."""
    full = g.full_subspace()
    return centralizer(g, full, full)


@per_algebra
def even_center_dim(g):
    """Dimension of the centralizer of g0 in g0."""
    return centralizer(g, g.even_subspace(), g.even_subspace()).dim


def centralizer(g, targets, inside):
    """{x in `inside` : [x, t] = 0 for all t in targets}.

    Both Subspaces are taken as int rows spanning them, which scales each
    equation and each unknown by a positive integer and leaves the
    solution space.  The kernel is fed one target's equations at a time;
    its basis is canonical, so their order changes nothing.
    """
    us = inside._rows()
    ad, _ = g.adjoint_table()

    def equations(t):
        # eqs[k][a] = [u_a, t]_k over the coordinates each bracket touched
        eqs = {}
        for a, u in enumerate(us):
            for k, v in _bracket_rows(ad, u, t).items():
                eqs.setdefault(k, {})[a] = v
        return eqs.values()
    out = Echelon(g.dim)
    rows = (row for t in targets._rows() for row in equations(t))
    for combo in kernel(rows, len(us)):
        acc = {}
        for a, c in _int_row(combo)[0].items():
            for j, b in us[a].items():
                acc[j] = acc.get(j, 0) + c * b
        out.add({j: v for j, v in acc.items() if v})
    return Subspace._spanned(out)


@per_algebra
def killing_form(g):
    """Gram matrix kappa(e_i, e_j) = str(ad e_i ad e_j), as a list of rows,
    and its rank.

    kappa_ij = den**-2 sum_l sum_{k in ad_i[l]} (-1)^{|k|} ad_i[l][k] ad_j[k][l]
    over the integer adjoint table.
    """
    n = g.dim
    ad, den = g.adjoint_table()
    par = g.space.parities
    scale = den * den
    gram = [vec_zero(n) for _ in range(n)]
    for i in range(n):
        # the nonzero entries of ad e_i, signed by the parity of their row
        entries = [(l, k, -a if par[k] else a)
                   for l, col in enumerate(ad[i]) for k, a in col.items()]
        row = gram[i]
        for j in range(n):
            ad_j = ad[j]
            acc = 0
            for l, k, a in entries:
                b = ad_j[k].get(l)
                if b:
                    acc += a * b
            if acc:
                row[j] = Fraction(acc, scale)
    ech = Echelon(n)
    for row in gram:
        ech.add_list(row)
    return gram, ech.rank


# ---------------------------------------------------------------------------
# invariant bilinear forms
# ---------------------------------------------------------------------------

class InvariantForm:
    """Symmetric bilinear form on a stated index range of a superalgebra.

    `indices` are the ambient basis indices the Gram refers to (usually the
    odd ones); gram is the rows of a symmetric rational matrix of matching
    size.
    """

    def __init__(self, indices, gram):
        self.indices = tuple(indices)
        n = len(self.indices)
        if len(gram) != n or any(len(r) != n for r in gram):
            raise ValueError("Gram size must match the index range")
        if not is_symmetric(gram) or not all(
                isinstance(a, Fraction) for row in gram for a in row):
            raise SuperAlgebraError("symmetric rational Gram required")
        self.gram = gram
        self.pos = {i: r for r, i in enumerate(self.indices)}
