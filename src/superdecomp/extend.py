"""Extensions of a Lie superalgebra, each certified by the Jacobi check
of its result: the semidirect product by one derivation, the central
extension by an odd-odd cocycle and the test whether that cocycle is
trivial, and the tangent algebras T k, That k and Ttilde k of a plain Lie
algebra k, the last two built as such extensions of T k.

families builds its tangent and spin_h_hat rows here, and ideals compares
each residue ideal with a tangent algebra built here; as they are built
on structure constants alone, this module loads exact, spaces, core and
invariants only, so a decomposition that builds no family compiles
neither families nor realize.
"""

from .exact import ZERO, ONE, solve, vec_zero
from .spaces import SuperAlgebraError, SuperSpace
from .core import SuperAlgebra
from .invariants import InvariantForm, killing_form, verify_superalgebra


class ExtensionError(SuperAlgebraError):
    """An extension whose table fails verify_superalgebra."""

    def __init__(self, violation):
        self.violation = violation
        super().__init__("extension is not a Lie superalgebra: %r" % violation)


def _certified(alg):
    """alg, once verify_superalgebra passes on it; ExtensionError otherwise."""
    viol = verify_superalgebra(alg)
    if viol is not None:
        raise ExtensionError(viol)
    return alg


def semidirect_by_derivation(g, dmat, parity):
    """g extended by one generator d with [d, x] = Dx; [d, d] = 0.

    Certified by the Jacobi check of the result, which holds exactly when g
    is a Lie superalgebra and D a derivation of the parity of d: Jacobi on
    (d, x, y) is D[x,y] = [Dx,y] + (-1)^{|d||x|}[x,Dy], the parity check
    sees a D of the wrong parity, and for odd d Jacobi on (d, d, x) is
    2 D^2 x = 0.  D is a list of rows.  Raises ExtensionError otherwise,
    and SuperAlgebraError for a D that is not dim x dim.
    """
    n = g.dim
    shape = (len(dmat), len(dmat[0]) if dmat else 0)
    if shape != (n, n) or any(len(r) != n for r in dmat):
        raise SuperAlgebraError("derivation matrix is %dx%d, expected %dx%d"
                                % (shape + (n, n)))
    pos = g.d0 if parity % 2 == 0 else n        # insert after evens / at end

    def shift(i):
        return i if i < pos else i + 1

    space = SuperSpace.make(g.d0 + (1 - parity % 2), g.d1 + (parity % 2))
    table = {}
    for (i, j), terms in g.table.items():
        table[(shift(i), shift(j))] = {shift(k): v for k, v in terms.items()}
    for j in range(n):
        col = {shift(k): dmat[k][j] for k in range(n) if dmat[k][j]}
        if not col:
            continue
        sj = shift(j)
        if pos <= sj:
            table[(pos, sj)] = col
        else:
            sign = 1 if (parity % 2 and g.parity(j)) else -1
            table[(sj, pos)] = {k: sign * v for k, v in col.items()}
    return _certified(SuperAlgebra(space, table, meta={"derivation_index": pos}))


def central_extension(g, form):
    """One-dimensional central extension by the cocycle w(x, y) = B(x1, y1).

    The new central generator sits at index 0; quotienting by it recovers g.
    Certified by the Jacobi check of the result: B lives on odd x odd, so
    the central part of Jacobi on (x, a, b) with x even is
    B([x,a],b) + B(a,[x,b]), and that of every other triple vanishes.
    Raises ExtensionError unless g is a Lie superalgebra and B is
    even-invariant, and SuperAlgebraError if B misses an odd index.
    """
    pos = form.pos
    missing = [i for i in g.space.odd_indices() if i not in pos]
    if missing:
        raise SuperAlgebraError("form indices miss odd index %d" % missing[0])
    space = SuperSpace.make(g.d0 + 1, g.d1)
    table = {}
    for (i, j), terms in g.table.items():
        table[(i + 1, j + 1)] = {k + 1: v for k, v in terms.items()}
    for i in g.space.odd_indices():
        for j in g.space.odd_indices():
            if j < i:
                continue
            val = form.gram[pos[i]][pos[j]]
            if not val:
                continue
            key = (i + 1, j + 1)
            row = dict(table.get(key, {}))
            row[0] = row.get(0, ZERO) + val
            table[key] = row
    return _certified(SuperAlgebra(space, table))


def is_trivial_cocycle(g, form):
    """Trivialising even functional lam with B(x1, y1) = lam([x1, y1]), or None.

    lam must also kill [g0, g0] so that the full cocycle is the coboundary
    of lam; when it exists the extension splits and the splitting is
    verified by construction.
    """
    ext = central_extension(g, form)
    d0 = g.d0
    rows = []
    rhs = []
    for i in range(d0):
        for j in range(i, d0):
            terms = g.table.get((i, j))
            if terms:
                rows.append({k: v for k, v in terms.items() if k < d0})
                rhs.append(ZERO)
    for i in g.space.odd_indices():
        for j in g.space.odd_indices():
            if j < i:
                continue
            rows.append(g.table.get((i, j), {}))
            rhs.append(form.gram[form.pos[i]][form.pos[j]])
    lam = solve(rows, rhs, d0)
    if lam is None:
        return None
    # verify the splitting x -> (lam(x_even), x) exactly
    for i in range(g.dim):
        for j in range(i, g.dim):
            want = g.table.get((i, j), {})
            lam_val = ZERO
            for k, v in want.items():
                if k < d0:
                    lam_val = lam_val + lam[k] * v
            ext_terms = ext.table.get((i + 1, j + 1), {})
            got0 = ext_terms.get(0, ZERO)
            if got0 != lam_val:
                raise SuperAlgebraError("cocycle splitting verification failed")
    return lam


def build_tangent_from_algebra(k, variant):
    """T k, That k or Ttilde k from a purely even algebra k."""
    if k.d1 != 0:
        raise SuperAlgebraError("tangent construction needs a plain Lie algebra")
    d = k.dim
    space = SuperSpace.make(d, d)
    table = {}
    for (i, j), terms in k.table.items():
        table[(i, j)] = dict(terms)                     # [x o 1, y o 1]
        # [x_i o 1, x_j o xi] = [x_i, x_j] o xi; k is even, so (j, i) is negated
        table[(i, d + j)] = {d + kk: v for kk, v in terms.items()}
        table[(j, d + i)] = {d + kk: -v for kk, v in terms.items()}
    # odd-odd brackets vanish
    tk = SuperAlgebra(space, table)
    if variant == "T":
        return tk
    if variant == "T_hat":
        dmat = [vec_zero(2 * d) for _ in range(2 * d)]
        for i in range(d):
            dmat[i][d + i] = ONE                          # d/dxi
        return semidirect_by_derivation(tk, dmat, parity=1)
    gram, _ = killing_form(k)
    form = InvariantForm(list(range(d, 2 * d)), [[-a for a in row] for row in gram])
    return central_extension(tk, form)
