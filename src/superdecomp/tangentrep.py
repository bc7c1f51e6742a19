"""The spin representation of the centrally extended tangent algebra.

tilde_tangent_representation builds the faithful unitary representation
of Ttilde k, the central extension of the tangent algebra over a compact
simple k, on the Fock space of the quadratic form beta = -Killing(k).
The form is split by exact.diagonalize's congruence into a diagonal
one, each diagonal value written as a sum of rational squares
(Lagrange), which gives the Fock generators.  Only `tangent-rep` loads
this module; it needs neither positivity nor the witness search.
"""

from fractions import Fraction
from math import isqrt

from .exact import I, LinSolver, Scalar, ZERO, _lin_comb, diagonalize, vec_unit
from .spaces import SuperAlgebraError
from .invariants import killing_form
from .families import FamilySpec, build, build_lie_algebra, simple_dim
from .realize import SparseOp
from .fock import FockSpace, Representation, _require_fock_dim, check_unitary_representation


def _four_squares(n):
    """The fewest positive ints whose squares sum to n >= 0 (at most four,
    by Lagrange); among those, the lexicographically greatest list."""
    return next(rep for k in range(5) if (rep := _squares(n, k)) is not None)


def _squares(n, k):
    """The lexicographically greatest list of k positive ints whose squares
    sum to n, or None."""
    if k <= 1:
        x = isqrt(n)
        return [x][:k] if x * x == n and (n > 0) == (k == 1) else None
    for x in range(isqrt(n), 0, -1):
        rest = _squares(n - x * x, k - 1)
        if rest is not None:
            return [x] + rest
    return None


def _rational_squares(r):
    """Positive rational r as a list of nonzero rationals with sum of
    squares r."""
    num, den = r.numerator, r.denominator
    return [Fraction(x, den) for x in _four_squares(num * den)]


def _matmul(a, b):
    """The product of two rational matrices given as lists of rows."""
    return [_lin_comb(row, b, len(b[0])) for row in a]


def _matrix_inverse(m):
    """The rows of m^-1 for the rows m of a square rational matrix: column
    j solves m x = e_j."""
    n = len(m)
    try:
        solver = LinSolver(list(zip(*m)), n)
    except ValueError:
        raise SuperAlgebraError("singular matrix") from None
    return [list(r) for r in zip(*(solver.coords(vec_unit(n, j)) for j in range(n)))]


def tilde_tangent_representation(kind, n):
    """Faithful unitary representation of the central extension of the
    tangent algebra over a compact simple k, on the Fock space of the
    quadratic form beta = -Killing(k).

    The odd generators embed as Clifford elements a*(v) + i a(v) through a
    rational map v with v^T v = beta; the even part acts by second
    quantisation of the conjugated adjoint action, and the central
    generator by the scalar solved from the bracket matching (here 2i).
    The homomorphism, adjointness and faithfulness checks run exactly and
    failure aborts.
    """
    spec = FamilySpec("T_tilde", (kind, n))
    # each of the d positive diagonal entries of beta's LDL^T below needs
    # at least one square, so the Fock space has at least 2^d states
    d = simple_dim(kind, n)
    _require_fock_dim(d, "at least ")
    g = build(spec)
    k = build_lie_algebra(kind, n)
    gram, _ = killing_form(k)
    beta = [[-a for a in row] for row in gram]
    # beta = P^-T D P^-1 with P^T beta P = D from exact.diagonalize
    diag, cols = zip(*diagonalize(beta))
    if min(diag) <= 0:
        raise SuperAlgebraError("tangent form is not positive definite")
    pmat = [list(r) for r in zip(*cols)]
    # choose the global scale lam minimising the generator count:
    # each diagonal value needs lam*d_alpha/2 written as a sum of squares
    best = None
    for lam in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(4),
                Fraction(1, 4), Fraction(3), Fraction(1, 3)):
        blocks = [_rational_squares(lam * dv / 2) for dv in diag]
        total = sum(len(bl) for bl in blocks)
        if best is None or total < best[0]:
            best = (total, lam, blocks)
    total, lam, blocks = best
    _require_fock_dim(total)
    # u matrix: columns u_alpha in disjoint coordinate blocks
    u = []
    for alpha, bl in enumerate(blocks):
        for val in bl:
            u.append([val if a == alpha else ZERO for a in range(d)])
    vmap = _matmul(u, _matrix_inverse(pmat))      # v(y_i) = column i
    vcols = list(zip(*vmap))
    if [[2 * a for a in row] for row in _matmul(vcols, vmap)] != \
            [[lam * a for a in row] for row in beta]:
        raise SuperAlgebraError("embedding scale verification failed")
    fock = FockSpace(total)
    # psi = v ad beta^-1 v^T (2 / lam), the last two factors shared
    right = [[2 / lam * a for a in row] for row in _matmul(_matrix_inverse(beta), vcols)]
    ops = [SparseOp.identity(fock.dim).scale(Scalar(0, lam))]   # central generator
    table, den = k.adjoint_table()
    for row in table:
        ad = [[ZERO] * d for _ in range(d)]
        for j, terms in enumerate(row):
            for i, a in terms.items():
                ad[i][j] = Fraction(a, den)
        ops.append(fock.second_quantised(_matmul(_matmul(vmap, ad), right)))
    for col in vcols:
        ops.append(fock.creation(col) + fock.annihilation(col).scale(I))
    rep = Representation(g, fock.parities, ops, meta={"scale": lam})
    res = check_unitary_representation(g, rep)
    if not res.ok:
        raise SuperAlgebraError(
            "tangent spin representation failed verification: %r" % res.violation)
    if not res.faithful:
        raise SuperAlgebraError("tangent spin representation is not faithful")
    rep.meta["faithful"] = True
    return rep
