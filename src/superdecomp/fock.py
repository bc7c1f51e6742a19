"""Fermionic Fock machinery and spin representations, all exact.

The Fock space over n orthonormal generators is the exterior algebra with
wedge monomials indexed by subsets of {0..n-1}; creation is exterior
multiplication and annihilation the signed contraction, antilinear in its
argument.  Second-quantised even operators are assembled through the
normal-ordered identity dGamma(A) = sum A_kj a*(e_k) a(e_j), which keeps
every sign inside the two primitive operators.

Unitarity here always means the adjoint condition rho(X)* = -i^{|X|} rho(X)
with respect to the (identity-Gram) hermitian form; the four powers of i
are table driven.
"""

from fractions import Fraction
from math import isqrt

from .exact import (
    I, Matrix, Scalar, ZERO, ONE, ipow, Echelon, vec_zero,
)
from .core import SuperAlgebraError, killing_form, realify_matrix
from .families import build_family, build_lie_algebra

FOCK_DIM_CAP = 4096


class FockSpace:
    """Exterior algebra over n orthonormal generators.

    Basis monomials are subsets, listed even-cardinality first; the Gram
    matrix is the identity by construction.
    """

    def __init__(self, n):
        self.n = n
        subsets = []
        for mask in range(1 << n):
            s = tuple(i for i in range(n) if mask >> i & 1)
            subsets.append(s)
        subsets.sort(key=lambda s: (len(s) % 2, len(s), s))
        self.basis = subsets
        self.index = {s: i for i, s in enumerate(subsets)}
        self.parities = [len(s) % 2 for s in subsets]

    @property
    def dim(self):
        return 1 << self.n

    def creation(self, f):
        """a0(f)*: wedge with f, linear in f."""
        if len(f) != self.n:
            raise ValueError("dimension mismatch")
        out = Matrix(self.dim, self.dim)
        for col, s in enumerate(self.basis):
            for j in range(self.n):
                if not f[j] or j in s:
                    continue
                sign = (-1) ** sum(1 for i in s if i < j)
                target = tuple(sorted(s + (j,)))
                row = self.index[target]
                val = f[j] if sign > 0 else -f[j]
                out.data[row][col] = out.data[row][col] + val
        return out

    def annihilation(self, f):
        """a0(f): signed contraction, antilinear in f."""
        if len(f) != self.n:
            raise ValueError("dimension mismatch")
        out = Matrix(self.dim, self.dim)
        for col, s in enumerate(self.basis):
            for pos, j in enumerate(s):
                if not f[j]:
                    continue
                target = tuple(x for x in s if x != j)
                row = self.index[target]
                val = f[j].conjugate() if pos % 2 == 0 else -f[j].conjugate()
                out.data[row][col] = out.data[row][col] + val
        return out

    def number_operator(self):
        out = Matrix(self.dim, self.dim)
        for i, s in enumerate(self.basis):
            out.data[i][i] = Fraction(len(s))
        return out

    def second_quantised(self, a):
        """dGamma(a) = sum a_kj a*(e_k) a(e_j) for a one-particle operator."""
        if not a.rows == a.cols == self.n:
            raise ValueError("one-particle operator must be n x n")
        out = Matrix(self.dim, self.dim)
        for k in range(self.n):
            ek = [ONE if i == k else ZERO for i in range(self.n)]
            cre = self.creation(ek)
            for j in range(self.n):
                if not a.data[k][j]:
                    continue
                ej = [ONE if i == j else ZERO for i in range(self.n)]
                out = out + (cre @ self.annihilation(ej)).scale(a.data[k][j])
        return out


def hermitian_inner(u, v):
    """<u, v>: linear in the first slot, antilinear in the second."""
    acc = ZERO
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b.conjugate()
    return acc


def check_car(n, rng=None, samples=20):
    """Both canonical anticommutation identities, exactly.

    Checked on all generator pairs and on seeded random complex vectors;
    returns None, or a dict describing the first violating pair.
    """
    fock = FockSpace(n)
    eye = Matrix.identity(fock.dim)

    def pairs():
        units = [[ONE if i == k else ZERO for i in range(n)] for k in range(n)]
        for f in units:
            for g in units:
                yield f, g
        if rng is not None:
            for _ in range(samples):
                f = [Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                            Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                     for _ in range(n)]
                g = [Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                            Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                     for _ in range(n)]
                yield f, g

    for f, g in pairs():
        af, ag = fock.annihilation(f), fock.annihilation(g)
        cg = fock.creation(g)
        if not (af @ ag + ag @ af).is_zero():
            return {"identity": "a(f)a(g) + a(g)a(f) = 0", "pair": (f, g)}
        want = eye.scale(hermitian_inner(g, f))
        if af @ cg + cg @ af != want:
            return {"identity": "a(f)a(g)* + a(g)*a(f) = <g, f>", "pair": (f, g)}
    return None


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

class Representation:
    """Exact graded representation: one operator per algebra basis vector.

    The target carries parities and an identity Gram (wedge monomials of
    orthonormal generators stay orthonormal).
    """

    def __init__(self, algebra, space_parities, operators, meta=None):
        self.algebra = algebra
        self.space_parities = list(space_parities)
        self.operators = operators
        self.meta = meta or {}
        dim = len(space_parities)
        for op in operators:
            if not op.rows == op.cols == dim:
                raise ValueError("operators must be square of the space dimension")

    @property
    def space_dim(self):
        return len(self.space_parities)

    def operator_of(self, coords):
        out = Matrix(self.space_dim, self.space_dim)
        for c, op in zip(coords, self.operators):
            if c:
                out = out + op.scale(c)
        return out

    def to_json_dict(self):
        def entry(v):
            return [str(v.real.numerator), str(v.real.denominator),
                    str(v.imag.numerator), str(v.imag.denominator)]

        return {
            "space": {"dim": str(self.space_dim),
                      "parities": [p for p in self.space_parities]},
            "gram": "identity",
            "operators": [
                {"basis_id": self.algebra.space.labels[i],
                 "matrix": [[entry(v) for v in row] for row in op.data]}
                for i, op in enumerate(self.operators)],
        }


class RepCheck:
    def __init__(self, ok, faithful, violation=None):
        self.ok = ok
        self.faithful = faithful
        self.violation = violation


def check_unitary_representation(g, rep):
    """Homomorphism property and the adjoint condition rho(X)* = -i^{|X|}rho(X)
    on every basis pair, plus exact faithfulness (zero kernel)."""
    n = g.dim
    ops = rep.operators
    for i in range(n):
        op = ops[i]
        factor = -ipow(g.parity(i))
        adj = op.conj_transpose()
        if adj != op.scale(factor):
            return RepCheck(False, False,
                            {"kind": "adjoint", "basis": i})
    for i in range(n):
        for j in range(n):
            prod = ops[i] @ ops[j]
            if g.parity(i) and g.parity(j):
                prod = prod + ops[j] @ ops[i]
            else:
                prod = prod - ops[j] @ ops[i]
            want = Matrix(rep.space_dim, rep.space_dim)
            for k, v in g.bracket_pair(i, j).items():
                want = want + ops[k].scale(v)
            if prod != want:
                return RepCheck(False, False,
                                {"kind": "homomorphism", "pair": (i, j),
                                 "lhs": prod, "rhs": want})
    ech = Echelon(2 * rep.space_dim * rep.space_dim)
    rank = 0
    for op in ops:
        if ech.add_list(realify_matrix(op)):
            rank += 1
    return RepCheck(True, rank == n)


def spin_representation(variant, n):
    """Spin representation of the real Clifford-Heisenberg algebra (or its
    extension by the rotation derivation) on the 2^n Fock space.

    Basis convention of the constructors: Z [, d], X_1..X_n, Y_1..Y_n with
    rho(Z) = i, rho(X_k) = a_k* + i a_k, rho(Y_k) = i a_k* + a_k and
    rho(d) = i N.  All identities are verified exactly before returning.
    """
    if variant not in ("spin_h", "spin_h_hat"):
        raise ValueError("variant must be spin_h or spin_h_hat")
    g = build_family(variant, n)
    fock = FockSpace(n)
    eye = Matrix.identity(fock.dim)
    ops = [eye.scale(I)]
    if variant == "spin_h_hat":
        ops.append(fock.number_operator().scale(I))
    units = [[ONE if i == k else ZERO for i in range(n)] for k in range(n)]
    for k in range(n):
        a = fock.annihilation(units[k])
        c = fock.creation(units[k])
        ops.append(c + a.scale(I))
    for k in range(n):
        a = fock.annihilation(units[k])
        c = fock.creation(units[k])
        ops.append(c.scale(I) + a)
    rep = Representation(g, fock.parities, ops,
                         meta={"fock": fock, "variant": variant})
    res = check_unitary_representation(g, rep)
    if not res.ok:
        raise SuperAlgebraError("spin representation failed verification: %r"
                                % res.violation)
    rep.meta["faithful"] = res.faithful
    return rep


def number_spectrum(rep):
    """Eigenvalue multiset of -i rho(d) for the extended spin algebra."""
    fock = rep.meta["fock"]
    op = rep.operators[1].scale(-I)
    for r in range(op.rows):
        for c in range(op.cols):
            if r != c and op.data[r][c]:
                raise SuperAlgebraError("number operator is not diagonal")
    out = {}
    for i in range(op.rows):
        v = op.data[i][i]
        if not isinstance(v, Fraction):
            raise SuperAlgebraError("number operator has a non-real eigenvalue")
        out[v] = out.get(v, 0) + 1
    return out


# ---------------------------------------------------------------------------
# the spin representation of the centrally extended tangent algebra
# ---------------------------------------------------------------------------

def _four_squares(n):
    """n = a^2+b^2+c^2+d^2 for a nonnegative integer, small search."""
    if n == 0:
        return []
    best = None
    a = isqrt(n)
    for x in range(a, 0, -1):
        r1 = n - x * x
        if r1 == 0:
            return [x]
        y = isqrt(r1)
        for yy in range(y, 0, -1):
            r2 = r1 - yy * yy
            if r2 == 0:
                cand = [x, yy]
                if best is None or len(cand) < len(best):
                    best = cand
                break
            z = isqrt(r2)
            for zz in range(z, 0, -1):
                r3 = r2 - zz * zz
                if r3 == 0:
                    cand = [x, yy, zz]
                    if best is None or len(cand) < len(best):
                        best = cand
                    break
                w = isqrt(r3)
                if w * w == r3:
                    cand = [x, yy, zz, w]
                    if best is None or len(cand) < len(best):
                        best = cand
                    break
    if best is None:
        raise ArithmeticError("four-square decomposition not found")
    return best


def _rational_squares(r):
    """Positive rational r as a list of nonzero rationals with sum of
    squares r."""
    num, den = r.numerator, r.denominator
    return [Fraction(x, den) for x in _four_squares(num * den)]


def _congruence_diagonalise(b):
    """P with P^T B P diagonal, for symmetric rational positive B."""
    n = b.rows
    s = [row[:] for row in b.data]
    p = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i in range(n)]
    for k in range(n):
        if not s[k][k]:
            raise SuperAlgebraError("expected a definite form")
        piv = s[k][k]
        for j in range(k + 1, n):
            f = s[k][j] / piv
            if not f:
                continue
            for i in range(n):
                s[i][j] -= f * s[i][k]
            for i in range(n):
                s[j][i] = s[i][j]
            for i in range(n):
                p[i][j] -= f * p[i][k]
    diag = [s[i][i] for i in range(n)]
    return Matrix(n, n, p), diag


def _matrix_inverse(m):
    n = m.rows
    from .exact import solve
    cols = []
    for j in range(n):
        e = vec_zero(n)
        e[j] = ONE
        res = solve(m, e)
        if res is None:
            raise SuperAlgebraError("singular matrix")
        cols.append(res[0])
    out = Matrix(n, n)
    for j, col in enumerate(cols):
        for i in range(n):
            out.data[i][j] = col[i]
    return out


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
    k = build_lie_algebra(kind, n)
    g = build_family("T_tilde", kind, n)
    d = k.dim
    gram, _ = killing_form(k)
    beta = -gram
    pmat, diag = _congruence_diagonalise(beta)
    for v in diag:
        if v <= 0:
            raise SuperAlgebraError("tangent form is not positive definite")
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
    if (1 << total) > FOCK_DIM_CAP:
        raise SuperAlgebraError(
            "Fock dimension 2^%d exceeds the exact-construction cap" % total)
    # u matrix: columns u_alpha in disjoint coordinate blocks
    u = Matrix(total, d)
    row = 0
    for alpha, bl in enumerate(blocks):
        for val in bl:
            u.data[row][alpha] = val
            row += 1
    pinv = _matrix_inverse(pmat)
    vmap = u @ pinv                       # v(y_i) = column i
    two_vtv = (vmap.transpose() @ vmap).scale(Fraction(2))
    if two_vtv != beta.scale(lam):
        raise SuperAlgebraError("embedding scale verification failed")
    fock = FockSpace(total)
    eye = Matrix.identity(fock.dim)
    beta_inv = _matrix_inverse(beta)
    ops = [eye.scale(Scalar(0, lam))]     # central generator
    for i in range(d):
        ad = k.adjoint_index(i)
        psi = (vmap @ ad @ beta_inv @ vmap.transpose()).scale(2 / lam)
        ops.append(fock.second_quantised(psi))
    for i in range(d):
        col = [vmap.data[r][i] for r in range(total)]
        ops.append(fock.creation(col) + fock.annihilation(col).scale(I))
    rep = Representation(g, fock.parities, ops,
                         meta={"fock": fock, "k": (kind, n), "scale": lam})
    res = check_unitary_representation(g, rep)
    if not res.ok:
        raise SuperAlgebraError(
            "tangent spin representation failed verification: %r" % res.violation)
    if not res.faithful:
        raise SuperAlgebraError("tangent spin representation is not faithful")
    rep.meta["faithful"] = True
    return rep


def defining_representation(alg):
    """The matrix realization of a constructor-built algebra, viewed as a
    representation on the graded column space."""
    real = alg.meta.get("realization")
    if real is None:
        raise SuperAlgebraError("algebra has no matrix realization")
    parities = [0] * real.p + [1] * real.q
    return Representation(alg, parities, list(real.mats))
