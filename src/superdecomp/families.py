"""Constructors for the named compact Lie superalgebra families.

Matrix families (u, su, psu, q, pq, qhat, c, gl) are built from explicit
anti-hermitian block realizations: each basis matrix is written as its
Gaussian rational entries {(i, j): value} (the building blocks, among
them the bases of u(n), su(n), so(n) and sp(n), are in realize), made a
SparseOp, and the span is turned into structure constants by
from_matrix_span, which reads each matrix's parity off its blocks; the
coordinate map back to the matrices is kept in meta["realization"].  Abstract families (spin_h, ch) are
written down directly; the tangent algebras and spin_h_hat are built in
extend.  Each family tag is one row of _FAMILIES, which FamilySpec,
family_name, expected_dims and build read.

Conventions fixed here:
  * u(p|q):  even = antihermitian diagonal blocks, odd = [[0, B], [iB*, 0]].
  * q(n):    pairs [[a, b], [b, a]] with a* = -a and b in (1-i) su(n+1);
             qhat(n) drops the trace condition on b.
  * c(n):    osp(2|2n-2) for the form (identity on the even 2-block,
             standard symplectic J on the odd block) intersected with
             u(2|2n-2); the compact-form property is certified after the
             fact by the even-part checks, not assumed.
  * compact simple k: su(n) traceless antihermitian, so(n) real
    antisymmetric, sp(n) quaternionic antihermitian as 2n x 2n complex.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .exact import Scalar, ONE, MINUS_ONE, I, vec_zero
from .spaces import SuperAlgebraError, SuperSpace
from .core import SuperAlgebra, quotient_by_central
from .extend import build_tangent_from_algebra, semidirect_by_derivation
from .realize import (
    SparseOp, _shift, _span, _u_odd_blocks, from_matrix_span, simple_matrix_basis,
    sp_matrix_basis, su_matrix_basis, u_matrix_basis,
)

K_TAGS = ("su", "so", "sp")
# the largest d0 + d1 a FamilySpec admits: `construct` checks gl(8|8), of
# dimension 512, in 16 s CPU and 47 MiB on a 2-core x86-64 machine, and its
# cost grows as dim^2.6
FAMILY_DIM_CAP = 512
# the arity of the tangent families: a (su|so|sp, n) pair, not integers
K_PAIR = "k"


class FamilySpec:
    """Validated family tag plus integer / k-tag parameters."""

    def __init__(self, tag, params):
        if tag not in _FAMILIES:
            raise ValueError("unknown family tag %r; the tags are %s"
                             % (tag, ", ".join(_FAMILIES)))
        self.tag = tag
        self.params = params = tuple(params)
        family = _FAMILIES[tag]
        if family.arity == K_PAIR:
            if len(params) != 2 or params[0] not in K_TAGS or not isinstance(params[1], int):
                raise ValueError("tangent families need a (su|so|sp, n) parameter pair")
        elif len(params) != family.arity or not all(isinstance(p, int) for p in params):
            raise ValueError("family %s needs %d integer parameter(s)" % (tag, family.arity))
        if not family.valid(*params):
            raise ValueError(family.error.format(*params))
        dim = sum(family.dims(*params))
        if dim > FAMILY_DIM_CAP:
            raise ValueError("%s has dimension %d, above the family dimension cap of %d"
                             % (self.name(), dim, FAMILY_DIM_CAP))

    def name(self):
        return family_name(self.tag, self.params)


def family_name(tag, params):
    return _FAMILIES[tag].name.format(*params)


def expected_dims(tag, params):
    """Closed-form (d0, d1) contract for each family."""
    return _FAMILIES[tag].dims(*params)


def simple_dim(kind, n):
    """dim k for the compact simple k = (kind, n); ValueError for a kind
    outside K_TAGS, so a caller may ask before FamilySpec checks k."""
    if kind not in K_TAGS:
        raise ValueError("unknown compact simple tag %r" % (kind,))
    return {"su": n * n - 1, "so": n * (n - 1) // 2, "sp": n * (2 * n + 1)}[kind]


# ---------------------------------------------------------------------------
# family constructors
# ---------------------------------------------------------------------------

def build_gl(p, q):
    corners = ([(j, k) for j in range(p) for k in range(p)]
               + [(p + j, p + k) for j in range(q) for k in range(q)]
               + [(j, p + k) for j in range(p) for k in range(q)]
               + [(p + j, k) for j in range(q) for k in range(p)])
    return _span(p + q, p, [{jk: v} for jk in corners for v in (ONE, I)])


def build_u(p, q):
    mats = u_matrix_basis(p) + [_shift(d, p, p) for d in u_matrix_basis(q)]
    return _span(p + q, p, mats + _u_odd_blocks(p, q))


def build_su(n, m):
    mats = su_matrix_basis(n) + [_shift(d, n, n) for d in su_matrix_basis(m)]
    z = {(j, j): Scalar(0, m) for j in range(n)}
    z.update({(n + j, n + j): Scalar(0, n) for j in range(m)})
    return _span(n + m, n, mats + [z] + _u_odd_blocks(n, m))


def build_psu(n):
    g = build(FamilySpec("su", (n, n)))
    # the supertraceless diagonal generator is the last even basis vector
    # and spans the center R i1 of su(n|n)
    zvec = g.basis_vector(g.d0 - 1)
    quo, kept = quotient_by_central(g, g.subspace([zvec]))
    quo.meta["extension_of"] = (g, kept)
    return quo


def build_q(n, traceless):
    """q(n), or qhat(n) when not traceless."""
    N = n + 1
    mats = [SparseOp.from_entries(2 * N, {**a, **_shift(a, N, N)})
            for a in u_matrix_basis(N)]
    for b in su_matrix_basis(N) if traceless else u_matrix_basis(N):
        odd = SparseOp.from_entries(2 * N, {**_shift(b, 0, N), **_shift(b, N, 0)})
        mats.append(odd.scale(Scalar(1, -1)))
    return from_matrix_span(mats, N)[0]


def build_pq(n):
    g = build(FamilySpec("q", (n,)))
    # i1 = sum of the first n+1 even generators (the iE_jj diagonal ones)
    zvec = vec_zero(g.dim)
    for j in range(n + 1):
        zvec[j] = ONE
    quo, kept = quotient_by_central(g, g.subspace([zvec]))
    quo.meta["extension_of"] = (g, kept)
    return quo


def build_c(n):
    """Compact real form of osp(2|2n-2) for the Gram pair (I_2, J).

    Even part: so(2, R) plus compact sp(n-1).  The odd part of the complex
    osp is parametrised by B with lower block C = -J B^T; the naive
    intersection with the standard u(2|2n-2) is empty (the conditions
    C = -J B^T and C = iB* force B = 0 since the combined antilinear map
    squares to -1), so the compact form is cut out by the quaternionic
    involution instead: B = -J_2 conj(B) J_{2m}, which squares to +1 and
    commutes with the even action.  Correctness is certified after the
    fact: bracket closure is verified exactly, and the dimension, center
    and Killing checks pin the isomorphism type.

    The involution's fixed space has a basis in closed form, with m = n - 1:
    for each column c of B (ascending) and v in {1, i}, the entry B[1][c] = v
    and the entry it forces, B[0][(c + m) mod 2m] = -conj(v) for c < m and
    conj(v) otherwise; every other entry of B is zero.
    """
    m = n - 1
    mats = [{(0, 1): ONE, (1, 0): MINUS_ONE}]
    mats += [_shift(d, 2, 2) for d in sp_matrix_basis(m)]
    for c in range(2 * m):
        for v in (ONE, I):
            b = {(1, c): v, (0, (c + m) % (2 * m)): -v.conjugate() if c < m else v.conjugate()}
            odd = _shift(b, 0, 2)
            # lower block C = -J B^T; column k of J is -e_{k+m} for k < m,
            # else e_{k-m}, so B[r][k] lands at C[(k + m) mod 2m][r]
            for (r, k), x in b.items():
                odd[(2 + (k + m) % (2 * m), r)] = -x if k >= m else x
            mats.append(odd)
    return _span(2 + 2 * m, 2, mats)


def build_lie_algebra(kind, n):
    """Compact simple k as a purely even structure-constant algebra."""
    mats, size = simple_matrix_basis(kind, n)
    return _span(size, size, mats)


def build_spin_h(v):
    """Real Clifford-Heisenberg form: [X_j, X_j] = [Y_j, Y_j] = 2Z, Z central."""
    space = SuperSpace.make(1, 2 * v)
    table = {}
    two = Fraction(2)
    for j in range(v):
        table[(1 + j, 1 + j)] = {0: two}               # X_j
        table[(1 + v + j, 1 + v + j)] = {0: two}       # Y_j
    return SuperAlgebra(space, table)


def build_spin_h_hat(v):
    h = build_spin_h(v)
    n = h.dim
    dmat = [vec_zero(n) for _ in range(n)]
    for j in range(v):
        dmat[1 + v + j][1 + j] = ONE                   # D X_j = Y_j
        dmat[1 + j][1 + v + j] = MINUS_ONE             # D Y_j = -X_j
    return semidirect_by_derivation(h, dmat, parity=0)


def build_ch(v):
    """Complex Clifford-Heisenberg algebra realified, (e, ie) convention.

    Even: z, iz.  Odd: e_k, ie_k (the V side) then f_k, if_k (the dual side).
    """
    space = SuperSpace.make(2, 4 * v)
    table = {}
    for k in range(v):
        e_re = 2 + 2 * k
        e_im = 2 + 2 * k + 1
        f_re = 2 + 2 * v + 2 * k
        f_im = 2 + 2 * v + 2 * k + 1
        table[(e_re, f_re)] = {0: ONE}
        table[(e_re, f_im)] = {1: ONE}
        table[(e_im, f_re)] = {1: ONE}
        table[(e_im, f_im)] = {0: MINUS_ONE}
    return SuperAlgebra(space, table)


def build_ch_indefinite(r, s):
    """One-dimensional even center, odd form of signature (r, s)."""
    space = SuperSpace.make(1, r + s)
    table = {}
    for j in range(r):
        table[(1 + j, 1 + j)] = {0: ONE}
    for j in range(s):
        table[(1 + r + j, 1 + r + j)] = {0: MINUS_ONE}
    return SuperAlgebra(space, table)


# One row per family tag, in the order the unknown-tag error lists them:
# the arity (a count of integers, or K_PAIR), the parameter check and its
# error message, the name format, the (d0, d1) contract and the builder.
# The check, contract and builder take the parameters as arguments; the
# message and the name are formatted with them.
_Family = namedtuple("_Family", "arity valid error name dims build")


def _tangent(name, dims, variant):
    """The row of a tangent family over the compact simple k = (kind, n),
    whose contract is dims(dim k)."""
    return _Family(
        K_PAIR,
        lambda kind, n: n >= {"su": 2, "so": 3, "sp": 1}[kind] and (kind, n) != ("so", 4),
        "{}({:d}) is not a compact simple Lie algebra", name + "({}{:d})",
        lambda kind, n: dims(simple_dim(kind, n)),
        lambda kind, n: build_tangent_from_algebra(build_lie_algebra(kind, n), variant))


_FAMILIES = {
    "gl": _Family(2, lambda p, q: p >= 1 and q >= 1, "gl(p|q) needs p, q >= 1",
                  "gl({:d}|{:d})", lambda p, q: (2 * (p * p + q * q), 4 * p * q), build_gl),
    "u": _Family(2, lambda p, q: p >= 1 and q >= 1, "u(p|q) needs p, q >= 1",
                 "u({:d}|{:d})", lambda p, q: (p * p + q * q, 2 * p * q), build_u),
    "su": _Family(2, lambda n, m: n >= m >= 1, "su(n|m) needs n >= m >= 1",
                  "su({:d}|{:d})", lambda n, m: (n * n + m * m - 1, 2 * n * m), build_su),
    "psu": _Family(1, lambda n: n >= 2, "psu(n|n) needs n >= 2",
                   "psu({0:d}|{0:d})", lambda n: (2 * n * n - 2, 2 * n * n), build_psu),
    "q": _Family(1, lambda n: n >= 1, "q(n) needs n >= 1",
                 "q({:d})", lambda n: ((n + 1) ** 2, (n + 1) ** 2 - 1),
                 lambda n: build_q(n, traceless=True)),
    "pq": _Family(1, lambda n: n >= 1, "pq(n) needs n >= 1",
                  "pq({:d})", lambda n: ((n + 1) ** 2 - 1, (n + 1) ** 2 - 1), build_pq),
    "q_hat": _Family(1, lambda n: n >= 1, "q_hat(n) needs n >= 1",
                     "qhat({:d})", lambda n: ((n + 1) ** 2, (n + 1) ** 2),
                     lambda n: build_q(n, traceless=False)),
    "c": _Family(1, lambda n: n >= 2, "c(n) needs n >= 2",
                 "c({:d})", lambda n: (1 + (n - 1) * (2 * n - 1), 4 * (n - 1)), build_c),
    "ch": _Family(1, lambda v: v >= 1, "ch needs dim V >= 1",
                  "ch({:d})", lambda v: (2, 4 * v), build_ch),
    "spin_h": _Family(1, lambda v: v >= 1, "spin_h needs dim V >= 1",
                      "spin_h({:d})", lambda v: (1, 2 * v), build_spin_h),
    "spin_h_hat": _Family(1, lambda v: v >= 1, "spin_h_hat needs dim V >= 1",
                          "spin_h_hat({:d})", lambda v: (2, 2 * v), build_spin_h_hat),
    "T": _tangent("T", lambda d: (d, d), "T"),
    "T_hat": _tangent("That", lambda d: (d, d + 1), "T_hat"),
    "T_tilde": _tangent("Ttilde", lambda d: (d + 1, d), "T_tilde"),
    "ch_indefinite": _Family(2, lambda r, s: r >= 1 and s >= 1,
                             "indefinite signature needs r, s >= 1", "ch_indef({:d},{:d})",
                             lambda r, s: (1, r + s), build_ch_indefinite),
}


@lru_cache(maxsize=None)
def _build_cached(tag, params):
    family = _FAMILIES[tag]
    alg = family.build(*params)
    d0, d1 = family.dims(*params)
    if (alg.d0, alg.d1) != (d0, d1):
        raise SuperAlgebraError(
            "dimension contract violated for %s: got (%d|%d), expected (%d|%d)"
            % (family_name(tag, params), alg.d0, alg.d1, d0, d1))
    return alg


def build(spec):
    """Build a family member from a FamilySpec."""
    if not isinstance(spec, FamilySpec):
        raise TypeError("build expects a FamilySpec")
    return _build_cached(spec.tag, spec.params)


def build_family(tag, *params):
    return build(FamilySpec(tag, params))


# ---------------------------------------------------------------------------
# the square identity of the u-families
# ---------------------------------------------------------------------------

def prove_square_identity(alg):
    """Prove [X, X] = 2 X^2 = 2i X^* X != 0 for every nonzero odd X.

    Needs a matrix realization (the u-families and their subfamilies).
    Checks X^* = -iX on each odd basis matrix.  That is real-linear in X,
    so it then holds for every odd X; so X = iX^*, 2 X^2 = 2i X^* X, and
    that is nonzero for X != 0 because tr X^* X > 0.  [X, X] = 2 X^2
    follows by bilinearity from the basis brackets, which from_matrix_span
    read off the matrices.  Raises SuperAlgebraError naming the first odd
    basis index that fails.
    """
    real = alg.meta.get("realization")
    if real is None:
        raise SuperAlgebraError("algebra has no matrix realization")
    for i in alg.space.odd_indices():
        m = real.mats[i]
        if m.conj_transpose() != m.scale(-I):
            raise SuperAlgebraError("odd basis matrix %d violates X^* = -iX" % i)
