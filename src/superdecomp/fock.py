"""Fermionic Fock machinery and spin representations, all exact.

The Fock space over n orthonormal generators is the exterior algebra.  A
wedge monomial e_i1 ^ ... ^ e_ik (i1 < ... < ik) is the int bitmask with
bits i1..ik set.  Creation a*(e_j) and annihilation a(e_j) each send a
monomial to one monomial, with the sign (-1)^(number of generators below
j in it); a*(f) is linear and a(f) antilinear in f.  Second-quantised even
operators dGamma(A) = sum A_kj a*(e_k) a(e_j) are written entry by entry
from those two signed moves.  Every Fock operator is a SparseOp, the
one complex matrix type (realize), which also holds the matrix
realizations of the families, so the defining representation of a
matrix family takes those matrices as they are, and every complex sum
and product here is taken on SparseOps.  A spin operator has at most
one entry per column, so it holds O(2^n) entries, not 4^n, and a
product of two costs O(2^n).  The spin representation of the centrally
extended tangent algebra, built on the FockSpace and Representation
here, is in tangentrep, which only `tangent-rep` loads.

Unitarity here always means the adjoint condition rho(X)* = -i^{|X|} rho(X)
with respect to the (identity-Gram) hermitian form: the factor is -1 on
even X and -i on odd X.  Each representation is verified exactly once,
when it is built, and is refused if the check fails.
"""

import json
from fractions import Fraction

from .exact import I, ZERO, MINUS_ONE, Echelon, vec_unit
from .spaces import SuperAlgebraError
from .families import FamilySpec, build
from .realize import SparseOp, _gaussian_ints, supercommutator

FOCK_DIM_CAP = 4096


def _require_fock_dim(n, bound=""):
    # 2^n > cap exactly when n >= cap.bit_length(); 1 << n would first
    # allocate n / 8 bytes for a huge n
    if n >= FOCK_DIM_CAP.bit_length():
        raise SuperAlgebraError(
            "Fock dimension %s2^%d exceeds the exact-construction cap" % (bound, n))


def _odd_below(mask, j):
    """1 when mask holds an odd number of generators below j, else 0."""
    return (mask & ((1 << j) - 1)).bit_count() & 1


class FockSpace:
    """Exterior algebra over n orthonormal generators.

    ``basis`` lists the monomial masks by parity of the size, then size,
    then the sorted index tuple; ``index`` maps a mask to its position.
    The Gram matrix is the identity by construction.
    """

    def __init__(self, n):
        self.n = n
        self.basis = sorted(range(1 << n), key=lambda m: (
            m.bit_count() % 2, m.bit_count(), [i for i in range(n) if m >> i & 1]))
        self.index = {m: i for i, m in enumerate(self.basis)}
        self.parities = [m.bit_count() % 2 for m in self.basis]

    @property
    def dim(self):
        return 1 << self.n

    def _ladder(self, f, create):
        """a*(f) when create, else a(f)."""
        if len(f) != self.n:
            raise ValueError("dimension mismatch")
        den, pairs = _gaussian_ints(f)
        terms = [(j, (a, b if create else -b))
                 for j, (a, b) in enumerate(pairs) if a or b]
        cols = []
        for mask in self.basis:
            col = {}
            for j, (a, b) in terms:
                # a*(e_j) needs j outside the monomial, a(e_j) inside it
                if bool(mask >> j & 1) != create:
                    col[self.index[mask ^ (1 << j)]] = \
                        (-a, -b) if _odd_below(mask, j) else (a, b)
            cols.append(col)
        return SparseOp(den, cols)

    def creation(self, f):
        """a*(f): wedge with f, linear in f."""
        return self._ladder(f, True)

    def annihilation(self, f):
        """a(f): signed contraction, antilinear in f."""
        return self._ladder(f, False)

    def second_quantised(self, a):
        """dGamma(a) = sum a_kj a*(e_k) a(e_j) for a one-particle operator,
        given as a list of rows."""
        if len(a) != self.n or any(len(row) != self.n for row in a):
            raise ValueError("one-particle operator must be n x n")
        den, pairs = _gaussian_ints([v for row in a for v in row])
        terms = [(pos // self.n, pos % self.n, e)
                 for pos, e in enumerate(pairs) if e[0] or e[1]]
        cols = []
        for mask in self.basis:
            col = {}
            for k, j, (x, y) in terms:
                if not mask >> j & 1:
                    continue
                rest = mask ^ (1 << j)
                if rest >> k & 1:
                    continue
                row = self.index[rest | (1 << k)]
                if _odd_below(mask, j) ^ _odd_below(rest, k):
                    x, y = -x, -y
                c, d = col.get(row, (0, 0))
                col[row] = (c + x, d + y)
            cols.append(col)
        return SparseOp(den, cols)


def check_car(n):
    """Both canonical anticommutation identities, exactly.

    Checked on every pair of generators, then a(i e_j) = -i a(e_j) and
    a*(i e_j) = i a*(e_j) for each j: with those, both identities hold on
    every pair of the real basis {e_j, i e_j}, and so, the ladders being
    real-linear, on every pair of vectors.  Returns None, or a dict
    describing the first violation.
    """
    fock = FockSpace(n)
    eye, zero = SparseOp.identity(fock.dim), SparseOp.zero(fock.dim)
    units = [vec_unit(n, k) for k in range(n)]
    ann = [fock.annihilation(e) for e in units]
    cre = [fock.creation(e) for e in units]
    for f, af in zip(units, ann):
        for g, ag, cg in zip(units, ann, cre):
            if not (af @ ag + ag @ af).is_zero():
                return {"identity": "a(f)a(g) + a(g)a(f) = 0", "pair": (f, g)}
            # the units are orthonormal: <g, f> is 1 when g is f, else 0
            if af @ cg + cg @ af != (eye if g is f else zero):
                return {"identity": "a(f)a(g)* + a(g)*a(f) = <g, f>", "pair": (f, g)}
    for k, (e, a, c) in enumerate(zip(units, ann, cre)):
        ie = [I if i == k else ZERO for i in range(n)]
        if fock.annihilation(ie) != a.scale(-I):
            return {"identity": "a(i f) = -i a(f)", "vector": e}
        if fock.creation(ie) != c.scale(I):
            return {"identity": "a*(i f) = i a*(f)", "vector": e}
    return None


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

class Representation:
    """Exact graded representation: one operator per algebra basis vector.

    The target carries parities and an identity Gram (wedge monomials of
    orthonormal generators stay orthonormal).  Operators must be
    SparseOps.
    """

    def __init__(self, algebra, space_parities, operators, meta=None):
        self.algebra = algebra
        self.space_parities = list(space_parities)
        self.operators = list(operators)
        self.meta = meta or {}
        dim = len(space_parities)
        for op in self.operators:
            if not isinstance(op, SparseOp):
                raise TypeError("operators must be SparseOps, not %s" % type(op).__name__)
            if op.dim != dim:
                raise ValueError("operators must be square of the space dimension")

    @property
    def space_dim(self):
        return len(self.space_parities)

    def json_chunks(self):
        """The JSON text of the representation with sorted keys and compact
        separators, newline-terminated, in chunks of at most one matrix
        row: one operator's dense rows and one row's text are held at a
        time, never the whole text.

        Each operator is written as its dense rows; entry (a + bi) / den
        as the decimal numerators and denominators of its real and
        imaginary parts in lowest terms.  The zero entries, nearly all of
        a spin operator's, share one string."""
        dim = self.space_dim
        zero = '["0","1","0","1"]'
        yield '{"gram":"identity","operators":['
        for k, op in enumerate(self.operators):
            rows = [[zero] * dim for _ in range(dim)]
            for j, col in enumerate(op.cols):
                for i, (a, b) in col.items():
                    re, im = Fraction(a, op.den), Fraction(b, op.den)
                    rows[i][j] = '["%d","%d","%d","%d"]' % (
                        re.numerator, re.denominator, im.numerator, im.denominator)
            yield '%s{"basis_id":%s,"matrix":[' % (
                "," if k else "", json.dumps(self.algebra.space.labels[k]))
            for i, row in enumerate(rows):
                yield '%s[%s]' % ("," if i else "", ",".join(row))
            yield "]}"
        yield '],"space":{"dim":"%d","parities":%s}}\n' % (
            dim, json.dumps(self.space_parities, separators=(",", ":")))


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
        factor = (MINUS_ONE, -I)[g.parity(i)]
        adj = op.conj_transpose()
        if adj != op.scale(factor):
            return RepCheck(False, False,
                            {"kind": "adjoint", "basis": i})
    # pairs i <= j suffice: the bracket of (j, i) is that of (i, j) up to the
    # super skew sign, and so is the supercommutator, so both have the same
    # verdict
    for i in range(n):
        for j in range(i, n):
            prod = supercommutator(ops[i], ops[j], g.parity(i), g.parity(j))
            want = SparseOp.zero(rep.space_dim)
            for k, v in g.table.get((i, j), {}).items():
                want = want + ops[k].scale(v)
            if prod != want:
                return RepCheck(False, False,
                                {"kind": "homomorphism", "pair": (i, j),
                                 "lhs": prod, "rhs": want})
    # faithfulness: the rank of the operators as real vectors, entry (i, j)
    # at coordinates 2 (i dim + j) and 2 (i dim + j) + 1
    dim = rep.space_dim
    ech = Echelon(2 * dim * dim)
    rank = 0
    for op in ops:
        if ech.add({2 * (i * dim + j) + part: x for j, col in enumerate(op.cols)
                    for i, e in col.items() for part, x in enumerate(e) if x}):
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
    # the Fock cap is far below the family cap, so it refuses a large n first
    _require_fock_dim(n)
    spec = FamilySpec(variant, (n,))
    g = build(spec)
    fock = FockSpace(n)
    ops = [SparseOp.identity(fock.dim).scale(I)]
    units = [vec_unit(n, k) for k in range(n)]
    if variant == "spin_h_hat":
        ops.append(fock.second_quantised(units).scale(I))
    ladders = [(fock.creation(e), fock.annihilation(e)) for e in units]
    ops += [c + a.scale(I) for c, a in ladders]
    ops += [c.scale(I) + a for c, a in ladders]
    rep = Representation(g, fock.parities, ops)
    res = check_unitary_representation(g, rep)
    if not res.ok:
        raise SuperAlgebraError("spin representation failed verification: %r"
                                % res.violation)
    rep.meta["faithful"] = res.faithful
    return rep


def number_spectrum(rep):
    """Eigenvalue multiset of -i rho(d) for the extended spin algebra."""
    op = rep.operators[1]
    out = {}
    for j, col in enumerate(op.cols):
        if col.keys() - {j}:
            raise SuperAlgebraError("number operator is not diagonal")
        a, b = col.get(j, (0, 0))
        # -i (a + b i) / den = (b - a i) / den
        if a:
            raise SuperAlgebraError("number operator has a non-real eigenvalue")
        v = Fraction(b, op.den)
        out[v] = out.get(v, 0) + 1
    return out


def defining_representation(alg):
    """The matrix realization of a constructor-built algebra, viewed as a
    representation on the graded column space."""
    real = alg.meta.get("realization")
    if real is None:
        raise SuperAlgebraError("algebra has no matrix realization")
    parities = [0] * real.p + [1] * real.q
    return Representation(alg, parities, real.mats)
