"""Graded vector spaces, Lie superalgebras as structure constants, and the
checks, centers and combinators built on them.

A superalgebra is stored as a sparse structure-constant table over the
rationals for basis pairs i <= j only; the remaining brackets follow from
super skew symmetry [x,y] = -(-1)^{|x||y|}[y,x].  That rule is applied in
one place, SuperAlgebra.adjoint_table, the integer table of every ordered
pair that bracket and every other ordered reader use; readers of pairs
i <= j only read the table itself.  A subspace is held as integer
echelon rows (intersections by Zassenhaus), and center and centralizer
bracket them through that table; SuperAlgebra.bracket is the entry
point for dense vectors.  Basis order is canonical:
even vectors first, then odd.  algebra_in_basis writes every subalgebra
and central quotient in a basis of its own.  Matrix realizations live in
realize, extensions in extend, bracket spans, ideals and module
commutants in calculus and invariant forms of the odd part in unitar, so
the checks here load none of them.

All values are immutable after construction; operations are pure.
"""

from fractions import Fraction
import functools
from math import lcm
import re
from types import MappingProxyType

from .exact import (
    Echelon, LinSolver, ZERO, ONE, _row_from_list, is_symmetric, kernel, vec_add,
    vec_sub, vec_zero,
)


# the entry of every vanishing bracket in adjoint tables; read-only because shared
_NO_TERMS = MappingProxyType({})


def per_algebra(fn):
    """Compute fn(g) at most once per algebra object.

    The value is stored in g._memo[fn], so it lives exactly as long as the
    algebra.  Sound only because nothing mutates an algebra's table, nor a
    value returned through here (a Subspace's basis, a Gram matrix, a
    witness): every caller gets the same object back.  The body is called
    through the wrapper's __wrapped__ attribute, so a test can count how
    often it runs.
    """
    @functools.wraps(fn)
    def once(g):
        memo = g._memo
        if fn not in memo:
            memo[fn] = once.__wrapped__(g)
        return memo[fn]
    return once


class SuperAlgebraError(Exception):
    pass


class AlgebraFileError(ValueError):
    """An algebra file that does not describe a well-formed table."""


class Violation:
    """First failing identity found by verify_superalgebra."""

    def __init__(self, kind, indices, lhs=None, rhs=None):
        self.kind = kind
        self.indices = indices
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self):
        return "Violation(%s, %s)" % (self.kind, self.indices)


class SuperSpace:
    """Ordered graded basis; even labels precede odd labels."""

    __slots__ = ("labels", "parities", "d0", "d1")

    def __init__(self, labels, parities):
        if len(labels) != len(set(labels)):
            raise SuperAlgebraError("labels must be unique")
        if len(labels) != len(parities):
            raise SuperAlgebraError("one parity per label required")
        seen_odd = False
        for p in parities:
            if p not in (0, 1):
                raise SuperAlgebraError("parity must be 0 or 1, not %r" % (p,))
            if p == 1:
                seen_odd = True
            elif seen_odd:
                raise SuperAlgebraError("even basis vectors must precede odd ones")
        self.labels = tuple(labels)
        self.parities = tuple(parities)
        self.d1 = sum(parities)
        self.d0 = len(parities) - self.d1

    @classmethod
    def make(cls, d0, d1):
        labels = ["e%d" % i for i in range(d0 + d1)]
        return cls(labels, [0] * d0 + [1] * d1)

    @property
    def dim(self):
        return self.d0 + self.d1

    def even_indices(self):
        return range(self.d0)

    def odd_indices(self):
        return range(self.d0, self.dim)


class Subspace:
    """Subspace of a SuperSpace in canonical reduced echelon basis."""

    __slots__ = ("ambient_dim", "basis", "_ech")

    def __init__(self, ambient_dim, vectors):
        self.ambient_dim = ambient_dim
        ech = Echelon(ambient_dim)
        for v in vectors:
            ech.add_list(v)
        self.basis = ech.basis_vectors()
        self._ech = ech

    @classmethod
    def _spanned(cls, ech):
        """The row space of an Echelon, which the subspace keeps."""
        sub = cls(ech.ncols, ())
        sub.basis, sub._ech = ech.basis_vectors(), ech
        return sub

    def _rows(self):
        """The echelon's pivot rows: coprime int dicts spanning the subspace."""
        return list(self._ech.pivots.values())

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, v):
        return self._ech.contains_list(v)

    def contains_subspace(self, other):
        return all(self.contains(v) for v in other.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def sum(self, other):
        return Subspace(self.ambient_dim, self.basis + other.basis)

    def intersection(self, other):
        """Zassenhaus on the int rows: (u | u) for u in U and (w | 0) for w
        in W span the pairs (u + w | u), and the echelon rows with pivot
        in the right half span those with u + w = 0, that is (0 | U meet W)."""
        n = self.ambient_dim
        ech = Echelon(2 * n)
        for u in self._rows():
            ech.add({**u, **{j + n: a for j, a in u.items()}})
        for w in other._rows():
            ech.add(w)
        out = Echelon(n)
        for c, row in ech.pivots.items():
            if c >= n:
                out.add({j - n: a for j, a in row.items()})
        return Subspace._spanned(out)

    def parity_components(self, parities):
        """(even part, odd part) of a graded subspace, as the projections of
        its basis.  The projections contain the subspace, so their dimensions
        add up to its own exactly when it is graded."""
        return tuple(Subspace(self.ambient_dim,
                              [[a if p == keep else ZERO for a, p in zip(v, parities)]
                               for v in self.basis])
                     for keep in (0, 1))

    def is_graded(self, parities):
        ev, od = self.parity_components(parities)
        return ev.dim + od.dim == self.dim

    def sort_key(self):
        """Orders entries by (numerator, denominator), not by value."""
        return (self.dim, tuple(tuple((a.numerator, a.denominator) for a in v)
                                for v in self.basis))


class SuperAlgebra:
    """Real Lie superalgebra given by rational structure constants.

    table maps (i, j) with 0 <= i <= j < dim to {k: Fraction}; missing pairs
    bracket to zero.  Structure constants must be rational; complex
    realizations live in the attached metadata, not in the table.
    """

    __slots__ = ("space", "table", "meta", "_memo")

    def __init__(self, space, table, meta=None):
        self.space = space
        n = space.dim
        clean = {}
        for (i, j), terms in table.items():
            if not 0 <= i <= j < n:
                raise SuperAlgebraError(
                    "bracket (%d, %d): store 0 <= i <= j < %d only" % (i, j, n))
            nonzero = {}
            for k, v in terms.items():
                if not 0 <= k < n:
                    raise SuperAlgebraError(
                        "bracket (%d, %d): basis index %d out of range" % (i, j, k))
                if not isinstance(v, Fraction):
                    raise SuperAlgebraError(
                        "structure constants must be Fractions, not %r" % (v,))
                if v:
                    nonzero[k] = v
            if nonzero:
                clean[(i, j)] = nonzero
        self.table = clean
        self.meta = meta or {}
        self._memo = {}

    @property
    def dim(self):
        return self.space.dim

    @property
    def d0(self):
        return self.space.d0

    @property
    def d1(self):
        return self.space.d1

    def parity(self, i):
        return self.space.parities[i]

    @per_algebra
    def adjoint_table(self):
        """(ad, den): ad[i][j] = {k: den * c_ij^k as int} for every ordered
        pair, den the lcm of the table's denominators.

        The one place where super skew symmetry fills in the pairs i > j:
        an odd-odd entry is shared with its mirror, every other is negated.
        """
        den = 1
        for terms in self.table.values():
            for v in terms.values():
                den = lcm(den, v.denominator)
        n = self.dim
        par = self.space.parities
        ad = [[_NO_TERMS] * n for _ in range(n)]
        for (i, j), terms in self.table.items():
            row = {k: v.numerator * (den // v.denominator) for k, v in terms.items()}
            ad[i][j] = row
            if i != j:
                ad[j][i] = row if par[i] and par[j] else {k: -a for k, a in row.items()}
        return ad, den

    def bracket(self, x, y):
        """[x, y] for dense coordinate vectors, as Fractions; the entry
        point of the dense vectors into the integer calculus."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise ValueError("dimension mismatch")
        ad, den = self.adjoint_table()
        (xr, xd), (yr, yd) = _int_row(x), _int_row(y)
        out = vec_zero(n)
        for k, v in _bracket_rows(ad, xr, yr).items():
            out[k] = Fraction(v, den * xd * yd)
        return out

    def basis_vector(self, i):
        v = vec_zero(self.dim)
        v[i] = ONE
        return v

    def subspace(self, vectors):
        return Subspace(self.dim, vectors)

    def full_subspace(self):
        return self.subspace([self.basis_vector(i) for i in range(self.dim)])

    def even_subspace(self):
        return self.subspace([self.basis_vector(i) for i in self.space.even_indices()])

    def odd_subspace(self):
        return self.subspace([self.basis_vector(i) for i in self.space.odd_indices()])


def _int_row(vec):
    """(row, d): d * vec as a sparse int row, d the lcm of its denominators."""
    row = _row_from_list(vec)
    d = lcm(*[a.denominator for a in row.values()])
    return {j: a.numerator * (d // a.denominator) for j, a in row.items()}, d


def _bracket_rows(ad, x, y):
    """den * [x, y] for sparse int rows {index: int}, through the integer
    adjoint table (ad, den); no zero entries."""
    acc = {}
    for i, xi in x.items():
        ad_i = ad[i]
        for j, yj in y.items():
            terms = ad_i[j]
            if terms:
                c = xi * yj
                for k, a in terms.items():
                    acc[k] = acc.get(k, 0) + c * a
    return {k: v for k, v in acc.items() if v}


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@per_algebra
def verify_superalgebra(g):
    """Exact check of parity closure, super skew symmetry and graded Jacobi.

    Returns None when everything holds, otherwise the first Violation with
    both sides of the failing identity.  Computed once per algebra, so a
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
                    lhs, rhs = _jacobi_sides(g, i, j, k)
                    return Violation("jacobi", (i, j, k), lhs, rhs)
    return None


def require_superalgebra(g):
    """Refuse g, naming its first Violation, unless it is a Lie superalgebra."""
    viol = verify_superalgebra(g)
    if viol is not None:
        raise SuperAlgebraError("input is not a Lie superalgebra: %r" % (viol,))


def _jacobi_sides(g, i, j, k):
    """[e_i,[e_j,e_k]] and [[e_i,e_j],e_k] + (-1)^{|i||j|}[e_j,[e_i,e_k]]."""
    e = g.basis_vector
    lhs = g.bracket(e(i), g.bracket(e(j), e(k)))
    rhs = g.bracket(g.bracket(e(i), e(j)), e(k))
    t2 = g.bracket(e(j), g.bracket(e(i), e(k)))
    if g.parity(i) and g.parity(j):
        return lhs, vec_sub(rhs, t2)
    return lhs, vec_add(rhs, t2)


# ---------------------------------------------------------------------------
# centers and the Killing form
# ---------------------------------------------------------------------------

@per_algebra
def center(g):
    """{x : [x, g] = 0}, exact kernel computation."""
    n = g.dim
    ad, _ = g.adjoint_table()
    # eqs[(j, k)][i] = [e_i, e_j]_k; the integer table scales every
    # equation by den, which the kernel ignores
    eqs = {}
    for j in range(n):
        for i in range(n):
            for k, a in ad[i][j].items():
                eqs.setdefault((j, k), {})[i] = a
    return Subspace(n, kernel(eqs.values(), n))


@per_algebra
def even_center_dim(g):
    """Dimension of the centralizer of g0 in g0."""
    return centralizer(g, g.even_subspace(), g.even_subspace()).dim


def centralizer(g, targets, inside):
    """{x in `inside` : [x, t] = 0 for all t in targets}.

    Both Subspaces are taken as int rows spanning them, which scales each
    equation and each unknown by a positive integer and leaves the
    solution space.
    """
    tv = targets._rows()
    us = inside._rows()
    ad, _ = g.adjoint_table()
    # eqs[(t, k)][a] = [u_a, t]_k over the coordinates each bracket touched
    eqs = {}
    for a, u in enumerate(us):
        for ti, t in enumerate(tv):
            for k, v in _bracket_rows(ad, u, t).items():
                eqs.setdefault((ti, k), {})[a] = v
    out = Echelon(g.dim)
    for combo in kernel(eqs.values(), len(us)):
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


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------

def direct_sum(g, h):
    """Blockwise direct sum with canonical even-first reordering.

    meta["embeddings"] holds the index maps of the two summands.
    """
    mg = {}
    mh = {}
    pos = 0
    for i in g.space.even_indices():
        mg[i] = pos
        pos += 1
    for i in h.space.even_indices():
        mh[i] = pos
        pos += 1
    for i in g.space.odd_indices():
        mg[i] = pos
        pos += 1
    for i in h.space.odd_indices():
        mh[i] = pos
        pos += 1
    space = SuperSpace.make(g.d0 + h.d0, g.d1 + h.d1)
    table = {}
    # both index maps are increasing, so a stored pair i <= j stays ordered
    for alg, m in ((g, mg), (h, mh)):
        for (i, j), terms in alg.table.items():
            table[(m[i], m[j])] = {m[k]: v for k, v in terms.items()}
    return SuperAlgebra(space, table, meta={"embeddings": (mg, mh)})


def algebra_in_basis(g, vecs, modulo=()):
    """The algebra on span(vecs) modulo span(modulo), written in the basis
    vecs: its table holds the coordinates of [vecs[a], vecs[b]] along vecs
    once the part in span(modulo) is dropped.

    The vectors are homogeneous, even ones first, and independent of each
    other and of modulo; a bracket outside span(modulo + vecs) raises.
    Each pair is bracketed on int rows through the adjoint table, and
    only nonzero products are solved for.
    """
    solver = LinSolver(list(modulo) + list(vecs), g.dim)
    nz = len(modulo)
    rows = [_int_row(v) for v in vecs]
    space = SuperSpace(["e%d" % a for a in range(len(vecs))],
                       [g.parity(min(x)) for x, _ in rows])
    ad, den = g.adjoint_table()
    table = {}
    for a, (x, xd) in enumerate(rows):
        for b in range(a, len(rows)):
            y, yd = rows[b]
            w = _bracket_rows(ad, x, y)
            if not w:
                continue
            coords = solver.row_coords(w, den * xd * yd)
            if coords is None:
                raise SuperAlgebraError("subspace is not bracket closed")
            table[(a, b)] = {c: v for c, v in enumerate(coords[nz:]) if v}
    return SuperAlgebra(space, table)


def quotient_by_central(g, z):
    """g / z for a graded central subspace z, written in the basis vectors
    of g that extend a basis of z; returns (quotient, their indices)."""
    if not center(g).contains_subspace(z):
        raise SuperAlgebraError("subspace is not central")
    if not z.is_graded(g.space.parities):
        raise SuperAlgebraError("central subspace must be parity homogeneous")
    ech = Echelon(g.dim)
    ech.extend(z.basis)
    kept = ech.extend([g.basis_vector(i) for i in range(g.dim)])
    return algebra_in_basis(g, [g.basis_vector(i) for i in kept], z.basis), kept


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def algebra_to_json_dict(g, name):
    basis = [{"id": g.space.labels[i], "parity": g.parity(i)}
             for i in range(g.dim)]
    brackets = []
    for (i, j) in sorted(g.table):
        terms = [{"k": str(k), "num": str(v.numerator), "den": str(v.denominator)}
                 for k, v in sorted(g.table[(i, j)].items())]
        brackets.append({"i": str(i), "j": str(j), "terms": terms})
    return {"name": name, "basis": basis, "brackets": brackets}


_DECIMAL = re.compile(r"-?[0-9]+")


def _file_int(x):
    """A JSON integer (not a boolean) or a decimal string, as an int."""
    if type(x) is int:
        return x
    if isinstance(x, str) and _DECIMAL.fullmatch(x):
        return int(x)
    raise AlgebraFileError("expected an integer or a decimal string, not %r" % (x,))


def _file_list(obj, key):
    """obj[key], which must be a JSON list."""
    val = obj[key]
    if type(val) is not list:
        raise AlgebraFileError("%s must be a list, not %s" % (key, type(val).__name__))
    return val


def algebra_from_json_dict(obj):
    """Parse the JSON file format; AlgebraFileError on any malformed table.

    Beyond what SuperSpace and SuperAlgebra check, basis, brackets and
    each bracket's terms must be JSON lists, a name and every basis id
    must be strings, every integer field must be a JSON integer or a
    decimal string, and a file must not repeat a bracket pair or a basis
    index within one bracket, nor give a zero denominator.
    """
    try:
        basis = _file_list(obj, "basis")
        if type(obj.get("name", "")) is not str:
            raise AlgebraFileError("name must be a string, not %s"
                                   % type(obj["name"]).__name__)
        labels = [b["id"] for b in basis]
        for label in labels:
            if type(label) is not str:
                raise AlgebraFileError("basis id must be a string, not %s"
                                       % type(label).__name__)
        parities = [_file_int(b["parity"]) for b in basis]
        space = SuperSpace(labels, parities)
        table = {}
        for ent in _file_list(obj, "brackets"):
            i, j = _file_int(ent["i"]), _file_int(ent["j"])
            if (i, j) in table:
                raise AlgebraFileError("bracket (%d, %d) listed twice" % (i, j))
            terms = {}
            for t in _file_list(ent, "terms"):
                k = _file_int(t["k"])
                if k in terms:
                    raise AlgebraFileError(
                        "bracket (%d, %d) lists basis index %d twice" % (i, j, k))
                den = _file_int(t["den"])
                if den == 0:
                    raise AlgebraFileError("bracket (%d, %d): zero denominator" % (i, j))
                terms[k] = Fraction(_file_int(t["num"]), den)
            table[(i, j)] = terms
        return SuperAlgebra(space, table)
    except (SuperAlgebraError, TypeError) as exc:
        raise AlgebraFileError(str(exc)) from exc


def tables_equal(g, h):
    """Structure-constant identity on aligned bases."""
    if g.dim != h.dim or g.space.parities != h.space.parities:
        return False
    keys = set(g.table) | set(h.table)
    for key in keys:
        if g.table.get(key, {}) != h.table.get(key, {}):
            return False
    return True
