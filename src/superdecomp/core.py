"""Lie superalgebras as structure constants, and the combinators and
file format built on them.

A superalgebra is stored as a sparse structure-constant table over the
rationals for basis pairs i <= j only; the remaining brackets follow from
super skew symmetry [x,y] = -(-1)^{|x||y|}[y,x].  That rule is applied in
one place, SuperAlgebra.adjoint_table, the integer table of every ordered
pair that bracket and every other ordered reader use; readers of pairs
i <= j only read the table itself.  SuperAlgebra.bracket is the entry
point for dense vectors.  Basis order is canonical: even vectors first,
then odd.  algebra_in_basis writes every subalgebra and central quotient
in a basis of its own.

Graded spaces and subspaces live in spaces; the Jacobi check, the
center and centralizers, the Killing form and invariant forms in
invariants; matrix realizations in realize, extensions in extend,
bracket spans, ideals and module commutants in calculus.  Each is its
own module so that a command compiles only what it runs.

All values are immutable after construction; operations are pure.
"""

from fractions import Fraction
import functools
from math import lcm
import re
from types import MappingProxyType

from .exact import Echelon, LinSolver, _int_row, vec_unit, vec_zero
from .spaces import SuperAlgebraError, SuperSpace, Subspace


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


class AlgebraFileError(ValueError):
    """An algebra file that does not describe a well-formed table."""


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
        return vec_unit(self.dim, i)

    def subspace(self, vectors):
        return Subspace(self.dim, vectors)

    def full_subspace(self):
        return self.subspace([self.basis_vector(i) for i in range(self.dim)])

    def even_subspace(self):
        return self.subspace([self.basis_vector(i) for i in self.space.even_indices()])

    def odd_subspace(self):
        return self.subspace([self.basis_vector(i) for i in self.space.odd_indices()])


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
    rows = [_int_row(v) for v in vecs]
    solver = LinSolver([_int_row(v) for v in modulo] + rows, g.dim)
    nz = len(modulo)
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
    ad, _ = g.adjoint_table()
    if any(_bracket_rows(ad, x, {j: 1}) for x in z._rows() for j in range(g.dim)):
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
