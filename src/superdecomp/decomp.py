"""Decomposition of reductive Lie superalgebras into ideals.

Pipeline: split off an even complement so the rest is generated by its odd
part; compute the subspace of odd vectors commuting with the (core) even
part; decompose the complementary odd module into simple summands by exact
commutant splitting; classify summands into the self-interacting family
(paired, ideals g(j)) and the residue family (ideals c(k) built with the
commuting odd vectors); verify every side relation on the way and emit a
report whose summation map back into the algebra has certified central
kernel.

Brackets are taken in the coordinates of the input algebra: the
odd-generated core is an ideal, so all of them can be taken upstairs.
Each ideal, its central quotient and the tangent algebra it is compared
with are written in their own basis by core.algebra_in_basis.
The module splitter works in each piece's own coordinates, on actions
held as integer columns (calculus.even_actions states the contract) and
commutant elements held as lists of dense columns; every kernel and
solve, there and in the other subspaces (complements, intersections, the
summation kernel), is read off integer echelon rows.
All verdicts are exact; a splitting search that hits its iteration cap
raises InconclusiveSplit rather than guessing.
"""

from fractions import Fraction
from math import lcm

from .exact import (
    Echelon, LinSolver, ZERO, ONE,
    _lin_comb, _row_from_list, kernel, solve, vec_is_zero, vec_zero,
)
from .poly import char_poly_and_rational_split, peval_matrix, pmul
from .core import (
    Subspace, SuperAlgebraError, _bracket_rows, _int_row, algebra_in_basis, center,
    centralizer, quotient_by_central, require_superalgebra, tables_equal,
)
from .calculus import bracket_span, is_ideal, is_perfect, module_commutant
from . import classify

SPLIT_CAP = 64


class DecompositionError(SuperAlgebraError):
    def __init__(self, message, evidence=None):
        super().__init__(message)
        self.evidence = evidence


class InconclusiveSplit(DecompositionError):
    def __init__(self):
        super().__init__("module splitting inconclusive after iteration cap")


# ---------------------------------------------------------------------------
# reduction to the odd-generated core
# ---------------------------------------------------------------------------

class Reduction:
    """g = core + complement with the complement commuting with [g1, g1]."""

    def __init__(self, core_even, core, complement):
        self.core_even = core_even      # [g1, g1]
        self.core = core                # [g1, g1] + g1, an ideal
        self.complement = complement    # even subalgebra, [c, core_even] = 0


def reduce_to_odd_generated(g):
    """Split g into the ideal generated by the odd part and an even
    complement commuting with [g1, g1]; raises when no such complement
    exists (the input is then outside the pipeline's scope)."""
    g1 = g.odd_subspace()
    h0 = bracket_span(g, g1, g1)
    core = h0.sum(g1)
    if h0.dim == g.d0:
        return Reduction(h0, core, g.subspace([]))
    z = centralizer(g, h0, g.even_subspace())
    ech = Echelon(g.dim)
    ech.extend(h0.basis)
    cand = bracket_span(g, z, z).basis + z.basis
    comp = Subspace(g.dim, [cand[i] for i in ech.extend(cand)])
    if comp.dim + h0.dim != g.d0:
        raise DecompositionError(
            "no even complement commuting with [g1, g1] was found",
            evidence={"h0_dim": h0.dim, "centralizer_dim": z.dim})
    for u in comp.basis:
        for w in comp.basis:
            if not comp.contains(g.bracket(u, w)):
                raise DecompositionError(
                    "even complement is not a subalgebra", evidence=(u, w))
    return Reduction(h0, core, comp)


# ---------------------------------------------------------------------------
# simple-module splitting (exact commutant MeatAxe)
# ---------------------------------------------------------------------------

def _columns(images, solver):
    """Integer columns, in the coordinates of solver's basis, of the map
    that sends basis vector j to images[j], scaled by the lcm of their
    denominators; raises when an image leaves the span."""
    cols = []
    for w in images:
        coords = solver.coords(w)
        if coords is None:
            raise DecompositionError("subspace is not invariant")
        cols.append([(i, c) for i, c in enumerate(coords) if c])
    den = lcm(*[c.denominator for col in cols for _, c in col])
    return [[(i, c.numerator * (den // c.denominator)) for i, c in col] for col in cols]


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


def module_actions(g, elements, basis_vecs):
    """Actions on span(basis_vecs), as integer columns, of the Lie generators
    among elements: they have the invariant subspaces and commutant of all."""
    solver = LinSolver(basis_vecs, g.dim)
    return [_columns([g.bracket(x, v) for v in basis_vecs], solver)
            for x in lie_generators(g, elements)]


def _apply(cols, v):
    """m v for a square m in column form."""
    out = [ZERO] * len(cols)
    for j, x in enumerate(v):
        if x:
            for i, a in cols[j]:
                out[i] = out[i] + a * x
    return out


def spin_up(actions, v, dim):
    """Smallest invariant subspace containing v, for actions as integer
    columns; runs on int rows."""
    ech = Echelon(dim)
    rows = [_int_row(v)[0]]
    idx = 0
    while idx < len(rows):
        w = rows[idx]
        idx += 1
        if not ech.add(w):
            continue
        for cols in actions:
            u = {}
            for j, x in w.items():
                for i, a in cols[j]:
                    u[i] = u.get(i, 0) + a * x
            rows.append({i: a for i, a in u.items() if a})
    return Subspace._spanned(ech)


def _lift(basis, vecs):
    return [_lin_comb(v, basis, len(basis[0])) for v in vecs]


def _kernel_of(cols):
    """ker m for a square m given by its dense columns, read off its rows."""
    n = len(cols)
    return kernel([{s: col[r] for s, col in enumerate(cols) if col[r]}
                   for r in range(n)], n)


def _invariant_complement(comm, wbasis, dim):
    """Invariant complement of an invariant subspace W = span(wbasis), or
    None when there is none (the module is then not semisimple).

    comm is a basis of the module's commutant, each element a list of
    columns.  The complement is ker T for T = sum c_i comm[i] with T w = w
    on W and T(M) inside W; such a T is an equivariant projection onto W,
    and one exists exactly when W has an invariant complement.  T(M)
    inside W reads phi T = 0 for every phi in the annihilator of W; phi C
    is phi's combination of the rows of C.
    """
    ann = kernel([_row_from_list(w) for w in wbasis], dim)
    blocks = [([_lin_comb(w, c, dim) for c in comm], w) for w in wbasis]
    blocks += [([_lin_comb(phi, zip(*c), dim) for c in comm], vec_zero(dim))
               for phi in ann]
    rows, rhs = [], []
    for images, target in blocks:
        for r in range(dim):
            rows.append({i: img[r] for i, img in enumerate(images) if img[r]})
            rhs.append(target[r])
    x = solve(rows, rhs, len(comm))
    if x is None:
        return None
    return _kernel_of([_lin_comb(x, [c[s] for c in comm], dim) for s in range(dim)])


def _unit(dim, i):
    v = vec_zero(dim)
    v[i] = ONE
    return v


class SplitBudget:
    def __init__(self, cap):
        self.left = cap


def split_module(actions, dim):
    """Decompose a semisimple module into pieces, exactly.

    The actions are integer columns.  Returns a list of (basis,
    certificate) pairs; the bases are lists of coordinate vectors.  A piece
    is split by an element of its commutant basis (a coprime factorisation
    of the characteristic polynomial, or the kernel of a zero divisor) or
    by a unit vector whose spin-up is proper.  A piece that none of these
    split is returned with its commutant dimension as its certificate,
    {"commutant_dim": n}.  That proves the piece simple only when the
    commutant dimension is 1: once a simple module occurs with multiplicity
    2 or more, every vector may spin up to the whole piece while the
    commutant basis yields no split.  More than SPLIT_CAP commutant
    elements tried in all raises InconclusiveSplit.
    """
    return _split_rec(actions, dim, SplitBudget(SPLIT_CAP))


def _split_rec(actions, dim, budget):
    if dim == 0:
        return []
    comm = module_commutant(actions, dim)
    parts = _split_parts(actions, dim, budget, comm)
    if parts is None:
        return [([_unit(dim, i) for i in range(dim)], {"commutant_dim": len(comm)})]
    # each part is split in its own coordinates, under the actions
    # restricted to it, and its pieces are lifted back to these
    out = []
    for basis in parts:
        solver = LinSolver(basis, dim)
        sub = [_columns([_apply(cols, v) for v in basis], solver) for cols in actions]
        out.extend((_lift(basis, vecs), cert)
                   for vecs, cert in _split_rec(sub, len(basis), budget))
    return out


def _split_parts(actions, dim, budget, comm):
    """Bases of invariant subspaces whose direct sum is the module: the
    primary kernels of a commutant element, or W and an invariant
    complement of it.  None when neither the commutant basis nor spin-up
    from a unit vector splits the module."""
    for theta in comm:
        if budget.left <= 0:
            raise InconclusiveSplit()
        budget.left -= 1
        _, factors, _ = char_poly_and_rational_split(theta)
        pieces = []
        for f, e in factors:
            p = [Fraction(1)]
            for _ in range(e):
                p = pmul(p, f)
            pieces.append(p)
        if len(pieces) < 2:
            # a singular commutant element is a zero divisor: its kernel is
            # a proper invariant subspace even without a coprime factor split
            ker = _kernel_of(theta)
            if 0 < len(ker) < dim:
                return _with_complement(comm, ker, dim)
            continue
        parts = [_kernel_of(peval_matrix(p, theta)) for p in pieces]
        if sum(map(len, parts)) != dim:
            raise DecompositionError("primary decomposition dimensions do not add up")
        return parts
    for i in range(dim):
        w = spin_up(actions, _unit(dim, i), dim)
        if w.dim < dim:
            return _with_complement(comm, w.basis, dim)
    return None


def _with_complement(comm, wbasis, dim):
    comp = _invariant_complement(comm, wbasis, dim)
    if comp is None:
        raise DecompositionError("module is not semisimple",
                                 evidence={"invariant_dim": len(wbasis)})
    return [wbasis, comp]


# ---------------------------------------------------------------------------
# the odd-module decomposition
# ---------------------------------------------------------------------------

class ModuleDecomposition:
    def __init__(self, b, a, summands, certificates):
        self.b = b
        self.a = a
        self.summands = summands          # list of Subspace, canonical order
        self.certificates = certificates


def decompose_odd(g, core_even):
    """b + simple summands of the complementary odd module.

    core_even must be the generating even part; the complement a of b is
    computed as [even, odd] and the direct-sum check against b doubles as
    a semisimplicity test.
    """
    b = centralizer(g, core_even, g.odd_subspace())
    g1 = g.odd_subspace()
    a = bracket_span(g, core_even, g1)
    if b.intersection(a).dim != 0 or b.sum(a).dim != g1.dim:
        raise DecompositionError(
            "odd part is not the direct sum of b and [g0, g1]; module not semisimple",
            evidence={"b_dim": b.dim, "a_dim": a.dim, "d1": g1.dim})
    if a.dim == 0:
        return ModuleDecomposition(b, a, [], [])
    actions = module_actions(g, core_even.basis, a.basis)
    parts = split_module(actions, a.dim)
    summands = [(Subspace(g.dim, _lift(a.basis, vecs)), cert) for vecs, cert in parts]
    summands.sort(key=lambda sc: sc[0].sort_key())
    return ModuleDecomposition(b, a, [s for s, _ in summands],
                               [c for _, c in summands])


# ---------------------------------------------------------------------------
# subalgebra extraction
# ---------------------------------------------------------------------------

def subalgebra_from_subspace(g, s):
    """Structure constants of a bracket-closed graded subspace.

    Returns (algebra, basis vectors in ambient coordinates, even first).
    """
    ev, od = s.parity_components(g.space.parities)
    if ev.dim + od.dim != s.dim:
        raise SuperAlgebraError("subspace is not graded")
    vecs = list(ev.basis) + list(od.basis)
    return algebra_in_basis(g, vecs), vecs


# ---------------------------------------------------------------------------
# index classification and ideals
# ---------------------------------------------------------------------------

class IndexClassification:
    def __init__(self, js, ja, pairing):
        self.js = js                      # sorted list
        self.ja = ja
        self.pairing = pairing            # involution on js


def classify_indices(g, dec):
    """J_s membership via [[a_k, a_j], a_k] = a_k, with the unique partner;
    J_a is the complement and must satisfy [[b, a_k], a_k] = a_k when the
    algebra is generated by its odd part."""
    summands = dec.summands
    n = len(summands)
    pairing = {}
    js = []
    brackets = {}                         # (k, j) -> [a_k, a_j]
    for k in range(n):
        ak = summands[k]
        partners = []
        for j in range(n):
            w = brackets[k, j] = bracket_span(g, ak, summands[j])
            image = bracket_span(g, w, ak)
            if image == ak:
                partners.append(j)
        if partners:
            if len(partners) != 1:
                raise DecompositionError(
                    "partner index is not unique (contradicts pairing uniqueness)",
                    evidence={"k": k, "partners": partners})
            js.append(k)
            pairing[k] = partners[0]
    ja = [k for k in range(n) if k not in pairing]
    for k in js:
        kp = pairing[k]
        if kp not in pairing or pairing[kp] != k:
            raise DecompositionError("pairing is not an involution",
                                     evidence={"k": k, "partner": kp})
    z = center(g)
    for k in ja:
        ak = summands[k]
        w = bracket_span(g, dec.b, ak)
        image = bracket_span(g, w, ak)
        if image != ak:
            raise DecompositionError(
                "[[b, a_k], a_k] = a_k fails for a residue index",
                evidence={"k": k, "image_dim": image.dim})
        if not z.contains_subspace(brackets[k, k]):
            raise DecompositionError("[a_k, a_k] is not central for a residue index",
                                     evidence={"k": k})
    # non-interacting pairs commute exactly
    for k in range(n):
        for s in range(n):
            if s not in (k, pairing.get(k)) and brackets[k, s].dim != 0:
                raise DecompositionError("summands expected to commute do not",
                                         evidence={"k": k, "s": s})
    return IndexClassification(js, ja, pairing)


class IdealInfo:
    """One ideal: its span, the fingerprint and classification of its
    algebra alg (written in its own basis) and the Theorem 4.2 flags that
    the report records for it."""

    def __init__(self, kind, indices, span, alg, kk_dim=None):
        self.kind = kind                  # "Js" | "Ja"
        self.indices = indices            # (j, j') or (k,)
        self.span = span
        self.fingerprint = classify.fingerprint(alg)
        self.classification = classify.classify_fingerprint(alg)
        self.flags = {}
        self.kk_dim = kk_dim


def build_g_ideal(g, dec, j, jp):
    """a_j + a_j' + all mutual brackets; verified ideal with the simple
    adjoint quotient checks, made in the ideal's own basis."""
    aj, ajp = dec.summands[j], dec.summands[jp]
    span = aj.sum(ajp)
    for u, w in ((aj, aj), (aj, ajp), (ajp, ajp)):
        span = span.sum(bracket_span(g, u, w))
    if not is_ideal(g, span):
        raise DecompositionError("constructed subspace is not an ideal",
                                 evidence={"j": j})
    alg, vecs = subalgebra_from_subspace(g, span)
    zi = center(alg)
    if not center(g).contains_subspace(Subspace(g.dim, _lift(vecs, zi.basis))):
        raise DecompositionError("z(g(j)) is not contained in z(g)",
                                 evidence={"j": j})
    # a_j and a_j' stay simple over the ideal's own even part
    ideal_even, _ = span.parity_components(g.space.parities)
    for a in (aj, ajp) if j != jp else (aj,):
        if len(split_module(module_actions(g, ideal_even.basis, a.basis), a.dim)) != 1:
            raise DecompositionError("a_j fails to stay simple over g(j)",
                                     evidence={"j": j})
    # simple adjoint quotient g(j)/z(g(j)), the centre graded as the bracket is even
    quo = quotient_by_central(alg, zi)[0] if zi.dim else alg
    if center(quo).dim or not is_perfect(quo):
        raise DecompositionError("adjoint quotient of g(j) is not simple-like",
                                 evidence={"j": j})
    return span, alg


def build_c_ideal(g, dec, k, b0):
    """a_k + [a_k, a_k] + [b, a_k] with the tangent-quotient certificate,
    built through ad b0 for an element b0 of b acting on a_k."""
    ak = dec.summands[k]
    kk = bracket_span(g, dec.b, ak)
    span = ak.sum(bracket_span(g, ak, ak)).sum(kk)
    if not is_ideal(g, span):
        raise DecompositionError("residue subspace is not an ideal",
                                 evidence={"k": k})
    alg, _ = subalgebra_from_subspace(g, span)
    if kk.dim == 0:
        raise DecompositionError("[b, a_k] vanishes for a residue index",
                                 evidence={"k": k})
    kk_alg, kk_vecs = subalgebra_from_subspace(g, kk)
    simple = len(split_module(module_actions(g, kk.basis, kk.basis), kk.dim)) == 1
    if center(kk_alg).dim or not simple:
        raise DecompositionError("[b, a_k] is not a simple Lie algebra",
                                 evidence={"k": k})
    # quotient by the center is the tangent algebra over kk
    if not _verify_tangent_quotient(g, kk_alg, kk_vecs, ak, b0):
        raise DecompositionError("c(k)/z(c(k)) is not the expected tangent algebra",
                                 evidence={"k": k})
    return span, alg, kk, kk_alg, kk_vecs


def _pick_b0(g, b, ak):
    """The first basis vector of b acting on a_k; when none does, no
    element of b does."""
    for u in b.basis:
        if bracket_span(g, Subspace(g.dim, [u]), ak).dim != 0:
            return u
    raise DecompositionError("no element of b acts on a_k")


def _adjoin_b0(g, span, b0):
    """(span + K b0 + K [b0, b0], [b0, b0])."""
    bb = g.bracket(b0, b0)
    return span.sum(Subspace(g.dim, [b0, bb])), bb


def _verify_tangent_quotient(g, kk_alg, kk_vecs, ak, b0, hat=False):
    """Structure-constant isomorphism of c(k)/z with T kk (or hat c(k)/z
    with That kk), built on the canonical basis through ad b0."""
    from .extend import build_tangent_from_algebra
    tk = build_tangent_from_algebra(kk_alg, "T_hat" if hat else "T")
    d = kk_alg.dim
    solver_k = LinSolver(kk_vecs, g.dim)
    sources = list(kk_vecs)
    images = [_unit(tk.dim, i) for i in range(d)]
    for u in ak.basis:
        coords = solver_k.coords(g.bracket(b0, u))
        if coords is None:
            return False
        img = vec_zero(tk.dim)
        img[d:2 * d] = coords
        sources.append(u)
        images.append(img)
    if hat:
        sources.append(b0)
        images.append(_unit(tk.dim, 2 * d))
    # ad b0 must be bijective from a_k onto kk
    if len(Echelon(tk.dim).extend(images)) != len(images):
        return False
    # central directions to quotient out
    zvecs = list(bracket_span(g, ak, ak).basis)
    if hat:
        zvecs.append(g.bracket(b0, b0))       # a zero vector is skipped below
    ech = Echelon(g.dim)
    zk = [zvecs[i] for i in ech.extend(zvecs)]
    if len(ech.extend(sources)) != len(sources):
        return False
    try:
        return tables_equal(algebra_in_basis(g, sources, zk),
                            algebra_in_basis(tk, images))
    except SuperAlgebraError:                 # a bracket left either span
        return False


def build_hat_c(g, dec, k, b0, c_span, kk_alg, kk_vecs):
    """Whether hat c(k) = c(k) + K b0 + K [b0, b0], given the span of c(k),
    is a subalgebra whose central quotient is the extended tangent algebra
    (semisimple by the isomorphism certificate)."""
    span, _ = _adjoin_b0(g, c_span, b0)
    subalgebra_from_subspace(g, span)               # raises if not closed
    return _verify_tangent_quotient(g, kk_alg, kk_vecs, dec.summands[k], b0,
                                    hat=True)


# ---------------------------------------------------------------------------
# theorem flags and the full report
# ---------------------------------------------------------------------------

def _direct_summand_flag(g, span):
    comp = centralizer(g, span, g.full_subspace())
    return (comp.dim + span.dim == g.dim
            and comp.intersection(span).dim == 0)


def qhat_embedding_certificate(g, dec, k_index, ideal):
    """Subalgebra ideal + K b0 + K [b0, b0] matching the extended queer
    family: closure, dimensions, fingerprint, and the action certificates
    (ad b0 kills the ideal's even part and squares to zero)."""
    b0 = _pick_b0(g, dec.b, dec.summands[k_index])
    span, bb = _adjoin_b0(g, ideal.span, b0)
    try:
        alg, _ = subalgebra_from_subspace(g, span)
    except SuperAlgebraError:
        return {"verified": False, "reason": "not closed"}
    # the tag "q" comes from matches that are all ("q", (n,)), and the
    # dimensions fix n: there is exactly one
    [(_, (n,))] = ideal.classification[1]
    from .families import build_family
    model = build_family("q_hat", n)
    cert = {
        "parameter": n,
        "dims_match": (alg.d0, alg.d1) == (model.d0, model.d1),
        "fingerprint_match": classify.fingerprint(alg) == classify.fingerprint(model),
        "hyperplane_ideal": ideal.span.contains_subspace(
            bracket_span(g, span, ideal.span)),
    }
    # ad b0 annihilates the ideal's even part and has square zero on it
    even_part = ideal.span.parity_components(g.space.parities)[0]
    cert["kills_ideal_even_part"] = bracket_span(
        g, Subspace(g.dim, [b0]), even_part).dim == 0
    cert["square_zero_on_ideal"] = bracket_span(
        g, Subspace(g.dim, [bb]), ideal.span).dim == 0
    cert["verified"] = all(v is True for key, v in cert.items()
                           if key not in ("parameter",))
    return cert


class DecompositionReport:
    def __init__(self, g):
        self.g = g
        self.reduction = None
        self.b = None
        self.center = None
        self.decomposition = None
        self.classification = None
        self.ideals = []                  # IdealInfo
        self.kernel_dim = None
        self.assertions = []
        self.gr = None                    # (z_b(a), b_r, g_r) subspaces

    def record(self, name, ok, detail=None):
        self.assertions.append({"name": name, "ok": bool(ok),
                                **({"detail": str(detail)} if detail else {})})
        if not ok:
            raise DecompositionError("assertion failed: %s" % name,
                                     evidence=detail)

    def to_json_dict(self):
        pairing = self.classification.pairing
        by_index = {idx: info for info in self.ideals for idx in info.indices}
        entries = []
        for idx, summand in enumerate(self.decomposition.summands):
            info = by_index[idx]
            flags = {key: {k: v if isinstance(v, bool) else str(v) for k, v in val.items()}
                     if isinstance(val, dict) else val
                     for key, val in info.flags.items()}
            entries.append({
                "dim": str(summand.dim),
                "kind": info.kind,
                "pair": str(pairing.get(idx, idx)) if info.kind == "Js" else None,
                "fingerprint": info.fingerprint.to_json_dict(),
                "classification": info.classification[0],
                "theorem42_flags": flags,
            })
        return {
            "input_dims": [str(self.g.d0), str(self.g.d1)],
            "even_complement_dim": str(self.reduction.complement.dim),
            "b_dim": str(self.b.dim),
            "center_dim": str(self.center.dim),
            "summands": entries,
            "kernel_dim": str(self.kernel_dim),
            "z_b_a_dim": str(self.gr[0].dim),
            "b_r_dim": str(self.gr[1].dim),
            "assertions": self.assertions,
        }


def structure_report(g):
    """Run the whole pipeline and certify the decomposition of [g, g]
    into the center and the constructed ideals, with central summation
    kernel.

    report.gr holds (z_b(a), b_r, g_r) of the splitting lemma: the
    centraliser of a in b, a fixed echelon complement of it in b, and the
    subalgebra [core, core] + b_r.  The report asserts that z_b(a)
    brackets into the center of the core (so its image in the central
    quotient is a central ideal) and that g_r and z_b(a) split the core up
    to that center.
    """
    require_superalgebra(g)
    report = DecompositionReport(g)
    if g.d1 == 0:
        raise DecompositionError("odd-generation precondition: the odd part is zero")
    zg = center(g)
    zev, zodd = zg.parity_components(g.space.parities)
    if zodd.dim != 0:
        raise DecompositionError(
            "central odd vectors are rejected; split them off first",
            evidence={"z_odd_dim": zodd.dim})
    red = reduce_to_odd_generated(g)
    report.reduction = red
    core_even = red.core_even
    # the center of the core (all pipeline statements refer to the core)
    zc = centralizer(g, red.core, red.core)
    czev, czodd = zc.parity_components(g.space.parities)
    if czodd.dim != 0:
        raise DecompositionError(
            "odd central vectors in the odd-generated core are rejected",
            evidence={"z_odd_dim": czodd.dim})
    report.center = zc
    dec = decompose_odd(g, core_even)
    report.decomposition = dec
    report.b = dec.b
    report.record("b_squares_central",
                  zc.contains_subspace(bracket_span(g, dec.b, dec.b)))
    cls = classify_indices(g, dec)
    report.classification = cls
    seen = set()
    for j in cls.js:
        if j in seen:
            continue
        jp = cls.pairing[j]
        seen.add(j)
        seen.add(jp)
        span, alg = build_g_ideal(g, dec, j, jp)
        info = IdealInfo("Js", (j, jp), span, alg)
        flags = info.flags
        tag = info.classification[0]
        if tag in ("su(n|m)", "c"):
            flags["direct_summand"] = _direct_summand_flag(g, span)
            report.record("theorem42a_direct_summand_%d" % j, flags["direct_summand"])
        if tag == "su(n|n)":
            flags["b_annihilates_ideal"] = bracket_span(g, dec.b, span).dim == 0
            report.record("theorem42b_b_annihilates_%d" % j,
                          flags["b_annihilates_ideal"])
        if tag == "q" and bracket_span(g, dec.b, dec.summands[j]).dim != 0:
            cert = qhat_embedding_certificate(g, dec, j, info)
            flags["qhat_embedding"] = cert
            report.record("theorem42c_qhat_embedding_%d" % j, cert["verified"])
        report.ideals.append(info)
    for k in cls.ja:
        b0 = _pick_b0(g, dec.b, dec.summands[k])
        span, alg, kk, kk_alg, kk_vecs = build_c_ideal(g, dec, k, b0)
        report.ideals.append(IdealInfo("Ja", (k,), span, alg, kk_dim=kk.dim))
        report.record("hat_c_quotient_is_extended_tangent_%d" % k,
                      build_hat_c(g, dec, k, b0, span, kk_alg, kk_vecs))
    # theorem: [core, core] = z(core) + sum of ideals, as subspaces
    dcore = bracket_span(g, red.core, red.core)
    total = Subspace(g.dim, list(zc.basis))
    for info in report.ideals:
        total = total.sum(info.span)
    report.record("structure_sum_matches_derived", total == dcore)
    # vector-space splitting core = [core, core] + b
    inter = dcore.intersection(dec.b)
    report.record("core_splits_as_derived_plus_b",
                  inter.dim == 0 and dcore.sum(dec.b).dim == red.core.dim)
    # summation map kernel: one equation per ambient coordinate
    columns = [v for info in report.ideals for v in info.span.basis]
    eqs = [{} for _ in range(g.dim)]
    for c, v in enumerate(columns):
        for r, a in enumerate(v):
            if a:
                eqs[r][c] = a
    ker = kernel(eqs, len(columns))
    report.kernel_dim = len(ker)
    for kv in ker:
        pos = 0
        for info in report.ideals:
            comp = _lin_comb(kv[pos:], info.span.basis, g.dim)
            pos += info.span.dim
            if vec_is_zero(comp):
                continue
            central = all(vec_is_zero(g.bracket(comp, w)) for w in info.span.basis)
            report.record("kernel_component_central", central,
                          detail={"ideal": info.indices})
    # the splitting by the centraliser of a inside b
    zba = centralizer(g, dec.a, dec.b)
    ech = Echelon(g.dim)
    ech.extend(zba.basis)
    b_r = Subspace(g.dim, [dec.b.basis[i] for i in ech.extend(dec.b.basis)])
    g_r = dcore.sum(b_r)
    report.record("z_b_a_central_mod_even_center",
                  zc.contains_subspace(bracket_span(g, zba, dec.b)))
    inter2 = g_r.intersection(zba)
    report.record("gr_split",
                  zc.contains_subspace(inter2)
                  and g_r.sum(zba).dim == red.core.dim)
    report.gr = (zba, b_r, g_r)
    return report
