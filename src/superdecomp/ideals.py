"""The ideals of the decomposition and their certificates.

Given the simple summands a_k of the odd module, classify_indices sorts
them into the self-interacting family J_s, whose paired summands a_j,
a_j' generate the ideals g(j), and the residue family J_a, whose
summands generate the ideals c(k) with the commuting odd vectors b.
Each ideal is built and verified here: build_g_ideal checks the simple
adjoint quotient (its odd summands are simple over it as split, for the
reason in its docstring), build_c_ideal and build_hat_c the isomorphism
of the central quotients of c(k) and hat c(k) with the tangent algebras
T and That over [b, a_k] (built in extend), and qhat_embedding_certificate
the extended queer family.  Each ideal, its central quotient and the
tangent algebra it is compared with are written in their own basis by
core.algebra_in_basis, through subalgebra_from_subspace.
"""

from .exact import Echelon, LinSolver, _int_row, vec_unit, vec_zero
from .spaces import SuperAlgebraError, Subspace
from .core import _bracket_rows, algebra_in_basis, quotient_by_central, tables_equal
from .invariants import center
from .calculus import bracket_span, is_ideal, is_perfect, lie_generators, module_actions
from .split import DecompositionError, _lift, split_module
from . import classify


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
    algebra alg (written in its own basis; dec is the odd module's split)
    and the Theorem 4.2 flags that the report records for it."""

    def __init__(self, kind, indices, span, alg, dec, kk_dim=None):
        self.kind = kind                  # "Js" | "Ja"
        self.indices = indices            # (j, j') or (k,)
        self.span = span
        if len(set(indices)) == 1:        # one split piece: see build_g_ideal
            self.fingerprint = classify.fingerprint_with(
                alg, dec.certificates[indices[0]]["commutant_dim"])
        else:
            self.fingerprint = classify.fingerprint(alg)
        self.classification = classify.classify_fingerprint(self.fingerprint)
        self.flags = {}
        self.kk_dim = kk_dim


def build_g_ideal(g, dec, j, jp):
    """a_j + a_j' + all mutual brackets; verified ideal with the simple
    adjoint quotient checks, made in the ideal's own basis.

    a_j needs no second split over g(j)_0, nor a c(k)'s a_k over c(k)_0:
    the report checks that each ideal is one and that [core, core] =
    z(core) + sum of ideals.  Distinct ideals have independent odd parts,
    and z(core) has none and acts by zero, so each x in h0 = [g1, g1] acts
    on a_j as its component in g(j)_0, which lies in h0: a_j is the module
    decompose_odd split off over h0 as one piece, commutant and all."""
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
    actions = module_actions(g, lie_generators(g, kk.basis), kk.basis)
    simple = len(split_module(actions, kk.dim)) == 1
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
    solver_k = LinSolver([_int_row(v) for v in kk_vecs], g.dim)
    ad, den = g.adjoint_table()
    b, db = _int_row(b0)
    sources = list(kk_vecs)
    images = [vec_unit(tk.dim, i) for i in range(d)]
    for u in ak.basis:
        w, du = _int_row(u)
        coords = solver_k.row_coords(_bracket_rows(ad, b, w), den * db * du)
        if coords is None:
            return False
        img = vec_zero(tk.dim)
        img[d:2 * d] = coords
        sources.append(u)
        images.append(img)
    if hat:
        sources.append(b0)
        images.append(vec_unit(tk.dim, 2 * d))
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
