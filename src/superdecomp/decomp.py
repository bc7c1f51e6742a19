"""Decomposition of reductive Lie superalgebras into ideals.

Pipeline: split off an even complement so the rest is generated by its odd
part; compute the subspace of odd vectors commuting with the (core) even
part; decompose the complementary odd module into simple summands by exact
commutant splitting (split); classify summands into the self-interacting
family (paired, ideals g(j)) and the residue family (ideals c(k) built with
the commuting odd vectors), and build and certify each ideal (ideals);
verify every side relation on the way and emit a report whose summation
map back into the algebra has certified central kernel.

Brackets are taken in the coordinates of the input algebra: the
odd-generated core is an ideal, so all of them can be taken upstairs.
The subspaces of the report (complements, intersections, the summation
kernel) are read off integer echelon rows.  All verdicts are exact; the
errors are split.DecompositionError.
"""

from .exact import Echelon, _lin_comb, kernel, vec_is_zero
from .spaces import Subspace
from .invariants import center, centralizer, require_superalgebra
from .calculus import bracket_span, lie_generators, module_actions
from .split import DecompositionError, _lift, split_module
from .ideals import (
    IdealInfo, _pick_b0, build_c_ideal, build_g_ideal, build_hat_c, classify_indices,
    qhat_embedding_certificate,
)


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
    if not comp.contains_subspace(bracket_span(g, comp, comp)):
        raise DecompositionError("even complement is not a subalgebra")
    return Reduction(h0, core, comp)


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
    actions = module_actions(g, lie_generators(g, core_even.basis), a.basis)
    parts = split_module(actions, a.dim)
    summands = [(Subspace(g.dim, _lift(a.basis, vecs)), cert) for vecs, cert in parts]
    summands.sort(key=lambda sc: sc[0].sort_key())
    return ModuleDecomposition(b, a, [s for s, _ in summands],
                               [c for _, c in summands])


# ---------------------------------------------------------------------------
# theorem flags and the full report
# ---------------------------------------------------------------------------

def _direct_summand_flag(g, span):
    comp = centralizer(g, span, g.full_subspace())
    return (comp.dim + span.dim == g.dim
            and comp.intersection(span).dim == 0)


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
        # the ideal's algebra lives only while IdealInfo fingerprints it
        info = IdealInfo("Js", (j, jp), *build_g_ideal(g, dec, j, jp), dec)
        flags = info.flags
        tag = info.classification[0]
        if tag in ("su(n|m)", "c"):
            flags["direct_summand"] = _direct_summand_flag(g, info.span)
            report.record("theorem42a_direct_summand_%d" % j, flags["direct_summand"])
        if tag == "su(n|n)":
            flags["b_annihilates_ideal"] = bracket_span(g, dec.b, info.span).dim == 0
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
        report.ideals.append(IdealInfo("Ja", (k,), span, alg, dec, kk_dim=kk.dim))
        del alg                           # fingerprinted; hat c(k) is built without it
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
