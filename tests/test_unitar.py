import json
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from superdecomp import classify, positivity, unitar, witness
from superdecomp.classify import classify_fingerprint, fingerprint
from superdecomp.spaces import SuperSpace
from superdecomp.core import (
    SuperAlgebra, algebra_from_json_dict, algebra_to_json_dict, direct_sum,
)
from superdecomp.calculus import lie_generators, module_actions, module_commutant
from superdecomp.realize import SparseOp, from_matrix_span
from superdecomp.exact import I, ONE, Scalar, ZERO, vec_is_zero, vec_zero
from superdecomp.positivity import is_positive_definite
from superdecomp.families import build_family, build_lie_algebra
from superdecomp.fock import (
    check_unitary_representation, defining_representation, spin_representation,
)
from superdecomp.tangentrep import tilde_tangent_representation
from superdecomp.witness import (
    cone_pointedness, find_posdef_in_span, find_witness, gram_of_functional,
    invariant_functional_basis,
)
from superdecomp.unitar import compactness_check, necessary_conditions_report
from test_decomp import part_actions


def test_invariant_functional_dims():
    assert invariant_functional_basis(build_family("psu", 2)) == []
    assert len(invariant_functional_basis(build_family("su", 2, 1))) == 1
    assert len(invariant_functional_basis(build_family("u", 1, 1))) == 2


def test_witness_u21():
    g = build_family("u", 2, 1)
    out = find_witness(g)
    assert out.verdict == "pass"
    w = out.certificate
    assert is_positive_definite(gram_of_functional(g, w.functional)).ok
    assert all(m > 0 for m in w.minors)


def test_witness_scaling_invariance():
    g = build_family("su", 2, 1)
    out = find_witness(g)
    assert out.verdict == "pass"
    doubled = [a + a for a in out.certificate.functional]
    gram = gram_of_functional(g, doubled)
    assert is_positive_definite(gram).ok


def test_witness_positive_on_squares():
    # omega([X, X]) > 0 for seeded nonzero odd X in the u-families
    rng = random.Random(3)
    for tag, params in [("u", (1, 1)), ("u", (2, 1)), ("u", (2, 2))]:
        g = build_family(tag, *params)
        out = find_witness(g)
        assert out.verdict == "pass"
        fn = out.certificate.functional
        for _ in range(100):
            x = vec_zero(g.dim)
            while vec_is_zero(x):
                for i in g.space.odd_indices():
                    x[i] = Scalar(rng.randint(-3, 3))
            sq = g.bracket(x, x)
            val = sum((fn[k] * sq[k] for k in range(g.d0)), ZERO)
            assert type(val) is Fraction and val > 0


def test_no_witness_trivial_center():
    out = find_witness(build_family("pq", 2))
    assert out.verdict == "fail"
    assert "trivial" in out.detail


def test_witness_c2():
    out = find_witness(build_family("c", 2))
    assert out.verdict == "pass"


def test_cone_pointed_ttilde():
    g = build_family("T_tilde", "su", 2)
    cert = cone_pointedness(g)
    assert cert.verdict == "pass"
    # pointed by the positive functional, not by a trivial cone
    assert find_witness(g).verdict == "pass" and cert.detail is None


def test_cone_trivial_tangent():
    cert = cone_pointedness(build_family("T", "su", 2))
    assert cert.verdict == "pass"
    assert "trivial cone" in cert.detail   # no functional needed


def test_cone_not_pointed_indefinite():
    g = build_family("ch_indefinite", 1, 1)
    cert = cone_pointedness(g)
    assert cert.verdict == "fail"
    x1, x2 = cert.certificate
    s1, s2 = g.bracket(x1, x1), g.bracket(x2, x2)
    assert not vec_is_zero(s1) and not vec_is_zero(s2)
    assert vec_is_zero([a + b for a, b in zip(s1, s2)])


def test_cone_pointed_u22():
    assert cone_pointedness(build_family("u", 2, 2)).verdict == "pass"


def test_unsolved_lp_makes_the_search_inconclusive(monkeypatch):
    # no sign pattern of diag(1, -1), diag(-1, 1) is definite, so the
    # search needs the LP, which proves infeasibility when it runs
    grams = [[[Fraction(1), ZERO], [ZERO, Fraction(-1)]],
             [[Fraction(-1), ZERO], [ZERO, Fraction(1)]]]
    assert find_posdef_in_span(grams).verdict == "fail"
    monkeypatch.setattr(positivity, "LP_PIVOT_CAP", 0)
    out = find_posdef_in_span(grams)
    assert out.verdict == "inconclusive" and "pivot cap" in out.detail


def test_compactness_families():
    assert compactness_check(build_family("su", 2, 2)).verdict == "pass"
    assert compactness_check(build_family("T", "su", 2)).verdict == "pass"


def test_no_posdef_pair_certificate():
    # with no actions the commutant is all of M_2, and E_10 sends e0 to e1
    e0, e1 = [Fraction(1), ZERO], [ZERO, Fraction(1)]
    indefinite = [e0, [ZERO, Fraction(-1)]]
    assert unitar._no_posdef_pair_certificate([indefinite], 2, []) == (e0, e1)
    assert unitar._no_posdef_pair_certificate([[e0, e1]], 2, []) is None


def test_generators_give_the_forms_and_commutant_of_every_even_element():
    # compactness_check and invariant_odd_forms act by the Lie generators
    # of g0 only
    from test_acceptance import ACCEPT_FAMILIES
    for tag, params in ACCEPT_FAMILIES:
        g = build_family(tag, *params)
        even = g.even_subspace().basis
        gens = lie_generators(g, even)
        for sub in (g.even_subspace(), g.odd_subspace()):
            by_gens, by_all = (module_actions(g, x, sub.basis) for x in (gens, even))
            assert unitar.invariant_symmetric_forms(by_gens, sub.dim) == \
                unitar.invariant_symmetric_forms(by_all, sub.dim), (tag, params)
            assert module_commutant(by_gens, sub.dim) == \
                module_commutant(by_all, sub.dim), (tag, params)


def test_compactness_certificate_is_the_sign_conflict_pair(monkeypatch):
    # with the positive-form search made inconclusive, gl(1|1) fails (i)
    # through the pair search on its odd part, and the pair is printed
    g = build_family("gl", 1, 1)
    monkeypatch.setattr(unitar, "find_posdef_in_span",
                        lambda grams: witness.ConditionReport("inconclusive"))
    out = compactness_check(g)
    assert out.verdict == "fail" and out.detail == "odd part: sign-conflict pair"
    v, w = out.certificate
    assert not vec_is_zero(v) and not vec_is_zero(w)
    odd = part_actions(g, g.space.odd_indices())
    grams = unitar.invariant_symmetric_forms(odd, g.d1)
    assert grams and all(positivity.quad_form(s, v) + positivity.quad_form(s, w) == 0
                         for s in grams)
    item = necessary_conditions_report(g).to_json_dict()["conditions"][0]
    assert item == {"condition": "i_compact", "verdict": "fail",
                    "certificate": {"x1": witness._vec_json(v), "x2": witness._vec_json(w)},
                    "detail": "odd part: sign-conflict pair"}


def test_compactness_no_for_complex_simple():
    mats = []
    for base in ({(0, 1): ONE}, {(1, 0): ONE}, {(0, 0): ONE, (1, 1): -ONE}):
        m = SparseOp.from_entries(2, base)
        mats.append(m)
        mats.append(m.scale(I))
    sl2c, _ = from_matrix_span(mats, 2)
    assert compactness_check(sl2c).verdict == "fail"


def test_classify_roundtrip():
    cases = [("q", (2,), "q"), ("pq", (2,), "pq"), ("psu", (2,), "psu"),
             ("su", (3, 1), "su(n|m)"), ("su", (2, 2), "su(n|n)"),
             ("c", (3,), "c"), ("T", ("su", 2), "T"),
             ("T_hat", ("su", 2), "T_hat"), ("T_tilde", ("su", 2), "T_tilde"),
             ("spin_h", (2,), "spin_h")]
    for tag, params, want in cases:
        got, matches = classify_fingerprint(fingerprint(build_family(tag, *params)))
        assert got == want, (tag, params, got)
        assert (tag, params) in matches


def test_classify_second_parameter_values():
    cases = [("q", (3,), "q"), ("pq", (3,), "pq"), ("su", (2, 1), "su(n|m)"),
             ("c", (3,), "c"), ("T", ("su", 3), "T"),
             ("T_hat", ("so", 3), "T_hat"), ("spin_h", (1,), "spin_h"),
             ("spin_h", (3,), "spin_h")]
    for tag, params, want in cases:
        got, _ = classify_fingerprint(fingerprint(build_family(tag, *params)))
        assert got == want, (tag, params, got)


def test_classify_quotient_of_su22_is_psu22():
    psu = build_family("psu", 2)
    assert fingerprint(psu)[:4] == (6, 8, 0, 0)
    got, _ = classify_fingerprint(fingerprint(psu))
    assert got == "psu"


def test_su21_c2_coincide():
    # compact forms of A(1,0) and C(2) are isomorphic: equal fingerprints
    assert fingerprint(build_family("su", 2, 1)) == fingerprint(build_family("c", 2))
    got, matches = classify_fingerprint(fingerprint(build_family("c", 2)))
    assert got == "su(n|m)"
    assert ("c", (2,)) in matches and ("su", (2, 1)) in matches


def test_table_shares_one_fingerprint_across_tags():
    # classify_fingerprint names one tag per match set because su(2|1) =
    # c(2) is the only fingerprint the table lists under two tags
    with open(classify._TABLE) as fh:
        rows = json.load(fh)
    repeats = {}
    for tag, params, fp in rows:
        repeats.setdefault(tuple(fp), []).append((tag, tuple(params)))
    repeats = sorted(specs for specs in repeats.values() if len(specs) > 1)
    assert repeats == sorted(
        [[("su", (2, 1)), ("c", (2,))]]
        + [[(tag, ("su", 2)), (tag, ("so", 3))] for tag in ("T", "T_hat", "T_tilde")]
        + [[(tag, ("so", 5)), (tag, ("sp", 2))] for tag in ("T", "T_hat", "T_tilde")])
    shared = [specs for specs in repeats
              if len({classify._class_tag(*spec) for spec in specs}) > 1]
    assert shared == [[("su", (2, 1)), ("c", (2,))]]


def test_classify_builds_no_family(monkeypatch):
    from superdecomp import families
    psu = families._build_cached.__wrapped__("psu", (3,))

    def refuse(*args):
        raise AssertionError("the classifier built a family")

    monkeypatch.setattr(families, "build_family", refuse)
    monkeypatch.setattr(families, "build", refuse)
    calls = _count_body_calls(monkeypatch, classify.fingerprint)
    assert classify_fingerprint(fingerprint(psu))[0] == "psu"
    assert calls == [psu]


def test_lemma24_obstructions():
    rep = necessary_conditions_report(build_family("psu", 2))
    assert rep.overall == "obstruction found"
    assert rep.item("v_even_center").verdict == "fail"

    rep = necessary_conditions_report(build_family("pq", 2))
    assert rep.overall == "obstruction found"
    assert rep.item("v_even_center").verdict == "fail"
    # no witness, and neither a structured candidate nor the plane search
    # finds an odd vector with zero square
    assert rep.item("ii_nonzero_squares").verdict == "inconclusive"

    rep = necessary_conditions_report(build_family("T", "su", 2))
    assert rep.overall == "obstruction found"
    assert rep.item("ii_nonzero_squares").verdict == "fail"
    x = rep.item("ii_nonzero_squares").certificate
    g = build_family("T", "su", 2)
    assert not vec_is_zero(x) and vec_is_zero(g.bracket(x, x))

    rep = necessary_conditions_report(build_family("ch_indefinite", 1, 1))
    assert rep.overall == "obstruction found"
    assert rep.item("iii_pointed_cone").verdict == "fail"
    assert rep.item("iii_pointed_cone").certificate is not None


def odd_squares_on_z(*squares):
    """<z | o_1, ..., o_n> with [o_k, o_k] = squares[k - 1] z, other brackets 0."""
    return SuperAlgebra(SuperSpace.make(1, len(squares)),
                        {(k, k): {0: Fraction(c)} for k, c in enumerate(squares, 1)})


def test_hand_built_obstructions_need_no_seed():
    # [x, x] = z, [y, y] = -4z: no basis vector, sum or difference of x and
    # y has a zero square.  [y, y] = -[2x, 2x] is the cone's scaled match,
    # and the plane of x and y holds the isotropic 2x + y.
    g = odd_squares_on_z(1, -4)
    cone = cone_pointedness(g)
    assert cone.verdict == "fail"
    assert cone.certificate == ([ZERO, ZERO, ONE], [ZERO, Fraction(2), ZERO])
    ii = necessary_conditions_report(g).item("ii_nonzero_squares")
    assert ii.verdict == "fail" and ii.certificate == [ZERO, Fraction(2), ONE]
    # [x, x] = [y, y] = z, [w, w] = -2z: x + y + w, on the plane of x + y and w
    h = odd_squares_on_z(1, 1, -2)
    ii = necessary_conditions_report(h).item("ii_nonzero_squares")
    assert ii.verdict == "fail" and ii.certificate == [ZERO, ONE, ONE, ONE]


def test_cone_pair_prefers_the_exact_cancellation():
    # [e1, e1] = 4z, [e2, e2] = z, [e3, e3] = -z: [e3, e3] cancels [e2, e2]
    # exactly and [e1/2, e1/2] by scaling; the exact pair comes first
    cone = cone_pointedness(odd_squares_on_z(4, 1, -1))
    assert cone.verdict == "fail"
    assert cone.certificate == ([ZERO, ZERO, ZERO, ONE], [ZERO, ZERO, ONE, ZERO])


def test_report_reaches_the_empty_and_zero_dimensional_searches():
    # R h acting on the odd R^2 by diag(1, 2), [g1, g1] = 0: no invariant
    # form on the odd part, so (i) fails with a string certificate
    g = SuperAlgebra(SuperSpace.make(1, 2), {(0, 1): {1: ONE}, (0, 2): {2: Fraction(2)}})
    i = necessary_conditions_report(g).item("i_compact")
    assert i.verdict == "fail" and i.certificate == "odd part: empty solution space"
    # the abelian (2|0): (iv) is witnessed on a zero-dimensional odd part
    rep = necessary_conditions_report(SuperAlgebra(SuperSpace.make(2, 0), {}))
    conds = rep.to_json_dict()["conditions"]
    assert [c["verdict"] for c in conds] == ["pass"] * 5
    iv = conds[3]
    assert iv["condition"] == "iv_positive_functional"
    assert iv["certificate"]["iterations"] == "0"
    assert iv["certificate"]["sylvester_minors"] == []


def test_classify_ch_indefinite_is_unknown_with_no_candidates():
    assert classify_fingerprint(fingerprint(build_family("ch_indefinite", 1, 2))) == ("unknown", [])


def test_first_coordinate_roots():
    f = Fraction
    roots = unitar._first_coordinate_roots
    # s^2 [u, u] + 2 s [u, e_k] + [e_k, e_k] at the first nonzero coordinate
    assert roots([ZERO, ONE], [ZERO, ZERO], [ZERO, f(-4)]) == [2, -2]
    assert roots([ONE], [ONE], [ONE]) == [-1]                 # double root
    assert roots([ZERO], [ONE], [f(3)]) == [f(-3, 2)]         # linear
    assert roots([ZERO], [ZERO], [f(3)]) == []
    assert roots([ONE], [ZERO], [ONE]) == []                  # s^2 = -1
    assert roots([ONE], [ZERO], [f(-2)]) == []                # s^2 = 2
    assert roots([f(4)], [ZERO], [f(-1, 9)]) == [f(1, 6), f(-1, 6)]


def test_lemma24_all_pass():
    for tag, params in [("u", (2, 1)), ("su", (2, 1)), ("su", (2, 2)),
                        ("q", (2,)), ("c", (2,)), ("su", (3, 1))]:
        rep = necessary_conditions_report(build_family(tag, *params))
        assert rep.overall == "all necessary conditions pass", (tag, params)


def _unitary_representations():
    """A faithful unitary representation of each of 20 families: the
    defining one of the matrix families, spin ones of spin_h and
    spin_h_hat, and the Fock one of each T~k.  c(2) and c(3) are left out:
    their realization is not written in the convention rho(X)* = -i^{|X|} rho(X)."""
    for tag, params in [("u", (1, 1)), ("u", (2, 1)), ("u", (2, 2)), ("su", (2, 1)),
                        ("su", (3, 1)), ("su", (2, 2)), ("su", (3, 2)), ("q", (1,)),
                        ("q", (2,)), ("q", (3,)), ("q_hat", (2,))]:
        yield (tag, params), defining_representation(build_family(tag, *params))
    for variant in ("spin_h", "spin_h_hat"):
        for n in (1, 2, 3):
            yield (variant, (n,)), spin_representation(variant, n)
    for kind, n in (("su", 2), ("so", 3), ("sp", 1)):
        yield ("T_tilde", (kind, n)), tilde_tangent_representation(kind, n)


def test_a_faithful_unitary_representation_refutes_every_obstruction():
    # a Lie superalgebra with a faithful unitary representation is unitary,
    # so no necessary condition of unitarity may fail on it
    reps = list(_unitary_representations())
    assert len(reps) == 20
    for family, rep in reps:
        g = rep.algebra
        res = check_unitary_representation(g, rep)
        assert res.ok and res.faithful, family
        assert necessary_conditions_report(g).overall != "obstruction found", family


def test_no_odd_part_makes_iv_and_v_vacuous():
    # (iv) and (v) follow from [x, x] != 0 for nonzero odd x, so with g1 = 0
    # they pass; so(3) is compact with the faithful unitary C^3
    sl2 = SuperAlgebra(SuperSpace.make(3, 0), {(0, 1): {1: Fraction(2)},
                                               (0, 2): {2: Fraction(-2)},
                                               (1, 2): {0: ONE}})
    for g, overall in ((build_lie_algebra("so", 3), "all necessary conditions pass"),
                       (SuperAlgebra(SuperSpace.make(0, 0), {}),
                        "all necessary conditions pass"),
                       (sl2, "obstruction found")):
        rep = necessary_conditions_report(g)
        assert rep.overall == overall
        iv, v = rep.item("iv_positive_functional"), rep.item("v_even_center")
        assert (iv.verdict, iv.detail) == ("pass", "no odd part")
        assert v.verdict == "pass" and v.detail.startswith("no odd part: dim z(g0) = 0")
    # sl(2, R) is obstructed by (i) alone: its only invariant form is indefinite
    assert [it.verdict for it in rep.items.values()] == ["fail"] + ["pass"] * 4


def test_an_inconclusive_search_lists_the_inconclusive_items(monkeypatch):
    # with the positive-form search of (iv) made inconclusive, u(1|1) has
    # no witness, so (ii) and (iii) find neither a proof nor a
    # counterexample; (i) searches through unitar's own name and passes.
    # A fresh copy: find_witness keeps its answer per algebra, and the
    # family builder caches its algebras
    u11 = build_family("u", 1, 1)
    g = algebra_from_json_dict(algebra_to_json_dict(u11, "u(1|1)"))
    monkeypatch.setattr(witness, "find_posdef_in_span",
                        lambda grams: witness.ConditionReport("inconclusive"))
    rep = necessary_conditions_report(g)
    assert rep.overall == "inconclusive items listed"
    assert [it.verdict for it in rep.items.values()] == (
        ["pass"] + ["inconclusive"] * 3 + ["pass"])


def test_lemma24_json_shape():
    rep = necessary_conditions_report(build_family("su", 2, 1))
    d = rep.to_json_dict()
    assert len(d["conditions"]) == 5
    for item in d["conditions"]:
        assert {"condition", "verdict"} <= set(item)


def _count_body_calls(monkeypatch, fn):
    """Algebras the undecorated body of a per-algebra function runs on."""
    calls = []
    body = fn.__wrapped__

    def counted(g):
        calls.append(g)
        return body(g)

    monkeypatch.setattr(fn, "__wrapped__", counted)
    return calls


def test_fingerprint_is_computed_once_per_algebra():
    g = direct_sum(build_family("su", 2, 1), build_family("q", 2))
    assert fingerprint(g) is fingerprint(g)


def test_repeat_classify_computes_no_fingerprint(monkeypatch):
    psu = build_family("psu", 3)
    first = classify_fingerprint(fingerprint(psu))
    calls = _count_body_calls(monkeypatch, classify.fingerprint)
    assert classify_fingerprint(fingerprint(build_family("psu", 3))) == first
    assert calls == []


def test_report_runs_one_witness_search(monkeypatch):
    su21 = build_family("su", 2, 1)
    g = direct_sum(direct_sum(su21, su21), direct_sum(su21, su21))
    calls = _count_body_calls(monkeypatch, witness.find_witness)
    rep = necessary_conditions_report(g)
    assert calls == [g]
    assert rep.overall == "all necessary conditions pass"
    assert rep.item("iv_positive_functional") is find_witness(g)


# ---------------------------------------------------------------------------
# the positive-form search against the all-Fraction scan it replaced
# ---------------------------------------------------------------------------

def oracle_sign_patterns(n):
    """Candidate coefficient vectors: unit vectors, then sign patterns."""
    out = []
    for i in range(n):
        for s in (1, -1):
            v = [Fraction(0)] * n
            v[i] = Fraction(s)
            out.append(v)
    if n <= 6:
        for mask in range(3 ** n):
            v = []
            mm = mask
            for _ in range(n):
                v.append(Fraction((1, -1, 0)[mm % 3]))
                mm //= 3
            if any(v):
                out.append(v)
    return out


def test_sign_patterns_follow_the_base_3_counter():
    # the first entry varies fastest, as in the counter of the oracle
    for n in range(7):
        got = list(witness._sign_patterns(n))
        assert got == oracle_sign_patterns(n), n
        assert all(type(x) is int for v in got for x in v)


def oracle_find_posdef_in_span(grams):
    """find_posdef_in_span with a full Fraction Sylvester test of every
    candidate."""
    n = len(grams)
    if n == 0:
        return witness.ConditionReport("fail", detail="empty solution space")
    dim = len(grams[0])
    if dim == 0:
        return witness.ConditionReport("pass", certificate=([Fraction(0)] * n, [], 0))

    entries = {}
    for i, gi in enumerate(grams):
        for r, row in enumerate(gi):
            for s, a in enumerate(row):
                if a:
                    entries.setdefault((r, s), []).append((i, a))

    def gram_at(t):
        acc = [vec_zero(dim) for _ in range(dim)]
        for (r, s), terms in entries.items():
            v = ZERO
            for i, a in terms:
                if t[i]:
                    v = v + t[i] * a
            acc[r][s] = v
        return acc

    tested = 0
    for t in oracle_sign_patterns(n):
        tested += 1
        res = is_positive_definite(gram_at(t))
        if res.ok:
            return witness.ConditionReport("pass", certificate=(t, res.minors, tested))
        if tested >= witness.WITNESS_CAP:
            break
    if n == 1:
        return witness.ConditionReport(
            "fail", detail="one-dimensional solution space with no definite generator")
    cuts = []
    t = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for it in range(witness.WITNESS_CAP):
        res = is_positive_definite(gram_at(t))
        if res.ok:
            return witness.ConditionReport("pass", certificate=(t, res.minors, tested + it))
        cuts.append([positivity.quad_form(gi, res.witness) for gi in grams])
        try:
            t = witness.feasible_point(cuts, n)
        except positivity.UnsolvedLP as exc:
            return witness.ConditionReport("inconclusive", detail="exact LP unsolved: %s" % exc)
        if t is None:
            return witness.ConditionReport(
                "fail", certificate={"cuts": len(cuts)},
                detail="exact LP over valid cutting planes is infeasible")
    return witness.ConditionReport("inconclusive", detail="iteration cap reached")


def search_summary(out):
    """verdict, detail and certificate ((t, minors, iterations) on a pass)
    of a search."""
    return out.verdict, out.detail, out.certificate


@st.composite
def small_spans(draw):
    """1 to 4 symmetric Grams of size 1 to 4 with small rational entries."""
    n, dim = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.builds(Fraction, st.integers(-3, 3) | st.just(0), st.integers(1, 3))
    grams = []
    for _ in range(n):
        m = [vec_zero(dim) for _ in range(dim)]
        for r in range(dim):
            for s in range(r, dim):
                m[r][s] = m[s][r] = draw(entry)
        grams.append(m)
    return grams


def with_lp_budget(search, grams, calls=6):
    """search(grams) summarised, with every LP after the first `calls` of
    the search given up as unsolved."""
    left = [calls]

    def budgeted(rows, nvars):
        left[0] -= 1
        if left[0] < 0:
            raise positivity.UnsolvedLP("LP budget spent")
        return positivity.feasible_point(rows, nvars)

    with mock.patch.object(witness, "feasible_point", budgeted):
        return search_summary(search(grams))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(small_spans())
def test_search_matches_the_fraction_oracle_on_small_spans(grams):
    # the scan reaches every pattern (n <= 4 gives at most 89 of them); the
    # LP budget bounds the cutting-plane rounds, whose LP points can grow
    # fourfold in digits each round on a span with no definite element
    assert with_lp_budget(find_posdef_in_span, grams) == \
        with_lp_budget(oracle_find_posdef_in_span, grams)


def power(tag, params, copies):
    g = h = build_family(tag, *params)
    for _ in range(copies - 1):
        h = direct_sum(h, g)
    return h


POWERS = [("u", (1, 1), 6), ("spin_h", (2,), 3), ("ch_indefinite", (1, 1), 3)]


def form_span(g, part):
    return unitar.invariant_symmetric_forms(part_actions(g, part), len(part))


@pytest.mark.parametrize("tag,params,copies", POWERS)
def test_search_matches_the_fraction_oracle_on_form_spans(tag, params, copies):
    g = power(tag, params, copies)
    for part in (g.space.even_indices(), g.space.odd_indices()):
        grams = form_span(g, part)
        assert search_summary(find_posdef_in_span(grams)) == \
            search_summary(oracle_find_posdef_in_span(grams)), part


def record_sign_patterns(monkeypatch):
    """The list of candidates the search draws from now on."""
    drawn = []
    patterns = witness._sign_patterns

    def recorded(n):
        for t in patterns(n):
            drawn.append(list(t))
            yield t

    monkeypatch.setattr(witness, "_sign_patterns", recorded)
    return drawn


def test_sylvester_runs_only_on_a_positive_diagonal(monkeypatch):
    # the odd form span of u(1|1)^6: the scan finds a definite form at its
    # 13th candidate, and only candidates with a positive diagonal reach
    # the Sylvester test
    g = power("u", (1, 1), 6)
    grams = form_span(g, g.space.odd_indices())
    drawn, tested = record_sign_patterns(monkeypatch), []

    def sylvester(gram):
        tested.append(gram)
        return is_positive_definite(gram)

    monkeypatch.setattr(witness, "is_positive_definite", sylvester)
    out = find_posdef_in_span(grams)
    assert out.verdict == "pass" and out.certificate[2] == len(drawn) == 13

    def gram_at(t):
        return [[sum((Fraction(ti) * gi[r][s] for ti, gi in zip(t, grams)), ZERO)
                 for s in range(g.d1)] for r in range(g.d1)]

    positive = [gram_at(t) for t in drawn
                if all(gram_at(t)[r][r] > 0 for r in range(g.d1))]
    assert tested == positive
    assert 0 < len(tested) < len(drawn)


def test_the_search_stops_at_the_iteration_cap(monkeypatch):
    # the functional span of u(1|1)^6 needs 24 scan candidates and 6 LP
    # rounds; at a cap of 4, the scan stops after 4 candidates and 4 rounds
    # find no definite element
    g = power("u", (1, 1), 6)
    grams = [gram_of_functional(g, w) for w in invariant_functional_basis(g)]
    assert find_posdef_in_span(grams).certificate[2] == 30
    drawn = record_sign_patterns(monkeypatch)
    monkeypatch.setattr(witness, "WITNESS_CAP", 4)
    out = find_posdef_in_span(grams)
    assert out.verdict == "inconclusive" and out.detail == "iteration cap reached"
    assert len(drawn) == 4
    assert search_summary(out) == search_summary(oracle_find_posdef_in_span(grams))


# ---------------------------------------------------------------------------
# the plane search against the dense brackets it replaced
# ---------------------------------------------------------------------------

def oracle_isotropic_on_planes(g):
    """The first s u + e_k with zero square, by dense brackets."""
    basis = [(k, g.basis_vector(k)) for k in g.space.odd_indices()]
    basis = [(k, ek, g.bracket(ek, ek)) for k, ek in basis]
    for u, su in witness._candidate_squares(g):
        for k, ek, sk in basis:
            if u[k]:
                continue
            for s in unitar._first_coordinate_roots(su, g.bracket(u, ek), sk):
                x = [s * a if a else a for a in u]
                x[k] = ONE
                if vec_is_zero(g.bracket(x, x)):
                    return x
    return None


@st.composite
def odd_quadratics(draw):
    """(m|n) with central even z_1..z_m and [o_i, o_j] = sum_z c^z_ij z,
    for random symmetric rational c: a Lie superalgebra for every c."""
    m, n = draw(st.integers(1, 2)), draw(st.integers(2, 4))
    table = {}
    for i in range(m, m + n):
        for j in range(i, m + n):
            terms = {z: Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 2)))
                     for z in range(m)}
            table[(i, j)] = {z: c for z, c in terms.items() if c}
    return SuperAlgebra(SuperSpace.make(m, n), table)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(odd_quadratics())
def test_plane_search_matches_the_dense_oracle(g):
    if any(vec_is_zero(sq) for _, sq in witness._candidate_squares(g)):
        return          # the report stops before the planes
    assert unitar._isotropic_on_planes(g) == oracle_isotropic_on_planes(g)


@pytest.mark.parametrize("tag,params", [("pq", (3,)), ("psu", (3,)), ("q", (2,))])
def test_plane_search_matches_the_dense_oracle_on_families(tag, params):
    g = build_family(tag, *params)
    assert unitar._isotropic_on_planes(g) == oracle_isotropic_on_planes(g)
