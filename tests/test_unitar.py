import random
from fractions import Fraction

from superdecomp import exact, unitar
from superdecomp.core import SuperAlgebra, SuperSpace, direct_sum
from superdecomp.realize import SparseOp, from_matrix_span
from superdecomp.exact import (
    I, Matrix, ONE, Scalar, ZERO, is_positive_definite, vec_is_zero, vec_zero,
)
from superdecomp.families import build_family
from superdecomp.unitar import (
    classify_fingerprint, compactness_check, cone_pointedness, find_posdef_in_span,
    find_witness, fingerprint, gram_of_functional, invariant_functional_basis,
    necessary_conditions_report,
)


def test_invariant_functional_dims():
    assert invariant_functional_basis(build_family("psu", 2)) == []
    assert len(invariant_functional_basis(build_family("su", 2, 1))) == 1
    assert len(invariant_functional_basis(build_family("u", 1, 1))) == 2


def test_witness_u21():
    g = build_family("u", 2, 1)
    out = find_witness(g)
    assert out.found
    w = out.witness
    assert is_positive_definite(w.gram).ok
    assert all(m > 0 for m in w.minors)


def test_witness_scaling_invariance():
    g = build_family("su", 2, 1)
    out = find_witness(g)
    assert out.found
    doubled = [a + a for a in out.witness.functional]
    gram = gram_of_functional(g, doubled)
    assert is_positive_definite(gram).ok


def test_witness_positive_on_squares():
    # omega([X, X]) > 0 for seeded nonzero odd X in the u-families
    rng = random.Random(3)
    for tag, params in [("u", (1, 1)), ("u", (2, 1)), ("u", (2, 2))]:
        g = build_family(tag, *params)
        out = find_witness(g)
        assert out.found
        fn = out.witness.functional
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
    assert out.status == "none"
    assert "trivial" in out.reason


def test_witness_c2():
    out = find_witness(build_family("c", 2))
    assert out.found


def test_cone_pointed_ttilde():
    cert = cone_pointedness(build_family("T_tilde", "su", 2))
    assert cert.verdict == "pointed"
    assert cert.witness is not None


def test_cone_trivial_tangent():
    cert = cone_pointedness(build_family("T", "su", 2))
    assert cert.verdict == "pointed"
    assert cert.witness is None            # trivial cone, no functional needed


def test_cone_not_pointed_indefinite():
    g = build_family("ch_indefinite", 1, 1)
    cert = cone_pointedness(g)
    assert cert.verdict == "not_pointed"
    x1, x2 = cert.pair
    s1, s2 = g.bracket(x1, x1), g.bracket(x2, x2)
    assert not vec_is_zero(s1) and not vec_is_zero(s2)
    assert vec_is_zero([a + b for a, b in zip(s1, s2)])


def test_cone_pointed_u22():
    assert cone_pointedness(build_family("u", 2, 2)).verdict == "pointed"


def test_unsolved_lp_makes_the_search_inconclusive(monkeypatch):
    # no sign pattern of diag(1, -1), diag(-1, 1) is definite, so the
    # search needs the LP, which proves infeasibility when it runs
    grams = [Matrix.from_rows([[Fraction(1), ZERO], [ZERO, Fraction(-1)]]),
             Matrix.from_rows([[Fraction(-1), ZERO], [ZERO, Fraction(1)]])]
    assert find_posdef_in_span(grams).status == "none"
    monkeypatch.setattr(exact, "LP_PIVOT_CAP", 0)
    out = find_posdef_in_span(grams)
    assert out.status == "inconclusive" and "pivot cap" in out.reason


def test_compactness_families():
    assert compactness_check(build_family("su", 2, 2)).verdict == "yes"
    assert compactness_check(build_family("T", "su", 2)).verdict == "yes"


def test_no_posdef_pair_certificate():
    # with no actions the commutant is all of M_2, and E_10 sends e0 to e1
    e0, e1 = [Fraction(1), ZERO], [ZERO, Fraction(1)]
    indefinite = Matrix.from_rows([e0, [ZERO, Fraction(-1)]])
    assert unitar._no_posdef_pair_certificate([indefinite], 2, []) == (e0, e1)
    assert unitar._no_posdef_pair_certificate([Matrix.identity(2)], 2, []) is None


def test_compactness_no_for_complex_simple():
    mats = []
    for base in ({(0, 1): ONE}, {(1, 0): ONE}, {(0, 0): ONE, (1, 1): -ONE}):
        m = SparseOp.from_entries(2, base)
        mats.append(m)
        mats.append(m.scale(I))
    sl2c, _ = from_matrix_span(mats, 2)
    assert compactness_check(sl2c).verdict == "no"


def test_classify_roundtrip():
    cases = [("q", (2,), "q"), ("pq", (2,), "pq"), ("psu", (2,), "psu"),
             ("su", (3, 1), "su(n|m)"), ("su", (2, 2), "su(n|n)"),
             ("c", (3,), "c"), ("T", ("su", 2), "T"),
             ("T_hat", ("su", 2), "T_hat"), ("T_tilde", ("su", 2), "T_tilde"),
             ("spin_h", (2,), "spin_h")]
    for tag, params, want in cases:
        got, matches = classify_fingerprint(build_family(tag, *params))
        assert got == want, (tag, params, got)
        assert (tag, params) in matches


def test_classify_second_parameter_values():
    cases = [("q", (3,), "q"), ("pq", (3,), "pq"), ("su", (2, 1), "su(n|m)"),
             ("c", (3,), "c"), ("T", ("su", 3), "T"),
             ("T_hat", ("so", 3), "T_hat"), ("spin_h", (1,), "spin_h"),
             ("spin_h", (3,), "spin_h")]
    for tag, params, want in cases:
        got, _ = classify_fingerprint(build_family(tag, *params))
        assert got == want, (tag, params, got)


def test_classify_quotient_of_su22_is_psu22():
    psu = build_family("psu", 2)
    assert fingerprint(psu)[:4] == (6, 8, 0, 0)
    got, _ = classify_fingerprint(psu)
    assert got == "psu"


def test_su21_c2_coincide():
    # compact forms of A(1,0) and C(2) are isomorphic: equal fingerprints
    assert fingerprint(build_family("su", 2, 1)) == fingerprint(build_family("c", 2))
    got, matches = classify_fingerprint(build_family("c", 2))
    assert got == "su(n|m)"
    assert ("c", (2,)) in matches and ("su", (2, 1)) in matches


def test_lemma24_obstructions():
    rep = necessary_conditions_report(build_family("psu", 2), seed=5)
    assert rep.overall == "obstruction found"
    assert rep.item("v_even_center").verdict == "fail"

    rep = necessary_conditions_report(build_family("pq", 2), seed=5)
    assert rep.overall == "obstruction found"
    assert rep.item("v_even_center").verdict == "fail"
    # no witness, and neither a structured candidate nor the plane search
    # finds an odd vector with zero square
    assert rep.item("ii_nonzero_squares").verdict == "inconclusive"

    rep = necessary_conditions_report(build_family("T", "su", 2), seed=5)
    assert rep.overall == "obstruction found"
    assert rep.item("ii_nonzero_squares").verdict == "fail"
    x = rep.item("ii_nonzero_squares").certificate
    g = build_family("T", "su", 2)
    assert not vec_is_zero(x) and vec_is_zero(g.bracket(x, x))

    rep = necessary_conditions_report(build_family("ch_indefinite", 1, 1), seed=5)
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
    assert cone.verdict == "not_pointed"
    assert cone.pair == ([ZERO, ZERO, ONE], [ZERO, Fraction(2), ZERO])
    ii = necessary_conditions_report(g).item("ii_nonzero_squares")
    assert ii.verdict == "fail" and ii.certificate == [ZERO, Fraction(2), ONE]
    # [x, x] = [y, y] = z, [w, w] = -2z: x + y + w, on the plane of x + y and w
    h = odd_squares_on_z(1, 1, -2)
    ii = necessary_conditions_report(h).item("ii_nonzero_squares")
    assert ii.verdict == "fail" and ii.certificate == [ZERO, ONE, ONE, ONE]
    for alg in (g, h):
        reports = [necessary_conditions_report(alg, seed=s).to_json_dict()
                   for s in range(6)]
        for r in reports:
            del r["seed"]
        assert all(r == reports[0] for r in reports)


def test_cone_pair_prefers_the_exact_cancellation():
    # [e1, e1] = 4z, [e2, e2] = z, [e3, e3] = -z: [e3, e3] cancels [e2, e2]
    # exactly and [e1/2, e1/2] by scaling; the exact pair comes first
    cone = cone_pointedness(odd_squares_on_z(4, 1, -1))
    assert cone.verdict == "not_pointed"
    assert cone.pair == ([ZERO, ZERO, ZERO, ONE], [ZERO, ZERO, ONE, ZERO])


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
    assert classify_fingerprint(build_family("ch_indefinite", 1, 2)) == ("unknown", [])


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
        rep = necessary_conditions_report(build_family(tag, *params), seed=5)
        assert rep.overall == "all necessary conditions pass", (tag, params)


def test_lemma24_json_shape():
    rep = necessary_conditions_report(build_family("su", 2, 1), seed=9)
    d = rep.to_json_dict()
    assert d["seed"] == "9"
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
    first = classify_fingerprint(psu)
    calls = _count_body_calls(monkeypatch, unitar.fingerprint)
    assert classify_fingerprint(build_family("psu", 3)) == first
    assert calls == []


def test_report_runs_one_witness_search(monkeypatch):
    su21 = build_family("su", 2, 1)
    g = direct_sum(direct_sum(su21, su21), direct_sum(su21, su21))
    calls = _count_body_calls(monkeypatch, unitar.find_witness)
    rep = necessary_conditions_report(g, seed=5)
    assert calls == [g]
    assert rep.overall == "all necessary conditions pass"
    assert rep.item("iv_positive_functional").certificate is find_witness(g).witness
