"""Acceptance suite: one test per criterion, all exact, each printing a
pass line (run with `pytest tests/test_acceptance.py -v -s`).

Expected values for the structure round-trips come from the construction
oracle below: per-family contributions derived independently of the
pipeline (summand dimensions from the module theory of each family, with
the real-form subtlety that the odd part of su(2|2) splits into two
paired quaternionic copies over the rationals).
"""

import random
from fractions import Fraction

from superdecomp.exact import ONE, Scalar, ZERO, vec_is_zero, vec_zero
from superdecomp.positivity import is_positive_definite
from superdecomp.core import direct_sum, quotient_by_central
from superdecomp.invariants import (
    InvariantForm, center, centralizer, killing_form, verify_superalgebra,
)
from superdecomp.calculus import derived
from superdecomp.extend import central_extension, is_trivial_cocycle
from superdecomp.families import build_family, expected_dims, prove_square_identity
from superdecomp.decomp import structure_report
from superdecomp.classify import classify_fingerprint, fingerprint
from superdecomp.witness import gram_of_functional
from superdecomp.unitar import invariant_odd_forms, necessary_conditions_report
from superdecomp.fock import (
    check_car, check_unitary_representation, number_spectrum, spin_representation,
)
from superdecomp.tangentrep import tilde_tangent_representation
from superdecomp.cli import main as cli_main
from superdecomp.realize import SparseOp
from test_families import square_identity_samples, to_matrix


def announce(n, text):
    print("ACCEPTANCE %-2d PASS: %s" % (n, text))


# --- shared constructions ----------------------------------------------------

def glued_su22_q2():
    s = direct_sum(build_family("su", 2, 2), build_family("q", 2))
    emb_a, emb_b = s.meta["embeddings"]
    su22 = build_family("su", 2, 2)
    zvec = vec_zero(s.dim)
    zvec[emb_a[su22.d0 - 1]] = ONE            # the 2*i1 generator of su(2|2)
    for j in range(3):
        zvec[emb_b[j]] = Scalar(-2)           # minus 2*i1 inside q(2)
    g, _ = quotient_by_central(s, s.subspace([zvec]))
    return g


def input_su21_ttilde_that():
    return direct_sum(direct_sum(build_family("su", 2, 1),
                                 build_family("T_tilde", "su", 2)),
                      build_family("T_hat", "su", 2))


def input_su22_spin_semidirect():
    return direct_sum(build_family("su", 2, 2), build_family("spin_h_hat", 2))


# --- 1: constructor integrity ------------------------------------------------

ACCEPT_FAMILIES = [
    ("u", (1, 1)), ("u", (2, 1)), ("su", (2, 1)), ("su", (2, 2)),
    ("psu", (2,)), ("q", (2,)), ("pq", (2,)), ("q_hat", (2,)),
    ("c", (2,)), ("c", (3,)),
    ("T", ("su", 2)), ("T_hat", ("su", 2)), ("T_tilde", ("su", 2)),
    ("spin_h", (1,)), ("spin_h", (2,)), ("spin_h", (3,)),
    ("ch_indefinite", (1, 1)),
]


def test_acceptance_1_constructor_integrity():
    for tag, params in ACCEPT_FAMILIES:
        g = build_family(tag, *params)
        assert verify_superalgebra(g) is None, (tag, params)
        assert (g.d0, g.d1) == expected_dims(tag, params), (tag, params)
    announce(1, "17 constructors verified with exact dimension contracts")


# --- 2: Killing dichotomy ----------------------------------------------------

def test_acceptance_2_killing_dichotomy():
    for tag, params in [("psu", (2,)), ("pq", (2,))]:
        gram, rank = killing_form(build_family(tag, *params))
        assert rank == 0
        assert not any(map(any, gram))
    for tag, params in [("su", (2, 1)), ("c", (2,))]:
        g = build_family(tag, *params)
        _, rank = killing_form(g)
        assert rank == g.dim
    announce(2, "Killing form vanishes on psu(2|2), pq(2); "
                "nondegenerate on su(2|1), c(2)")


# --- 3: the square identity --------------------------------------------------

def test_acceptance_3_square_identity():
    rng = random.Random(2024)
    for tag, params in [("u", (1, 1)), ("u", (2, 1)), ("u", (2, 2))]:
        g = build_family(tag, *params)
        prove_square_identity(g)
        assert square_identity_samples(g, 200, rng) == 200
    announce(3, "[X,X] = 2X^2 = 2iX*X, nonzero, proved from the odd basis "
                "and met by 600 seeded odd samples")


# --- 4: center facts ---------------------------------------------------------

def test_acceptance_4_center_facts():
    for tag, params, want in [("psu", (2,), 0), ("pq", (2,), 0),
                              ("su", (2, 1), 1), ("su", (3, 1), 1),
                              ("c", (2,), 1)]:
        g = build_family(tag, *params)
        z0 = centralizer(g, g.even_subspace(), g.even_subspace())
        assert z0.dim == want, (tag, params)
    su22 = build_family("su", 2, 2)
    z = center(su22)
    assert z.dim == 1
    assert derived(su22).contains_subspace(z)
    # the central line really is R i1 in the matrix realization
    real = su22.meta["realization"]
    zmat = to_matrix(real, z.basis[0])
    a, b = zmat.cols[0][0]
    ratio = Scalar(Fraction(a, zmat.den), Fraction(b, zmat.den))
    assert ratio and ratio.real == 0
    assert zmat == SparseOp.identity(4).scale(ratio)
    announce(4, "even-center dimensions certified; z(su(2|2)) = R i1 in [g, g]")


# --- 5: unitarity obstructions and witnesses ---------------------------------

def test_acceptance_5_lemma24():
    rep = necessary_conditions_report(build_family("psu", 2))
    assert rep.overall == "obstruction found"
    assert rep.item("v_even_center").verdict == "fail"

    rep = necessary_conditions_report(build_family("pq", 2))
    assert rep.overall == "obstruction found"
    assert rep.item("v_even_center").verdict == "fail"
    assert "trivial" in rep.item("iv_positive_functional").detail

    g = build_family("T", "su", 2)
    rep = necessary_conditions_report(g)
    assert rep.overall == "obstruction found"
    item = rep.item("ii_nonzero_squares")
    assert item.verdict == "fail"
    x = item.certificate
    assert not vec_is_zero(x) and vec_is_zero(g.bracket(x, x))

    g = build_family("ch_indefinite", 1, 1)
    rep = necessary_conditions_report(g)
    assert rep.overall == "obstruction found"
    item = rep.item("iii_pointed_cone")
    assert item.verdict == "fail"
    x1, x2 = item.certificate
    s1, s2 = g.bracket(x1, x1), g.bracket(x2, x2)
    assert not vec_is_zero(s1) and not vec_is_zero(s2)
    assert vec_is_zero([a + b for a, b in zip(s1, s2)])

    for tag, params in [("u", (2, 1)), ("su", (2, 1)), ("su", (2, 2)),
                        ("q", (2,)), ("c", (2,))]:
        g = build_family(tag, *params)
        rep = necessary_conditions_report(g)
        assert rep.overall == "all necessary conditions pass", (tag, params)
        wit = rep.item("iv_positive_functional").certificate
        assert wit.iterations <= 200
        # independent re-verification of the returned witness
        gram = gram_of_functional(g, wit.functional)
        res = is_positive_definite(gram)
        assert res.ok and all(m > 0 for m in res.minors)
        for i in range(g.d0):
            for j in range(i, g.d0):
                acc = ZERO
                for k, v in g.table.get((i, j), {}).items():
                    if k < g.d0:
                        acc = acc + wit.functional[k] * v
                assert not acc
    announce(5, "four certified obstructions; five exact positive witnesses "
                "re-verified by Sylvester")


# --- 6: spin representations -------------------------------------------------

def test_acceptance_6_spin():
    for n in range(1, 6):
        assert check_car(n) is None
    rep = spin_representation("spin_h_hat", 3)
    assert number_spectrum(rep) == {Fraction(0): 1, Fraction(1): 3,
                                    Fraction(2): 3, Fraction(3): 1}
    for n in (1, 2, 3):
        rep = spin_representation("spin_h", n)
        res = check_unitary_representation(rep.algebra, rep)
        assert res.ok and res.faithful
    rep = tilde_tangent_representation("su", 2)
    res = check_unitary_representation(rep.algebra, rep)
    assert res.ok and res.faithful
    announce(6, "CAR exact for n <= 5; number spectrum binomial; spin and "
                "tangent representations unitary and faithful")


# --- 7: structure theorem round-trips ----------------------------------------

# construction oracle: per-family pipeline contributions, derived from the
# module structure of each family (independent of the pipeline code):
#   su(2|1):   one self-paired 4-dim summand, ideal of type su(n|m)
#   su(2|2):   two paired 4-dim summands (H and iH inside M_2(C)), one
#              ideal of type su(n|n)
#   q(2):      one self-paired 8-dim summand (adjoint of su(3)), type q
#   That su2:  one residue summand with [b, a] = su(2); b gains 1
#   Ttilde su2: not generated by its odd part: su(2) moves to the even
#              complement and k (x) xi lands in b (centralising a)
#   spin_h_hat(2): the derivation moves to the complement; the spin part
#              lands in b with central squares
ORACLE = {
    "su21": {"summands": [("Js", 4, "su(n|m)")], "b": 0, "zba": 0, "z": 0, "comp": 0},
    "su22": {"summands": [("Js", 4, "su(n|n)"), ("Js", 4, "su(n|n)")],
             "pairs": "swap", "b": 0, "zba": 0, "z": 1, "comp": 0},
    "q2": {"summands": [("Js", 8, "q")], "b": 0, "zba": 0, "z": 1, "comp": 0},
    "that": {"summands": [("Ja", 3, "T")], "b": 1, "zba": 0, "z": 0, "comp": 0},
    "ttilde": {"summands": [], "b": 3, "zba": 3, "z": 1, "comp": 3},
    "spinhat2": {"summands": [], "b": 4, "zba": 4, "z": 1, "comp": 1},
}


def combine(*keys, glued=0):
    out = {"summands": [], "b": 0, "zba": 0, "z": 0, "comp": 0}
    swap = False
    for k in keys:
        o = ORACLE[k]
        out["summands"] += o["summands"]
        for f in ("b", "zba", "z", "comp"):
            out[f] += o[f]
        swap = swap or o.get("pairs") == "swap"
    out["z"] -= glued
    out["kernel"] = glued
    return out


def check_report(rep, want):
    assert rep.reduction.complement.dim == want["comp"]
    assert rep.b.dim == want["b"]
    assert rep.center.dim == want["z"]
    assert rep.gr[0].dim == want["zba"]
    assert rep.gr[1].dim == want["b"] - want["zba"]
    assert rep.kernel_dim == want.get("kernel", 0)
    got = sorted((e["kind"], int(e["dim"]), e["classification"])
                 for e in rep.to_json_dict()["summands"])
    assert got == sorted(want["summands"])
    for a in rep.assertions:
        assert a["ok"], a


def test_acceptance_7_structure_roundtrips():
    rep = structure_report(input_su21_ttilde_that())
    check_report(rep, combine("su21", "ttilde", "that"))
    kinds = sorted(i.classification[0] for i in rep.ideals)
    assert kinds == ["T", "su(n|m)"]
    tideal = [i for i in rep.ideals if i.kind == "Ja"][0]
    assert tideal.kk_dim == 3

    rep = structure_report(glued_su22_q2())
    check_report(rep, combine("su22", "q2", glued=1))
    # two paired summands share the su(n|n) ideal; the q summand is self paired
    pair = rep.classification.pairing
    eight = [i for i, s in enumerate(rep.decomposition.summands) if s.dim == 8][0]
    assert pair[eight] == eight
    fours = [i for i, s in enumerate(rep.decomposition.summands) if s.dim == 4]
    assert pair[fours[0]] == fours[1] and pair[fours[1]] == fours[0]

    rep = structure_report(build_family("q", 2))
    check_report(rep, combine("q2"))

    rep = structure_report(build_family("T_hat", "su", 2))
    check_report(rep, combine("that"))

    rep = structure_report(input_su22_spin_semidirect())
    check_report(rep, combine("su22", "spinhat2"))
    info = rep.ideals[0]
    assert info.flags["b_annihilates_ideal"]
    announce(7, "five structure round-trips match the construction oracle; "
                "all side assertions hold exactly")


# --- 8: central extension facts ----------------------------------------------

def test_acceptance_8_central_extensions():
    for tag, params in [("su", (2, 1)), ("c", (2,))]:
        g = build_family(tag, *params)
        forms = invariant_odd_forms(g)
        assert forms, (tag, params)
        for form in forms:
            lam = is_trivial_cocycle(g, form)
            assert lam is not None, (tag, params)
    psu = build_family("psu", 2)
    su, kept = psu.meta["extension_of"]
    odd = list(psu.space.odd_indices())
    gram = [vec_zero(psu.d1) for _ in range(psu.d1)]
    zpos = su.d0 - 1
    for a in range(psu.d1):
        for b in range(psu.d1):
            x = su.basis_vector(kept[odd[a]])
            y = su.basis_vector(kept[odd[b]])
            gram[a][b] = su.bracket(x, y)[zpos]
    form = InvariantForm(odd, gram)
    assert is_trivial_cocycle(psu, form) is None
    rebuilt = central_extension(psu, form)
    assert fingerprint(rebuilt) == fingerprint(su)
    assert classify_fingerprint(fingerprint(rebuilt))[0] == "su(n|n)"
    announce(8, "all invariant cocycles split on su(2|1) and c(2); the "
                "psu(2|2) cocycle is nontrivial and rebuilds su(2|2)")


# --- 9: theorem flags ---------------------------------------------------------

def test_acceptance_9_theorem_flags():
    rep = structure_report(input_su21_ttilde_that())
    su_ideal = [i for i in rep.ideals if i.classification[0] == "su(n|m)"][0]
    assert su_ideal.flags["direct_summand"] is True

    rep = structure_report(build_family("q_hat", 2))
    info = rep.ideals[0]
    assert info.classification[0] == "q"
    cert = info.flags["qhat_embedding"]
    assert cert["verified"] is True
    assert cert["parameter"] == 2
    assert cert["dims_match"] and cert["fingerprint_match"]
    assert cert["kills_ideal_even_part"] and cert["square_zero_on_ideal"]
    announce(9, "su(2|1) ideal certified a direct summand; extended queer "
                "embedding produced and verified")


# --- 10: determinism ----------------------------------------------------------

def test_acceptance_10_determinism(tmp_path, capsys):
    path = str(tmp_path / "alg.json")
    assert cli_main(["construct", "--family", "q_hat", "--params", "2",
                     "--out", path]) == 0
    r1, r2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert cli_main(["decompose", path, "--report", r1, "--seed", "21"]) == 0
    assert cli_main(["decompose", path, "--report", r2, "--seed", "21"]) == 0
    assert open(r1, "rb").read() == open(r2, "rb").read()
    u1, u2 = str(tmp_path / "u1.json"), str(tmp_path / "u2.json")
    assert cli_main(["unitarity", path, "--out", u1, "--seed", "21"]) == 0
    assert cli_main(["unitarity", path, "--out", u2, "--seed", "21"]) == 0
    assert open(u1, "rb").read() == open(u2, "rb").read()
    capsys.readouterr()
    announce(10, "decompose and unitarity reports byte-identical across runs")
