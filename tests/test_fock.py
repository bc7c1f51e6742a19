import json
import operator
import random
from fractions import Fraction
from math import comb

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import superdecomp.fock as fock_module
import superdecomp.tangentrep as tangentrep
from superdecomp.spaces import SuperAlgebraError
from superdecomp.exact import I, ONE, Scalar, ZERO
from superdecomp.families import build_family
from superdecomp.fock import (
    FockSpace, Representation, check_car, check_unitary_representation,
    defining_representation, number_spectrum, spin_representation,
)
from superdecomp.tangentrep import tilde_tangent_representation
from superdecomp.realize import SparseOp, block_parity, realify


def unit(n, k):
    return [ONE if i == k else ZERO for i in range(n)]


# The dense oracle computes with sympy's exact numbers, independently of
# SparseOp, the program's one Gaussian arithmetic.

def sym(v):
    """A Fraction or Scalar as a sympy Gaussian rational."""
    return (sympy.Rational(v.real.numerator, v.real.denominator)
            + sympy.I * sympy.Rational(v.imag.numerator, v.imag.denominator))


def sym_rows(m):
    return [[sym(v) for v in row] for row in m]


def scalar(x):
    """A sympy Gaussian rational as a Fraction or Scalar."""
    re, im = x.as_real_imag()
    return Scalar(Fraction(re.p, re.q), Fraction(im.p, im.q))


def dense(op):
    """The dense oracle of a SparseOp: the rows of its entries as sympy
    Gaussian rationals."""
    rows = [[sympy.S.Zero] * op.dim for _ in range(op.dim)]
    for j, col in enumerate(op.cols):
        for i, (a, b) in col.items():
            rows[i][j] = sympy.Rational(a, op.den) + sympy.I * sympy.Rational(b, op.den)
    return rows


def dense_matmul(a, b):
    return [[sympy.expand(sum((x * y for x, y in zip(row, col)), sympy.S.Zero))
             for col in zip(*b)] for row in a]


def test_creation_on_vacuum():
    fock = FockSpace(2)
    cre = dense(fock.creation(unit(2, 0)))
    vac = fock.index[0b00]
    col = [cre[r][vac] for r in range(fock.dim)]
    target = fock.index[0b01]
    assert col[target] == ONE
    assert sum(1 for v in col if v) == 1


def test_annihilation_contracts():
    fock = FockSpace(2)
    ann = dense(fock.annihilation(unit(2, 0)))
    col = [ann[r][fock.index[0b11]] for r in range(fock.dim)]
    assert col[fock.index[0b10]] == ONE
    col = [ann[r][fock.index[0b10]] for r in range(fock.dim)]
    assert not any(col)


def test_annihilation_squares_to_zero():
    fock = FockSpace(3)
    rng = random.Random(4)
    for _ in range(10):
        f = [Scalar(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
             for _ in range(3)]
        a = fock.annihilation(f)
        assert (a @ a).is_zero()


def test_car_small():
    assert check_car(1) is None
    assert check_car(3) is None


def test_car_detects_perturbation():
    # perturbing one operator breaks an identity: simulate by checking a
    # wrong inner product directly
    fock = FockSpace(1)
    a = fock.annihilation(unit(1, 0))
    c = fock.creation(unit(1, 0))
    eye = SparseOp.identity(2)
    assert a @ c + c @ a == eye
    bad = c.scale(Scalar(2))
    assert a @ bad + bad @ a != eye


def patch_ladder(monkeypatch, change):
    """Build every ladder operator through change(body, fock, f, create)."""
    body = FockSpace._ladder
    monkeypatch.setattr(FockSpace, "_ladder",
                        lambda fock, f, create: change(body, fock, f, create))


def test_check_car_catches_a_flipped_sign(monkeypatch):
    # a(e_0) := -a(e_0) keeps {a(e_0), a(e_0)} = 0 but gives
    # {a(e_0), a*(e_0)} = -1, already on the first generator pair
    def flipped(body, fock, f, create):
        op = body(fock, f, create)
        return op.scale(Fraction(-1)) if not create and f == unit(len(f), 0) else op

    patch_ladder(monkeypatch, flipped)
    res = check_car(3)
    assert res["identity"] == "a(f)a(g)* + a(g)*a(f) = <g, f>"
    assert res["pair"] == (unit(3, 0), unit(3, 0))


def test_check_car_catches_a_linear_annihilator(monkeypatch):
    # a(f) built from conj(f) is linear in f; it agrees with the true a(f)
    # on the real generator vectors, so every generator pair passes and
    # only a(i e_j) = -i a(e_j) sees it
    def linear(body, fock, f, create):
        return body(fock, f if create else [v.conjugate() for v in f], create)

    patch_ladder(monkeypatch, linear)
    assert check_car(3) == {"identity": "a(i f) = -i a(f)", "vector": unit(3, 0)}


def test_check_car_catches_a_creation_that_is_antilinear(monkeypatch):
    # a*(f) built from conj(f) agrees with the true one on real vectors
    def antilinear(body, fock, f, create):
        return body(fock, [v.conjugate() for v in f] if create else f, create)

    patch_ladder(monkeypatch, antilinear)
    assert check_car(2) == {"identity": "a*(i f) = i a*(f)", "vector": unit(2, 0)}


def test_check_car_catches_an_unsigned_annihilator(monkeypatch):
    # a(e_1) without its sign (-1)^(generators below 1) still squares to zero,
    # but a(e_0) and a(e_1) now commute on e_0 ^ e_1 instead of anticommuting
    def unsigned(body, fock, f, create):
        op = body(fock, f, create)
        if create or f != unit(len(f), 1):
            return op
        return SparseOp(op.den, [{i: (abs(a), abs(b)) for i, (a, b) in col.items()}
                                 for col in op.cols])

    patch_ladder(monkeypatch, unsigned)
    assert check_car(3) == {"identity": "a(f)a(g) + a(g)a(f) = 0",
                            "pair": (unit(3, 0), unit(3, 1))}


def test_spin_h_representation():
    for n in (1, 2, 3):
        rep = spin_representation("spin_h", n)
        assert rep.meta["faithful"]
        assert rep.space_dim == 2 ** n


def test_spin_h1_two_dimensional_faithful():
    rep = spin_representation("spin_h", 1)
    assert rep.space_dim == 2
    res = check_unitary_representation(rep.algebra, rep)
    assert res.ok and res.faithful


def test_spin_h_hat_spectrum():
    rep = spin_representation("spin_h_hat", 3)
    spec = number_spectrum(rep)
    assert spec == {Fraction(0): 1, Fraction(1): 3, Fraction(2): 3, Fraction(3): 1}


def test_spin_h_hat_spectrum_at_n6():
    rep = spin_representation("spin_h_hat", 6)
    assert number_spectrum(rep) == {Fraction(k): comb(6, k) for k in range(7)}


def test_number_spectrum_refuses_a_non_diagonal_or_non_real_operator():
    rep = spin_representation("spin_h_hat", 2)
    for change, message in ((lambda ops: ops[1] + ops[2], "not diagonal"),
                            (lambda ops: ops[1].scale(I), "non-real")):
        ops = list(rep.operators)
        ops[1] = change(ops)
        with pytest.raises(SuperAlgebraError, match=message):
            number_spectrum(Representation(rep.algebra, rep.space_parities, ops))


def test_homomorphism_square_instance():
    # rho([X, X]) = rho(X)rho(X) + rho(X)rho(X) for odd X
    rep = spin_representation("spin_h", 2)
    g = rep.algebra
    x = g.basis_vector(1)                    # an odd generator
    op = rep.operators[1]
    sq = SparseOp.zero(rep.space_dim)
    for c, rho in zip(g.bracket(x, x), rep.operators):
        sq = sq + rho.scale(c)
    assert op @ op + op @ op == sq


def perturbed_spin_h2(i, change):
    """Check the spin_h(2) representation with operator i replaced by
    change(operators); basis Z, X_1, X_2, Y_1, Y_2 with [X_k, X_k] = 2Z."""
    rep = spin_representation("spin_h", 2)
    ops = list(rep.operators)
    ops[i] = change(ops)
    return check_unitary_representation(
        rep.algebra, Representation(rep.algebra, rep.space_parities, ops))


def test_rep_check_reports_adjoint_violation():
    # i rho(X_1) is no longer -i-antihermitian
    res = perturbed_spin_h2(1, lambda ops: ops[1].scale(I))
    assert not res.ok
    assert res.violation == {"kind": "adjoint", "basis": 1}


def test_rep_check_reports_diagonal_pair():
    # 2 rho(X_1) keeps the adjoint condition, but [X_1, X_1] is 4 times too big
    res = perturbed_spin_h2(1, lambda ops: ops[1].scale(Fraction(2)))
    assert not res.ok
    assert res.violation["kind"] == "homomorphism"
    assert res.violation["pair"] == (1, 1)
    assert res.violation["lhs"] == res.violation["rhs"].scale(Fraction(4))


def test_rep_check_reports_off_diagonal_pair():
    # rho(X_1) := rho(X_2) keeps every square, but [X_1, X_2] = 0 fails
    res = perturbed_spin_h2(1, lambda ops: ops[2])
    assert not res.ok
    assert res.violation["kind"] == "homomorphism"
    assert res.violation["pair"] == (1, 2)
    assert res.violation["rhs"].is_zero() and not res.violation["lhs"].is_zero()


def test_spinrep_refuses_large_fock_space_before_building(monkeypatch):
    def no_fock(n):
        raise AssertionError("FockSpace(%d) constructed" % n)

    monkeypatch.setattr(fock_module, "FockSpace", no_fock)
    with pytest.raises(SuperAlgebraError, match="2\\^13"):
        spin_representation("spin_h", 13)


def test_fock_cap_refuses_huge_n_without_allocating():
    import tracemalloc
    fock_module._require_fock_dim(12)          # 2^12 is the cap itself
    tracemalloc.start()
    try:
        with pytest.raises(SuperAlgebraError):
            spin_representation("spin_h", 10 ** 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_matrix_inverse_reads_each_column_off_one_solver():
    m = [[Fraction(2), Fraction(1, 3)], [ONE, -ONE]]
    inv = tangentrep._matrix_inverse(m)
    m, inv, eye = sym_rows(m), sym_rows(inv), sym_rows([unit(2, 0), unit(2, 1)])
    assert dense_matmul(m, inv) == eye and dense_matmul(inv, m) == eye
    with pytest.raises(SuperAlgebraError, match="singular matrix"):
        tangentrep._matrix_inverse([[ONE, Fraction(2)], [ONE, Fraction(2)]])


def test_tilde_tangent_su2():
    rep = tilde_tangent_representation("su", 2)
    assert rep.space_dim == 8                # Fock space over three generators
    assert rep.meta["faithful"]
    g = rep.algebra
    # central generator maps to a nonzero scalar
    central = rep.operators[0]
    assert central == SparseOp.identity(8).scale(Scalar(0, rep.meta["scale"]))
    assert not central.is_zero()
    res = check_unitary_representation(g, rep)
    assert res.ok and res.faithful


def test_tilde_tangent_so5_reaches_fock_dim_1024():
    # the construction runs check_unitary_representation and refuses a
    # representation that fails it or is not faithful
    rep = tilde_tangent_representation("so", 5)
    assert rep.space_dim == 1024
    assert rep.meta["faithful"]


def test_defining_rep_u11():
    g = build_family("u", 1, 1)
    rep = defining_representation(g)
    res = check_unitary_representation(g, rep)
    assert res.ok and res.faithful
    # the realization's matrices are the operators, not copies
    assert all(op is m for op, m in zip(rep.operators, g.meta["realization"].mats))


def test_trivial_rep_not_faithful():
    g = build_family("psu", 2)
    zero_ops = [SparseOp.zero(2) for _ in range(g.dim)]
    rep = Representation(g, [0, 1], zero_ops)
    res = check_unitary_representation(g, rep)
    assert res.ok and not res.faithful


def test_representation_refuses_dense_operators():
    g = build_family("psu", 2)
    ops = [SparseOp.zero(2) for _ in range(g.dim)]
    ops[3] = [[ZERO, ZERO], [ZERO, ZERO]]
    with pytest.raises(TypeError):
        Representation(g, [0, 1], ops)


def rep_json_dict(rep):
    """The byte-identity oracle of Representation.json_chunks: the whole
    representation as one dict, each operator as its dense rows, for one
    json.dumps."""
    dim = rep.space_dim
    zero = ["0", "1", "0", "1"]

    def matrix(op):
        rows = [[zero] * dim for _ in range(dim)]
        for j, col in enumerate(op.cols):
            for i, (a, b) in col.items():
                re, im = Fraction(a, op.den), Fraction(b, op.den)
                rows[i][j] = [str(re.numerator), str(re.denominator),
                              str(im.numerator), str(im.denominator)]
        return rows

    return {
        "space": {"dim": str(dim), "parities": list(rep.space_parities)},
        "gram": "identity",
        "operators": [
            {"basis_id": rep.algebra.space.labels[i], "matrix": matrix(op)}
            for i, op in enumerate(rep.operators)],
    }


def rep_text(rep):
    return "".join(rep.json_chunks())


def test_rep_json_export():
    rep = spin_representation("spin_h", 1)
    d = json.loads(rep_text(rep))
    assert d["gram"] == "identity"
    assert d["space"]["dim"] == "2"
    assert len(d["operators"]) == 3


# the nonzero entries (i, j, re num, re den, im num, im den) of the q(1)
# defining operators, e0..e6, and of the same operators scaled by 1/2 - i/3
_Q1_ENTRIES = [
    [(0, 0, "0", "1", "1", "1"), (2, 2, "0", "1", "1", "1")],
    [(1, 1, "0", "1", "1", "1"), (3, 3, "0", "1", "1", "1")],
    [(0, 1, "1", "1", "0", "1"), (1, 0, "-1", "1", "0", "1"),
     (2, 3, "1", "1", "0", "1"), (3, 2, "-1", "1", "0", "1")],
    [(0, 1, "0", "1", "1", "1"), (1, 0, "0", "1", "1", "1"),
     (2, 3, "0", "1", "1", "1"), (3, 2, "0", "1", "1", "1")],
    [(0, 2, "1", "1", "1", "1"), (1, 3, "-1", "1", "-1", "1"),
     (2, 0, "1", "1", "1", "1"), (3, 1, "-1", "1", "-1", "1")],
    [(0, 3, "1", "1", "-1", "1"), (1, 2, "-1", "1", "1", "1"),
     (2, 1, "1", "1", "-1", "1"), (3, 0, "-1", "1", "1", "1")],
    [(0, 3, "1", "1", "1", "1"), (1, 2, "1", "1", "1", "1"),
     (2, 1, "1", "1", "1", "1"), (3, 0, "1", "1", "1", "1")],
]
_Q1_SCALED_ENTRIES = [
    [(0, 0, "1", "3", "1", "2"), (2, 2, "1", "3", "1", "2")],
    [(1, 1, "1", "3", "1", "2"), (3, 3, "1", "3", "1", "2")],
    [(0, 1, "1", "2", "-1", "3"), (1, 0, "-1", "2", "1", "3"),
     (2, 3, "1", "2", "-1", "3"), (3, 2, "-1", "2", "1", "3")],
    [(0, 1, "1", "3", "1", "2"), (1, 0, "1", "3", "1", "2"),
     (2, 3, "1", "3", "1", "2"), (3, 2, "1", "3", "1", "2")],
    [(0, 2, "5", "6", "1", "6"), (1, 3, "-5", "6", "-1", "6"),
     (2, 0, "5", "6", "1", "6"), (3, 1, "-5", "6", "-1", "6")],
    [(0, 3, "1", "6", "-5", "6"), (1, 2, "-1", "6", "5", "6"),
     (2, 1, "1", "6", "-5", "6"), (3, 0, "-1", "6", "5", "6")],
    [(0, 3, "5", "6", "1", "6"), (1, 2, "5", "6", "1", "6"),
     (2, 1, "5", "6", "1", "6"), (3, 0, "5", "6", "1", "6")],
]


def _q1_json(entries):
    ops = []
    for k, nonzero in enumerate(entries):
        matrix = [[["0", "1", "0", "1"] for _ in range(4)] for _ in range(4)]
        for i, j, *e in nonzero:
            matrix[i][j] = e
        ops.append({"basis_id": "e%d" % k, "matrix": matrix})
    return {"space": {"dim": "4", "parities": [0, 0, 1, 1]},
            "gram": "identity", "operators": ops}


def test_rep_json_pins_complex_entries_and_denominators():
    # entries a + bi with a and b both nonzero, and (after the scaling by
    # 1/2 - i/3) with denominators other than 1; no golden file holds either
    g = build_family("q", 1)
    rep = defining_representation(g)
    assert json.loads(rep_text(rep)) == _q1_json(_Q1_ENTRIES)
    assert json.loads(rep_text(_q1_scaled(rep))) == _q1_json(_Q1_SCALED_ENTRIES)


def _q1_scaled(rep):
    """The q(1) defining operators scaled by 1/2 - i/3."""
    t = Scalar(Fraction(1, 2), Fraction(-1, 3))
    return Representation(rep.algebra, rep.space_parities,
                          [op.scale(t) for op in rep.operators])


def _q1():
    return defining_representation(build_family("q", 1))


_BYTE_IDENTITY_CASES = (
    [pytest.param(lambda v=v, n=n: spin_representation(v, n), id="%s(%d)" % (v, n))
     for v in ("spin_h", "spin_h_hat") for n in range(1, 7)]
    + [pytest.param(lambda k=k, n=n: tilde_tangent_representation(k, n),
                    id="Ttilde(%s%d)" % (k, n))
       for k, n in (("su", 2), ("so", 3), ("sp", 1))]
    + [pytest.param(_q1, id="q(1)"),
       pytest.param(lambda: _q1_scaled(_q1()), id="q(1) scaled")])


@pytest.mark.parametrize("make", _BYTE_IDENTITY_CASES)
def test_streamed_json_is_the_text_of_the_oracle_dict(make):
    rep = make()
    want = json.dumps(rep_json_dict(rep), sort_keys=True, separators=(",", ":")) + "\n"
    assert rep_text(rep) == want


def test_rep_json_shares_the_zero_entry():
    # a spin operator has one nonzero entry per column; the 4^n - O(2^n)
    # zero entries of --out must cost a reference each, not a string each,
    # and only one operator's rows may be held at a time
    import tracemalloc
    rep = spin_representation("spin_h_hat", 7)
    tracemalloc.start()
    try:
        for _ in rep.json_chunks():
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(json.loads(rep_text(rep))["operators"]) == 16
    assert peak < 32 * rep.space_dim ** 2


# --- sparse operators against the dense oracle -------------------------------

_gaussian = st.one_of(
    st.just(ZERO),
    st.builds(lambda a, b, c, d: Scalar(Fraction(a, b), Fraction(c, d)),
              st.integers(-4, 4), st.integers(1, 4),
              st.integers(-4, 4), st.integers(1, 4)))


def sparse(m):
    """The SparseOp of dense oracle rows."""
    return SparseOp.from_entries(len(m), {(i, j): v for i, row in enumerate(m)
                                          for j, v in enumerate(row) if v})


def dense_entrywise(op, a, b):
    return [[sympy.expand(op(x, y)) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_conj_transpose(m):
    return [[sympy.expand(sympy.conjugate(v)) for v in col] for col in zip(*m)]


@st.composite
def gaussian_matrix_pairs(draw):
    n = draw(st.integers(1, 6))
    return tuple([[draw(_gaussian) for _ in range(n)] for _ in range(n)]
                 for _ in range(2))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(gaussian_matrix_pairs(), _gaussian)
def test_sparse_ops_match_dense_oracle(pair, s):
    a, b = pair
    sa, sb = sparse(a), sparse(b)
    ya, yb = sym_rows(a), sym_rows(b)
    assert dense(sa) == ya and dense(sb) == yb
    assert dense(sa @ sb) == dense_matmul(ya, yb)
    assert dense(sa + sb) == dense_entrywise(operator.add, ya, yb)
    assert dense(sa - sb) == dense_entrywise(operator.sub, ya, yb)
    assert dense(sa.conj_transpose()) == dense_conj_transpose(ya)
    assert sa.is_zero() == (not any(map(any, a)))
    assert (sa == sb) == (a == b)
    for t in (s, s.real, ZERO):
        assert dense(sa.scale(t)) == [[sympy.expand(sym(t) * x) for x in row] for row in ya]
    # equal values have equal canonical forms
    assert sa.scale(2).scale(Fraction(1, 2)) == sa
    assert sa.scale(I).scale(-I) == sa
    assert sparse([[scalar(x) for x in row] for row in dense(sa @ sb)]) == sa @ sb
    zero = sa - sa
    assert zero == SparseOp.zero(len(a)) and zero.den == 1 and zero.is_zero()


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(_gaussian, min_size=n, max_size=n)))
def test_ladders_are_real_linear(f):
    # a(f) = sum conj(f_j) a(e_j) and a*(f) = sum f_j a*(e_j): what check_car
    # shows on the real basis {e_j, i e_j} then holds for every f
    n = len(f)
    fock = FockSpace(n)
    ann = cre = SparseOp.zero(fock.dim)
    for j, v in enumerate(f):
        ann = ann + fock.annihilation(unit(n, j)).scale(v.conjugate())
        cre = cre + fock.creation(unit(n, j)).scale(v)
    assert fock.annihilation(f) == ann
    assert fock.creation(f) == cre


@st.composite
def gaussian_entries(draw):
    """(n, {(i, j): value}) with Gaussian values, zeros included."""
    n = draw(st.integers(1, 6))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return n, draw(st.dictionaries(cells, _gaussian, max_size=n * n))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(gaussian_entries())
def test_from_entries_and_realify_match_dense_oracle(case):
    n, entries = case
    op = SparseOp.from_entries(n, entries)
    want = [[ZERO] * n for _ in range(n)]
    for (i, j), v in entries.items():
        want[i][j] = v
    assert dense(op) == sym_rows(want)
    # row-major, each entry as its (real, imaginary) pair
    assert realify(op) == [x for row in want for v in row for x in (v.real, v.imag)]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(gaussian_entries(), st.integers(0, 6))
def test_block_parity_accepts_pure_and_refuses_mixed_matrices(case, p):
    n, entries = case
    p = min(p, n)
    op = SparseOp.from_entries(n, entries)
    even = {ij: v for ij, v in entries.items() if (ij[0] < p) == (ij[1] < p)}
    odd = {ij: v for ij, v in entries.items() if (ij[0] < p) != (ij[1] < p)}
    assert block_parity(SparseOp.from_entries(n, even), p) == 0
    if any(odd.values()):
        assert block_parity(SparseOp.from_entries(n, odd), p) == 1
    if any(even.values()) and any(odd.values()):
        with pytest.raises(SuperAlgebraError):
            block_parity(op, p)
    else:
        assert block_parity(op, p) == int(any(odd.values()))
