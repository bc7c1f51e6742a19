import functools
import gc
import math
import random
import time
import types

import pytest
from hypothesis import given, settings, strategies as st

from superdecomp.spaces import SuperAlgebraError, SuperSpace, Subspace
from superdecomp.core import SuperAlgebra, direct_sum, quotient_by_central
from superdecomp.invariants import center, verify_superalgebra
from superdecomp.calculus import bracket_span, lie_generators, module_actions, module_commutant
from superdecomp.exact import LinSolver, ONE, ZERO, Scalar, vec_unit, vec_zero
from superdecomp.families import build_family, expected_dims
from superdecomp import calculus, decomp, ideals, split
from superdecomp.split import DecompositionError, _invariant_complement, spin_up, split_module
from superdecomp.ideals import classify_indices
from superdecomp.decomp import decompose_odd, reduce_to_odd_generated, structure_report
from superdecomp.unitar import necessary_conditions_report


def glued_su22_q2():
    s = direct_sum(build_family("su", 2, 2), build_family("q", 2))
    emb_a, emb_b = s.meta["embeddings"]
    su22 = build_family("su", 2, 2)
    zvec = vec_zero(s.dim)
    zvec[emb_a[su22.d0 - 1]] = ONE            # 2*i1 inside su(2|2)
    for j in range(3):
        zvec[emb_b[j]] = Scalar(-2)           # -2*i1 inside q(2)
    g, _ = quotient_by_central(s, s.subspace([zvec]))
    return g


def test_reduce_u11():
    g = build_family("u", 1, 1)
    red = reduce_to_odd_generated(g)
    assert red.core_even.dim == 1
    assert red.core.dim == 3                  # Clifford-Heisenberg part
    assert red.complement.dim == 1


def test_reduce_trivial_for_odd_generated():
    red = reduce_to_odd_generated(build_family("q", 2))
    assert red.complement.dim == 0


def test_reduce_direct_sum_with_even_algebra():
    from superdecomp.families import build_lie_algebra
    k = build_lie_algebra("su", 3)
    g = direct_sum(build_family("su", 2, 1), k)
    red = reduce_to_odd_generated(g)
    assert red.complement.dim == 8


def test_reduce_refuses_an_even_complement_that_is_not_a_subalgebra():
    # even c, x, y with [x, y] = c and odd X with [X, X] = 2c: [g1, g1] is
    # span(c), and its even complement span(x, y) commutes with it but does
    # not close, since [x, y] = c lies outside it
    g = SuperAlgebra(SuperSpace.make(3, 1), {(1, 2): {0: ONE}, (3, 3): {0: Scalar(2)}})
    with pytest.raises(DecompositionError, match="even complement is not a subalgebra"):
        reduce_to_odd_generated(g)


def test_decompose_odd_su22_two_real_copies():
    # over the reals the odd part of su(2|2) is H + iH: two isomorphic
    # 4-dimensional simple summands (the complex module is irreducible,
    # its realification is not)
    g = build_family("su", 2, 2)
    red = reduce_to_odd_generated(g)
    dec = decompose_odd(g, red.core_even)
    assert dec.b.dim == 0
    assert [s.dim for s in dec.summands] == [4, 4]
    cls = classify_indices(g, dec)
    assert cls.js == [0, 1] and cls.pairing == {0: 1, 1: 0}
    # squares of each copy are central (the paired-index relation)
    z = center(g)
    for s in dec.summands:
        sq = bracket_span(g, s, s)
        assert sq.dim == 1 and z.contains_subspace(sq)


def test_decompose_odd_q2_adjoint():
    g = build_family("q", 2)
    red = reduce_to_odd_generated(g)
    dec = decompose_odd(g, red.core_even)
    assert dec.b.dim == 0
    assert [s.dim for s in dec.summands] == [8]
    # absolutely simple: scalar commutant
    assert dec.certificates[0]["commutant_dim"] == 1


def test_decompose_direct_sum_two_summands():
    g = direct_sum(build_family("su", 2, 1), build_family("q", 2))
    red = reduce_to_odd_generated(g)
    dec = decompose_odd(g, red.core_even)
    assert sorted(s.dim for s in dec.summands) == [4, 8]


def test_classify_that_singleton_ja():
    g = build_family("T_hat", "su", 2)
    red = reduce_to_odd_generated(g)
    dec = decompose_odd(g, red.core_even)
    cls = classify_indices(g, dec)
    assert cls.js == [] and cls.ja == [0]


def odd_module_of(g):
    """(basis of [g1, g1], basis of a = [[g1, g1], g1]): the acting
    elements and the module of decompose_odd."""
    red = reduce_to_odd_generated(g)
    return red.core_even.basis, bracket_span(g, red.core_even, g.odd_subspace()).basis


def every_action(g, elements, basis):
    """The actions on span(basis) of all the elements, in column form: the
    oracle for calculus.module_actions.  Each action is solved for in
    Fractions from the dense brackets and scaled to coprime ints."""
    solver = LinSolver(basis, g.dim)
    out = []
    for x in elements:
        cols = [solver.coords(g.bracket(x, v)) for v in basis]
        den = math.lcm(*(a.denominator for col in cols for a in col))
        ints = [[(i, int(a * den)) for i, a in enumerate(col) if a] for col in cols]
        c = math.gcd(*(a for col in ints for _, a in col)) or 1
        out.append([[(i, a // c) for i, a in col] for col in ints])
    return out


def part_actions(g, part):
    """ad e_x on the basis vectors of the index range part, for every even
    basis vector e_x, in column form."""
    return module_actions(g, g.even_subspace().basis, [g.basis_vector(i) for i in part])


def odd_module(tag, *params):
    """The odd module a under every basis element of [g1, g1]:
    (actions, dim)."""
    g = build_family(tag, *params)
    elements, basis = odd_module_of(g)
    return every_action(g, elements, basis), len(basis)


def test_split_module_into_33_eigenspaces():
    # diag(1, ..., 33) on Q^33: the pieces try 2 * 33 - 1 commutant
    # elements in all before every one is a line
    pieces = split_module([[[(j, j + 1)] for j in range(33)]], 33)
    assert sorted(pieces, reverse=True) == [([vec_unit(33, j)], {"commutant_dim": 1})
                                            for j in range(33)]


def act(cols, v):
    """The image of v under an action in column form."""
    out = [ZERO] * len(cols)
    for j, col in enumerate(cols):
        for i, a in col:
            out[i] += a * v[j]
    return out


def so3_conjugated(cols):
    """so(3) acting on Q^3 + Q^3, written in the basis given by the columns
    cols of an invertible matrix P, with the first copy's basis in those
    coordinates; the actions are in column form.  Raises ValueError when
    P is singular."""
    solver = LinSolver(cols, 6)
    actions = []
    for a, b in ((1, 2), (2, 0), (0, 1)):
        m = [[] for _ in range(6)]            # e_b -> e_a, e_a -> -e_b
        for off in (0, 3):
            m[off + b].append((off + a, ONE))
            m[off + a].append((off + b, -ONE))
        conj = []                             # P^-1 m P, column by column
        for col in cols:
            coords = solver.coords(act(m, col))
            conj.append([(i, c) for i, c in enumerate(coords) if c])
        actions.append(conj)
    first = [solver.coords(unit(i)) for i in range(3)]
    return actions, first


def unit(i):
    return [ONE if k == i else ZERO for k in range(6)]


def so3_on_two_copies(seed, in_first_copy=False):
    """so3_conjugated for a seeded invertible integer matrix P; with
    in_first_copy, P's first column lies in the first copy."""
    rng = random.Random(seed)
    drawn = 3 if in_first_copy else 6
    while True:
        cols = [[rng.randint(-3, 3) * ONE for _ in range(drawn)] + [ZERO] * (6 - drawn)]
        cols += [[rng.randint(-3, 3) * ONE for _ in range(6)] for _ in range(5)]
        try:
            return so3_conjugated(cols)
        except ValueError:
            pass


@pytest.mark.parametrize("seed", range(10))
def test_invariant_complement_of_one_copy(seed):
    actions, w = so3_on_two_copies(seed)
    comm = module_commutant(actions, 6)
    assert len(comm) == 4                     # M_2(Q)
    comp = _invariant_complement(comm, w, 6)
    assert comp is not None and len(comp) == 3
    assert Subspace(6, w + comp).dim == 6
    span = Subspace(6, comp)
    for cols in actions:
        assert all(span.contains(act(cols, v)) for v in comp)


def test_invariant_complement_none_for_jordan_block():
    nil = [[], [(0, ONE)]]                    # e_2 -> e_1, e_1 -> 0
    comm = module_commutant([nil], 2)
    assert _invariant_complement(comm, [[ONE, ZERO]], 2) is None


@pytest.mark.parametrize("dim, invariant_dim", [(2, 1), (3, 2)])
def test_split_module_refuses_a_module_that_is_not_semisimple(dim, invariant_dim):
    # E_12 on Q^dim: e_2 -> e_1, every other unit to 0; the invariant
    # subspace found first has no invariant complement
    e12 = [[], [(0, ONE)]] + [[] for _ in range(dim - 2)]
    with pytest.raises(DecompositionError, match="module is not semisimple") as err:
        split_module([e12], dim)
    assert err.value.evidence == {"invariant_dim": invariant_dim}


def assert_split_fills(actions, dim):
    """split_module's pieces are each invariant under every action, are
    independent together and fill the module."""
    pieces = split_module(actions, dim)
    vecs = [v for basis, _ in pieces for v in basis]
    assert len(vecs) == dim and Subspace(dim, vecs).dim == dim
    for basis, _ in pieces:
        span = Subspace(dim, basis)
        for cols in actions:
            assert all(span.contains(act(cols, v)) for v in basis)
    return pieces


@pytest.mark.parametrize("seed", range(30))
def test_split_module_pieces_so3_on_two_copies(seed):
    assert_split_fills(so3_on_two_copies(seed)[0], 6)


def test_split_module_through_a_zero_divisor(monkeypatch):
    # in the basis e0, e1, e3, e5, e2, e4 the first commutant element is
    # singular and its characteristic polynomial is a power of one factor,
    # so its kernel, the first copy, is split off with an invariant
    # complement, the second copy
    actions, first = so3_conjugated([unit(i) for i in (0, 1, 3, 5, 2, 4)])
    assert first == [unit(0), unit(1), unit(4)]
    calls = []
    with_complement = split._with_complement

    def spy(comm, wbasis, dim):
        calls.append((len(comm), wbasis))
        return with_complement(comm, wbasis, dim)

    monkeypatch.setattr(split, "_with_complement", spy)
    pieces = assert_split_fills(actions, 6)
    assert calls == [(4, first)]
    assert pieces == [(first, {"commutant_dim": 1}),
                      ([unit(2), unit(3), unit(5)], {"commutant_dim": 1})]


@pytest.mark.parametrize("seed", range(7))
def test_split_module_by_spin_up(seed, monkeypatch):
    # no element of the commutant basis (M_2(Q)) splits these modules; e_0,
    # P's first column, spins up to the first copy, and its invariant
    # complement completes the split
    actions, first = so3_on_two_copies(seed, in_first_copy=True)
    spun, completed = [], []
    spin, complete = split.spin_up, split._with_complement

    def spin_spy(acts, v, dim):
        w = spin(acts, v, dim)
        spun.append((dim, v, w))
        return w

    def complete_spy(comm, wbasis, dim):
        completed.append((len(comm), wbasis))
        return complete(comm, wbasis, dim)

    monkeypatch.setattr(split, "spin_up", spin_spy)
    monkeypatch.setattr(split, "_with_complement", complete_spy)
    pieces = assert_split_fills(actions, 6)
    dim, v, w = spun[0]
    assert (dim, v, w) == (6, vec_unit(6, 0), Subspace(6, first))
    assert completed == [(4, w.basis)]
    assert pieces[0][0] == w.basis
    assert [cert for _, cert in pieces] == [{"commutant_dim": 1}] * 2


@pytest.mark.parametrize("tag,params", [
    ("su", (2, 1)), ("su", (2, 2)), ("q", (2,)), ("c", (2,)), ("T_hat", ("su", 2)),
])
def test_split_module_pieces_odd_modules(tag, params):
    assert_split_fills(*odd_module(tag, *params))


# ---------------------------------------------------------------------------
# module actions by Lie generators, against the actions of every element
# ---------------------------------------------------------------------------

def assert_generators_act_as_all(g, elements, basis):
    """Commutant, spin-up from each unit vector and split are the same under
    the generators' actions as under those of every element; returns the
    number of generators kept."""
    gens = module_actions(g, lie_generators(g, elements), basis)
    full = every_action(g, elements, basis)
    dim = len(basis)
    assert module_commutant(gens, dim) == module_commutant(full, dim)
    for i in range(dim):
        assert spin_up(gens, vec_unit(dim, i), dim) == spin_up(full, vec_unit(dim, i), dim)
    assert split_module(gens, dim) == split_module(full, dim)
    return len(gens)


def test_actions_hold_integer_columns(monkeypatch):
    # the contract of calculus.module_actions: every action, and every action
    # restricted to a piece by the splitter, has int entries
    from test_acceptance import ACCEPT_FAMILIES
    seen = []

    def recording(fn, pick):
        def wrapped(*args):
            out = fn(*args)
            seen.extend(pick(args, out))
            return out
        return wrapped

    for mod in (decomp, ideals):
        monkeypatch.setattr(mod, "module_actions",
                            recording(calculus.module_actions, lambda args, out: out))
    # split_module recurses through the module global, so each piece's
    # restricted actions pass through the wrapper
    monkeypatch.setattr(split, "split_module",
                        recording(split.split_module, lambda args, out: args[0]))
    for tag, params in ACCEPT_FAMILIES:
        g = build_family(tag, *params)
        for part in (g.space.even_indices(), g.space.odd_indices()):
            seen.extend(part_actions(g, part))
        try:
            structure_report(g)
        except DecompositionError:
            pass
    assert seen
    assert all(type(a) is int for cols in seen for col in cols for _, a in col)
    # each action of module_actions is primitive, also where the adjoint
    # table carries a denominator: its entries have no common factor
    g = direct_sum(build_family("su", 2, 2), build_family("psu", 2))
    assert g.adjoint_table()[1] == 2
    for part in (g.space.even_indices(), g.space.odd_indices()):
        for cols in part_actions(g, part):
            assert math.gcd(*(a for col in cols for _, a in col)) in (0, 1)


def test_generator_actions_match_on_acceptance_odd_modules():
    from test_acceptance import ACCEPT_FAMILIES
    for tag, params in ACCEPT_FAMILIES:
        g = build_family(tag, *params)
        elements, basis = odd_module_of(g)
        if basis:
            assert_generators_act_as_all(g, elements, basis)


def test_module_actions_read_each_column_over_its_own_denominator():
    # su(2|1)'s odd module on basis vectors scaled by 1/2, 1/3, ...: with
    # every image read as a bare int row the columns lose their relative
    # scale, and the commutant drops from dimension 2 to 1
    g = build_family("su", 2, 1)
    elements = g.even_subspace().basis
    basis = [[a / (k + 2) for a in g.basis_vector(i)]
             for k, i in enumerate(g.space.odd_indices())]
    actions, oracle = module_actions(g, elements, basis), every_action(g, elements, basis)
    assert actions == oracle
    comm = module_commutant(actions, g.d1)
    assert len(comm) == 2 and comm == module_commutant(oracle, g.d1)
    assert split_module(actions, g.d1) == split_module(oracle, g.d1)


def test_report_record_appends_then_raises_with_its_detail():
    report = decomp.DecompositionReport(build_family("su", 2, 1))
    report.record("holds", True)
    with pytest.raises(DecompositionError, match="assertion failed: fails") as err:
        report.record("fails", False, detail={"ideal": (0,)})
    assert err.value.evidence == {"ideal": (0,)}
    assert report.assertions == [{"name": "holds", "ok": True},
                                 {"name": "fails", "ok": False, "detail": "{'ideal': (0,)}"}]


def so3_superalgebra(actions):
    """so(3) + Q^6 with so(3) acting on the odd part Q^6 through the given
    column-form actions and [g1, g1] = 0; the even brackets are read off
    the commutators of the actions."""
    def dense(cols):
        m = [[ZERO] * 6 for _ in range(6)]
        for j, col in enumerate(cols):
            for i, a in col:
                m[i][j] = a
        return [a for row in m for a in row]

    mats = [dense(cols) for cols in actions]
    solver = LinSolver(mats, 36)
    table = {}
    for a in range(3):
        for b in range(a + 1, 3):
            comm = [sum(mats[a][6 * i + k] * mats[b][6 * k + j]
                        - mats[b][6 * i + k] * mats[a][6 * k + j] for k in range(6))
                    for i in range(6) for j in range(6)]
            table[(a, b)] = {c: x for c, x in enumerate(solver.coords(comm)) if x}
        for j, col in enumerate(actions[a]):
            table[(a, 3 + j)] = {3 + i: x for i, x in col}
    return SuperAlgebra(SuperSpace.make(3, 6), table)


@pytest.mark.parametrize("seed", range(30))
def test_generator_actions_match_on_so3_on_two_copies(seed):
    g = so3_superalgebra(so3_on_two_copies(seed)[0])
    assert verify_superalgebra(g) is None
    even = [g.basis_vector(i) for i in range(3)]
    odd = [g.basis_vector(i) for i in range(3, 9)]
    # [X_0, X_1] spans X_2, so two of the three act
    assert assert_generators_act_as_all(g, even, odd) == 2


@pytest.mark.parametrize("seed", range(2))
def test_generator_actions_match_on_rebased_su22(seed):
    from test_core import rebase
    g, _ = rebase(build_family("su", 2, 2), seed)
    elements, basis = odd_module_of(g)
    assert assert_generators_act_as_all(g, elements, basis) < len(elements)


def lie_closure(g, vecs):
    """The span of vecs closed under the bracket, by brackets of dense
    basis vectors until the dimension stops growing."""
    span = Subspace(g.dim, vecs)
    while True:
        grown = span.sum(Subspace(g.dim, [g.bracket(u, w) for u in span.basis
                                          for w in span.basis]))
        if grown.dim == span.dim:
            return span
        span = grown


GENERATOR_FAMILIES = [("su", (2, 1)), ("q", (2,)), ("c", (2,)), ("T_hat", ("su", 2))]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from(GENERATOR_FAMILIES), st.sampled_from((0, 1)),
       st.lists(st.lists(st.integers(-2, 2), min_size=16, max_size=16),
                min_size=1, max_size=5))
def test_lie_generators_generate_every_vector(family, parity, coeffs):
    # homogeneous vectors of one parity; each kept vector lies outside
    # the closure of the vectors before it, and every vector inside the
    # closure of those kept
    g = build_family(family[0], *family[1])
    part = g.space.odd_indices() if parity else g.space.even_indices()
    vecs = []
    for c in coeffs:
        v = vec_zero(g.dim)
        for i, a in zip(part, c):
            v[i] = Scalar(a)
        vecs.append(v)
    gens = lie_generators(g, vecs)
    closure = lie_closure(g, gens)
    assert all(closure.contains(v) for v in vecs)
    kept = iter(gens)
    nxt = next(kept, None)
    for i, v in enumerate(vecs):
        inside = lie_closure(g, vecs[:i]).contains(v) if i else not any(v)
        if nxt is v:
            assert not inside, i
            nxt = next(kept, None)
        else:
            assert inside, i
    assert nxt is None


def su21_corrupted():
    """su(2|1) with 1 added to the first term of its first table entry; the
    Jacobi identity then fails at (0, 1, 4)."""
    g = build_family("su", 2, 1)
    table = {key: dict(terms) for key, terms in g.table.items()}
    terms = next(iter(table.values()))
    k = next(iter(terms))
    terms[k] += 1
    return SuperAlgebra(g.space, table)


def test_reports_refuse_a_non_superalgebra():
    bad = su21_corrupted()
    for report in (structure_report, necessary_conditions_report):
        with pytest.raises(SuperAlgebraError, match=r"Violation\(jacobi, \(0, 1, 4\)\)"):
            report(bad)
    with pytest.raises(SuperAlgebraError, match="jacobi"):
        lie_generators(bad, [bad.basis_vector(0)])


def test_structure_report_q2():
    rep = structure_report(build_family("q", 2))
    assert rep.classification.js == [0]
    assert rep.classification.pairing == {0: 0}
    assert rep.kernel_dim == 0
    assert rep.b.dim == 0
    assert rep.center.dim == 1
    info = rep.ideals[0]
    assert info.classification[0] == "q"
    # b is zero so no queer extension flag is raised
    assert "qhat_embedding" not in info.flags


def test_structure_report_that():
    rep = structure_report(build_family("T_hat", "su", 2))
    assert rep.classification.ja == [0]
    assert rep.b.dim == 1
    info = rep.ideals[0]
    assert info.kind == "Ja"
    assert info.classification[0] == "T"
    assert info.kk_dim == 3
    # hat c(k) assertion ran
    assert any(a["name"].startswith("hat_c_quotient") and a["ok"]
               for a in rep.assertions)


def test_build_g_ideal_splits_both_odd_summands(monkeypatch):
    # a paired ideal g(j) (j != j') holds two odd summands, and each must
    # stay simple over the ideal's even part
    inside, acted_on = [], []
    build, actions = ideals.build_g_ideal, ideals.module_actions

    def building(*args):
        inside.append(True)
        try:
            return build(*args)
        finally:
            inside.pop()

    def acting(g, elements, basis_vecs):
        if inside:
            acted_on.append(basis_vecs)
        return actions(g, elements, basis_vecs)

    monkeypatch.setattr(decomp, "build_g_ideal", building)
    monkeypatch.setattr(ideals, "module_actions", acting)
    rep = structure_report(build_family("su", 2, 2))
    [info] = rep.ideals
    j, jp = info.indices
    assert j != jp
    assert acted_on == [rep.decomposition.summands[k].basis for k in (j, jp)]


def test_structure_report_glued():
    g = glued_su22_q2()
    rep = structure_report(g)
    assert len(rep.ideals) == 2
    kinds = sorted(info.classification[0] for info in rep.ideals)
    assert kinds == ["q", "su(n|n)"]
    assert rep.kernel_dim == 1
    assert rep.center.dim == 1
    assert rep.b.dim == 0
    # the kernel-centrality assertion was recorded
    assert any(a["name"] == "kernel_component_central" and a["ok"]
               for a in rep.assertions)


def test_structure_report_qhat_embedding():
    rep = structure_report(build_family("q_hat", 2))
    info = rep.ideals[0]
    assert info.classification[0] == "q"
    cert = info.flags["qhat_embedding"]
    assert cert["verified"]
    assert cert["parameter"] == 2
    assert cert["dims_match"] and cert["fingerprint_match"]


def test_structure_report_rejects_even_only():
    from superdecomp.families import build_lie_algebra
    with pytest.raises(DecompositionError):
        structure_report(build_lie_algebra("su", 2))


def test_structure_report_rejects_odd_center():
    # abelian (1|1): the center has an odd component
    g = SuperAlgebra(SuperSpace.make(1, 1), {})
    with pytest.raises(DecompositionError):
        structure_report(g)


def test_grsplit_su21_plus_that():
    g = direct_sum(build_family("su", 2, 1), build_family("T_hat", "su", 2))
    zba, b_r, g_r = structure_report(g).gr
    assert zba.dim == 0 and b_r.dim == 1
    assert g_r.dim == g.dim                   # g_r = [g, g] + b_r = g


def test_grsplit_b_zero_gives_whole_algebra():
    # perfect input: g_r = [g, g] = g
    g = build_family("q", 2)
    zba, b_r, g_r = structure_report(g).gr
    assert zba.dim == 0 and b_r.dim == 0 and g_r.dim == g.dim


def test_report_json_deterministic():
    import json
    g = build_family("T_hat", "su", 2)
    a = json.dumps(structure_report(g).to_json_dict(), sort_keys=True)
    b = json.dumps(structure_report(g).to_json_dict(), sort_keys=True)
    assert a == b


def that_residue(k):
    """(g, dec, the residue summand a_k, b0, kk_alg, kk_vecs) of g = T-hat k:
    a_k is the odd copy of k, kk = [b, a_k] = k and b0 = d/dxi."""
    g = build_family("T_hat", *k)
    dec = decompose_odd(g, reduce_to_odd_generated(g).core_even)
    [j] = classify_indices(g, dec).ja
    ak = dec.summands[j]
    b0 = ideals._pick_b0(g, dec.b, ak)
    _, _, _, kk_alg, kk_vecs = ideals.build_c_ideal(g, dec, j, b0)
    return g, dec, ak, b0, kk_alg, kk_vecs


@pytest.mark.parametrize("hat", [False, True])
@pytest.mark.parametrize("k", [("su", 2), ("su", 3), ("so", 3)])
def test_tangent_quotient_check_refuses_a_wrong_basis(k, hat):
    # T-hat k has one residue summand a_k; its c(k) certifies against T k
    # and its hat c(k) against T-hat k only in the basis kk_vecs that
    # ad b0 identifies with a_k
    g, _, ak, b0, kk_alg, kk_vecs = that_residue(k)

    def check(vecs):
        return ideals._verify_tangent_quotient(g, kk_alg, vecs, ak, b0, hat=hat)

    assert check(kk_vecs) is True
    negated = [[-a for a in kk_vecs[0]]] + kk_vecs[1:]
    assert check(negated) is False
    swapped = [kk_vecs[1], kk_vecs[0]] + kk_vecs[2:]
    assert check(swapped) is False


def test_tangent_quotient_check_refuses_each_broken_hypothesis():
    g, _, ak, b0, kk_alg, kk_vecs = that_residue(("su", 2))

    def check(ak, b0, hat=False):
        return ideals._verify_tangent_quotient(g, kk_alg, kk_vecs, ak, b0, hat=hat)

    assert check(ak, b0) is True and check(ak, b0, hat=True) is True
    # an element of kk maps a_k into a_k, not into kk
    assert check(ak, kk_vecs[0]) is False
    # an element of a_k brackets a_k to zero: ad b0 is not injective
    assert check(ak, ak.basis[0]) is False
    # b0 + u has [b0 + u, b0 + u] = 2 [b0, u] in kk, so quotienting by it
    # leaves kk_vecs dependent
    assert check(ak, [a + b for a, b in zip(b0, ak.basis[0])], hat=True) is False
    # two of the three odd vectors: k brackets them out of their span
    part = Subspace(g.dim, ak.basis[:2])
    assert check(part, b0) is False and check(part, b0, hat=True) is False


def test_qhat_certificate_refuses_a_span_that_b0_leaves():
    # b0 = d/dxi brackets the odd copy of k onto k, outside span + K b0
    g, dec, ak, _, _, _ = that_residue(("su", 2))
    cert = ideals.qhat_embedding_certificate(
        g, dec, dec.summands.index(ak), types.SimpleNamespace(span=ak))
    assert cert == {"verified": False, "reason": "not closed"}


def live_algebras():
    gc.collect()
    return {id(o) for o in gc.get_objects() if isinstance(o, SuperAlgebra)}


@pytest.mark.parametrize("make", [glued_su22_q2, lambda: build_family("T_hat", "su", 3)],
                         ids=["glued_su22_q2", "T_hat_su3"])
def test_report_drops_each_ideal_algebra_before_the_next_step(monkeypatch, make):
    # glued su(2|2) + q(2) has two J_s ideals and T-hat su(3) one J_a ideal;
    # when g(j) or hat c(k) is built, the only algebras alive beyond those
    # alive before the report are the call's own arguments
    g = make()
    before = live_algebras()
    extra = []

    def watched(fn):
        def call(*args):
            own = {id(a) for a in args if isinstance(a, SuperAlgebra)}
            extra.append((fn.__name__, len(live_algebras() - before - own)))
            return fn(*args)
        return call

    for name in ("build_g_ideal", "build_hat_c"):
        monkeypatch.setattr(decomp, name, watched(getattr(decomp, name)))
    structure_report(g)
    assert extra and all(n == 0 for _, n in extra), extra


# ---------------------------------------------------------------------------
# own-basis direct sums: answers known from the parts
# ---------------------------------------------------------------------------

SUM_PARTS = [("su", (2, 1)), ("u", (1, 1)), ("psu", (2,)), ("spin_h", (2,)),
             ("T_tilde", ("su", 2)), ("T_hat", ("su", 2)), ("c", (2,)), ("pq", (2,)),
             ("u", (2, 1)), ("q", (2,))]


def summands_and_verdicts(g):
    """(sorted (dim, classification) of the summands, verdict per condition)."""
    entries = structure_report(g).to_json_dict()["summands"]
    items = necessary_conditions_report(g).items
    return (sorted((e["dim"], e["classification"]) for e in entries),
            {key: it.verdict for key, it in items.items()})


@functools.lru_cache(maxsize=None)
def part_report(tag, params):
    return summands_and_verdicts(build_family(tag, *params))


# 2-3 parts with d0 + d1 <= 24; each example takes about 30 ms
@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(SUM_PARTS), min_size=2, max_size=3)
       .filter(lambda ps: sum(sum(expected_dims(t, p)) for t, p in ps) <= 24))
def test_own_basis_direct_sum_answers_follow_from_the_parts(parts):
    # the summands of g + h are those of g and of h; (i)-(iv) hold for g + h
    # exactly when they hold for both, and (v), a nonzero even center, when
    # it holds for either.  "inconclusive" contradicts nothing.
    tag, params = parts[0]
    s = build_family(tag, *params)
    for tag, params in parts[1:]:
        s = direct_sum(s, build_family(tag, *params))
    summands, verdicts = summands_and_verdicts(s)
    reports = [part_report(tag, params) for tag, params in parts]
    assert summands == sorted(e for ents, _ in reports for e in ents)
    for key, verdict in verdicts.items():
        of_parts = [v[key] for _, v in reports]
        if key == "v_even_center":
            assert verdict == ("pass" if "pass" in of_parts else "fail"), key
        elif verdict == "pass":
            assert "fail" not in of_parts, key
        elif verdict == "fail":
            assert of_parts.count("pass") < len(of_parts), key


# ---------------------------------------------------------------------------
# rebased inputs: the answers do not depend on the basis
# ---------------------------------------------------------------------------

REBASED_FAMILIES = [("su", (2, 1)), ("q", (2,)), ("spin_h", (2,)), ("c", (2,)),
                    ("T_tilde", ("su", 2)), ("T_hat", ("su", 2)), ("su", (3, 1)),
                    ("pq", (2,)), ("u", (1, 1))]
# CPU seconds allowed for one rebased report; the slowest, q(2), takes
# about 0.3 s on a 2-core x86-64 machine
REBASED_REPORT_CPU_S = 2.0
SPLITS_ISOTYPIC_AS_ONE = pytest.mark.xfail(
    strict=True, reason="the odd module S + S comes back as one 8-dim piece "
                        "(ROADMAP item 2: module simplicity is assumed, not proved)")


def summand_kinds(g):
    """The report's summands as sorted (dim, kind, classification), and the
    CPU seconds the report took."""
    t0 = time.process_time()
    entries = structure_report(g).to_json_dict()["summands"]
    return (sorted((e["dim"], e["kind"], e["classification"]) for e in entries),
            time.process_time() - t0)


@pytest.mark.parametrize("tag, params, seed", [
    *[(tag, params, seed) for tag, params in REBASED_FAMILIES for seed in range(5)],
    *[pytest.param(tag, params, seed, marks=SPLITS_ISOTYPIC_AS_ONE)
      for tag, params in [("su", (2, 2)), ("psu", (2,))] for seed in range(2)],
])
def test_rebased_decompose_matches_the_own_basis(tag, params, seed):
    from test_core import rebase
    g = build_family(tag, *params)
    rebased, _ = rebase(g, seed)
    got, cpu_s = summand_kinds(rebased)
    assert cpu_s <= REBASED_REPORT_CPU_S, cpu_s
    assert got == summand_kinds(g)[0]
