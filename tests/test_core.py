import ast
import functools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from superdecomp.exact import (
    Echelon, I, LinSolver, ONE, Scalar, ZERO, _int_row, _lin_comb, kernel,
    vec_is_zero, vec_unit, vec_zero,
)
from superdecomp.spaces import SuperAlgebraError, SuperSpace, Subspace
from superdecomp.core import (
    AlgebraFileError, SuperAlgebra, algebra_from_json_dict, algebra_in_basis,
    algebra_to_json_dict, direct_sum, quotient_by_central, tables_equal,
)
from superdecomp.invariants import (
    InvariantForm, Violation, center, centralizer, killing_form, verify_superalgebra,
)
from superdecomp.calculus import (
    bracket_span, derived, is_ideal, is_perfect, module_commutant,
)
from superdecomp.realize import NotClosedError, SparseOp, from_matrix_span
from superdecomp.split import spin_up
from superdecomp.ideals import subalgebra_from_subspace
from superdecomp.witness import find_witness
from superdecomp.unitar import invariant_odd_forms, invariant_symmetric_forms
from superdecomp.extend import (
    central_extension, is_trivial_cocycle, semidirect_by_derivation,
)
from superdecomp.families import build_family, build_lie_algebra
from test_families import to_matrix
from test_decomp import part_actions


def test_ungraded_subspace_is_refused():
    # the abelian (1|1) algebra <z | w>: span(z + w) is central, not graded
    g = SuperAlgebra(SuperSpace.make(1, 1), {})
    s = g.subspace([[ONE, ONE]])
    ev, od = s.parity_components(g.space.parities)
    assert (ev.dim, od.dim) == (1, 1) and not s.is_graded(g.space.parities)
    with pytest.raises(SuperAlgebraError, match="central subspace must be parity homogeneous"):
        quotient_by_central(g, s)
    with pytest.raises(SuperAlgebraError, match="subspace is not graded"):
        subalgebra_from_subspace(g, s)


def test_bracket_with_zero():
    g = build_family("u", 1, 1)
    x = g.basis_vector(2)
    assert vec_is_zero(g.bracket(x, vec_zero(g.dim)))


def test_u11_square_example():
    # odd matrix [[0,1],[i,0]] squares to i, so [X,X] = 2i * identity
    g = build_family("u", 1, 1)
    real = g.meta["realization"]
    x = SparseOp.from_entries(2, {(0, 1): ONE, (1, 0): I})
    coords = real.from_matrix(x)
    assert coords is not None
    sq = g.bracket(coords, coords)
    target = to_matrix(real, sq)
    expect = SparseOp.identity(2).scale(Scalar(0, 2))
    assert target == expect


def test_tangent_odd_brackets_vanish():
    g = build_family("T", "su", 2)
    for i in g.space.odd_indices():
        for j in g.space.odd_indices():
            assert vec_is_zero(g.bracket(g.basis_vector(i), g.basis_vector(j)))


def zeros(n):
    """The rows of the n x n zero matrix."""
    return [vec_zero(n) for _ in range(n)]


def ad_matrix(g, x):
    """The rows of ad x, column j = [x, e_j], through bracket."""
    cols = [g.bracket(x, g.basis_vector(j)) for j in range(g.dim)]
    return [list(r) for r in zip(*cols)]


def table_bracket(g, x, y):
    """[x, y] expanded bilinearly over the stored pairs i <= j, the pairs
    i > j filled in by super skew symmetry."""
    par = g.space.parities
    out = [Fraction(0)] * g.dim
    for (i, j), terms in g.table.items():
        # [e_j, e_i] = -(-1)^{|i||j|} [e_i, e_j]
        mirror = x[j] * y[i] * (1 if par[i] and par[j] else -1) if i != j else 0
        for k, v in terms.items():
            out[k] += (x[i] * y[j] + mirror) * v
    return out


@pytest.mark.parametrize("tag,params", [
    ("su", (2, 1)), ("q", (2,)), ("psu", (2,)), ("T_hat", ("su", 2)),
    ("spin_h_hat", (2,)), ("ch", (1,)),
])
def test_bracket_matches_table_oracle(tag, params):
    g = build_family(tag, *params)
    rng = random.Random(5)

    def vector(ints):
        out = []
        for _ in range(g.dim):
            if rng.random() < 0.3:
                out.append(0 if ints else ZERO)
            elif ints:
                out.append(rng.randint(-4, 4))
            else:
                out.append(Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        return out

    for trial in range(40):
        ints = trial % 4 == 0
        x, y = vector(ints), vector(ints)
        got = g.bracket(x, y)
        assert got == table_bracket(g, x, y), (tag, trial)
        assert all(type(a) is Fraction for a in got), (tag, trial)


def test_verify_ok_for_constructors():
    for tag, params in [("u", (1, 1)), ("su", (2, 1)), ("q", (1,)),
                        ("spin_h", (2,)), ("T_hat", ("su", 2))]:
        assert verify_superalgebra(build_family(tag, *params)) is None


def test_verify_detects_perturbation():
    g = build_family("u", 1, 1)
    table = {k: dict(v) for k, v in g.table.items()}
    (i, j), terms = sorted(table.items())[0]
    k0 = sorted(terms)[0]
    terms[k0] = terms[k0] + ONE
    bad = SuperAlgebra(g.space, table)
    v = verify_superalgebra(bad)
    assert isinstance(v, Violation)
    assert v.kind == "jacobi"


def test_verify_abelian_ok():
    g = SuperAlgebra(SuperSpace.make(2, 1), {})
    assert verify_superalgebra(g) is None


def test_adjoint_central_is_zero():
    g = build_family("u", 1, 1)
    z = center(g)
    assert z.dim == 1
    assert not any(map(any, ad_matrix(g, z.basis[0])))


def test_adjoint_su2_char_poly():
    k = build_lie_algebra("su", 2)
    from superdecomp.poly import char_poly
    x = k.basis_vector(0)                               # i(E00 - E11)
    p = char_poly([k.bracket(x, k.basis_vector(j)) for j in range(k.dim)])
    assert p == [Fraction(0), Fraction(4), Fraction(0), Fraction(1)]


def test_adjoint_odd_maps_between_parities():
    g = build_family("u", 2, 1)
    x = g.basis_vector(g.d0)               # first odd basis vector
    ad = ad_matrix(g, x)
    for k in range(g.dim):
        for j in range(g.dim):
            if ad[k][j]:
                assert g.parity(k) != g.parity(j)


def test_killing_dichotomy():
    _, r = killing_form(build_family("psu", 2))
    assert r == 0
    g = build_family("su", 2, 1)
    _, r = killing_form(g)
    assert r == g.dim == 8
    _, r = killing_form(build_family("pq", 2))
    assert r == 0


def test_killing_invariance():
    g = build_family("su", 2, 1)
    gram, _ = killing_form(g)
    n = g.dim
    basis = [g.basis_vector(i) for i in range(n)]

    def kappa(u, w):
        acc = ZERO
        for a in range(n):
            if not u[a]:
                continue
            for b in range(n):
                if w[b]:
                    acc = acc + u[a] * gram[a][b] * w[b]
        return acc

    rng = random.Random(2)
    for _ in range(40):
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        left = kappa(g.bracket(basis[i], basis[j]), basis[k])
        right = kappa(basis[i], g.bracket(basis[j], basis[k]))
        assert left == right


def test_center_su22():
    g = build_family("su", 2, 2)
    z = center(g)
    assert z.dim == 1
    # the center is the supertraceless diagonal i1 direction, inside [g, g]
    assert derived(g).contains_subspace(z)


def test_center_is_the_centralizer_of_the_whole_algebra_on_acceptance_families():
    # center feeds the kernel one basis vector's equations at a time; the
    # dense oracle solves them all at once; __wrapped__ skips the memo
    from test_acceptance import ACCEPT_FAMILIES
    for tag, params in ACCEPT_FAMILIES:
        g = build_family(tag, *params)
        full = g.full_subspace()
        assert center.__wrapped__(g) == dense_centralizer(g, full.basis, full), (tag, params)


CENTER_SUM_PARTS = [("su", (2, 1)), ("u", (1, 1)), ("q", (2,)), ("psu", (2,)),
                    ("c", (2,)), ("T_tilde", ("su", 2)), ("spin_h", (2,))]


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(CENTER_SUM_PARTS), min_size=2, max_size=3))
def test_center_is_the_centralizer_of_the_whole_algebra_on_direct_sums(parts):
    tag, params = parts[0]
    g = build_family(tag, *params)
    for tag, params in parts[1:]:
        g = direct_sum(g, build_family(tag, *params))
    full = g.full_subspace()
    z = center.__wrapped__(g)
    assert z == dense_centralizer(g, full.basis, full)
    assert z.dim == sum(center(build_family(tag, *params)).dim for tag, params in parts)


def test_derived_u11():
    assert derived(build_family("u", 1, 1)).dim == 3


def test_from_matrix_span_clifford_heisenberg():
    # inside u(1|1): i*identity plus the two odd generators
    even = SparseOp.identity(2).scale(I)
    odd1 = SparseOp.from_entries(2, {(0, 1): ONE, (1, 0): I})
    odd2 = SparseOp.from_entries(2, {(0, 1): I, (1, 0): ONE})
    g, real = from_matrix_span([even, odd1, odd2], 1)
    assert (g.d0, g.d1) == (1, 2)
    assert verify_superalgebra(g) is None
    assert center(g).dim == 1              # g0 central: Clifford-Heisenberg shape


def test_from_matrix_span_u11():
    g = build_family("u", 1, 1)
    assert (g.d0, g.d1) == (2, 2)


def test_from_matrix_span_mis_tagged():
    even = SparseOp.identity(2).scale(I)
    odd1 = SparseOp.from_entries(2, {(0, 1): ONE, (1, 0): I})
    # parities are read off the blocks: an odd matrix before an even one
    # is out of order, and a matrix with entries in both kinds of block
    # has no parity
    with pytest.raises(SuperAlgebraError):
        from_matrix_span([odd1, even], 1)
    with pytest.raises(SuperAlgebraError):
        from_matrix_span([even + odd1], 1)
    # an odd span that is not closed reports the offending pair
    with pytest.raises(SuperAlgebraError):
        from_matrix_span([odd1], 1)        # misses [X, X] = 2i


def test_from_matrix_span_names_the_pair_that_leaves_the_span():
    # [X, X] = 2 X^2 = 2 I for the real odd swap X, and I is not in span{X}
    x = SparseOp.from_entries(2, {(0, 1): ONE, (1, 0): ONE})
    with pytest.raises(NotClosedError) as exc:
        from_matrix_span([x], 1)
    assert exc.value.pair == (0, 0)
    assert (exc.value.residual - SparseOp.identity(2).scale(Fraction(2))).is_zero()


def test_direct_sum_dims_and_center():
    a = build_family("su", 2, 1)
    b = build_family("T", "su", 2)
    s = direct_sum(a, b)
    assert (s.d0, s.d1) == (7, 7)
    assert verify_superalgebra(s) is None
    assert center(s).dim == center(a).dim + center(b).dim


def test_quotient_su22_is_psu22():
    g = build_family("psu", 2)
    assert (g.d0, g.d1) == (6, 8)
    assert verify_superalgebra(g) is None
    assert center(g).dim == 0


def test_quotient_q2_is_pq2():
    g = build_family("pq", 2)
    assert g.dim == 16
    assert verify_superalgebra(g) is None


def test_quotient_by_zero_is_identity():
    g = build_family("u", 1, 1)
    quo, _ = quotient_by_central(g, g.subspace([]))
    assert tables_equal(g, quo)


def test_quotient_rejects_noncentral():
    g = build_family("su", 2, 2)
    z, x, y = center(g).basis[0], g.basis_vector(0), g.basis_vector(g.dim - 1)
    for vecs in ([x], [z, x], [[a + b for a, b in zip(z, y)]]):
        with pytest.raises(SuperAlgebraError, match="subspace is not central"):
            quotient_by_central(g, g.subspace(vecs))


def test_semidirect_that_su2():
    g = build_family("T_hat", "su", 2)
    assert (g.d0, g.d1) == (3, 4)
    assert verify_superalgebra(g) is None


def test_semidirect_spin_h_hat_dims():
    g = build_family("spin_h_hat", 1)
    assert (g.d0, g.d1) == (2, 2)
    assert verify_superalgebra(g) is None


def test_semidirect_zero_derivation():
    g = build_family("spin_h", 1)
    ext = semidirect_by_derivation(g, zeros(g.dim), parity=0)
    didx = ext.meta["derivation_index"]
    for j in range(ext.dim):
        assert vec_is_zero(ext.bracket(ext.basis_vector(didx), ext.basis_vector(j)))


def test_semidirect_rejects_odd_nonnilpotent():
    # abelian (1|1) algebra; D swapping the two basis vectors has D^2 = 1
    g = SuperAlgebra(SuperSpace.make(1, 1), {})
    d = [[ZERO, ONE], [ONE, ZERO]]
    with pytest.raises(SuperAlgebraError) as exc:
        semidirect_by_derivation(g, d, parity=1)
    assert exc.value.violation.kind == "jacobi"


def test_semidirect_rejects_even_nonderivation():
    g = build_family("T", "su", 2)
    d = zeros(g.dim)
    d[0][0] = ONE                           # E_00 is no derivation of T su(2)
    with pytest.raises(SuperAlgebraError) as exc:
        semidirect_by_derivation(g, d, parity=0)
    assert exc.value.violation.kind == "jacobi"


def test_semidirect_rejects_wrong_parity():
    # d/dxi is an odd derivation of T su(2) (it builds That su(2)), not an even one
    g = build_family("T", "su", 2)
    d = zeros(g.dim)
    for i in range(g.d0):
        d[i][g.d0 + i] = ONE
    assert verify_superalgebra(semidirect_by_derivation(g, d, parity=1)) is None
    with pytest.raises(SuperAlgebraError) as exc:
        semidirect_by_derivation(g, d, parity=0)
    assert exc.value.violation.kind == "parity"


def test_semidirect_rejects_base_that_breaks_jacobi():
    g = build_family("su", 2, 1)
    i, j, k = min((i, j, k) for (i, j), terms in g.table.items() for k in terms)
    bad = corrupt(g, i, j, k, 1)
    assert verify_superalgebra(bad).kind == "jacobi"
    # the zero derivation is a derivation of any table
    with pytest.raises(SuperAlgebraError) as exc:
        semidirect_by_derivation(bad, zeros(g.dim), parity=0)
    assert exc.value.violation.kind == "jacobi"


def test_semidirect_rejects_derivation_of_wrong_size():
    g = build_family("T", "su", 2)
    with pytest.raises(SuperAlgebraError, match="derivation matrix is 5x5"):
        semidirect_by_derivation(g, zeros(g.dim - 1), parity=0)


def test_central_extension_rejects_form_missing_an_odd_index():
    g = build_family("T", "su", 2)
    odd = list(g.space.odd_indices())
    form = InvariantForm(odd[:-1], zeros(g.d1 - 1))
    with pytest.raises(SuperAlgebraError, match="miss odd index %d" % odd[-1]):
        central_extension(g, form)


def test_central_extension_zero_form():
    g = build_family("T", "su", 2)
    form = InvariantForm(list(g.space.odd_indices()), zeros(g.d1))
    ext = central_extension(g, form)
    for j in range(ext.dim):
        assert vec_is_zero(ext.bracket(ext.basis_vector(0), ext.basis_vector(j)))


def test_central_extension_ttilde():
    g = build_family("T_tilde", "su", 2)
    assert (g.d0, g.d1) == (4, 3)
    z = center(g)
    assert z.dim == 1
    assert derived(g).contains_subspace(z)
    # center equals the span of odd-odd brackets
    odd = g.odd_subspace()
    assert bracket_span(g, odd, odd) == z


def test_central_extension_rejects_noninvariant():
    g = build_family("T", "su", 2)
    gram = zeros(g.d1)
    gram[0][0] = ONE                       # not ad-invariant for su(2)
    with pytest.raises(SuperAlgebraError):
        central_extension(g, InvariantForm(list(g.space.odd_indices()), gram))


def test_extension_quotient_roundtrip():
    g = build_family("T", "su", 2)
    gram, _ = killing_form(build_lie_algebra("su", 2))
    form = InvariantForm(list(g.space.odd_indices()), [[-a for a in row] for row in gram])
    ext = central_extension(g, form)
    quo, _ = quotient_by_central(ext, ext.subspace([ext.basis_vector(0)]))
    assert tables_equal(g, quo)


def test_trivial_cocycle_su21():
    g = build_family("su", 2, 1)
    forms = invariant_odd_forms(g)
    assert forms
    for form in forms:
        lam = is_trivial_cocycle(g, form)
        assert lam is not None


def test_trivial_cocycle_zero_form():
    g = build_family("su", 2, 1)
    form = InvariantForm(list(g.space.odd_indices()), zeros(g.d1))
    lam = is_trivial_cocycle(g, form)
    assert lam is not None and not any(lam)


def test_nontrivial_cocycle_on_psu22():
    psu = build_family("psu", 2)
    su, kept = psu.meta["extension_of"]
    d1 = psu.d1
    odd = list(psu.space.odd_indices())
    gram = zeros(d1)
    zpos = su.d0 - 1
    for a in range(d1):
        for b in range(d1):
            x = su.basis_vector(kept[odd[a]])
            y = su.basis_vector(kept[odd[b]])
            gram[a][b] = su.bracket(x, y)[zpos]
    form = InvariantForm(odd, gram)
    assert is_trivial_cocycle(psu, form) is None
    rebuilt = central_extension(psu, form)
    assert (rebuilt.d0, rebuilt.d1) == (su.d0, su.d1)
    assert center(rebuilt).dim == 1
    assert is_perfect(rebuilt)


def test_subalgebra_extraction():
    g = build_family("T_hat", "su", 2)
    # the tangent part (everything except the derivation generator) is an ideal
    vecs = [g.basis_vector(i) for i in range(g.dim) if i != g.dim - 1]
    s = g.subspace(vecs)
    assert is_ideal(g, s)
    sub, _ = subalgebra_from_subspace(g, s)
    assert (sub.d0, sub.d1) == (3, 3)
    assert tables_equal(sub, build_family("T", "su", 2))


def rebase(g, seed):
    """g written in the basis of the columns of a block-diagonal P, with
    the even block first: P's entries are drawn row by row from
    (-1, 0, 0, 1, 1, 2) and P is drawn again until it is invertible.
    Returns (algebra, columns of P)."""
    rng = random.Random(seed)
    while True:
        p = [vec_zero(g.dim) for _ in range(g.dim)]
        for lo, hi in ((0, g.d0), (g.d0, g.dim)):
            for r in range(lo, hi):
                for c in range(lo, hi):
                    p[r][c] = Fraction(rng.choice((-1, 0, 0, 1, 1, 2)))
        cols = [list(col) for col in zip(*p)]
        if Echelon(g.dim).extend(cols) == list(range(g.dim)):
            return algebra_in_basis(g, cols), cols


REBASE_CASES = [("su", (2, 1)), ("q", (2,)), ("spin_h", (2,)), ("c", (2,)),
                ("T_tilde", ("su", 2))]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("tag,params", REBASE_CASES)
def test_rebased_algebra_is_a_superalgebra_and_rebases_back(tag, params, seed):
    g = build_family(tag, *params)
    h, cols = rebase(g, seed)
    assert (h.d0, h.d1) == (g.d0, g.d1)
    assert verify_superalgebra(h) is None
    # the columns of P^-1 write h back in g's basis
    solver = LinSolver([_int_row(c) for c in cols], g.dim)
    back = algebra_in_basis(h, [solver.row_coords(*_int_row(g.basis_vector(i)))
                                for i in range(g.dim)])
    assert tables_equal(back, g)


def test_algebra_in_basis_refuses_an_open_set_and_odd_before_even():
    g = build_family("su", 2, 1)
    e = g.basis_vector
    with pytest.raises(SuperAlgebraError, match="subspace is not bracket closed"):
        algebra_in_basis(g, [e(0), e(1)])
    with pytest.raises(SuperAlgebraError, match="even basis vectors must precede odd ones"):
        algebra_in_basis(g, [e(g.d0), e(0)])


def test_centralizer_that_su2():
    g = build_family("T_hat", "su", 2)
    b = centralizer(g, g.even_subspace(), g.odd_subspace())
    assert b.dim == 1


def test_serialization_roundtrip():
    g = build_family("su", 2, 1)
    d = algebra_to_json_dict(g, "su(2|1)")
    h = algebra_from_json_dict(d)
    assert tables_equal(g, h)


def test_tables_equal_refuses_a_changed_constant_parity_or_dimension():
    g = build_family("su", 2, 1)
    assert tables_equal(g, SuperAlgebra(g.space, g.table))
    key = min(g.table)
    k, v = min(g.table[key].items())
    changed = {**g.table, key: {**g.table[key], k: v + 1}}
    assert not tables_equal(g, SuperAlgebra(g.space, changed))
    assert not tables_equal(SuperAlgebra(g.space, changed), g)
    # the same (empty) table on a basis of another parity or dimension

    def abelian(d0, d1):
        return SuperAlgebra(SuperSpace.make(d0, d1), {})

    assert tables_equal(abelian(2, 1), abelian(2, 1))
    assert not tables_equal(abelian(2, 1), abelian(1, 2))
    assert not tables_equal(abelian(2, 1), abelian(2, 2))


# ---------------------------------------------------------------------------
# dense reference oracles for the sparse integer Jacobi check and Killing form
# ---------------------------------------------------------------------------

def dense_verify(g):
    """Parity, skew and Jacobi over all ordered triples, dense Scalar brackets."""
    par = g.space.parities
    for (i, j), terms in g.table.items():
        want = (par[i] + par[j]) % 2
        for k, v in terms.items():
            if par[k] != want:
                return Violation("parity", (i, j, k))
        if i == j and par[i] == 0 and terms:
            return Violation("skew", (i, i))
    n = g.dim
    basis = [g.basis_vector(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            ij = g.bracket(basis[i], basis[j])
            sign = -1 if par[i] and par[j] else 1
            for k in range(n):
                lhs = g.bracket(basis[i], g.bracket(basis[j], basis[k]))
                t2 = g.bracket(basis[j], g.bracket(basis[i], basis[k]))
                rhs = [a + sign * b for a, b in zip(g.bracket(ij, basis[k]), t2)]
                if lhs != rhs:
                    return Violation("jacobi", (i, j, k))
    return None


def dense_killing(g):
    """str(ad e_i ad e_j) from dense adjoint matrices, and the Gram rank."""
    n = g.dim
    ads = [ad_matrix(g, g.basis_vector(i)) for i in range(n)]
    gram = zeros(n)
    for i in range(n):
        a = ads[i]
        for j in range(n):
            b = ads[j]
            acc = ZERO
            for k in range(n):
                s = ZERO
                for l in range(n):
                    if a[k][l] and b[l][k]:
                        s = s + a[k][l] * b[l][k]
                acc = acc + (-s if g.parity(k) else s)
            gram[i][j] = acc
    ech = Echelon(n)
    for row in gram:
        ech.add_list(row)
    return gram, ech.rank


def dense(cols):
    """The rows of an action given in column form."""
    m = zeros(len(cols))
    for j, col in enumerate(cols):
        for i, a in col:
            m[i][j] = a
    return m


def dense_invariant_symmetric_forms(actions, dim):
    """Symmetric B with M^T B + B M = 0, equations read entry by entry."""
    pos = {}
    for r in range(dim):
        for s in range(r, dim):
            pos[(r, s)] = len(pos)

    def var(r, s):
        return pos[(r, s)] if r <= s else pos[(s, r)]

    ech = Echelon(len(pos))
    for m in map(dense, actions):
        for j in range(dim):
            for k in range(j, dim):
                row = {}
                for r in range(dim):
                    a = m[r][j]
                    if a:
                        v = var(r, k)
                        row[v] = row.get(v, ZERO) + a
                    b = m[r][k]
                    if b:
                        v = var(j, r)
                        row[v] = row.get(v, ZERO) + b
                row = {v: a for v, a in row.items() if a}
                if row:
                    ech.add(row)
    out = []
    for combo in ech.kernel_basis():
        gram = zeros(dim)
        for (r, s), v in pos.items():
            gram[r][s] = combo[v]
            gram[s][r] = combo[v]
        out.append(gram)
    return out


def dense_module_commutant(actions, dim):
    """T with A T = T A, equations read entry by entry, each T as the list
    of its columns, the oracle's rows transposed."""
    def var(r, s):
        return r * dim + s

    ech = Echelon(dim * dim)
    for a in map(dense, actions):
        for r in range(dim):
            for c in range(dim):
                row = {}
                for s in range(dim):
                    v = a[r][s]
                    if v:
                        key = var(s, c)
                        row[key] = row.get(key, ZERO) + v
                    w = a[s][c]
                    if w:
                        key = var(r, s)
                        row[key] = row.get(key, ZERO) - w
                row = {k: v for k, v in row.items() if v}
                if row:
                    ech.add(row)
    out = []
    for combo in ech.kernel_basis():
        out.append([[combo[var(r, s)] for r in range(dim)] for s in range(dim)])
    return out


def same_violation(a, b):
    if a is None or b is None:
        return a is b
    return (a.kind, a.indices) == (b.kind, b.indices)


def test_verify_matches_dense_oracle_on_acceptance_families():
    from test_acceptance import ACCEPT_FAMILIES
    for tag, params in ACCEPT_FAMILIES:
        g = build_family(tag, *params)
        assert same_violation(verify_superalgebra(g), dense_verify(g)), (tag, params)


CORRUPTED = [("su", (2, 1)), ("su", (2, 2)), ("q", (2,)), ("c", (2,))]


def corrupt(g, i, j, k, delta):
    """g with delta added to the structure constant c_ij^k (i <= j)."""
    table = {key: dict(terms) for key, terms in g.table.items()}
    terms = table.setdefault((i, j), {})
    terms[k] = terms.get(k, ZERO) + Scalar(delta)
    return SuperAlgebra(g.space, table)


@st.composite
def corruptions(draw):
    spec = draw(st.sampled_from(CORRUPTED))
    g = build_family(spec[0], *spec[1])
    n = g.dim
    existing = sorted((i, j, k) for (i, j), terms in g.table.items() for k in terms)
    anywhere = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                         st.integers(0, n - 1)).map(
        lambda t: (min(t[0], t[1]), max(t[0], t[1]), t[2]))
    # mostly existing constants (Jacobi failures), sometimes any position
    # (parity and skew failures as well)
    i, j, k = draw(st.sampled_from(existing) if draw(st.integers(0, 3)) else anywhere)
    num = draw(st.integers(-3, 3).filter(bool))
    den = draw(st.integers(1, 4))
    return spec, i, j, k, Fraction(num, den)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(corruptions())
@example((("su", (2, 2)), 0, 14, 13, Fraction(1, 3)))
@example((("su", (2, 1)), 0, 4, 4, Fraction(-1, 2)))
def test_verify_matches_dense_oracle_on_corruptions(case):
    spec, i, j, k, delta = case
    bad = corrupt(build_family(spec[0], *spec[1]), i, j, k, delta)
    assert same_violation(verify_superalgebra(bad), dense_verify(bad))


def test_corruption_examples_hit_non_unit_denominators():
    # the scaling by den**2 is exercised: the corrupted tables need den > 1
    # beyond what the family itself has
    bad = corrupt(build_family("su", 2, 2), 0, 14, 13, Fraction(1, 3))
    assert bad.adjoint_table()[1] % 3 == 0
    assert verify_superalgebra(bad).kind == "jacobi"


@pytest.mark.parametrize("tag,params", [
    ("psu", (2,)), ("su", (3, 2)), ("q", (2,)), ("T_hat", ("su", 3)), ("c", (3,)),
])
def test_killing_matches_dense_oracle(tag, params):
    g = build_family(tag, *params)
    gram, rank = killing_form(g)
    want_gram, want_rank = dense_killing(g)
    assert gram == want_gram
    assert rank == want_rank


def test_module_equations_match_dense_oracles_on_acceptance_families():
    from test_acceptance import ACCEPT_FAMILIES
    for tag, params in ACCEPT_FAMILIES:
        g = build_family(tag, *params)
        for actions, dim in ((part_actions(g, g.space.odd_indices()), g.d1),
                             (part_actions(g, g.space.even_indices()), g.d0)):
            assert module_commutant(actions, dim) == \
                dense_module_commutant(actions, dim), (tag, params, dim)
            assert invariant_symmetric_forms(actions, dim) == \
                dense_invariant_symmetric_forms(actions, dim), (tag, params, dim)


# ---------------------------------------------------------------------------
# dense reference oracles for the integer-row subspace calculus
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def oracle_algebra(name):
    if name == "su(2|1)+q(2)":
        return direct_sum(build_family("su", 2, 1), build_family("q", 2))
    tag, params = {"su(2|1)": ("su", (2, 1)), "q(2)": ("q", (2,)),
                   "psu(2|2)": ("psu", (2,))}[name]
    return build_family(tag, *params)


def dense_bracket_span(g, u, w):
    return Subspace(g.dim, [g.bracket(a, b) for a in u.basis for b in w.basis])


def dense_centralizer(g, targets, inside):
    """Kernel of the map c -> ([sum_a c_a u_a, t])_t, one row per (t, k)."""
    if not inside.basis:
        return Subspace(g.dim, [])
    brackets = [[g.bracket(u, t) for u in inside.basis] for t in targets]
    rows = [[b[k] for b in row] for row in brackets for k in range(g.dim)]
    ech = Echelon(len(inside.basis))
    for row in rows:
        ech.add_list(row)
    vecs = []
    for combo in ech.kernel_basis():
        v = vec_zero(g.dim)
        for c, u in zip(combo, inside.basis):
            v = [x + c * a for x, a in zip(v, u)]
        vecs.append(v)
    return Subspace(g.dim, vecs)


def dense_intersection(u, w):
    """x = U a = W b: the kernel of [U | -W], stacked columnwise."""
    if not u.basis or not w.basis:
        return Subspace(u.ambient_dim, [])
    rows = []
    for i in range(u.ambient_dim):
        row = [u.basis[a][i] for a in range(len(u.basis))]
        row += [-w.basis[b][i] for b in range(len(w.basis))]
        rows.append(row)
    ker = kernel([{j: a for j, a in enumerate(row) if a} for row in rows], len(rows[0]))
    return Subspace(u.ambient_dim, [_lin_comb(combo, u.basis, u.ambient_dim)
                                    for combo in ker])


def dense_is_ideal(g, s):
    return s.contains_subspace(Subspace(g.dim, [g.bracket(g.basis_vector(i), u)
                                                for i in range(g.dim) for u in s.basis]))


@st.composite
def oracle_subspaces(draw):
    """An algebra and two lists of sparse rational vectors (zero vectors and
    repeats allowed)."""
    name = draw(st.sampled_from(["psu(2|2)", "q(2)", "su(2|1)", "su(2|1)+q(2)"]))
    n = oracle_algebra(name).dim
    coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))

    def vectors():
        out = []
        for entries in draw(st.lists(st.lists(st.tuples(st.integers(0, n - 1), coeff),
                                              max_size=4), max_size=4)):
            v = vec_zero(n)
            for k, a in entries:
                v[k] = a
            out.append(v)
        return out
    return name, vectors(), vectors()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(oracle_subspaces())
def test_subspace_calculus_matches_dense_oracles(case):
    name, uvecs, wvecs = case
    g = oracle_algebra(name)
    u, w, full = g.subspace(uvecs), g.subspace(wvecs), g.full_subspace()
    assert bracket_span(g, u, w) == dense_bracket_span(g, u, w)
    assert bracket_span(g, full, u) == dense_bracket_span(g, full, u)
    for inside in (u, full):
        assert centralizer(g, w, inside) == dense_centralizer(g, w.basis, inside)
    for a, b in ((u, w), (w, u), (u, full), (u.sum(w), w), (u, g.subspace([]))):
        assert a.intersection(b) == dense_intersection(a, b)
    # the ideal u + [g, u] + ... is reached after a few brackets with g
    s = u
    for _ in range(3):
        assert is_ideal(g, s) == dense_is_ideal(g, s)
        s = s.sum(bracket_span(g, full, s))


def test_is_ideal_matches_dense_oracle_on_known_ideals():
    g = oracle_algebra("su(2|1)+q(2)")
    ideals = [center(g), derived(g), g.full_subspace(), g.subspace([])]
    ideals += [g.subspace([g.basis_vector(m[i]) for i in m]) for m in g.meta["embeddings"]]
    for s in ideals + [g.even_subspace(), g.odd_subspace()]:
        assert is_ideal(g, s) == dense_is_ideal(g, s)
    assert all(is_ideal(g, s) for s in ideals)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.data())
def test_verify_matches_dense_oracle_on_direct_sum_corruptions(data):
    # the supports of a direct sum's adjoint rows are widely disjoint, so
    # the integer check skips most k here
    g = oracle_algebra("su(2|1)+q(2)")
    n = g.dim
    existing = sorted((i, j, k) for (i, j), terms in g.table.items() for k in terms)
    if data.draw(st.integers(0, 3)):
        i, j, k = data.draw(st.sampled_from(existing))
    else:
        i, j = sorted(data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
        k = data.draw(st.integers(0, n - 1))
    delta = Fraction(data.draw(st.integers(-3, 3).filter(bool)), data.draw(st.integers(1, 4)))
    bad = corrupt(g, i, j, k, delta)
    assert same_violation(verify_superalgebra(bad), dense_verify(bad))


@pytest.mark.parametrize("seed", range(30))
def test_module_commutant_matches_dense_oracle_on_two_copies(seed):
    from test_decomp import so3_on_two_copies
    actions, _ = so3_on_two_copies(seed)
    comm = module_commutant(actions, 6)
    assert len(comm) == 4
    assert comm == dense_module_commutant(actions, 6)


def _so3_on_q3():
    """so(3) on Q^3 in column form; its commutant is the scalars."""
    actions = []
    for a, b in ((1, 2), (2, 0), (0, 1)):
        cols = [[] for _ in range(3)]
        cols[b].append((a, ONE))
        cols[a].append((b, -ONE))
        actions.append([sorted(c) for c in cols])
    return actions


class _Unread(list):
    """An action that fails when read."""

    def __iter__(self):
        raise AssertionError("action read after the commutant was settled")


def test_module_commutant_stops_at_the_scalars():
    actions = _so3_on_q3()
    comm = module_commutant(actions, 3)
    assert comm == dense_module_commutant(actions, 3)
    assert comm == [[[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]]
    # two generators of so(3) already leave only the scalars, so the third
    # action is never read
    assert module_commutant(actions[:2] + [_Unread(actions[2])], 3) == comm


@pytest.mark.parametrize("actions, dim", [
    ([[[(0, Fraction(3, 2))]], [[]]], 1),
    ([], 1),
    ([], 3),
    ([[[(1, Fraction(1, 2))], [], []]], 3),
])
def test_module_commutant_matches_dense_oracle_on_small_modules(actions, dim):
    assert module_commutant(actions, dim) == dense_module_commutant(actions, dim)


def test_adjoint_table_is_scaled_integer_table():
    g = build_family("su", 3, 2)
    ad, den = g.adjoint_table()
    assert g.adjoint_table() is g.adjoint_table()
    par = g.space.parities
    for i in range(g.dim):
        for j in range(g.dim):
            if i <= j:
                want = {k: v * den for k, v in g.table.get((i, j), {}).items()}
            else:
                sign = 1 if par[i] and par[j] else -1
                want = {k: sign * v * den for k, v in g.table.get((j, i), {}).items()}
            assert ad[i][j] == want
            assert all(isinstance(v, int) for v in ad[i][j].values())


def test_invariants_are_computed_once_per_algebra():
    g = direct_sum(build_family("su", 2, 1), build_family("q", 2))
    twin = direct_sum(build_family("su", 2, 1), build_family("q", 2))
    for fn in (center, derived, killing_form):
        assert fn(g) is fn(g)
        # kept on the object, not keyed by its table
        assert fn(twin) is not fn(g)
    assert center(twin) == center(g)


def _library_trees():
    import glob
    import os
    import superdecomp
    root = os.path.dirname(superdecomp.__file__)
    for path in sorted(glob.glob(os.path.join(root, "*.py"))):
        with open(path) as fh:
            yield os.path.basename(path), ast.parse(fh.read(), path)


def test_no_library_module_exceeds_400_lines():
    """Every command compiles the modules it imports from source when no
    bytecode is cached.  The parser holds a whole module's tokens and AST
    at once, about 2.8 KiB per line, and the process keeps that memory:
    the largest module a command compiles sets much of its peak resident
    set.  So no module of the library is longer than 400 lines."""
    import os
    import superdecomp
    root = os.path.dirname(superdecomp.__file__)
    long = {}
    for name, _ in _library_trees():
        with open(os.path.join(root, name)) as fh:
            n = sum(1 for _ in fh)
        if n > 400:
            long[name] = n
    assert long == {}


def test_readme_names_resolve_and_its_table_lists_every_module():
    # a backticked dotted name in README.md that starts with a library
    # module, after an optional "superdecomp.", names an attribute of that
    # module, and the module table lists each module once: so README
    # cannot keep a deleted name
    import importlib
    import os
    import re
    import superdecomp
    modules = {name[:-3] for name in os.listdir(os.path.dirname(superdecomp.__file__))
               if name.endswith(".py") and name != "__init__.py"}
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        text = fh.read()
    unresolved = []
    for name in re.findall(r"`(?:superdecomp\.)?(\w+(?:\.\w+)*)`", text):
        first, *attrs = name.split(".")
        if first in modules:
            try:
                functools.reduce(getattr, attrs, importlib.import_module("superdecomp." + first))
            except AttributeError:
                unresolved.append(name)
    assert unresolved == []
    table = re.findall(r"^\| `superdecomp\.(\w+)` \|", text, re.M)
    assert sorted(table) == sorted(modules)


def test_library_checks_do_not_use_assert():
    # python -O strips assert statements, so the library must raise instead
    names = []
    for name, tree in _library_trees():
        names.append(name)
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert lines == [], (name, lines)
    assert {"core.py", "exact.py", "fock.py"} <= set(names)


def test_library_does_not_import_random():
    # no seed may reach a verdict, a report or the exact kernel: what the
    # command line echoes as the seed decides nothing
    names = []
    for name, tree in _library_trees():
        names.append(name)
        modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                   for a in n.names]
        modules += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        assert "random" not in modules, name
    assert {"cli.py", "exact.py", "families.py", "fock.py", "unitar.py"} <= set(names)


def test_every_library_function_is_referenced():
    # a helper that nothing calls is deleted, not kept "just in case"
    import glob
    import os
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    used = set()
    for part in ("src", "tests", "bench"):
        for path in glob.glob(os.path.join(root, part, "**", "*.py"), recursive=True):
            with open(path) as fh:
                for n in ast.walk(ast.parse(fh.read(), path)):
                    if isinstance(n, ast.Name):
                        used.add(n.id)
                    elif isinstance(n, ast.Attribute):
                        used.add(n.attr)
                    elif isinstance(n, ast.alias):
                        used.add(n.name)
    unused = sorted("%s:%s" % (name, n.name) for name, tree in _library_trees()
                    for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (n.name.startswith("__") and n.name.endswith("__"))
                    and n.name not in used)
    assert unused == []


def test_every_top_level_name_is_named_outside_its_definition():
    # per module, unlike the test above: a top-level function or class of
    # module m counts as named when m uses it outside its own definition,
    # or a file imports it from m, reads it as m.name, or names "m.name"
    # in a string; so a helper left behind in one module after another
    # module's namesake replaced it is caught
    import glob
    import os
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    qualified = set()                   # (module, name) named from anywhere
    lines = {}                          # (module, name) -> lines m uses it on
    for part in ("src", "tests", "bench"):
        for path in glob.glob(os.path.join(root, part, "**", "*.py"), recursive=True):
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            mod = os.path.basename(path)[:-3]
            own = part == "src"
            for n in ast.walk(tree):
                if own and isinstance(n, ast.Name):
                    lines.setdefault((mod, n.id), []).append(n.lineno)
                elif isinstance(n, ast.ImportFrom):
                    qualified.update(((n.module or "").split(".")[-1], a.name)
                                     for a in n.names)
                elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                    qualified.add((n.value.id, n.attr))
                elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                    parts = n.value.split(".")
                    qualified.update(zip(parts, parts[1:]))
    dead = sorted("%s:%s" % (name, n.name) for name, tree in _library_trees()
                  for n in tree.body
                  if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                  and (name[:-3], n.name) not in qualified
                  and all(n.lineno <= i <= n.end_lineno
                          for i in lines.get((name[:-3], n.name), [])))
    assert dead == []


def _top_level_names(tree):
    """The names a module's own top-level defs, classes and assignments bind."""
    names = set()
    for n in tree.body:
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(n.name)
        elif isinstance(n, ast.Assign):
            names.update(t.id for target in n.targets for t in ast.walk(target)
                         if isinstance(t, ast.Name))
    return names


def test_every_imported_name_is_defined_by_the_module_it_comes_from():
    # `from .m import name` in src, and `from superdecomp.m import name` in
    # tests and bench, name a top-level def, class or assignment of m, not
    # a name m imports itself: a moved helper cannot live on as a re-export
    import glob
    import os
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    defined = {name[:-3]: _top_level_names(tree) for name, tree in _library_trees()}
    checked, reexported = 0, []
    for part in ("src", "tests", "bench"):
        for path in glob.glob(os.path.join(root, part, "**", "*.py"), recursive=True):
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            for n in ast.walk(tree):
                if not isinstance(n, ast.ImportFrom) or not n.module:
                    continue
                if n.level == 1 and part == "src":
                    mod = n.module
                elif n.level == 0 and n.module.startswith("superdecomp."):
                    mod = n.module[len("superdecomp."):]
                else:
                    continue
                checked += len(n.names)
                reexported += [(os.path.relpath(path, root), mod, a.name)
                               for a in n.names if a.name not in defined[mod]]
    assert reexported == []
    assert checked > 100


def test_core_subspaces_run_on_echelon_rows():
    # intersections, derived algebras and complements are computed on
    # echelon rows, not through dense linear combinations; the kernels of
    # center and centralizer go through exact.kernel, which takes sparse
    # rows (test_kernels_and_solves_take_sparse_rows); bracket spans and
    # commutants moved to calculus.py keep to the same rule
    trees = dict(_library_trees())
    for name in ("spaces.py", "core.py", "invariants.py", "calculus.py"):
        imported = [a.name for n in ast.walk(trees[name]) if isinstance(n, ast.ImportFrom)
                    for a in n.names]
        assert "Echelon" in imported, name
        assert "_lin_comb" not in imported, (name, imported)


def test_module_commutant_is_the_one_kernel_basis_caller_outside_exact():
    # every other kernel is exact.kernel(rows, ncols); module_commutant keeps
    # its own echelon because it stops early at rank dim^2 - 1
    callers = []
    for name, tree in _library_trees():
        if name == "exact.py":
            continue
        calls = [n.lineno for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and n.attr == "kernel_basis"]
        defs = {n.name: range(n.lineno, n.end_lineno + 1) for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef)}
        callers += [(name, next((f for f, lines in defs.items() if line in lines), None))
                    for line in calls]
    assert callers == [("calculus.py", "module_commutant")]


def _names_matrix(node, bound):
    return any((isinstance(n, ast.Name) and n.id in bound | {"Matrix"})
               or (isinstance(n, ast.Attribute) and n.attr == "from_rows")
               for n in ast.walk(node))


def test_kernels_and_solves_take_sparse_rows():
    # kernel and solve take sparse rows: no module builds a Matrix, directly
    # or through a name bound to one, to feed them
    fed = []
    for name, tree in _library_trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            bound = {t.id for n in ast.walk(fn) if isinstance(n, ast.Assign)
                     and _names_matrix(n.value, set())
                     for t in n.targets if isinstance(t, ast.Name)}
            fed += [(name, n.lineno) for n in ast.walk(fn)
                    if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id in ("kernel", "solve")
                    and any(_names_matrix(a, bound) for a in n.args)]
    assert fed == []


def test_splitter_modules_never_name_matrix():
    # the module splitter and poly hold module maps as lists of dense columns
    checked = set()
    for name, tree in _library_trees():
        if name in ("split.py", "ideals.py", "decomp.py", "poly.py"):
            checked.add(name)
            named = [n.lineno for n in ast.walk(tree)
                     if (isinstance(n, ast.Name) and n.id == "Matrix")
                     or (isinstance(n, ast.alias) and n.name == "Matrix")
                     or (isinstance(n, ast.Attribute) and n.attr == "Matrix")]
            assert named == [], (name, named)
    assert checked == {"split.py", "ideals.py", "decomp.py", "poly.py"}


def test_families_solves_no_linear_system():
    # the constructors only write matrix entries; realize.from_matrix_span
    # alone turns the matrices into structure constants
    solvers = ("kernel", "solve", "LinSolver", "Echelon")
    tree = dict(_library_trees())["families.py"]
    named = [n.lineno for n in ast.walk(tree)
             if (isinstance(n, ast.Name) and n.id in solvers)
             or (isinstance(n, ast.alias) and n.name in solvers)
             or (isinstance(n, ast.Attribute) and n.attr in solvers)]
    assert named == []


def test_decomp_builds_no_table_of_its_own():
    # every subalgebra, central quotient and tangent comparison table of
    # the decomposition is written by core.algebra_in_basis
    trees = dict(_library_trees())
    for name in ("decomp.py", "split.py", "ideals.py"):
        named = [n.lineno for n in ast.walk(trees[name])
                 if (isinstance(n, ast.Name) and n.id in ("SuperAlgebra", "SuperSpace"))
                 or (isinstance(n, ast.alias) and n.name in ("SuperAlgebra", "SuperSpace"))
                 or (isinstance(n, ast.Attribute)
                     and n.attr in ("SuperAlgebra", "SuperSpace"))]
        assert named == [], name


def test_no_module_names_matrix():
    # a rational matrix is a list of rows and a complex one a SparseOp: no
    # module defines, imports or reads a dense Matrix type, so kernel and
    # solve are fed sparse rows and the splitter holds lists of columns
    named = [(name, n.lineno) for name, tree in _library_trees()
             for n in ast.walk(tree)
             if (isinstance(n, ast.Name) and n.id == "Matrix")
             or (isinstance(n, (ast.alias, ast.ClassDef)) and n.name == "Matrix")
             or (isinstance(n, ast.Attribute) and n.attr == "Matrix")]
    assert named == []


RATIONAL_MODULES = ("calculus.py", "classify.py", "core.py", "decomp.py", "extend.py",
                    "ideals.py", "invariants.py", "poly.py", "positivity.py", "spaces.py",
                    "split.py", "unitar.py", "witness.py")


def test_rational_modules_never_name_scalar():
    # structure constants, subspaces and forms are rational: only the matrix
    # realizations (families, realize) and fock are complex, and they hold
    # their complex matrices as SparseOps
    checked = set()
    for name, tree in _library_trees():
        if name not in RATIONAL_MODULES:
            continue
        checked.add(name)
        named = [(n.lineno, word) for n in ast.walk(tree)
                 for word in ("Scalar", "SparseOp")
                 if (isinstance(n, ast.Name) and n.id == word)
                 or (isinstance(n, ast.alias) and n.name == word)
                 or (isinstance(n, ast.Attribute) and n.attr == word)]
        assert named == [], (name, named)
    assert checked == set(RATIONAL_MODULES)


@pytest.mark.parametrize("tag, params", [("su", (2, 1)), ("q", (2,)),
                                         ("T_hat", ("su", 2))])
def test_rational_values_are_fractions(tag, params):
    g = build_family(tag, *params)
    assert all(type(v) is Fraction for terms in g.table.values() for v in terms.values())
    for sub in (center(g), derived(g), g.odd_subspace(),
                centralizer(g, g.even_subspace(), g.even_subspace())):
        assert all(type(a) is Fraction for v in sub.basis for a in v)
    gram, _ = killing_form(g)
    assert all(type(a) is Fraction for row in gram for a in row)
    solver = LinSolver([_int_row(g.basis_vector(i)) for i in range(g.dim)], g.dim)
    x = g.bracket(g.basis_vector(g.d0), g.basis_vector(g.dim - 1))
    coords = solver.row_coords(*_int_row(x))
    assert coords == x and all(type(a) is Fraction for a in coords)
    real = g.meta.get("realization")
    if real is not None:
        coords = real.from_matrix(to_matrix(real, g.basis_vector(g.d0)))
        assert coords == g.basis_vector(g.d0)
        assert all(type(a) is Fraction for a in coords)
    out = find_witness(g)
    if out.verdict == "pass":
        assert all(type(a) is Fraction for a in out.certificate.functional)


# ---------------------------------------------------------------------------
# construction invariants and the strict loader
# ---------------------------------------------------------------------------

def test_invariants_raise_instead_of_assert():
    with pytest.raises(SuperAlgebraError):
        SuperSpace(["a", "a"], [0, 1])
    with pytest.raises(SuperAlgebraError):
        SuperSpace(["a", "b"], [0])
    with pytest.raises(SuperAlgebraError):
        SuperSpace(["a"], [2])
    space = SuperSpace.make(1, 2)
    with pytest.raises(SuperAlgebraError):
        SuperAlgebra(space, {(2, 1): {0: ONE}})
    with pytest.raises(SuperAlgebraError):
        SuperAlgebra(space, {(1, 2): {3: ONE}})
    with pytest.raises(SuperAlgebraError):
        SuperAlgebra(space, {(1, 1): {0: I}})
    with pytest.raises(ValueError):
        SuperAlgebra(space, {}).bracket(vec_zero(3), vec_zero(2))
    with pytest.raises(ValueError):
        InvariantForm([1, 2], zeros(1))
    with pytest.raises(ValueError):
        SparseOp.from_entries(2, {(2, 0): ONE})


def _su21_json():
    return algebra_to_json_dict(build_family("su", 2, 1), "su(2|1)")


def _first_term(obj):
    return obj["brackets"][0]["terms"][0]


def _set(path_fn, key, value):
    def change(obj):
        path_fn(obj)[key] = value
        return obj
    return change


def _repeat_bracket(obj):
    obj["brackets"].append(dict(obj["brackets"][0]))
    return obj


def _repeat_k(obj):
    ent = obj["brackets"][0]
    ent["terms"] = ent["terms"] + [dict(ent["terms"][0])]
    return obj


def _zero_term_past_basis(obj):
    obj["brackets"][0]["terms"].append({"k": "-1", "num": "0", "den": "1"})
    return obj


def _duplicate_label(obj):
    obj["basis"][1]["id"] = obj["basis"][0]["id"]
    return obj


def _swap_ij(obj):
    ent = obj["brackets"][0]
    ent["i"], ent["j"] = ent["j"], ent["i"]
    return obj


# name -> change to the su(2|1) file; each must be rejected by the loader
MALFORMED = {
    "den_zero": _set(_first_term, "den", "0"),
    "k_past_basis": _set(_first_term, "k", "11"),
    "k_negative": _set(_first_term, "k", "-1"),
    "zero_term_past_basis": _zero_term_past_basis,
    "i_negative": _set(lambda o: o["brackets"][0], "i", "-1"),
    "j_past_basis": _set(lambda o: o["brackets"][0], "j", "8"),
    "i_above_j": _swap_ij,
    "repeated_bracket": _repeat_bracket,
    "repeated_k": _repeat_k,
    "duplicate_label": _duplicate_label,
    "parity_two": _set(lambda o: o["basis"][0], "parity", 2),
    # JSON numbers that int() would truncate, and a boolean parity
    "k_float": _set(_first_term, "k", 0.9),
    "num_float": _set(_first_term, "num", 1.5),
    "parity_bool": _set(lambda o: o["basis"][-1], "parity", True),
    # basis ids that are not strings
    "id_int": _set(lambda o: o["basis"][0], "id", 5),
    "id_null": _set(lambda o: o["basis"][0], "id", None),
    "id_bool": _set(lambda o: o["basis"][0], "id", True),
    "id_float": _set(lambda o: o["basis"][0], "id", 1.5),
}


def malformed_su21(name):
    return MALFORMED[name](_su21_json())


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_loader_rejects_malformed(name):
    with pytest.raises(AlgebraFileError):
        algebra_from_json_dict(malformed_su21(name))


# ---------------------------------------------------------------------------
# the Jacobi pair pruning and the integer form equations against the oracles
# ---------------------------------------------------------------------------

@st.composite
def cross_summand_corruptions(draw):
    """su(2|1) + q(2) with one constant changed so that the two summands
    meet: a bracket of one summand's basis vector with the other's, or a
    term of the other summand in a bracket of one."""
    s = oracle_algebra("su(2|1)+q(2)")
    emb = [sorted(m.values()) for m in s.meta["embeddings"]]
    side = draw(st.integers(0, 1))
    mine, other = emb[side], emb[1 - side]
    if draw(st.booleans()):
        x, y = draw(st.sampled_from(mine)), draw(st.sampled_from(other))
        i, j = min(x, y), max(x, y)
        k = draw(st.sampled_from(range(s.dim)))
    else:
        i, j = draw(st.sampled_from(sorted(key for key in s.table if key[0] in mine)))
        k = draw(st.sampled_from(other))
    num = draw(st.integers(-3, 3).filter(bool))
    return s, i, j, k, Fraction(num, draw(st.integers(1, 4)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(cross_summand_corruptions())
def test_verify_matches_dense_oracle_across_summands(case):
    # the pairs a direct sum lets the Jacobi check skip are exactly the
    # pairs these corruptions bring back
    s, i, j, k, delta = case
    bad = corrupt(s, i, j, k, delta)
    assert same_violation(verify_superalgebra(bad), dense_verify(bad))


def test_verify_skips_no_pair_that_has_a_defect():
    a, b = build_family("su", 2, 1), build_family("q", 2)
    s = direct_sum(a, b)
    assert verify_superalgebra(s) is None
    ma, mb = s.meta["embeddings"]
    # an odd term of q(2) in a bracket [even, odd] of su(2|1): only pairs of
    # one vector from each summand see it
    (i, j), _ = next((key, t) for key, t in s.table.items()
                     if key[0] in ma.values() and s.parity(key[0]) == 0
                     and s.parity(key[1]) == 1)
    bad = corrupt(s, i, j, mb[b.d0], Fraction(1))
    assert same_violation(verify_superalgebra(bad), dense_verify(bad))
    assert verify_superalgebra(bad).kind == "jacobi"


INT_FORM_CASES = [("su", (2, 1)), ("q", (2,)), ("psu", (2,)), ("spin_h", (2,)),
                  ("T_hat", ("su", 2)), ("c", (2,))]


@st.composite
def scaled_actions(draw):
    spec = draw(st.sampled_from(INT_FORM_CASES))
    g = build_family(spec[0], *spec[1])
    part = g.space.odd_indices() if draw(st.booleans()) else g.space.even_indices()
    actions = part_actions(g, part)
    factors = [Fraction(draw(st.integers(-5, 5).filter(bool)), draw(st.integers(1, 7)))
               for _ in actions]
    return actions, factors, len(part)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(scaled_actions())
def test_invariant_forms_ignore_the_scale_of_each_action(case):
    # and so do the commutant and the invariant subspaces
    actions, factors, dim = case
    scaled = [[[(i, f * a) for i, a in col] for col in cols]
              for f, cols in zip(factors, actions)]
    forms = invariant_symmetric_forms(actions, dim)
    assert invariant_symmetric_forms(scaled, dim) == forms
    assert dense_invariant_symmetric_forms(scaled, dim) == forms
    assert module_commutant(scaled, dim) == module_commutant(actions, dim)
    for i in range(dim):
        assert spin_up(scaled, vec_unit(dim, i), dim) == spin_up(actions, vec_unit(dim, i), dim)
