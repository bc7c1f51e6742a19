import random
from fractions import Fraction

import pytest
import sympy

from superdecomp.exact import I, ONE, Scalar, vec_is_zero, vec_zero
from superdecomp.spaces import SuperAlgebraError
from superdecomp.core import SuperAlgebra
from superdecomp.invariants import center, centralizer, killing_form, verify_superalgebra
from superdecomp.calculus import bracket_span, derived, is_ideal
from superdecomp.ideals import subalgebra_from_subspace
from superdecomp.positivity import is_positive_definite
from superdecomp.families import (
    FamilySpec, build_family, build_lie_algebra, expected_dims,
    family_name, prove_square_identity,
)
from superdecomp.realize import MatrixRealization, SparseOp

SMALL = [
    ("u", (1, 1)), ("u", (2, 1)), ("su", (2, 1)), ("su", (2, 2)),
    ("psu", (2,)), ("q", (2,)), ("pq", (2,)), ("q_hat", (2,)),
    ("c", (2,)), ("c", (3,)),
    ("T", ("su", 2)), ("T_hat", ("su", 2)), ("T_tilde", ("su", 2)),
    ("spin_h", (1,)), ("spin_h", (2,)), ("spin_h", (3,)),
    ("ch", (1,)), ("ch_indefinite", (1, 1)), ("gl", (1, 1)),
    ("spin_h_hat", (2,)),
]


@pytest.mark.parametrize("tag,params", SMALL)
def test_dimension_contracts_and_verify(tag, params):
    g = build_family(tag, *params)
    assert (g.d0, g.d1) == expected_dims(tag, params)
    assert verify_superalgebra(g) is None


def test_invalid_parameters():
    with pytest.raises(ValueError):
        FamilySpec("su", (1, 2))
    with pytest.raises(ValueError):
        FamilySpec("c", (1,))
    with pytest.raises(ValueError):
        FamilySpec("psu", (1,))
    with pytest.raises(ValueError):
        FamilySpec("nope", (1,))
    with pytest.raises(ValueError):
        FamilySpec("T", ("so", 4))


# per tag: a valid parameter tuple, its name, and each refused tuple with
# the exact message of the check that refuses it (count or type, then range)
FAMILY_CHECKS = [
    ("gl", (2, 1), "gl(2|1)", [((1,), "family gl needs 2 integer parameter(s)"),
                               ((0, 1), "gl(p|q) needs p, q >= 1")]),
    ("u", (1, 1), "u(1|1)", [((1, "a"), "family u needs 2 integer parameter(s)"),
                             ((1, 0), "u(p|q) needs p, q >= 1")]),
    ("su", (3, 2), "su(3|2)", [((2, 1, 1), "family su needs 2 integer parameter(s)"),
                               ((1, 2), "su(n|m) needs n >= m >= 1")]),
    ("psu", (3,), "psu(3|3)", [((2, 2), "family psu needs 1 integer parameter(s)"),
                               ((1,), "psu(n|n) needs n >= 2")]),
    ("q", (2,), "q(2)", [((), "family q needs 1 integer parameter(s)"),
                         ((0,), "q(n) needs n >= 1")]),
    ("pq", (3,), "pq(3)", [(("2",), "family pq needs 1 integer parameter(s)"),
                           ((0,), "pq(n) needs n >= 1")]),
    ("q_hat", (2,), "qhat(2)", [((1.0,), "family q_hat needs 1 integer parameter(s)"),
                                ((-1,), "q_hat(n) needs n >= 1")]),
    ("c", (4,), "c(4)", [((2, 2), "family c needs 1 integer parameter(s)"),
                         ((1,), "c(n) needs n >= 2")]),
    ("ch", (2,), "ch(2)", [(("su", 2), "family ch needs 1 integer parameter(s)"),
                           ((0,), "ch needs dim V >= 1")]),
    ("spin_h", (3,), "spin_h(3)", [((), "family spin_h needs 1 integer parameter(s)"),
                                   ((0,), "spin_h needs dim V >= 1")]),
    ("spin_h_hat", (2,), "spin_h_hat(2)",
     [((1, 1), "family spin_h_hat needs 1 integer parameter(s)"),
      ((0,), "spin_h_hat needs dim V >= 1")]),
    ("T", ("so", 3), "T(so3)",
     [(("xx", 2), "tangent families need a (su|so|sp, n) parameter pair"),
      (("so", 4), "so(4) is not a compact simple Lie algebra")]),
    ("T_hat", ("sp", 1), "That(sp1)",
     [(("su",), "tangent families need a (su|so|sp, n) parameter pair"),
      (("su", 1), "su(1) is not a compact simple Lie algebra")]),
    ("T_tilde", ("su", 2), "Ttilde(su2)",
     [((2, "su"), "tangent families need a (su|so|sp, n) parameter pair"),
      (("sp", 0), "sp(0) is not a compact simple Lie algebra")]),
    ("ch_indefinite", (1, 2), "ch_indef(1,2)",
     [((1,), "family ch_indefinite needs 2 integer parameter(s)"),
      ((1, 0), "indefinite signature needs r, s >= 1")]),
]


def test_every_tag_pins_its_checks_and_name():
    for tag, params, name, refused in FAMILY_CHECKS:
        assert family_name(tag, params) == name
        assert FamilySpec(tag, params).name() == name
        for bad, message in refused:
            with pytest.raises(ValueError) as exc:
                FamilySpec(tag, bad)
            assert str(exc.value) == message, (tag, bad)
    with pytest.raises(ValueError) as exc:
        FamilySpec("nope", (1,))
    assert str(exc.value) == (
        "unknown family tag 'nope'; the tags are gl, u, su, psu, q, pq, q_hat, c, "
        "ch, spin_h, spin_h_hat, T, T_hat, T_tilde, ch_indefinite")
    assert [row[0] for row in FAMILY_CHECKS] == [
        "gl", "u", "su", "psu", "q", "pq", "q_hat", "c", "ch", "spin_h",
        "spin_h_hat", "T", "T_hat", "T_tilde", "ch_indefinite"]


def test_su22_center_in_derived():
    g = build_family("su", 2, 2)
    z = center(g)
    assert z.dim == 1
    assert derived(g).contains_subspace(z)


def test_c2_structure():
    g = build_family("c", 2)
    assert (g.d0, g.d1) == (4, 4)
    z0 = centralizer(g, g.even_subspace(), g.even_subspace())
    assert z0.dim == 1
    _, r = killing_form(g)
    assert r == g.dim
    # even part: so(2) + sp(1); its derived part is compact semisimple,
    # so the Killing form of that 3-dim algebra is negative definite
    ev, _ = subalgebra_from_subspace(g, g.even_subspace())
    dev = derived(ev)
    sub, _ = subalgebra_from_subspace(ev, dev)
    gram, rk = killing_form(sub)
    assert rk == sub.dim == 3
    assert is_positive_definite([[-a for a in row] for row in gram]).ok


def test_c_real_dim_matches_complex_osp_dim():
    for n in (2, 3):
        g = build_family("c", n)
        m = n - 1
        complex_dim = 1 + m * (2 * m + 1) + 4 * m
        assert g.dim == complex_dim


def _sympl(h):
    """The standard symplectic J = [[0, 1_h], [-1_h, 0]] in sympy."""
    return sympy.Matrix(2 * h, 2 * h, lambda r, c: 1 if c == r + h else -1 if r == c + h else 0)


def _sympy_blocks(op, p):
    """The blocks A, B, C, D of a SparseOp [[A, B], [C, D]] with a p x p
    upper-left block, as exact sympy matrices."""
    full = sympy.zeros(op.dim, op.dim)
    for j, col in enumerate(op.cols):
        for i, (a, b) in col.items():
            full[i, j] = sympy.Rational(a, op.den) + sympy.I * sympy.Rational(b, op.den)
    return full[:p, :p], full[:p, p:], full[p:, :p], full[p:, p:]


@pytest.mark.parametrize("n", range(2, 7))
def test_c_odd_matrices_are_fixed_by_the_quaternionic_involution(n):
    # each odd realization matrix is [[0, B], [C, 0]] with B = -J_2 conj(B) J_2m
    # and C = -J B^T, and the odd part has the fixed space's dimension 4m
    g = build_family("c", n)
    m = n - 1
    j2, jbig = _sympl(1), _sympl(m)
    assert g.d1 == 4 * m
    mats = g.meta["realization"].mats
    for i in g.space.odd_indices():
        a, b, c, d = _sympy_blocks(mats[i], 2)
        assert a.is_zero_matrix and d.is_zero_matrix and not b.is_zero_matrix
        assert (b + j2 * b.conjugate() * jbig).expand().is_zero_matrix, i
        assert (c + jbig * b.T).expand().is_zero_matrix, i


def test_pq2_centers_vanish():
    g = build_family("pq", 2)
    assert center(g).dim == 0
    z0 = centralizer(g, g.even_subspace(), g.even_subspace())
    assert z0.dim == 0


def test_q2_even_center():
    g = build_family("q", 2)
    assert center(g).dim == 1
    z0 = centralizer(g, g.even_subspace(), g.even_subspace())
    assert z0.dim == 1


def test_qhat_contains_q_as_hyperplane_ideal():
    qh = build_family("q_hat", 2)
    q = build_family("q", 2)
    assert qh.d1 == q.d1 + 1 and qh.d0 == q.d0
    # odd part of the q(2) copy: traceless combinations; the odd generators
    # come from the u(3) basis whose first three members are the iE_jj
    d0 = qh.d0
    vecs = [qh.basis_vector(i) for i in range(d0)]
    for j in range(2):                     # diagonal differences
        v = vec_zero(qh.dim)
        v[d0 + j] = ONE
        v[d0 + j + 1] = Scalar(-1)
        vecs.append(v)
    vecs += [qh.basis_vector(i) for i in range(d0 + 3, qh.dim)]
    s = qh.subspace(vecs)
    assert is_ideal(qh, s)
    sub, _ = subalgebra_from_subspace(qh, s)
    assert (sub.d0, sub.d1) == (q.d0, q.d1)
    # the identity direction carries the trace; it squares into the center
    # and acts as a derivation with square zero on the hyperplane
    y = vec_zero(qh.dim)
    for j in range(3):
        y[d0 + j] = ONE
    sq = qh.bracket(y, y)
    assert not vec_is_zero(sq)
    for i in range(qh.dim):
        assert vec_is_zero(qh.bracket(sq, qh.basis_vector(i)))


# ---------------------------------------------------------------------------
# the square identity of the u-families: the seeded sampler below is the
# oracle of families.prove_square_identity
# ---------------------------------------------------------------------------

def to_matrix(real, coords):
    """The matrix with the real coordinates coords in a realization's basis."""
    out = SparseOp.zero(real.p + real.q)
    for c, m in zip(coords, real.mats):
        if c:
            out = out + m.scale(c)
    return out


def square_identity_samples(alg, count, rng):
    """Check [X, X] = 2 X^2 = 2i X^* X != 0 on seeded nonzero odd samples.

    Needs a matrix realization whose odd part satisfies X^* = -iX (the
    u-families and their subfamilies).  Returns the number of samples that
    satisfied the identity; raises on the first failure.
    """
    real = alg.meta.get("realization")
    if real is None:
        raise SuperAlgebraError("algebra has no matrix realization")
    n = alg.dim
    ok = 0
    for _ in range(count):
        coords = vec_zero(n)
        while vec_is_zero(coords):
            for i in alg.space.odd_indices():
                coords[i] = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        x = to_matrix(real, coords)
        sq = x @ x
        two_sq = sq.scale(Fraction(2))
        star = x.conj_transpose() @ x
        if two_sq != star.scale(Scalar(0, 2)):
            raise SuperAlgebraError("2X^2 = 2iX*X violated")
        if two_sq.is_zero():
            raise SuperAlgebraError("odd sample with [X, X] = 0")
        lhs = alg.bracket(coords, coords)
        rhs = real.from_matrix(two_sq)
        if rhs is None or lhs != rhs:
            raise SuperAlgebraError("structure constants disagree with 2X^2")
        ok += 1
    return ok


def test_square_identity_sampling():
    rng = random.Random(11)
    for tag, params in [("u", (1, 1)), ("u", (2, 1))]:
        g = build_family(tag, *params)
        assert square_identity_samples(g, 25, rng) == 25


@pytest.mark.parametrize("tag,params", [("u", (1, 1)), ("u", (2, 1)), ("su", (2, 1))])
def test_square_identity_proof_names_the_odd_matrix_it_refuses(tag, params):
    # no input file reaches this: eq-square proves on the constructor's own
    # realization, so each odd basis matrix in turn is multiplied by i here
    g = build_family(tag, *params)
    real = g.meta["realization"]
    prove_square_identity(g)
    for k in g.space.odd_indices():
        mats = list(real.mats)
        mats[k] = mats[k].scale(I)
        bad = SuperAlgebra(g.space, g.table,
                           meta={"realization": MatrixRealization(mats, real.p)})
        with pytest.raises(SuperAlgebraError,
                           match=r"^odd basis matrix %d violates X\^\* = -iX$" % k):
            prove_square_identity(bad)
    with pytest.raises(SuperAlgebraError, match="no matrix realization"):
        prove_square_identity(build_family("spin_h", 2))


def test_that_odd_centralizer_dim_1():
    g = build_family("T_hat", "su", 2)
    b = centralizer(g, g.even_subspace(), g.odd_subspace())
    assert b.dim == 1


def test_ttilde_center_is_odd_brackets():
    g = build_family("T_tilde", "su", 2)
    z = center(g)
    odd = g.odd_subspace()
    assert z.dim == 1
    assert bracket_span(g, odd, odd) == z


def test_t_odd_brackets_zero():
    g = build_family("T", "su", 2)
    odd = g.odd_subspace()
    assert bracket_span(g, odd, odd).dim == 0


def test_spin_h_squares_nonzero():
    g = build_family("spin_h", 1)
    assert g.dim == 3
    rng = random.Random(5)
    for _ in range(25):
        x = vec_zero(g.dim)
        while vec_is_zero(x):
            for i in g.space.odd_indices():
                x[i] = Scalar(rng.randint(-3, 3))
        assert not vec_is_zero(g.bracket(x, x))


def test_ch_indefinite_sign_conflict():
    g = build_family("ch_indefinite", 1, 1)
    x1 = g.basis_vector(1)
    x2 = g.basis_vector(2)
    s1 = g.bracket(x1, x1)
    s2 = g.bracket(x2, x2)
    assert not vec_is_zero(s1)
    assert vec_is_zero([a + b for a, b in zip(s1, s2)])


def test_ch_realified_bracket_shape():
    g = build_family("ch", 1)
    assert (g.d0, g.d1) == (2, 4)
    z = center(g)
    assert z.dim >= 2                      # even part is central
    odd = g.odd_subspace()
    assert bracket_span(g, odd, odd).dim == 2


def test_simple_algebra_bases():
    for kind, n, dim in [("su", 2, 3), ("su", 3, 8), ("so", 3, 3), ("sp", 1, 3)]:
        k = build_lie_algebra(kind, n)
        assert k.dim == dim and k.d1 == 0
        gram, rk = killing_form(k)
        assert rk == dim
        assert is_positive_definite([[-a for a in row] for row in gram]).ok


def test_family_names():
    assert family_name("su", (2, 1)) == "su(2|1)"
    assert family_name("q_hat", (2,)) == "qhat(2)"
    assert family_name("T_tilde", ("su", 2)) == "Ttilde(su2)"
    assert family_name("ch_indefinite", (1, 1)) == "ch_indef(1,1)"
