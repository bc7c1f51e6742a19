import random
from fractions import Fraction

from superdecomp.exact import Matrix, ONE, Scalar, ZERO
from superdecomp.families import build_family
from superdecomp.fock import (
    FockSpace, Representation, check_car, check_unitary_representation,
    defining_representation, number_spectrum, spin_representation,
    tilde_tangent_representation,
)


def unit(n, k):
    return [ONE if i == k else ZERO for i in range(n)]


def test_creation_on_vacuum():
    fock = FockSpace(2)
    cre = fock.creation(unit(2, 0))
    vac = fock.index[()]
    col = [cre.data[r][vac] for r in range(fock.dim)]
    target = fock.index[(0,)]
    assert col[target] == ONE
    assert sum(1 for v in col if v) == 1


def test_annihilation_contracts():
    fock = FockSpace(2)
    ann = fock.annihilation(unit(2, 0))
    col = [ann.data[r][fock.index[(0, 1)]] for r in range(fock.dim)]
    assert col[fock.index[(1,)]] == ONE
    col = [ann.data[r][fock.index[(1,)]] for r in range(fock.dim)]
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
    assert check_car(3, rng=random.Random(1)) is None


def test_car_detects_perturbation():
    # perturbing one operator breaks an identity: simulate by checking a
    # wrong inner product directly
    fock = FockSpace(1)
    a = fock.annihilation(unit(1, 0))
    c = fock.creation(unit(1, 0))
    eye = Matrix.identity(2)
    assert a @ c + c @ a == eye
    bad = c.scale(Scalar(2))
    assert a @ bad + bad @ a != eye


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


def test_homomorphism_square_instance():
    # rho([X, X]) = rho(X)rho(X) + rho(X)rho(X) for odd X
    rep = spin_representation("spin_h", 2)
    g = rep.algebra
    x = g.basis_vector(1)                    # an odd generator
    op = rep.operator_of(x)
    sq = rep.operator_of(g.bracket(x, x))
    assert op @ op + op @ op == sq


def test_tilde_tangent_su2():
    rep = tilde_tangent_representation("su", 2)
    assert rep.space_dim == 8                # Fock space over three generators
    assert rep.meta["faithful"]
    g = rep.algebra
    # central generator maps to a nonzero scalar
    central = rep.operators[0]
    assert central == Matrix.identity(8).scale(Scalar(0, rep.meta["scale"]))
    assert not central.is_zero()
    res = check_unitary_representation(g, rep)
    assert res.ok and res.faithful


def test_defining_rep_u11():
    g = build_family("u", 1, 1)
    rep = defining_representation(g)
    res = check_unitary_representation(g, rep)
    assert res.ok and res.faithful


def test_trivial_rep_not_faithful():
    g = build_family("psu", 2)
    zero_ops = [Matrix(2, 2) for _ in range(g.dim)]
    rep = Representation(g, [0, 1], zero_ops)
    res = check_unitary_representation(g, rep)
    assert res.ok and not res.faithful


def test_rep_json_export():
    rep = spin_representation("spin_h", 1)
    d = rep.to_json_dict()
    assert d["gram"] == "identity"
    assert d["space"]["dim"] == "2"
    assert len(d["operators"]) == 3
