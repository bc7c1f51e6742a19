import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.solvers.simplex import InfeasibleLPError, lpmin

from superdecomp import positivity
from superdecomp.exact import (
    Echelon, LinSolver, Scalar, ZERO, I, _int_row, diagonalize, is_symmetric, kernel,
    solve, vec_is_zero,
)
from superdecomp.positivity import (
    UnsolvedLP, feasible_point, is_positive_definite, quad_form,
)
from superdecomp.poly import (
    char_poly, pdivmod, peval_matrix, pgcd, pmul, primary_polynomials, rational_roots,
    squarefree_decomposition,
)
from superdecomp.spaces import Subspace


def M(rows):
    return [[Scalar(a) for a in r] for r in rows]


def zeros(r, c):
    return [[ZERO] * c for _ in range(r)]


def eye(n):
    return [[Fraction(i == j) for j in range(n)] for i in range(n)]


def V(entries):
    return [Scalar(a) for a in entries]


def rows(m):
    """The sparse rows of a list of rows, as kernel and solve take them."""
    return [{j: a for j, a in enumerate(r) if a} for r in m]


def columns(m):
    """The dense columns of a list of rows, as char_poly takes them."""
    return [list(c) for c in zip(*m)]


def mul(m, v):
    """m v for a list of rows m."""
    return [sum((a * x for a, x in zip(r, v)), ZERO) for r in m]


def random_vector(rng, n, nonzero=False):
    """n seeded rationals p/q with |p| <= 3 and 1 <= q <= 2, not all zero
    when nonzero."""
    while True:
        v = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        if not nonzero or not vec_is_zero(v):
            return v


# --- the Gaussian value type ---------------------------------------------

_BINARY_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__",
                   "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


def test_scalar_with_zero_imaginary_part_is_a_fraction():
    assert type(Scalar(3, 0)) is Fraction and Scalar(3, 0) == 3
    assert type(Scalar(-2)) is Fraction and Scalar(-2) == -2
    assert type(Scalar(Fraction(1, 2), Fraction(0))) is Fraction


def test_scalar_value_operations():
    assert repr(Scalar(5, -5)) == "(5-5i)" and repr(Scalar(5, 5)) == "(5+5i)"
    assert repr(I) == "1i" and repr(Scalar(0, Fraction(-1, 2))) == "-1/2i"
    assert Scalar(1, 1).conjugate() == Scalar(1, -1)
    assert -Scalar(1, 2) == Scalar(-1, -2) and -I == Scalar(0, -1)
    assert (I.real, I.imag) == (0, 1) and type(I.real) is Fraction
    assert I != Scalar(1, 1) and I != 1 and hash(Scalar(0, 1)) == hash(I)


@pytest.mark.parametrize("expr", [
    lambda: Fraction(1) + I, lambda: I * I, lambda: 2 * I, lambda: sum([I, I]),
], ids=["Fraction + I", "I * I", "2 * I", "sum"])
def test_scalar_arithmetic_raises(expr):
    # complex sums and products belong to SparseOp; no fallback to a
    # float complex may return
    with pytest.raises(TypeError):
        expr()


def test_scalar_defines_no_binary_operator():
    assert [name for name in _BINARY_DUNDERS if name in vars(Scalar)] == []


# --- kernel / solve ---------------------------------------------------------

def test_kernel_identity():
    assert kernel(rows(eye(2)), 2) == []


def test_kernel_rank_one():
    ker = kernel(rows(M([[1, 1], [1, 1]])), 2)
    assert len(ker) == 1
    v = ker[0]
    # spans (1, -1)
    assert v[0] * Scalar(-1) == v[1]


def test_kernel_nilpotent_block():
    ker = kernel(rows(M([[0, 1], [0, 0]])), 2)
    assert len(ker) == 1
    assert ker[0][0] != ZERO and ker[0][1] == ZERO


def test_solve_identity():
    x = solve(rows(eye(3)), V([2, -1, 5]), 3)
    assert x == V([2, -1, 5]) and kernel(rows(eye(3)), 3) == []


def test_solve_underdetermined():
    x = solve(rows(M([[1, 1]])), V([2]), 2)
    assert x is not None
    assert x[0] + x[1] == Scalar(2)
    # the free variable, the second, is zero
    assert x[1] == ZERO
    ker = kernel(rows(M([[1, 1]])), 2)
    assert len(ker) == 1
    assert ker[0][0] + ker[0][1] == ZERO


def test_solve_inconsistent():
    assert solve(rows(M([[1], [1]])), V([1, 2]), 1) is None


def test_solve_random_roundtrip():
    rng = random.Random(11)
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = [random_vector(rng, m) for _ in range(n)]
        x0 = random_vector(rng, m)
        b = mul(a, x0)
        x = solve(rows(a), b, m)
        assert x is not None
        assert mul(a, x) == b
        # kernel dimension + rank = column count
        ker = kernel(rows(a), m)
        assert len(ker) == m - _sym(a).rank()
        for v in ker:
            assert vec_is_zero(mul(a, v))


def test_linsolver_tracks_scaling():
    rng = random.Random(3)
    for _ in range(20):
        dim = rng.randint(2, 6)
        k = rng.randint(1, dim)
        cols = []
        ech = Echelon(dim)
        while len(cols) < k:
            v = random_vector(rng, dim)
            if ech.add_list(v):
                cols.append(v)
        solver = LinSolver([_int_row(c) for c in cols], dim)
        coeffs = [Scalar(rng.randint(-4, 4)) for _ in range(k)]
        target = [sum((c * col[i] for c, col in zip(coeffs, cols)), ZERO)
                  for i in range(dim)]
        got = solver.row_coords(*_int_row(target))
        assert got == coeffs


def test_linsolver_refuses_dependent_columns():
    with pytest.raises(ValueError, match="columns are linearly dependent"):
        LinSolver([_int_row(V(c)) for c in ([1, 0, 1], [0, 1, 0], [2, 1, 2])], 3)


def test_span_basis_canonical():
    b1 = Subspace(2, [V([2, 4]), V([1, 2]), V([0, 0])]).basis
    b2 = Subspace(2, [V([-3, -6])]).basis
    assert b1 == b2


# --- characteristic polynomial ----------------------------------------------

def primaries(m):
    """primary_polynomials(m), after checking that they are pairwise coprime
    and multiply to the characteristic polynomial."""
    pieces = primary_polynomials(m)
    for a in range(len(pieces)):
        for b in range(a):
            assert pgcd(pieces[a], pieces[b]) == [1]
    prod = [Fraction(1)]
    for f in pieces:
        prod = pmul(prod, f)
    assert prod == char_poly(m)
    return pieces


def test_char_poly_diag():
    assert char_poly(columns(M([[1, 0], [0, 2]]))) == _poly(2, -3, 1)
    assert primaries(columns(M([[1, 0], [0, 2]]))) == [_poly(-1, 1), _poly(-2, 1)]


def test_char_poly_rotation_no_rational_roots():
    # t^2 + 1 has no rational root, so it is one piece
    assert primaries(columns(M([[0, 1], [-1, 0]]))) == [_poly(1, 0, 1)]


def test_char_poly_repeated():
    # Yun's classes come in order of multiplicity: (t - 5)^1, then (t - 3)^2
    pieces = primaries(columns(M([[3, 0, 0], [0, 3, 0], [0, 0, 5]])))
    assert pieces == [_poly(-5, 1), _poly(9, -6, 1)]


def test_char_poly_matches_cayley_hamilton():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 5)
        a = columns([random_vector(rng, n) for _ in range(n)])
        p = char_poly(a)
        assert not any(map(any, peval_matrix(p, a)))


# --- positive definiteness --------------------------------------------------

def test_matrix_shape_checks_raise():
    with pytest.raises(ValueError):
        solve([{0: Fraction(1)}], [], 1)
    with pytest.raises(ZeroDivisionError):
        pdivmod([Fraction(1)], [])


def test_posdef_yes():
    res = is_positive_definite(M([[2, 1], [1, 1]]))
    assert res.ok
    assert res.minors == [2, 1]


def test_posdef_no_with_witness():
    res = is_positive_definite(M([[1, 2], [2, 1]]))
    assert not res.ok
    assert quad_form(M([[1, 2], [2, 1]]), res.witness) <= 0


def test_posdef_degenerate():
    res = is_positive_definite(M([[0]]))
    assert not res.ok
    assert not vec_is_zero(res.witness)
    assert quad_form(M([[0]]), res.witness) == 0


def test_posdef_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        is_positive_definite(M([[1, 2], [0, 1]]))
    with pytest.raises(ValueError):
        is_positive_definite(zeros(2, 3))


def test_is_symmetric_compares_values_and_needs_a_square():
    assert is_symmetric(M([[1, Fraction(1, 2)], [Fraction(2, 4), 3]]))
    assert is_symmetric(zeros(3, 3)) and is_symmetric([])
    assert not is_symmetric(M([[1, 2], [0, 1]]))
    assert not is_symmetric(M([[0, 0, 1], [0, 0, 0], [0, 0, 0]]))
    assert not is_symmetric(zeros(2, 3)) and not is_symmetric(zeros(3, 2))
    assert not is_symmetric([[ZERO, ZERO], [ZERO]])


def test_posdef_agrees_with_sampling():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = [random_vector(rng, n) for _ in range(n)]
        # a^T a is PSD; perturb diagonal either way
        g = [[sum((x * y for x, y in zip(ci, cj)), ZERO) for cj in zip(*a)]
             for ci in zip(*a)]
        shift = rng.choice([0, 1, -2])
        for i in range(n):
            g[i][i] = g[i][i] + Scalar(shift)
        sym = g
        res = is_positive_definite(sym)
        if res.ok:
            for _ in range(30):
                v = random_vector(rng, n, nonzero=True)
                assert quad_form(sym, v) > 0
        else:
            assert quad_form(sym, res.witness) <= 0


@pytest.mark.parametrize("rows, minors, witness", [
    ([[2, 1, 0], [1, -1, 1], [0, 1, 3]], [2], [Fraction(-1, 2), 1, 0]),        # d < 0
    ([[1, 1, 0], [1, 1, 0], [0, 0, 2]], [1], [-1, 1, 0]),                      # zero row
    # a zero pivot with s_kj != 0, tau = 3/2
    ([[1, 1, 1], [1, 1, 2], [1, 2, 3]], [1], [Fraction(-1, 2), Fraction(3, 2), -1]),
    ([[1, 1, 1], [1, 1, 2], [1, 2, 0]], [1], [1, 0, -1]),                      # tau = 0
])
def test_posdef_failure_routes_keep_their_minors_and_witness(rows, minors, witness):
    res = is_positive_definite(M(rows))
    assert not res.ok and res.congruence is None
    assert (res.minors, res.witness) == (minors, witness)


@st.composite
def symmetric_forms(draw):
    """Small rational symmetric matrices, about half their entries zero."""
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.just(ZERO), st.fractions(-4, 4, max_denominator=3))
    s = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            s[i][j] = s[j][i] = draw(entry)
    return s


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@settings(max_examples=200, deadline=None)
@given(symmetric_forms())
def test_diagonalize_is_a_determinant_one_congruence_with_the_right_signature(s):
    n = len(s)
    pairs = [(d, t, list(t)) for d, t in diagonalize(s)]
    # each column was final when it was yielded
    assert [t for _, t, _ in pairs] == [c for _, _, c in pairs]
    d = [dk for dk, _, _ in pairs]
    cols = [t for _, t, _ in pairs]
    assert [[sum(u[i] * s[i][j] * w[j] for i in range(n) for j in range(n)) for w in cols]
            for u in cols] == [[d[a] if a == b else 0 for b in range(n)] for a in range(n)]
    rat = lambda a: sympy.Rational(a.numerator, a.denominator)
    assert sympy.Matrix(n, n, lambda i, k: rat(cols[k][i])).det() == 1
    # Descartes' rule counts the roots of a real-rooted polynomial exactly
    coeffs = sympy.Matrix(n, n, lambda i, j: rat(s[i][j])).charpoly().all_coeffs()[::-1]
    assert sum(dk > 0 for dk in d) == _sign_changes(coeffs)
    assert sum(dk < 0 for dk in d) == _sign_changes(
        [c * (-1) ** k for k, c in enumerate(coeffs)])


# --- exact LP feasibility ----------------------------------------------------

def test_lp_simple_feasible():
    t = feasible_point([[Fraction(1)]], 1)
    assert t is not None and t[0] >= 1


def test_lp_with_no_rows_gives_the_zero_point():
    # no constraint: the general simplex path reads off t = 0
    assert feasible_point([], 3) == [0, 0, 0]
    assert feasible_point([], 0) == []


def test_lp_infeasible_opposed():
    # t >= 1 and -t >= 1 cannot both hold
    assert feasible_point([[Fraction(1)], [Fraction(-1)]], 1) is None


def test_lp_cap_is_not_infeasibility(monkeypatch):
    # an LP stopped by the pivot cap proves nothing, so it must not read None
    monkeypatch.setattr(positivity, "LP_PIVOT_CAP", 0)
    with pytest.raises(UnsolvedLP):
        feasible_point([[Fraction(1)]], 1)


def test_lp_two_vars():
    rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    t = feasible_point(rows, 2)
    assert t is not None
    for row in rows:
        assert sum(a * x for a, x in zip(row, t)) >= 1


def test_lp_random_consistency():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 3)
        m = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        t = feasible_point(rows, n)
        if t is not None:
            for row in rows:
                assert sum(a * x for a, x in zip(row, t)) >= 1


def test_lp_none_needs_a_valid_farkas_vector(monkeypatch):
    rows = [[Fraction(1)], [Fraction(-1)]]
    seen = []
    check = positivity._check_farkas

    def corrupted(rows, y, nvars):
        seen.append(list(y))
        y = list(y)
        y[0] += 1
        return check(rows, y, nvars)

    monkeypatch.setattr(positivity, "_check_farkas", corrupted)
    with pytest.raises(UnsolvedLP, match="Farkas"):
        feasible_point(rows, 1)
    # the vector read off the cost row proves t >= 1, -t >= 1 infeasible
    (y,) = seen
    assert y[0] == y[1] > 0


def dense_feasible_point(rows, nvars):
    """Dense Fraction phase-1 simplex with Bland's rule; the oracle for
    feasible_point, which must take the same pivots."""
    m = len(rows)
    if m == 0:
        return [ZERO] * nvars
    # variables: u (nvars), w (nvars), slack s (m), artificial z (m)
    ncols = 2 * nvars + 2 * m
    tab = []
    for i, row in enumerate(rows):
        r = [ZERO] * (ncols + 1)
        for j, a in enumerate(row):
            r[j] = Fraction(a)
            r[nvars + j] = -Fraction(a)
        r[2 * nvars + i] = Fraction(-1)          # surplus
        r[2 * nvars + m + i] = Fraction(1)       # artificial
        r[ncols] = Fraction(1)                   # rhs
        tab.append(r)
    basis = [2 * nvars + m + i for i in range(m)]
    # objective: minimise sum of artificials; reduced cost row
    obj = [ZERO] * (ncols + 1)
    for r in tab:
        for j in range(ncols + 1):
            obj[j] += r[j]
    for i in range(m):
        obj[2 * nvars + m + i] = ZERO
    for _ in range(positivity.LP_PIVOT_CAP):
        enter = -1
        for j in range(ncols):
            if obj[j] > 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][ncols] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise UnsolvedLP("no leaving row for entering column %d" % enter)
        piv = tab[leave][enter]
        tab[leave] = [a / piv for a in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        if obj[enter]:
            f = obj[enter]
            obj = [a - f * b for a, b in zip(obj, tab[leave])]
        basis[leave] = enter
    else:
        raise UnsolvedLP("pivot cap of %d reached" % positivity.LP_PIVOT_CAP)
    if obj[ncols] != 0:
        return None
    t = [ZERO] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            t[b] += tab[i][ncols]
        elif b < 2 * nvars:
            t[b - nvars] -= tab[i][ncols]
    for row in rows:
        if sum(a * x for a, x in zip(row, t)) < 1:
            raise UnsolvedLP("simplex point fails the exact re-check")
    return t


# --- integer echelon rows ----------------------------------------------------

def test_echelon_rows_are_ints_and_results_fractions():
    F = Fraction
    ech = Echelon(5)
    for row in ([F(1, 2), F(1, 3), 0, 1, 2], [F(2, 3), -1, F(1, 4), 0, 1],
                [1, 1, 1, 1, 1]):
        ech.add_list([F(a) for a in row])
    assert ech.rank == 3
    for row in ech.pivots.values():
        assert all(type(a) is int for a in row.values())
    for _, row in ech.rref():
        assert all(type(a) is Fraction for a in row.values())
    ker = ech.kernel_basis()
    assert len(ker) == 2 and all(type(a) is Fraction for v in ker for a in v)
    target = [F(2, 3) * a - b for a, b in zip(ker[0], ker[1])]
    coords = LinSolver([_int_row(v) for v in ker], 5).row_coords(*_int_row(target))
    assert coords == [F(2, 3), F(-1)]
    assert all(type(a) is Fraction for a in coords)


# --- sympy as an independent oracle -------------------------------------------

# about half zeros, denominators up to 4
_entries = st.one_of(st.just(0),
                     st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)))


@st.composite
def rational_matrices(draw, square=False):
    r = draw(st.integers(1, 5))
    c = r if square else draw(st.integers(1, 5))
    return [[Fraction(draw(_entries)) for _ in range(c)] for _ in range(r)]


def _sym(m):
    return sympy.Matrix(len(m), len(m[0]),
                        [sympy.Rational(a.numerator, a.denominator)
                         for row in m for a in row])


def _sym_vec(v):
    return sympy.Matrix([sympy.Rational(a.numerator, a.denominator) for a in v])


def _fracs(col):
    return [Fraction(int(a.p), int(a.q)) for a in col]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(rational_matrices(), st.data())
def test_rank_kernel_solve_match_sympy(m, data):
    sm = _sym(m)
    ncols = len(m[0])
    ker = kernel(rows(m), ncols)
    assert len(ker) == ncols - sm.rank()
    # both read the kernel basis off the RREF with one free variable set to 1
    assert ker == [_fracs(v) for v in sm.nullspace()]
    b = [Fraction(data.draw(_entries)) for _ in range(len(m))]
    x = solve(rows(m), b, ncols)
    sb = _sym_vec(b)
    if sm.row_join(sb).rank() > sm.rank():
        assert x is None
    else:
        assert sm * _sym_vec(x) == sb
        sol, params = sm.gauss_jordan_solve(sb)
        assert x == _fracs(sol.subs({p: 0 for p in params}))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(rational_matrices(), st.data())
def test_linsolver_coords_match_sympy(m, data):
    ncols = len(m[0])
    ech = Echelon(ncols)
    cols = [v for v in m if ech.add_list(v)]
    if not cols:
        return
    vec = [Fraction(data.draw(_entries)) for _ in range(ncols)]
    got = LinSolver([_int_row(c) for c in cols], ncols).row_coords(*_int_row(vec))
    basis = sympy.Matrix.hstack(*[_sym_vec(v) for v in cols])
    sv = _sym_vec(vec)
    if basis.row_join(sv).rank() > basis.rank():
        assert got is None
    else:
        sol, params = basis.gauss_jordan_solve(sv)
        assert not params
        assert got == _fracs(sol)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(rational_matrices(square=True))
def test_char_poly_matches_sympy(m):
    t = sympy.Symbol("t")
    want = sympy.Poly(_sym(m).charpoly(t).as_expr(), t, domain="QQ")
    assert char_poly(columns(m)) == _fracs(reversed(want.all_coeffs()))
    pieces = primaries(columns(m))
    # each rational root r of multiplicity e is exactly one piece (t - r)^e,
    # and no other piece has a rational root
    powers = []
    for r, e in want.ground_roots().items():
        power = [Fraction(1)]
        for _ in range(e):
            power = pmul(power, [-Fraction(int(r.p), int(r.q)), Fraction(1)])
        assert pieces.count(power) == 1
        powers.append(power)
    assert not any(_sym_poly(q, t).ground_roots() for q in pieces if q not in powers)


def _sym_poly(p, x):
    return sympy.Poly([sympy.Rational(a.numerator, a.denominator) for a in reversed(p)],
                      x, domain="QQ")


def _poly(*coeffs):
    return [Fraction(a) for a in coeffs]


@st.composite
def rooted_polys(draw):
    """c * prod(v_i x - u_i) * q(x), |u_i|, |v_i| <= 10^6, q of degree <= 3;
    the linear factors may repeat and q may have rational roots too."""
    big = st.integers(-10 ** 6, 10 ** 6)
    p = [Fraction(draw(big.filter(bool)), draw(st.integers(1, 10 ** 6)))]
    for _ in range(draw(st.integers(0, 4))):
        p = pmul(p, [Fraction(draw(big)), Fraction(draw(big.filter(bool)))])
    q = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=4))
    if q[-1] == 0:
        q[-1] = 1
    return pmul(p, _poly(*q))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(rooted_polys())
def test_rational_roots_match_sympy(p):
    want = _sym_poly(p, sympy.Symbol("x")).ground_roots()
    assert rational_roots(p) == sorted(Fraction(int(r.p), int(r.q)) for r in want)


@st.composite
def repeated_factor_polys(draw):
    """c * x^k * prod f_i^e_i with k >= 1, each f_i of degree 1 to 3 with
    small integer coefficients and e_i <= 3, so factors repeat, may
    coincide, and may share roots with each other."""
    small = st.integers(-6, 6)
    p = pmul([Fraction(draw(small.filter(bool)), draw(st.integers(1, 9)))],
             [Fraction(0)] * draw(st.integers(1, 3)) + [Fraction(1)])
    for _ in range(draw(st.integers(0, 3))):
        f = draw(st.lists(small, min_size=2, max_size=4))
        if f[-1] == 0:
            f[-1] = 1
        for _ in range(draw(st.integers(1, 3))):
            p = pmul(p, _poly(*f))
    return p


@contextmanager
def _fails_after(seconds):
    """Raise AssertionError in the body once it has run `seconds`: a wrong
    Yun step can leave a factor that never divides out, and then Yun's loop
    runs forever instead of returning a wrong answer."""
    def expire(signum, frame):
        raise AssertionError("still running after %s s" % seconds)
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(repeated_factor_polys())
def test_squarefree_decomposition_matches_sympy(p):
    x = sympy.Symbol("x")
    _, want = sympy.sqf_list(_sym_poly(p, x))
    with _fails_after(2):
        got = squarefree_decomposition(p)
    assert sorted(e for _, e in got) == sorted(e for _, e in want)
    monic = {e: _fracs(reversed(f.monic().all_coeffs())) for f, e in want}
    assert {e: f for f, e in got} == monic


def test_rational_roots_repeated_factors_give_each_root_once():
    p = pmul(pmul(_poly(-3, 2), _poly(5, 1)), _poly(1, 0, 1))     # (2x-3)(x+5)(x^2+1)
    assert rational_roots(p) == [Fraction(-5), Fraction(3, 2)]
    assert rational_roots(pmul(p, p)) == [Fraction(-5), Fraction(3, 2)]
    assert rational_roots(pmul(_poly(0, 0, 1), p)) == [Fraction(-5), 0, Fraction(3, 2)]


def test_rational_roots_large_prime_coefficients():
    # 999983 and 1000003 are primes, so the end coefficients have large prime factors
    p, q = 999983, 1000003
    assert rational_roots(pmul(pmul(_poly(-p, 1), _poly(-q, 1)), _poly(1, 0, 1))) \
        == [p, q]
    assert rational_roots(pmul(_poly(-q, p), _poly(p, q))) == [Fraction(-p, q), Fraction(q, p)]


def test_rational_roots_without_roots():
    assert rational_roots([]) == []
    assert rational_roots(_poly(7)) == []
    assert rational_roots(_poly(-2, 0, 1)) == []
    assert rational_roots(_poly(0, 1)) == [0]


# dense small systems, and wide sparse ones like the cutting planes of
# witness.find_posdef_in_span (78 unknowns, at most 3 nonzero entries a row)
@st.composite
def lp_systems(draw):
    if draw(st.booleans()):
        n = 78
        rows = []
        for _ in range(draw(st.integers(1, 12))):
            row = [ZERO] * n
            for j in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
                row[j] = Fraction(draw(_entries))
            rows.append(row)
        return rows, n
    n = draw(st.integers(1, 8))
    return [[Fraction(draw(_entries)) for _ in range(n)]
            for _ in range(draw(st.integers(1, 10)))], n


@settings(max_examples=150, derandomize=True, deadline=None)
@given(lp_systems())
def test_feasible_point_matches_dense_oracle(system):
    rows, n = system
    assert feasible_point(rows, n) == dense_feasible_point(rows, n)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(lp_systems())
def test_feasible_point_verdict_matches_sympy(system):
    # lpmin raises InfeasibleLPError exactly when no t has row . t >= 1
    rows, n = system
    t = feasible_point(rows, n)
    xs = sympy.symbols("t0:%d" % n)
    constraints = [sum((sympy.Rational(a.numerator, a.denominator) * x
                        for a, x in zip(row, xs) if a), sympy.S.Zero) >= 1
                   for row in rows]
    try:
        lpmin(0, constraints)
    except InfeasibleLPError:
        assert t is None
    else:
        assert t is not None
