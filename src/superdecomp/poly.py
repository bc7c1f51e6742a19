"""Polynomials over the rationals: arithmetic, the characteristic
polynomial and its primary polynomials, the pairwise coprime f^e that
the module splitter evaluates at a commutant element.

A polynomial is a list of Fractions, low degree first, with no trailing
zeros; the zero polynomial is [].  A square matrix m is the list of its
dense columns, so m v is _lin_comb(v, m, n).  Only split loads this
module, and it reads no coefficient: it hands each primary polynomial
to peval_matrix.
"""

from fractions import Fraction
from functools import reduce
from math import isqrt, lcm

from .exact import _F0, _F1, _lin_comb, vec_zero


def ptrim(p):
    while p and not p[-1]:
        p.pop()
    return p


def psub(p, q):
    n = max(len(p), len(q))
    return ptrim([(p[i] if i < len(p) else _F0) - (q[i] if i < len(q) else _F0)
                  for i in range(n)])


def pmul(p, q):
    out = [_F0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] += a * b
    return ptrim(out)


def pdivmod(p, q):
    if not q:
        raise ZeroDivisionError("division by zero polynomial")
    p = p[:]
    quo = [_F0] * max(0, len(p) - len(q) + 1)
    qc = q[-1]
    while len(p) >= len(q):
        f = p[-1] / qc
        k = len(p) - len(q)
        quo[k] = f
        for i, b in enumerate(q):
            p[i + k] -= f * b
        ptrim(p)
    return ptrim(quo), ptrim(p)


def pmonic(p):
    c = p[-1]
    return [a / c for a in p]


def pgcd(p, q):
    while q:
        p, q = q, pdivmod(p, q)[1]
    return pmonic(p)


def pderiv(p):
    return ptrim([Fraction(i) * a for i, a in enumerate(p)][1:])


def peval(p, x):
    acc = _F0
    for a in reversed(p):
        acc = acc * x + a
    return acc


def peval_matrix(p, m):
    """p(m) by Horner, for a square rational m; both are column lists."""
    n = len(m)
    acc = [vec_zero(n) for _ in range(n)]
    for a in reversed(p):
        acc = [_lin_comb(col, m, n) for col in acc]
        for i in range(n):
            acc[i][i] += a
    return acc


def char_poly(m):
    """Characteristic polynomial det(tI - m), Faddeev-LeVerrier, exact;
    m is a square rational matrix given by its columns."""
    n = len(m)
    coeffs = [_F1]                       # c_n
    aux = [[_F1 if i == j else _F0 for i in range(n)] for j in range(n)]
    for k in range(1, n + 1):
        aux = [_lin_comb(col, m, n) for col in aux]
        ck = -sum((aux[i][i] for i in range(n)), _F0) / k
        coeffs.append(ck)
        for i in range(n):
            aux[i][i] += ck
    coeffs.reverse()                     # low degree first
    return ptrim(coeffs)


def squarefree_decomposition(p):
    """Yun's algorithm: [(g_i, i)] with p = lc * prod g_i^i, g_i monic coprime."""
    p = pmonic(p)
    d = pderiv(p)
    g = pgcd(p, d)
    if len(g) <= 1:
        return [(p, 1)]
    c = pdivmod(p, g)[0]
    w = psub(pdivmod(d, g)[0], pderiv(c))
    out = []
    i = 1
    while len(c) > 1:
        y = pgcd(c, w)
        if len(y) > 1:
            out.append((y, i))
        c = pdivmod(c, y)[0]
        w = psub(pdivmod(w, y)[0], pderiv(c))
        i += 1
    return out


def _ieval(p, x, m):
    """p(x) mod m by Horner; p a list of ints."""
    acc = 0
    for a in reversed(p):
        acc = (acc * x + a) % m
    return acc


def rational_roots(p):
    """All rational roots of a rational polynomial, each once, ascending.

    Loos' p-adic method, with no integer factorisation: take an odd prime
    l not dividing the leading coefficient at which every root of p mod l
    is simple, lift each such root by Newton's iteration mod l^(2^j) until
    the modulus exceeds twice Cauchy's bound on lead * r, and keep the
    symmetric residue of lead * x, divided by lead, iff it is a root.  A
    root r = u/v has v | lead, so lead * r is that residue.  p is first
    reduced to its squarefree part; then only the finitely many primes
    dividing lead * disc(p) are skipped.
    """
    if not p:
        return []
    p = pdivmod(p, pgcd(p, pderiv(p)))[0]
    den = lcm(*[a.denominator for a in p])
    ip = [a.numerator * (den // a.denominator) for a in p]
    roots = []
    if not ip[0]:
        roots.append(_F0)
        ip = ip[1:]
    if len(ip) <= 1:
        return roots
    dp = [i * a for i, a in enumerate(ip)][1:]
    lead = ip[-1]
    bound = 2 * (abs(lead) + max(abs(a) for a in ip))
    ell = 1
    while True:
        ell += 2
        if lead % ell == 0 or any(ell % d == 0 for d in range(3, isqrt(ell) + 1, 2)):
            continue
        residues = [x for x in range(ell) if not _ieval(ip, x, ell)]
        if all(_ieval(dp, x, ell) for x in residues):
            break
    for x in residues:
        m = ell
        while m <= bound:
            m *= m
            x = (x - _ieval(ip, x, m) * pow(_ieval(dp, x, m), -1, m)) % m
        c = lead * x % m
        r = Fraction(c - m if 2 * c > m else c, lead)
        if not peval(ip, r):
            roots.append(r)
    return sorted(roots)


def primary_polynomials(m):
    """Pairwise coprime f^e whose product is the characteristic polynomial
    of the square rational matrix m.

    For each class (g, e) of Yun's squarefree decomposition, in order:
    (t - r)^e for each rational root r of g, ascending, then q^e for the
    rest q of g when it is not constant.  Full irreducible factorisation
    is deliberately not attempted.
    """
    factors = []
    for g, e in squarefree_decomposition(char_poly(m)):
        for r in rational_roots(g):
            g = pdivmod(g, [-r, _F1])[0]
            factors.append(([-r, _F1], e))
        if len(g) > 1:
            factors.append((g, e))
    return [reduce(pmul, [f] * e) for f, e in factors]
