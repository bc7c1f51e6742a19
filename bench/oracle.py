"""Independent result checks for the benchmark.

Nothing here imports superdecomp.  Algebra files are read straight from
their JSON and all arithmetic is done with ``fractions.Fraction`` (and
pairs of them for Gaussian entries), so a fault in the library's exact
kernel cannot hide a wrong answer.  The expected values are closed forms
and textbook facts, written out below.
"""

import json
from fractions import Fraction
from math import comb

ZERO = Fraction(0)


class CheckFailure(Exception):
    pass


def need(cond, what):
    if not cond:
        raise CheckFailure(what)


# ---------------------------------------------------------------------------
# closed forms and textbook facts
# ---------------------------------------------------------------------------

def simple_dim(kind, n):
    return {"su": n * n - 1, "so": n * (n - 1) // 2, "sp": n * (2 * n + 1)}[kind]


def family_dims(tag, params):
    """(d0, d1) of each family, from the matrix pictures of the families."""
    if tag == "u":
        p, q = params
        return p * p + q * q, 2 * p * q
    if tag == "su":
        n, m = params
        return n * n + m * m - 1, 2 * n * m
    if tag == "psu":
        n = params[0]
        return 2 * n * n - 2, 2 * n * n
    if tag == "q":                       # q(n) lives in (n+1)x(n+1) blocks
        k = params[0] + 1
        return k * k, k * k - 1
    if tag == "pq":
        k = params[0] + 1
        return k * k - 1, k * k - 1
    if tag == "q_hat":
        k = params[0] + 1
        return k * k, k * k
    if tag == "c":                       # so(2) + sp(n-1) | C^2 (x) C^(2n-2)
        n = params[0]
        return 1 + (n - 1) * (2 * n - 1), 4 * (n - 1)
    if tag == "spin_h":
        return 1, 2 * params[0]
    if tag == "spin_h_hat":
        return 2, 2 * params[0]
    if tag == "ch_indefinite":
        return 1, params[0] + params[1]
    kd = simple_dim(*params)
    return {"T": (kd, kd), "T_hat": (kd, kd + 1), "T_tilde": (kd + 1, kd)}[tag]


def textbook_killing_rank(tag, params):
    """Killing rank when the literature fixes it, else None.

    The Killing form vanishes identically on psu(n|n), su(n|n), q(n) and
    pq(n); it is nondegenerate on su(n|m) with n != m and on c(n).
    """
    d0, d1 = family_dims(tag, params)
    if tag in ("psu", "q", "pq") or (tag == "su" and params[0] == params[1]):
        return 0
    if tag == "c" or (tag == "su" and params[0] != params[1]):
        return d0 + d1
    return None


def textbook_center_dim(tag, params):
    """dim z(g) when the literature fixes it: z(su(n|n)) = R.1, and the
    simple (or nondegenerate) families have no center."""
    if tag == "su":
        return 1 if params[0] == params[1] else 0
    if tag in ("psu", "pq", "c"):
        return 0
    return None


# ---------------------------------------------------------------------------
# superalgebras from their files
# ---------------------------------------------------------------------------

class Alg:
    """Structure constants of an algebra file, all brackets expanded."""

    def __init__(self, obj):
        self.name = obj.get("name", "")
        self.par = [int(b["parity"]) for b in obj["basis"]]
        self.n = len(self.par)
        self.d1 = sum(self.par)
        self.d0 = self.n - self.d1
        stored = {}
        for ent in obj["brackets"]:
            i, j = int(ent["i"]), int(ent["j"])
            terms = {}
            for t in ent["terms"]:
                v = Fraction(int(t["num"]), int(t["den"]))
                if v:
                    terms[int(t["k"])] = terms.get(int(t["k"]), ZERO) + v
            stored[(i, j)] = {k: v for k, v in terms.items() if v}
        self.stored = stored
        br = {}
        for (i, j), terms in stored.items():
            if not terms:
                continue
            br[(i, j)] = terms
            if i != j:
                sign = 1 if self.par[i] and self.par[j] else -1
                br[(j, i)] = {k: sign * v for k, v in terms.items()}
        self.br = br

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls(json.load(fh))

    def pair(self, i, j):
        return self.br.get((i, j), {})

    def bracket(self, x, y):
        """[x, y] for sparse vectors {index: Fraction}."""
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                for k, v in self.pair(i, j).items():
                    out[k] = out.get(k, ZERO) + a * b * v
        return {k: v for k, v in out.items() if v}

    def dense_bracket(self, x, y):
        out = self.bracket(_sparse(x), _sparse(y))
        return [out.get(k, ZERO) for k in range(self.n)]


def _sparse(v):
    return {i: a for i, a in enumerate(v) if a}


def _add(acc, terms, scale):
    for k, v in terms.items():
        acc[k] = acc.get(k, ZERO) + scale * v


def _clean(d):
    return {k: v for k, v in d.items() if v}


def jacobi_violation(g):
    """First failing identity as (kind, indices), or None.

    Checks parity closure, [e, e] = 0 for even e, and the graded Jacobi
    identity [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|} [y,[x,z]] on basis
    triples.
    """
    par = g.par
    for (i, j), terms in sorted(g.stored.items()):
        for k in terms:
            if not 0 <= k < g.n:
                return ("range", (i, j, k))
            if par[k] != (par[i] + par[j]) % 2:
                return ("parity", (i, j, k))
        if i == j and par[i] == 0 and terms:
            return ("skew", (i, i))
    for i in range(g.n):
        for j in range(g.n):
            for k in range(g.n):
                if jacobi_fails_at(g, i, j, k):
                    return ("jacobi", (i, j, k))
    return None


def jacobi_fails_at(g, i, j, k):
    par = g.par
    sign = -1 if par[i] and par[j] else 1
    lhs, rhs = {}, {}
    for m, v in g.pair(j, k).items():
        _add(lhs, g.pair(i, m), v)
    for m, v in g.pair(i, j).items():
        _add(rhs, g.pair(m, k), v)
    for m, v in g.pair(i, k).items():
        _add(rhs, g.pair(j, m), sign * v)
    return _clean(lhs) != _clean(rhs)


# ---------------------------------------------------------------------------
# rational linear algebra
# ---------------------------------------------------------------------------

def rank(rows):
    """Rank of a list of sparse rows {col: Fraction} by Gaussian elimination."""
    pivots = {}                           # pivot column -> normalised row
    r = 0
    for row in rows:
        row = _clean(dict(row))
        while row:
            col = min(row)
            if col not in pivots:
                lead = row[col]
                pivots[col] = {c: v / lead for c, v in row.items()}
                r += 1
                break
            f = row[col]
            for c, v in pivots[col].items():
                row[c] = row.get(c, ZERO) - f * v
            row = _clean(row)
    return r


def killing_rank(g):
    """Rank of kappa(x, y) = str(ad x ad y)."""
    ad = []
    for i in range(g.n):
        m = {}
        for l in range(g.n):
            for k, v in g.pair(i, l).items():
                m[(k, l)] = v
        ad.append(m)
    rows = []
    for i in range(g.n):
        row = {}
        for j in range(g.n):
            acc = ZERO
            for (k, l), v in ad[i].items():
                w = ad[j].get((l, k))
                if w:
                    acc += -v * w if g.par[k] else v * w
            if acc:
                row[j] = acc
        rows.append(row)
    return rank(rows)


def center_dims(g):
    """(dim z(g), dim z(g0) inside g0)."""
    def kernel_dim(xs, ys):
        # x = sum_i x_i e_i (i in xs) with [x, e_j] = 0 for j in ys
        rows = {}
        for j in ys:
            for i in xs:
                for k, v in g.pair(i, j).items():
                    rows.setdefault((j, k), {})[i] = v
        return len(xs) - rank(rows.values())

    everything = list(range(g.n))
    even = list(range(g.d0))
    return kernel_dim(everything, everything), kernel_dim(even, even)


def leading_minors(m):
    """Leading principal minors of a square Fraction matrix (list of lists)."""
    out = []
    for k in range(1, len(m) + 1):
        out.append(det([row[:k] for row in m[:k]]))
    return out


def det(m):
    m = [list(r) for r in m]
    n = len(m)
    d = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return ZERO
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            d = -d
        d *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                for cc in range(c, n):
                    m[r][cc] -= f * m[c][cc]
    return d


def sympy_leading_minors(m):
    import sympy
    mat = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                        for row in m])
    out = []
    for k in range(1, len(m) + 1):
        d = mat[:k, :k].det()
        out.append(Fraction(int(d.p), int(d.q)))
    return out


def _frac_vec(pairs):
    return [Fraction(int(a), int(b)) for a, b in pairs]


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

def check_constructed(g, tag, params):
    need((g.d0, g.d1) == family_dims(tag, params),
         "dims %d|%d differ from the closed form" % (g.d0, g.d1))
    need(g.par == [0] * g.d0 + [1] * g.d1, "even basis vectors must come first")
    need(jacobi_violation(g) is None, "constructed algebra violates Jacobi")


def check_killing_output(g, out, tag=None, params=None):
    got = int(out["rank"])
    need(int(out["dim"]) == g.n, "killing dim field")
    need(got == killing_rank(g), "killing rank differs from own computation")
    if tag is not None:
        want = textbook_killing_rank(tag, params)
        need(want is None or got == want, "killing rank differs from textbook")


def check_center_output(g, out, tag=None, params=None):
    z, z0 = center_dims(g)
    need((int(out["dim_z"]), int(out["dim_z0"])) == (z, z0),
         "center dims differ from own computation")
    if tag is not None:
        want = textbook_center_dim(tag, params)
        need(want is None or z == want, "center dim differs from textbook")


def check_jacobi_output(g, out, code):
    viol = jacobi_violation(g)
    if viol is None:
        need(code == 0 and out["verdict"] == "ok", "valid algebra rejected")
        return
    need(code == 1 and out["verdict"] == "violation", "invalid algebra accepted")
    idx = [int(v) for v in out["indices"]]
    if out["kind"] == "jacobi":
        need(len(idx) == 3 and jacobi_fails_at(g, *idx),
             "reported Jacobi triple does not fail")
    else:
        need(out["kind"] in ("parity", "skew"), "unknown violation kind")


# -- decomposition ----------------------------------------------------------

# Per-family contributions of the structure pipeline, from the module
# theory of each family (the same oracle as the acceptance tests):
# summands (kind, dim, classification), dim b, dim z_b(a), dim z of the
# core, dim of the even complement of the odd-generated core.
DECOMP_ORACLE = {
    ("su", (2, 1)): {"summands": [("Js", 4, "su(n|m)")], "b": 0, "zba": 0, "z": 0, "comp": 0},
    ("su", (2, 2)): {"summands": [("Js", 4, "su(n|n)"), ("Js", 4, "su(n|n)")],
                     "b": 0, "zba": 0, "z": 1, "comp": 0},
    ("q", (2,)): {"summands": [("Js", 8, "q")], "b": 0, "zba": 0, "z": 1, "comp": 0},
    ("T_hat", ("su", 2)): {"summands": [("Ja", 3, "T")], "b": 1, "zba": 0, "z": 0, "comp": 0},
    ("T_hat", ("su", 3)): {"summands": [("Ja", 8, "T")], "b": 1, "zba": 0, "z": 0, "comp": 0},
    ("T_tilde", ("su", 2)): {"summands": [], "b": 3, "zba": 3, "z": 1, "comp": 3},
    ("spin_h_hat", (2,)): {"summands": [], "b": 4, "zba": 4, "z": 1, "comp": 1},
}


def expected_decomposition(parts, glued=0):
    out = {"summands": [], "b": 0, "zba": 0, "z": 0, "comp": 0}
    for part in parts:
        o = DECOMP_ORACLE[part]
        out["summands"] += o["summands"]
        for f in ("b", "zba", "z", "comp"):
            out[f] += o[f]
    out["z"] -= glued
    out["kernel"] = glued
    return out


def check_decompose_output(g, rep, parts, glued=0):
    want = expected_decomposition(parts, glued)
    need(rep["input_dims"] == [str(g.d0), str(g.d1)], "input dims")
    need(int(rep["even_complement_dim"]) == want["comp"], "even complement dim")
    need(int(rep["b_dim"]) == want["b"], "b dim")
    need(int(rep["center_dim"]) == want["z"], "center dim")
    need(int(rep["z_b_a_dim"]) == want["zba"], "z_b(a) dim")
    need(int(rep["b_r_dim"]) == want["b"] - want["zba"], "b_r dim")
    need(int(rep["kernel_dim"]) == want["kernel"], "summation kernel dim")
    got = sorted((e["kind"], int(e["dim"]), e["classification"])
                 for e in rep["summands"])
    need(got == sorted(want["summands"]), "summand list %r" % (got,))
    need(all(a["ok"] for a in rep["assertions"]), "a report assertion failed")
    for e in rep["summands"]:
        fp = e["fingerprint"]
        need(int(fp["d0"]) + int(fp["d1"]) > 0, "empty ideal fingerprint")
        if e["kind"] == "Js":
            need(e["pair"] is not None, "Js summand without pairing")


# -- unitarity --------------------------------------------------------------

# Verdict table: overall verdict and the per-condition verdicts that the
# theory fixes.  A direct sum of compact pieces is unitary, so all five
# conditions pass.  psu(2|2) has the even part su(2)+su(2), with trivial
# center, so (iv) and (v) fail.  T(su2) has square-zero
# odd vectors (ii fails).  ch_indefinite(1,1) has cancelling odd squares
# (iii fails).  Verdicts left out may be "fail" or "inconclusive".
UNITARITY_TABLE = {
    "compact": {"overall": "all necessary conditions pass",
                "fixed": {"i_compact": "pass", "ii_nonzero_squares": "pass",
                          "iii_pointed_cone": "pass",
                          "iv_positive_functional": "pass",
                          "v_even_center": "pass"}},
    "psu": {"overall": "obstruction found",
            "fixed": {"iv_positive_functional": "fail", "v_even_center": "fail"}},
    "T": {"overall": "obstruction found", "fixed": {"ii_nonzero_squares": "fail"}},
    "ch_indefinite": {"overall": "obstruction found",
                      "fixed": {"iii_pointed_cone": "fail"}},
    "mixed_obstruction": {"overall": "obstruction found", "fixed": {}},
}


def check_unitarity_output(g, rep, kind, cache):
    """Verdicts against UNITARITY_TABLE and every certificate re-checked;
    cache holds the witnesses already re-checked for g."""
    row = UNITARITY_TABLE[kind]
    need(rep["overall"] == row["overall"], "overall verdict %r" % rep["overall"])
    conds = {c["condition"]: c for c in rep["conditions"]}
    need(sorted(conds) == sorted(UNITARITY_TABLE["compact"]["fixed"]),
         "condition list")
    for key, verdict in row["fixed"].items():
        need(conds[key]["verdict"] == verdict,
             "%s verdict %r" % (key, conds[key]["verdict"]))
    if any(c["verdict"] == "fail" for c in conds.values()):
        need(rep["overall"] == "obstruction found", "fail without obstruction")
    z0 = center_dims(g)[1]
    need((conds["v_even_center"]["verdict"] == "pass") == (z0 > 0),
         "condition (v) against own even-center dim")
    wit = conds["iv_positive_functional"]
    if wit["verdict"] == "pass":
        key = ("witness", id(g), json.dumps(wit["certificate"], sort_keys=True))
        if key not in cache:
            check_witness(g, wit["certificate"])
            cache[key] = True
    sq = conds["ii_nonzero_squares"]
    if sq["verdict"] == "fail":
        x = _frac_vec(sq["certificate"])
        need(len(x) == g.n and any(x), "square-zero vector is zero")
        need(all(not x[i] for i in range(g.d0)), "square-zero vector not odd")
        need(not any(g.dense_bracket(x, x)), "[x, x] != 0 for the certificate")
    cone = conds["iii_pointed_cone"]
    if cone["verdict"] == "fail":
        x1 = _frac_vec(cone["certificate"]["x1"])
        x2 = _frac_vec(cone["certificate"]["x2"])
        s1, s2 = g.dense_bracket(x1, x1), g.dense_bracket(x2, x2)
        need(any(s1) and any(s2), "sign-conflict pair has a zero square")
        need(not any(a + b for a, b in zip(s1, s2)),
             "sign-conflict squares do not cancel")


def check_witness(g, cert):
    """omega vanishes on [g0, g0]; kappa_omega has the reported, positive
    leading minors (own elimination, cross-checked with sympy)."""
    omega = _frac_vec(cert["functional"])
    need(len(omega) == g.d0, "functional length")
    for i in range(g.d0):
        for j in range(i, g.d0):
            acc = sum((omega[k] * v for k, v in g.pair(i, j).items() if k < g.d0),
                      ZERO)
            need(acc == 0, "witness does not vanish on [e%d, e%d]" % (i, j))
    gram = [[sum((omega[k] * v for k, v in g.pair(g.d0 + a, g.d0 + b).items()
                  if k < g.d0), ZERO)
             for b in range(g.d1)] for a in range(g.d1)]
    minors = leading_minors(gram)
    need(all(m > 0 for m in minors), "kappa_omega is not positive definite")
    need(minors == _frac_vec(cert["sylvester_minors"]),
         "reported Sylvester minors differ")
    need(sympy_leading_minors(gram) == minors, "sympy disagrees on minors")


# -- Fock representations ---------------------------------------------------

def check_spinrep_output(out, variant, n):
    need(out["variant"] == variant and int(out["dim"]) == n, "echo fields")
    need(int(out["fock_dim"]) == 2 ** n, "fock_dim != 2^n")
    need(out["car"] == "ok" and out["unitary"] == "ok", "CAR / unitarity")
    need(out["faithful"] is True, "spin representation not faithful")
    if variant == "spin_h_hat":
        want = {str(k): str(comb(n, k)) for k in range(n + 1)}
        need(out["spectrum"] == want, "number spectrum is not binomial")


def check_tangent_output(out, kind, n):
    d = simple_dim(kind, n)
    need(int(out["fock_dim"]) == 2 ** d, "fock_dim != 2^dim k")
    need(out["unitary"] == "ok" and out["faithful"] is True,
         "tangent representation not unitary and faithful")


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _matmul(a, b):
    n = len(a)
    out = [[(ZERO, ZERO)] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        row = out[i]
        for k in range(n):
            x = ai[k]
            if x == (ZERO, ZERO):
                continue
            bk = b[k]
            for j in range(n):
                y = bk[j]
                if y != (ZERO, ZERO):
                    p = _cmul(x, y)
                    row[j] = (row[j][0] + p[0], row[j][1] + p[1])
    return out


def check_rep_file(rep, g, n):
    """Operators written by spinrep --out, checked against the algebra file:
    size 2^n, the adjoint condition rho(X)* = -i^{|X|} rho(X), the
    homomorphism property on all basis pairs and faithfulness."""
    dim = 2 ** n
    need(int(rep["space"]["dim"]) == dim, "space dim != 2^n")
    ops = []
    for op in rep["operators"]:
        m = [[(Fraction(int(a), int(b)), Fraction(int(c), int(d)))
              for a, b, c, d in row] for row in op["matrix"]]
        need(len(m) == dim and all(len(r) == dim for r in m), "operator size")
        ops.append(m)
    need(len(ops) == g.n, "one operator per basis vector")
    for i, m in enumerate(ops):
        # -i^{|X|}: -1 for even, -i for odd
        f = (Fraction(-1), ZERO) if g.par[i] == 0 else (ZERO, Fraction(-1))
        for r in range(dim):
            for c in range(dim):
                a = m[c][r]
                need(_cmul(m[r][c], f) == (a[0], -a[1]), "adjoint condition")
    prods = {}
    for i in range(g.n):
        for j in range(g.n):
            prods[(i, j)] = _matmul(ops[i], ops[j])
    for i in range(g.n):
        for j in range(g.n):
            s = 1 if g.par[i] and g.par[j] else -1
            want = [[(ZERO, ZERO)] * dim for _ in range(dim)]
            for k, v in g.pair(i, j).items():
                for r in range(dim):
                    for c in range(dim):
                        x = ops[k][r][c]
                        want[r][c] = (want[r][c][0] + v * x[0], want[r][c][1] + v * x[1])
            a, b = prods[(i, j)], prods[(j, i)]
            for r in range(dim):
                for c in range(dim):
                    got = (a[r][c][0] + s * b[r][c][0], a[r][c][1] + s * b[r][c][1])
                    need(got == want[r][c], "homomorphism fails on (%d, %d)" % (i, j))
    flat = []
    for m in ops:
        row = {}
        for r in range(dim):
            for c in range(dim):
                re, im = m[r][c]
                if re:
                    row[2 * (r * dim + c)] = re
                if im:
                    row[2 * (r * dim + c) + 1] = im
        flat.append(row)
    need(rank(flat) == len(ops), "representation not faithful")
