"""Compactness and unitarity analysis.

Certificates, not heuristics: a "no" verdict always carries an exactly
re-checkable witness (trivial even center, a nonzero odd vector with
vanishing square, a sign-conflict pair, or an infeasible exact LP over the
full candidate space); a positive-definiteness witness always re-verifies
through the Sylvester criterion.  Anything else is reported inconclusive.
Every condition, and every positive-form search behind one, answers with
one ConditionReport (verdict, certificate, detail); the report places the
witness search's answer at (iv) as it is.

The positive-form search first scans sign patterns t on integers: a
candidate whose Gram sum t_i G_i has a nonpositive diagonal entry r is
rejected by that entry alone (e_r is its witness), and only the others get
the full Sylvester test in Fractions.  Then comes a cutting-plane loop
over exact rational LPs: while the Sylvester test fails with witness
vector v, the valid inequality sum_i t_i (v^T G_i v) >= 1 is added and
the LP is re-solved, up to an iteration cap.  The invariant-form
equations and the plane search for isotropic odd vectors run on integer
rows of the adjoint table as well.
"""

from fractions import Fraction
from math import isqrt, lcm

from .exact import ZERO, ONE, MINUS_ONE, _lin_comb, kernel, vec_is_zero, vec_zero
from .positivity import UnsolvedLP, feasible_point, is_positive_definite, quad_form
from .core import (
    InvariantForm, SuperAlgebraError, _bracket_rows, even_center_dim, per_algebra,
    require_superalgebra,
)
from .calculus import even_actions, module_commutant

# candidates tried, and cutting-plane rounds run, by each positive-form search
WITNESS_CAP = 200


# ---------------------------------------------------------------------------
# invariant functionals and the positive-definiteness witness search
# ---------------------------------------------------------------------------

@per_algebra
def invariant_functional_basis(g):
    """Basis of the annihilator of [g0, g0] inside the even dual.

    Functionals are length-d0 rational vectors; they are exactly the
    even-invariant ones since invariance for a functional means vanishing
    on brackets.
    """
    d0 = g.d0
    return kernel(({k: v for k, v in terms.items() if k < d0}
                   for (i, j), terms in g.table.items() if j < d0), d0)


def gram_of_functional(g, omega):
    """kappa_omega(x, y) = omega([x, y]) on the odd part, as rows."""
    d0, d1 = g.d0, g.d1
    gram = [vec_zero(d1) for _ in range(d1)]
    for a in range(d1):
        for bidx in range(a, d1):
            terms = g.table.get((d0 + a, d0 + bidx), {})
            acc = ZERO
            for k, v in terms.items():
                if k < d0 and omega[k]:
                    acc = acc + omega[k] * v
            gram[a][bidx] = acc
            gram[bidx][a] = acc
    return gram


class Witness:
    """omega in annihilator coordinates plus its verified Gram data."""

    def __init__(self, coords, functional, gram, minors, iterations):
        self.coords = coords                # in the annihilator basis
        self.functional = functional        # length-d0 vector
        self.gram = gram
        self.minors = minors
        self.iterations = iterations

    def to_json_dict(self):
        return {
            "functional": _vec_json(self.functional),
            "iterations": str(self.iterations),
            "sylvester_minors": _vec_json(self.minors),
        }


class ConditionReport:
    """A verdict (pass / fail / inconclusive) with its certificate and
    detail: the answer of each necessary condition and of the searches
    behind them."""

    def __init__(self, verdict, certificate=None, detail=None):
        self.verdict = verdict
        self.certificate = certificate
        self.detail = detail


def _sign_patterns(n):
    """Candidate coefficient vectors as int lists, yielded in order: unit
    vectors, then (for n <= 6) the nonzero patterns over {1, -1, 0}."""
    for i in range(n):
        for s in (1, -1):
            v = [0] * n
            v[i] = s
            yield v
    if n <= 6:
        for mask in range(3 ** n):
            v = []
            mm = mask
            for _ in range(n):
                v.append((1, -1, 0)[mm % 3])
                mm //= 3
            if any(v):
                yield v


def find_posdef_in_span(grams):
    """Search t with sum t_i G_i positive definite, exactly.

    Returns a ConditionReport: "pass" with the certificate (t, Sylvester
    minors, candidates tested); "fail" only on a proof (empty span,
    one-dimensional span with an indefinite generator, or an infeasible
    exact LP made of valid cutting planes, certificate {"cuts": n}).  An
    LP that stops unsolved makes the search inconclusive.

    The scan over sign patterns runs on integers first: the span's
    diagonal is scaled once to ints, and a candidate t with a nonpositive
    diagonal entry r is rejected, with the unit vector e_r as its exact
    witness (e_r^T G(t) e_r <= 0).  It still counts toward the tested
    candidates and WITNESS_CAP.  Only a candidate whose diagonal is
    positive is turned into Fractions for the full Sylvester test.
    """
    n = len(grams)
    if n == 0:
        return ConditionReport("fail", detail="empty solution space")
    dim = len(grams[0])
    if dim == 0:
        return ConditionReport("pass", certificate=([Fraction(0)] * n, [], 0))

    # each entry of sum t_i G_i as its nonzero terms (i, G_i entry), listed once
    entries = {}
    for i, gi in enumerate(grams):
        for r, row in enumerate(gi):
            for s, a in enumerate(row):
                if a:
                    entries.setdefault((r, s), []).append((i, a))

    def gram_at(t):
        acc = [vec_zero(dim) for _ in range(dim)]
        for (r, s), terms in entries.items():
            v = ZERO
            for i, a in terms:
                if t[i]:
                    v = v + t[i] * a
            acc[r][s] = v
        return acc

    # each diagonal entry's terms (i, int), scaled by a positive integer
    diag = []
    for r in range(dim):
        terms = entries.get((r, r), ())
        d = lcm(*[a.denominator for _, a in terms])
        diag.append([(i, a.numerator * (d // a.denominator)) for i, a in terms])

    tested = 0
    for t in _sign_patterns(n):
        tested += 1
        if all(sum(t[i] * a for i, a in terms) > 0 for terms in diag):
            t = [Fraction(x) for x in t]
            res = is_positive_definite(gram_at(t))
            if res.ok:
                return ConditionReport("pass", certificate=(t, res.minors, tested))
        if tested >= WITNESS_CAP:
            break
    if n == 1:
        # +-G_1 both failed above: no positive multiple can work
        return ConditionReport(
            "fail", detail="one-dimensional solution space with no definite generator")
    cuts = []
    t = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for it in range(WITNESS_CAP):
        res = is_positive_definite(gram_at(t))
        if res.ok:
            return ConditionReport("pass", certificate=(t, res.minors, tested + it))
        cuts.append([quad_form(gi, res.witness) for gi in grams])
        try:
            t = feasible_point(cuts, n)
        except UnsolvedLP as exc:
            return ConditionReport("inconclusive", detail="exact LP unsolved: %s" % exc)
        if t is None:
            return ConditionReport("fail", certificate={"cuts": len(cuts)},
                                   detail="exact LP over valid cutting planes is infeasible")
    return ConditionReport("inconclusive", detail="iteration cap reached")


@per_algebra
def find_witness(g):
    """Even-invariant functional with positive definite kappa_omega.

    The answer is condition (iv) of the report: "pass" with the Witness
    as certificate; "fail" is certified, either the even center is
    trivial (the annihilator is zero) or the exact LP proves no functional
    in the annihilator works, and it carries only its reason as detail.
    With no odd part (iv) is vacuous, so a zero annihilator passes.
    """
    ann = invariant_functional_basis(g)
    if not ann:
        if not g.d1:
            return ConditionReport("pass", detail="no odd part")
        return ConditionReport("fail", detail="center of even part is trivial")
    out = find_posdef_in_span([gram_of_functional(g, w) for w in ann])
    if out.verdict != "pass":
        return ConditionReport(out.verdict, detail=out.detail)
    t, minors, iters = out.certificate
    functional = _lin_comb(t, ann, g.d0)
    gram = gram_of_functional(g, functional)
    res = is_positive_definite(gram)
    if not res.ok:
        raise SuperAlgebraError("witness failed re-verification")
    # re-check annihilation of [g0, g0]
    for i in range(g.d0):
        for j in range(i, g.d0):
            acc = ZERO
            for k, v in g.table.get((i, j), {}).items():
                if k < g.d0:
                    acc = acc + functional[k] * v
            if acc:
                raise SuperAlgebraError("witness functional fails invariance")
    return ConditionReport("pass", certificate=Witness(t, functional, gram, res.minors, iters))


# ---------------------------------------------------------------------------
# cone pointedness
# ---------------------------------------------------------------------------

def _square_map_is_zero(g):
    for i in g.space.odd_indices():
        for j in range(i, g.dim):
            if (i, j) in g.table:
                return False
    return True


def _structured_odd_candidates(g):
    """The odd basis vectors, then e_i + e_j and e_i - e_j for each pair
    i < j of odd indices, in a fixed order."""
    odd = g.space.odd_indices()
    for i in odd:
        yield g.basis_vector(i)
    for i in odd:
        for j in range(i + 1, odd.stop):
            for s in (ONE, MINUS_ONE):
                v = g.basis_vector(i)
                v[j] = s
                yield v


def _candidate_squares(g):
    """The (candidate, [x, x]) pairs of the structured odd candidates, in
    their order.  The list is kept per algebra and extended only as far as
    a reader iterates, so each square is computed once."""
    done, rest = g._memo.setdefault(_candidate_squares,
                                    ([], _structured_odd_candidates(g)))
    i = 0
    while True:
        if i == len(done):
            x = next(rest, None)
            if x is None:
                return
            done.append((x, g.bracket(x, x)))
        yield done[i]
        i += 1


def cone_pointedness(g):
    """Certificate for the convex cone generated by the odd squares [X, X].

    A positive witness functional gives pointedness (the functional is
    strictly positive on every nonzero generator); a vanishing square map
    gives the trivial cone; otherwise a cancelling pair [X1,X1] = -[X2,X2]
    with both sides nonzero, given as the pair (x1, x2), certifies not
    pointed.
    """
    if _square_map_is_zero(g):
        return ConditionReport("pass", detail="all odd squares vanish: trivial cone")
    if find_witness(g).verdict == "pass":
        return ConditionReport("pass")
    # squares grouped by direction (the square over its first nonzero entry,
    # kept sparse): [X,X] = -c^2 [Y,Y] holds only inside one group
    groups = {}
    for x, s in _candidate_squares(g):
        lead = next((a for a in s if a), None)
        if lead is None:
            continue
        group = groups.setdefault(tuple((k, a / lead) for k, a in enumerate(s) if a), [])
        for y, lead_y in group:
            if lead_y == -lead:
                return ConditionReport("fail", certificate=(x, y))
        # scaled match: [X,X] = -c^2 [Y,Y] for a rational square c^2
        for y, lead_y in group:
            r = lead / lead_y
            c = _rational_sqrt(-r) if r < 0 else None
            if c is not None:
                y2 = [c * w for w in y]
                if vec_is_zero([a + b for a, b in zip(s, g.bracket(y2, y2))]):
                    return ConditionReport("fail", certificate=(x, y2))
        group.append((x, lead))
    return ConditionReport("inconclusive")


def _int_sqrt(n):
    r = isqrt(n)
    return r if r * r == n else None


def _rational_sqrt(q):
    """The rational square root r >= 0 of a rational q >= 0, or None."""
    rn, rd = _int_sqrt(q.numerator), _int_sqrt(q.denominator)
    return None if rn is None or rd is None else Fraction(rn, rd)


# ---------------------------------------------------------------------------
# even actions and invariant symmetric forms
# ---------------------------------------------------------------------------

def invariant_symmetric_forms(actions, dim):
    """Basis of symmetric B with M^T B + B M = 0 for every action M.

    Each action is given as integer columns: cols[j] lists (i, M[i][j])
    over the nonzero entries of column j, as even_actions returns it, so
    the equation rows are int dicts.

    Unknowns are the upper-triangle entries; returns a list of Gram
    matrices, each a list of rows, spanning the solution space.
    """
    pos = {}
    for r in range(dim):
        for s in range(r, dim):
            pos[(r, s)] = len(pos)
    nvars = len(pos)

    def var(r, s):
        return pos[(r, s)] if r <= s else pos[(s, r)]

    def equations():
        for cols in actions:
            for j in range(dim):
                for k in range(j, dim):
                    # (M^T B + B M)[j][k] = sum_r M[r][j] B[r][k] + M[r][k] B[j][r]
                    row = {}
                    for r, a in cols[j]:
                        v = var(r, k)
                        row[v] = row.get(v, 0) + a
                    for r, b in cols[k]:
                        v = var(j, r)
                        row[v] = row.get(v, 0) + b
                    row = {v: a for v, a in row.items() if a}
                    if row:
                        yield row

    out = []
    for combo in kernel(equations(), nvars):
        gram = [vec_zero(dim) for _ in range(dim)]
        for (r, s), v in pos.items():
            gram[r][s] = combo[v]
            gram[s][r] = combo[v]
        out.append(gram)
    return out


def invariant_odd_forms(g):
    """Basis of even-invariant symmetric forms on the odd part."""
    grams = invariant_symmetric_forms(even_actions(g, g.space.odd_indices()), g.d1)
    idx = list(g.space.odd_indices())
    return [InvariantForm(idx, gr) for gr in grams]


# ---------------------------------------------------------------------------
# compactness via invariant positive forms
# ---------------------------------------------------------------------------

def _no_posdef_pair_certificate(grams, dim, actions):
    """Nonzero v, w with S(v,v) + S(w,w) = 0 for every S in the span.

    Looked for among basis vectors paired through commutant candidates
    (multiplication-by-i operators of complex type); certifies that no
    form in the span is positive definite.
    """
    if not grams:
        return None
    comm = module_commutant(actions, dim)
    for vi in range(dim):
        v = [ONE if a == vi else ZERO for a in range(dim)]
        for j in comm:
            w = _lin_comb(v, j, dim)
            if vec_is_zero(w):
                continue
            if all(quad_form(s, v) + quad_form(s, w) == 0 for s in grams):
                return (v, w)
    return None


def compactness_check(g):
    """Invariant positive definite forms on the even and odd parts.

    pass needs certified positive forms on both; fail needs a certificate
    that one of the two solution spaces admits none, and names that part
    and its reason (the odd part is not searched once the even part fails).
    A sign-conflict pair (v, w) is itself the certificate, with the part
    in the detail.
    """
    verdicts = []
    for part, actions, dim in (
            ("even", even_actions(g, g.space.even_indices()), g.d0),
            ("odd", even_actions(g, g.space.odd_indices()), g.d1)):
        if dim == 0:
            verdicts.append("pass")
            continue
        grams = invariant_symmetric_forms(actions, dim)
        out = find_posdef_in_span(grams)
        if out.verdict == "inconclusive":
            pair = _no_posdef_pair_certificate(grams, dim, actions)
            if pair is not None:
                return ConditionReport("fail", certificate=pair,
                                       detail="%s part: sign-conflict pair" % part)
        if out.verdict == "fail":
            return ConditionReport("fail", certificate="%s part: %s" % (part, out.detail))
        verdicts.append(out.verdict)
    return ConditionReport("pass" if verdicts == ["pass", "pass"] else "inconclusive")


# ---------------------------------------------------------------------------
# the five necessary conditions
# ---------------------------------------------------------------------------

def _nonzero_square_check(g, witness_found):
    """(ii): [X, X] != 0 for nonzero odd X.

    A positive witness settles it; otherwise search for an exact
    counterexample among the structured candidates, then on the planes
    they span with the odd basis vectors.
    """
    if g.d1 == 0:
        return ConditionReport("pass")
    if witness_found:
        return ConditionReport(
            "pass", detail="positive definite kappa_omega forces nonzero squares")
    x = next((x for x, sq in _candidate_squares(g) if vec_is_zero(sq)), None)
    if x is None:
        x = _isotropic_on_planes(g)
    return ConditionReport("inconclusive" if x is None else "fail", certificate=x)


def _isotropic_on_planes(g):
    """The first s u + e_k with zero square, or None.

    u runs over the structured candidates, whose squares the caller has
    found nonzero, and e_k over the odd basis vectors outside u's support, so s u + e_k is
    never zero.  Its square is the vector quadratic
    s^2 [u, u] + 2 s [u, e_k] + [e_k, e_k]; each rational root s of that
    quadratic at its first nonzero coordinate is kept only if the whole
    quadratic vanishes entry by entry.  [u, e_k] is read off the integer
    adjoint rows of u's (at most two) nonzero coordinates, and the x
    returned is re-checked by its exact bracket.
    """
    ad, _ = g.adjoint_table()
    for u, _ in _candidate_squares(g):
        # u has entries 1 and -1, so it is its own int row; the table gives
        # den times each coefficient of the quadratic, which keeps its roots
        ur = {m: int(a) for m, a in enumerate(u) if a}
        uu = _bracket_rows(ad, ur, ur)
        for k in g.space.odd_indices():
            if u[k]:
                continue
            kk = ad[k][k]
            uk = _bracket_rows(ad, ur, {k: 1})
            supp = uu.keys() | uk.keys() | kk.keys()
            i = min(supp)
            for s in _first_coordinate_roots([Fraction(uu.get(i, 0))], [Fraction(uk.get(i, 0))],
                                             [Fraction(kk.get(i, 0))]):
                # s = p / q: p^2 [u, u] + 2 p q [u, e_k] + q^2 [e_k, e_k] = 0
                p, q = s.numerator, s.denominator
                if all(p * p * uu.get(c, 0) + 2 * p * q * uk.get(c, 0)
                       + q * q * kk.get(c, 0) == 0 for c in supp):
                    x = [s * a if a else a for a in u]
                    x[k] = ONE
                    if vec_is_zero(g.bracket(x, x)):
                        return x
    return None


def _first_coordinate_roots(a, b, c):
    """Rational roots s of s^2 a_i + 2 s b_i + c_i at the first i where
    the three are not all zero; c must be a nonzero vector."""
    a, b, c = next((x, y, z) for x, y, z in zip(a, b, c) if x or y or z)
    if not a:
        return [-c / (2 * b)] if b else []
    disc = b * b - a * c
    r = _rational_sqrt(disc) if disc >= 0 else None
    if r is None:
        return []
    return [(r - b) / a] + ([(-r - b) / a] if r else [])


def necessary_conditions_report(g):
    """All five necessary unitarity conditions with per-item verdicts.

    (i) compactness, (ii) nonzero odd squares, (iii) pointed cone,
    (iv) positive invariant functional, (v) nontrivial even center.
    (iv) and (v) follow from [x, x] != 0 for odd x != 0: vacuous if g1 = 0.
    Raises SuperAlgebraError naming the first violated identity when g is
    not a Lie superalgebra.
    """
    require_superalgebra(g)
    comp = compactness_check(g)
    wit = find_witness(g)
    cone = cone_pointedness(g)
    items = {"i_compact": comp,
             "ii_nonzero_squares": _nonzero_square_check(g, wit.verdict == "pass"),
             "iii_pointed_cone": cone,
             "iv_positive_functional": wit}
    ann_dim = len(invariant_functional_basis(g))
    dim_z0 = even_center_dim(g)
    items["v_even_center"] = ConditionReport(
        "pass" if dim_z0 > 0 or not g.d1 else "fail",
        detail="%sdim z(g0) = %d, annihilator dim = %d"
        % ("" if g.d1 else "no odd part: ", dim_z0, ann_dim))

    verdicts = [it.verdict for it in items.values()]
    if "fail" in verdicts:
        overall = "obstruction found"
    elif all(v == "pass" for v in verdicts):
        overall = "all necessary conditions pass"
    else:
        overall = "inconclusive items listed"
    return NecessaryConditionsReport(items, overall)


class NecessaryConditionsReport:
    def __init__(self, items, overall):
        self.items = items                # condition key -> ConditionReport, (i) to (v)
        self.overall = overall

    def item(self, key):
        return self.items[key]

    def to_json_dict(self):
        def cert_json(c):
            if isinstance(c, Witness):
                return c.to_json_dict()
            if isinstance(c, str):
                return c
            if isinstance(c, tuple):
                return {"x1": _vec_json(c[0]), "x2": _vec_json(c[1])}
            return _vec_json(c)

        return {
            "overall": self.overall,
            "conditions": [
                {"condition": key, "verdict": it.verdict,
                 **({"certificate": cert_json(it.certificate)}
                    if it.certificate is not None else {}),
                 **({"detail": str(it.detail)} if it.detail is not None else {})}
                for key, it in self.items.items()],
        }


def _vec_json(v):
    return [[str(a.numerator), str(a.denominator)] for a in v]
