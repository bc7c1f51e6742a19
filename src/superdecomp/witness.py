"""Invariant functionals, the positive-form witness search and cone
pointedness.

Every condition, and every positive-form search behind one, answers with
one ConditionReport (verdict, certificate, detail).  A "fail" is given
only on a proof, and a positive-definiteness witness always re-verifies
through the Sylvester criterion.

The positive-form search first scans sign patterns t on integers: a
candidate whose Gram sum t_i G_i has a nonpositive diagonal entry r is
rejected by that entry alone (e_r is its witness), and only the others get
the full Sylvester test in Fractions.  Then comes a cutting-plane loop
over exact rational LPs: while the Sylvester test fails with witness
vector v, the valid inequality sum_i t_i (v^T G_i v) >= 1 is added and
the LP is re-solved, up to an iteration cap.
"""

from fractions import Fraction
from itertools import product
from math import isqrt, lcm

from .exact import ZERO, ONE, MINUS_ONE, _lin_comb, kernel, vec_is_zero, vec_zero
from .positivity import UnsolvedLP, feasible_point, is_positive_definite, quad_form
from .spaces import SuperAlgebraError
from .core import per_algebra

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
    """A verified functional omega with the Sylvester minors of its Gram."""

    def __init__(self, functional, minors, iterations):
        self.functional = functional        # length-d0 vector
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
        # product varies its last entry fastest; reversed, the first does
        for v in product((1, -1, 0), repeat=n):
            if any(v):
                yield list(v[::-1])


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
    return ConditionReport("pass", certificate=Witness(functional, res.minors, iters))


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


def _vec_json(v):
    return [[str(a.numerator), str(a.denominator)] for a in v]
