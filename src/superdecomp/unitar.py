"""Compactness and unitarity analysis.

Certificates, not heuristics: a "no" verdict always carries an exactly
re-checkable witness (trivial even center, a nonzero odd vector with
vanishing square, a sign-conflict pair, or an infeasible exact LP over the
full candidate space); a positive-definiteness witness always re-verifies
through the Sylvester criterion.  Anything else is reported inconclusive.
Every condition answers with one witness.ConditionReport (verdict,
certificate, detail); the report places the witness search's answer
(witness.find_witness) at (iv) as it is, and the cone pointedness of
witness at (iii).  The invariant-form equations and the plane search for
isotropic odd vectors run on integer rows of the adjoint table.
"""

from fractions import Fraction

from .exact import ONE, kernel, vec_is_zero, vec_unit, vec_zero
from .positivity import quad_form
from .core import _bracket_rows
from .invariants import InvariantForm, even_center_dim, require_superalgebra
from .calculus import lie_generators, module_actions, module_commutant
from .witness import (
    ConditionReport, Witness, _candidate_squares, _rational_sqrt, _vec_json,
    cone_pointedness, find_posdef_in_span, find_witness, invariant_functional_basis,
)


# ---------------------------------------------------------------------------
# invariant symmetric forms
# ---------------------------------------------------------------------------

def invariant_symmetric_forms(actions, dim):
    """Basis of symmetric B with M^T B + B M = 0 for every action M.

    Each action is given as integer columns: cols[j] lists (i, M[i][j])
    over the nonzero entries of column j, as calculus.module_actions
    writes it, so the equation rows are int dicts.  Forms invariant under
    the Lie generators of the acting algebra are invariant under all of it.

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
    gens = lie_generators(g, g.even_subspace().basis)
    grams = invariant_symmetric_forms(module_actions(g, gens, g.odd_subspace().basis), g.d1)
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
    comm = module_commutant(actions, dim)
    for vi in range(dim):
        v = vec_unit(dim, vi)
        for j in comm:
            w = j[vi]                   # J e_v, the column v of J
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
    even, odd = g.even_subspace(), g.odd_subspace()
    gens = lie_generators(g, even.basis)
    for part, sub in (("even", even), ("odd", odd)):
        dim = sub.dim
        if dim == 0:
            verdicts.append("pass")
            continue
        actions = module_actions(g, gens, sub.basis)
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
