"""The Sylvester test and the exact feasibility LP, on rationals, each
re-checking the certificate it returns.  The Sylvester test is a reading
of exact.diagonalize; the LP tableau runs on exact's fraction-free row
updates.  Only the unitarity report and its witness search load this
module.
"""

from fractions import Fraction

from .exact import (
    _F0, _F1, _lin_comb, _row_content_reduce, _row_cross, _row_divide_content,
    _row_from_list, diagonalize, is_symmetric,
)


# ---------------------------------------------------------------------------
# positive definiteness with exact certificates
# ---------------------------------------------------------------------------

class PosDefResult:
    """Outcome of the Sylvester test.

    ok          -- True iff the matrix is positive definite
    minors      -- leading principal minors D_1..D_k computed along the way
    witness     -- on failure, exact v with v^T g v <= 0, its value
                   re-checked on g before it is returned
    congruence  -- on success, the rows of T with T^T g T diagonal; its
                   k-th diagonal entry is D_k / D_{k-1}
    """

    __slots__ = ("ok", "minors", "witness", "congruence")

    def __init__(self, ok, minors, witness=None, congruence=None):
        self.ok = ok
        self.minors = minors
        self.witness = witness
        self.congruence = congruence


def quad_form(g, v):
    """v^T g v for the rows g of a rational symmetric matrix."""
    acc = _F0
    for i, row in enumerate(g):
        if not v[i]:
            continue
        for j, a in enumerate(row):
            if a and v[j]:
                acc += v[i] * a * v[j]
    return acc


def is_positive_definite(g):
    """Sylvester criterion read off exact.diagonalize, stopping at the first
    pivot d <= 0, whose column is the witness: its value d is re-checked on g.

    g is a list of rows, symmetric with rational entries; a non-symmetric
    or complex input raises ValueError.
    """
    if not all(isinstance(a, Fraction) for row in g for a in row):
        raise ValueError("rational symmetric matrix required")
    if not is_symmetric(g):
        raise ValueError("non-symmetric input rejected")
    minors, cols = [], []
    det = _F1
    for d, v in diagonalize(g):
        if d <= 0:
            if quad_form(g, v) != d:
                raise ArithmeticError("Sylvester witness fails its exact re-check")
            return PosDefResult(False, minors, v)
        det *= d
        minors.append(det)
        cols.append(v)
    return PosDefResult(True, minors, congruence=[list(r) for r in zip(*cols)])


# ---------------------------------------------------------------------------
# exact feasibility LP:  find t with A t >= 1 componentwise
# ---------------------------------------------------------------------------

# simplex pivots feasible_point may take before it gives up
LP_PIVOT_CAP = 20000


class UnsolvedLP(ArithmeticError):
    """feasible_point neither found a point nor proved there is none."""


def _check_farkas(rows, y, nvars):
    """Raise UnsolvedLP unless y >= 0, sum y_i row_i = 0 and sum y_i > 0,
    which proves that no t has row . t >= 1 for every row."""
    if min(y) < 0 or sum(y) <= 0 or any(_lin_comb(y, rows, nvars)):
        raise UnsolvedLP("Farkas vector fails the exact re-check")


def feasible_point(rows, nvars):
    """Exact rational t with row . t >= 1 for every row, or None.

    rows are lists of Fractions.  Phase-1 simplex with Bland's rule over
    the columns u, w, s, z of t = u - w, surplus s and artificial z, on
    sparse int rows that store only u, s and the rhs: each row keeps
    w = -u and z = -s, and tableau row i is tab[i] over its basic entry.
    The cost row's z entries are -s - scale, scale being its own scale.
    None comes with a Farkas vector that passed its exact re-check: it
    certifies that {A t >= 1}, or any positive scaling of it, is
    infeasible.  Raises UnsolvedLP when the simplex stops without an
    optimal tableau (LP_PIVOT_CAP pivots, or no leaving row) or the point
    or Farkas vector it reads off fails the exact re-check: neither
    outcome proves anything.
    """
    m = len(rows)
    n2 = 2 * nvars
    rhs, scale = n2 + 2 * m, n2 + 2 * m + 1
    tab = [_row_content_reduce({**_row_from_list(row), n2 + i: -1, rhs: 1})
           for i, row in enumerate(rows)]
    # cost row of min sum z: the sum of the rows, zero on the z columns
    sums = _row_from_list(sum(a for a in col if a) for col in zip(*rows))
    obj = _row_content_reduce({**sums, **{n2 + i: -1 for i in range(m)}, rhs: m, scale: 1})
    basis = [n2 + m + i for i in range(m)]

    def entry(r, c):
        """Row r's entry in dense column c (u, w, s, z order)."""
        if c < nvars or n2 <= c < n2 + m:
            return r.get(c, 0)
        return -r.get(c - nvars, 0) if c < n2 else -r.get(c - m, 0) - r.get(scale, 0)

    for _ in range(LP_PIVOT_CAP):
        us = [(j, a) for j, a in obj.items() if j < nvars]
        ss = [(j, a) for j, a in obj.items() if n2 <= j < rhs]
        enter = min([j for j, a in us if a > 0] or [j + nvars for j, a in us if a < 0]
                    or [j for j, a in ss if a > 0]
                    or [j + m for j, a in ss if a < -obj[scale]] or [-1])
        if enter < 0:
            break
        # ratio test by cross-multiplication, Bland tie-break on basis index
        col = [entry(r, enter) for r in tab]
        leave = -1
        for i, a in enumerate(col):
            if a > 0:
                b = tab[i].get(rhs, 0)
                if leave < 0 or b * pv < best * a or (
                        b * pv == best * a and basis[i] < basis[leave]):
                    leave, pv, best = i, a, b
        if leave < 0:
            # phase 1 is bounded below by 0, so the tableau is inconsistent
            raise UnsolvedLP("no leaving row for entering column %d" % enter)
        piv = tab[leave]
        for i, a in enumerate(col):
            if i != leave and a:
                tab[i] = _row_divide_content(_row_cross(piv, pv, tab[i], a))
        obj = _row_divide_content(_row_cross(piv, pv, obj, entry(obj, enter)))
        basis[leave] = enter
    else:
        raise UnsolvedLP("pivot cap of %d reached" % LP_PIVOT_CAP)
    if obj.get(rhs):
        _check_farkas(rows, [-obj.get(n2 + i, 0) for i in range(m)], nvars)
        return None                                # infeasible, exactly
    t = [_F0] * nvars
    for b, r in zip(basis, tab):
        if b < n2:
            x = Fraction(r.get(rhs, 0), entry(r, b))
            t[b % nvars] = x if b < nvars else -x
    # exact re-check; simplex bookkeeping must never be trusted blindly
    for row in rows:
        if sum(a * t[j] for j, a in enumerate(row) if a) < 1:
            raise UnsolvedLP("simplex point fails the exact re-check")
    return t

