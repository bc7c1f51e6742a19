"""The fingerprint classifier.

A fingerprint is a tuple of isomorphism invariants of an algebra; the
classifier looks it up in the committed family table
family_fingerprints.json, built from the constructors, and builds no
family.  decompose names each ideal with it, with the odd commutant
read off the split where it can; unitarity loads none of this.
"""

import json
import os
from collections import namedtuple

from .core import per_algebra
from .invariants import center, even_center_dim, killing_form
from .calculus import bracket_span, is_perfect, module_actions, module_commutant


class Fingerprint(namedtuple("Fingerprint", (
        "d0", "d1", "dim_z", "dim_z0", "killing_rank", "odd_commutant_dim",
        "perfect", "odd_square_dim"))):
    """Isomorphism-type summary used by the classifier and the reports.

    odd_square_dim (the dimension of span [g1, g1]) is needed on top of the
    classical invariants: the queer family and tangent extensions can agree
    on every other field (q(2) and the central extension of T su(3) share
    dims, centers, Killing rank, commutant and perfectness).
    """

    __slots__ = ()

    def to_json_dict(self):
        return {k: bool(v) if k == "perfect" else str(v)
                for k, v in self._asdict().items()}


@per_algebra
def fingerprint(g):
    # every even basis vector acts: lie_generators would run the Jacobi
    # check on each ideal's algebra, which costs more than it saves here
    actions = module_actions(g, g.even_subspace().basis, g.odd_subspace().basis)
    return fingerprint_with(g, len(module_commutant(actions, g.d1)))


def fingerprint_with(g, odd_commutant_dim):
    """g's fingerprint, given the commutant dimension of g1 under g0."""
    _, krank = killing_form(g)
    odd = g.odd_subspace()
    return Fingerprint(
        g.d0, g.d1, center(g).dim, even_center_dim(g), krank,
        odd_commutant_dim, is_perfect(g), bracket_span(g, odd, odd).dim)


# the classifier's table: one row [tag, params, fingerprint] per family
# with d0 + d1 <= 64, in matching order; tests/test_golden.py writes it
# from the constructors and checks that it still matches them
_TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "family_fingerprints.json")


def _class_tag(tag, params):
    """A family's classification tag: su(n|m) with n > m apart from su(n|n)."""
    if tag != "su":
        return tag
    return "su(n|m)" if params[0] > params[1] else "su(n|n)"


def classify_fingerprint(fp):
    """Match a fingerprint against the rows of the committed family table
    (family_fingerprints.json) that have its dimension pair; no family is
    built.

    Returns (tag, matches) where tag distinguishes su(n|m) n>m from
    su(n|n); "unknown" comes with the nearest dimension-compatible
    candidates.  su(2|1) = c(2) is the one fingerprint the table shares
    across tags; the other repeats (T, T_hat, T_tilde over su2 and so3,
    over so5 and sp2) keep one tag.
    """
    with open(_TABLE) as fh:
        rows = json.load(fh)
    matches = []
    near = []
    for tag, params, want in rows:
        if want[:2] != [fp.d0, fp.d1]:
            continue
        near.append((tag, tuple(params)))
        if Fingerprint(*want) == fp:
            matches.append((tag, tuple(params)))
    if not matches:
        return "unknown", near
    tags = {_class_tag(tag, params) for tag, params in matches}
    if tags == {"su(n|m)", "c"}:
        # the exceptional coincidence: the compact forms of A(1,0) and C(2)
        # are isomorphic; report the su name and keep both matches
        return "su(n|m)", matches
    return tags.pop(), matches
