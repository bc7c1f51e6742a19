"""Graded vector spaces and their subspaces.

A SuperSpace is an ordered graded basis, even vectors first, then odd.
A Subspace is held as the integer echelon rows of exact.Echelon, and
shows its canonical reduced echelon basis as dense Fraction vectors;
sums and intersections (by Zassenhaus) are read off those rows.
SuperAlgebraError, the error of every malformed space or algebra, is
defined here, the lowest layer that raises it.

All values are immutable after construction; operations are pure.
"""

from .exact import Echelon, ZERO, _row_from_list


class SuperAlgebraError(Exception):
    pass


class SuperSpace:
    """Ordered graded basis; even labels precede odd labels."""

    __slots__ = ("labels", "parities", "d0", "d1")

    def __init__(self, labels, parities):
        if len(labels) != len(set(labels)):
            raise SuperAlgebraError("labels must be unique")
        if len(labels) != len(parities):
            raise SuperAlgebraError("one parity per label required")
        seen_odd = False
        for p in parities:
            if p not in (0, 1):
                raise SuperAlgebraError("parity must be 0 or 1, not %r" % (p,))
            if p == 1:
                seen_odd = True
            elif seen_odd:
                raise SuperAlgebraError("even basis vectors must precede odd ones")
        self.labels = tuple(labels)
        self.parities = tuple(parities)
        self.d1 = sum(parities)
        self.d0 = len(parities) - self.d1

    @classmethod
    def make(cls, d0, d1):
        labels = ["e%d" % i for i in range(d0 + d1)]
        return cls(labels, [0] * d0 + [1] * d1)

    @property
    def dim(self):
        return self.d0 + self.d1

    def even_indices(self):
        return range(self.d0)

    def odd_indices(self):
        return range(self.d0, self.dim)


class Subspace:
    """Subspace of a SuperSpace in canonical reduced echelon basis."""

    __slots__ = ("ambient_dim", "basis", "_ech")

    def __init__(self, ambient_dim, vectors):
        self.ambient_dim = ambient_dim
        ech = Echelon(ambient_dim)
        for v in vectors:
            ech.add_list(v)
        self.basis = ech.basis_vectors()
        self._ech = ech

    @classmethod
    def _spanned(cls, ech):
        """The row space of an Echelon, which the subspace keeps."""
        sub = cls(ech.ncols, ())
        sub.basis, sub._ech = ech.basis_vectors(), ech
        return sub

    def _rows(self):
        """The echelon's pivot rows: coprime int dicts spanning the subspace."""
        return list(self._ech.pivots.values())

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, v):
        return not self._ech.residual(_row_from_list(v))

    def contains_subspace(self, other):
        return not any(self._ech.residual(u) for u in other._rows())

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def sum(self, other):
        return Subspace(self.ambient_dim, self.basis + other.basis)

    def intersection(self, other):
        """Zassenhaus on the int rows: (u | u) for u in U and (w | 0) for w
        in W span the pairs (u + w | u), and the echelon rows with pivot
        in the right half span those with u + w = 0, that is (0 | U meet W)."""
        n = self.ambient_dim
        ech = Echelon(2 * n)
        for u in self._rows():
            ech.add({**u, **{j + n: a for j, a in u.items()}})
        for w in other._rows():
            ech.add(w)
        out = Echelon(n)
        for c, row in ech.pivots.items():
            if c >= n:
                out.add({j - n: a for j, a in row.items()})
        return Subspace._spanned(out)

    def parity_components(self, parities):
        """(even part, odd part) of a graded subspace, as the projections of
        its basis.  The projections contain the subspace, so their dimensions
        add up to its own exactly when it is graded."""
        return tuple(Subspace(self.ambient_dim,
                              [[a if p == keep else ZERO for a, p in zip(v, parities)]
                               for v in self.basis])
                     for keep in (0, 1))

    def is_graded(self, parities):
        ev, od = self.parity_components(parities)
        return ev.dim + od.dim == self.dim

    def sort_key(self):
        """Orders entries by (numerator, denominator), not by value."""
        return (self.dim, tuple(tuple((a.numerator, a.denominator) for a in v)
                                for v in self.basis))
