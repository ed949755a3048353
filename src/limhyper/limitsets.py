"""Limit-set predicates and the carriers built from them.

A set L is a limit set when every finite family of opens that all meet L
has a common point. On a finite space the family of all opens meeting L
is itself such a family, so the criterion collapses to one intersection,
the AND of the minimal neighborhoods of L's points: each is an open meeting
L, and every open meeting L at x contains min_nbhd(x). The tests compare
it with ``oracle.is_limit_set_oracle``, the literal quantification over
subfamilies.
"""

from __future__ import annotations

from .errors import GroundMismatch, NotInCarrier
from .finspace import FinTopSpace, _Value, _check_subset, closed_sets, lazy, meet_of, set_repr, transpose, union_of

CARRIER_KINDS = ("F", "Fprime", "L", "Lprime", "ML")


class HyperCarrier(_Value):
    """An indexed family of subsets of one space, e.g. F(X) or ML(X).

    Elements are canonically ordered (cardinality, then mask), so carrier
    indices are stable across runs.

    ``carriers`` links a carrier to the one it is nested in, its private
    ``_base``: a carrier of the same space whose elements are this one's,
    or this one's behind a leading empty set. ``holding``, ``subsets``
    and ``supersets`` are then read off the base's tables instead of
    computed. The empty set holds no point and lies inside every set, so
    dropping it drops the base's first row and bit 0 of every row: each
    row shifts right one bit, and ``holding``, one row per point, keeps
    all its rows.
    """

    _fields = ("space", "kind", "elements")
    _base: HyperCarrier | None = None

    def __init__(self, space: FinTopSpace, kind: str, elements: tuple[int, ...]):
        self.__dict__.update(space=space, kind=kind, elements=elements)

    def _from_base(self, rows: tuple[int, ...]) -> tuple[int, ...]:
        # base's per-element table: the same tuple, or without its first row
        # and bit 0 when base leads with the empty set
        if len(rows) == len(self.elements):
            return rows
        return tuple(row >> 1 for row in rows[1:])

    @lazy
    def _positions(self) -> dict[int, int]:
        # filled back to front, so a repeated mask maps to its first index
        return {m: i for i, m in reversed(tuple(enumerate(self.elements)))}

    @lazy
    def holding(self) -> tuple[int, ...]:
        """``holding[x]``: mask of the carrier indices whose element holds x,
        the transpose of the elements."""
        base = self._base
        if base is None:
            return transpose(self.elements, self.space.n)
        if len(base.elements) == len(self.elements):
            return base.holding
        return tuple(row >> 1 for row in base.holding)

    def meeting(self, points: int) -> int:
        """Mask of the carrier indices whose element meets ``points``."""
        return union_of(self.holding, points)

    @lazy
    def closed(self) -> bool:
        """Whether every element is closed, that is meets min_nbhd(x) only
        when it holds x, at every point x; ``carriers`` records it."""
        return all(self.meeting(row) == held for row, held in zip(self.space.rows, self.holding))

    @lazy
    def subsets(self) -> tuple[int, ...]:
        """``subsets[i]``: mask of the carrier indices whose element lies
        inside element i, the elements missing every point outside it."""
        if self._base is not None:
            return self._from_base(self._base.subsets)
        full_k = (1 << len(self.elements)) - 1
        full = self.space.full
        return tuple(full_k & ~self.meeting(full & ~a) for a in self.elements)

    @lazy
    def supersets(self) -> tuple[int, ...]:
        """``supersets[i]``: mask of the carrier indices whose element
        contains element i, the elements holding each of its points."""
        if self._base is not None:
            return self._from_base(self._base.supersets)
        full_k = (1 << len(self.elements)) - 1
        return tuple(meet_of(self.holding, a, full_k) for a in self.elements)

    def index(self, mask: int) -> int:
        try:
            return self._positions[mask]
        except KeyError:
            name = set_repr(mask) if mask >= 0 else str(mask)
            raise NotInCarrier(f"{name} is not an element of carrier {self.kind}") from None

    def __len__(self) -> int:
        return len(self.elements)


def is_limit_set(space: FinTopSpace, l: int) -> bool:
    """Fast criterion: the opens meeting l must share a point.

    The empty intersection over zero opens counts as the ground set, so
    the empty set is a limit set of every nonempty space. l need not be
    closed.
    """
    _check_subset(space, l)
    return meet_of(space.rows, l, space.full) != 0


def limit_witness(space: FinTopSpace, l: int) -> int | None:
    """A point lying in every open that meets l, when one exists.

    Present exactly when l is a limit set; the constant sequence at the
    witness converges to every point of l.
    """
    _check_subset(space, l)
    meet = meet_of(space.rows, l, space.full)
    if meet == 0:
        return None
    return (meet & -meet).bit_length() - 1


def eta(space: FinTopSpace, x: int) -> int:
    """Closure of the singleton {x}; always a nonempty closed limit set."""
    if not 0 <= x < space.n:
        raise GroundMismatch(f"point {x} outside the {space.n}-point ground set")
    return space.closures[x]


def carriers(space: FinTopSpace) -> dict[str, HyperCarrier]:
    """The five carriers F, Fprime, L, Lprime, ML, keyed by kind, in one pass.

    The closed sets come sorted from ``closed_sets`` and the limit-set
    predicate is tested once on each; the other kinds are filters that keep
    the order. L keeps the closed limit sets, Fprime and Lprime drop the empty
    set, and ML keeps the inclusion-maximal nonempty closed limit sets; the
    closure of a limit set is again one, so they are maximal among all limit
    sets. Scanned from the largest down, a set is maximal when no maximal set
    found so far contains it, as a strict superset lies under one of those.

    The empty set comes first in canonical order, so Fprime takes its
    tables from F, L from F when every closed set is a limit set, and
    Lprime from Fprime then, else from L (``HyperCarrier._base``); the
    tables are built on first use. Every element is the complement of an
    open, so each carrier records ``closed``, and ML, an antichain, the
    identity as its ``subsets`` and ``supersets``.
    """
    closed = closed_sets(space)
    limits = tuple(c for c in closed if meet_of(space.rows, c, space.full))
    maximal = []
    for c in reversed(limits):
        if c and all(c & ~d for d in maximal):
            maximal.append(c)
    f = HyperCarrier(space, "F", closed)
    fp = HyperCarrier(space, "Fprime", closed[1:])
    l = HyperCarrier(space, "L", limits)
    lp = HyperCarrier(space, "Lprime", limits[1:])
    links = ((fp, f), (l, f), (lp, fp)) if len(limits) == len(closed) else ((fp, f), (lp, l))
    for car, base in links:
        car.__dict__["_base"] = base
    ml = HyperCarrier(space, "ML", tuple(reversed(maximal)))
    identity = tuple(1 << i for i in range(len(maximal)))
    ml.__dict__.update(subsets=identity, supersets=identity)
    for car in (f, fp, l, lp, ml):
        car.__dict__["closed"] = True
    return dict(zip(CARRIER_KINDS, (f, fp, l, lp, ml)))


def carrier(space: FinTopSpace, kind: str) -> HyperCarrier:
    """One of the five carriers F, Fprime, L, Lprime, ML, as ``carriers``
    builds it."""
    if kind not in CARRIER_KINDS:
        raise ValueError(f"unknown carrier kind {kind!r}; expected one of {CARRIER_KINDS}")
    return carriers(space)[kind]
