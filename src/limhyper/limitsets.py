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

from dataclasses import dataclass
from functools import cached_property

from .errors import GroundMismatch, NotInCarrier
from .finspace import FinTopSpace, _check_subset, closed_sets, meet_of, set_repr, transpose, union_of

CARRIER_KINDS = ("F", "Fprime", "L", "Lprime", "ML")

@dataclass(frozen=True)
class HyperCarrier:
    """An indexed family of subsets of one space, e.g. F(X) or ML(X).

    Elements are canonically ordered (cardinality, then mask), so carrier
    indices are stable across runs.
    """

    space: FinTopSpace
    kind: str
    elements: tuple[int, ...]

    @cached_property
    def _positions(self) -> dict[int, int]:
        # filled back to front, so a repeated mask maps to its first index
        return {m: i for i, m in reversed(tuple(enumerate(self.elements)))}

    @cached_property
    def holding(self) -> tuple[int, ...]:
        """``holding[x]``: mask of the carrier indices whose element holds x,
        the transpose of the elements."""
        return transpose(self.elements, self.space.n)

    def meeting(self, points: int) -> int:
        """Mask of the carrier indices whose element meets ``points``."""
        return union_of(self.holding, points)

    @cached_property
    def near(self) -> tuple[int, ...]:
        """``near[x]``: mask of the carrier indices whose element meets
        min_nbhd(x)."""
        return tuple(self.meeting(row) for row in self.space.rows)

    @cached_property
    def subsets(self) -> tuple[int, ...]:
        """``subsets[i]``: mask of the carrier indices whose element lies
        inside element i, the elements missing every point outside it."""
        full_k = (1 << len(self.elements)) - 1
        full = self.space.full
        return tuple(full_k & ~self.meeting(full & ~a) for a in self.elements)

    @cached_property
    def supersets(self) -> tuple[int, ...]:
        """``supersets[i]``: mask of the carrier indices whose element
        contains element i, the elements holding each of its points."""
        full_k = (1 << len(self.elements)) - 1
        return tuple(meet_of(self.holding, a, full_k) for a in self.elements)

    def index(self, mask: int) -> int:
        try:
            return self._positions[mask]
        except KeyError:
            raise NotInCarrier(f"{set_repr(mask)} is not an element of carrier {self.kind}") from None

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

    The closed sets are sorted once and the limit-set predicate is tested
    once on each; the other kinds are filters that keep the order. L keeps
    the closed limit sets, Fprime and Lprime drop the empty set, and ML
    keeps the inclusion-maximal nonempty closed limit sets; the closure of
    a limit set is again one, so they are maximal among all limit sets.
    Scanned from the largest down, a set is maximal when no maximal set
    found so far contains it, as a strict superset lies under one of those.
    """
    closed = closed_sets(space)
    limits = tuple(c for c in closed if meet_of(space.rows, c, space.full))
    maximal = []
    for c in reversed(limits):
        if c and all(c & ~d for d in maximal):
            maximal.append(c)
    elems = (closed, tuple(c for c in closed if c), limits, tuple(c for c in limits if c), tuple(reversed(maximal)))
    return {kind: HyperCarrier(space, kind, e) for kind, e in zip(CARRIER_KINDS, elems)}


def carrier(space: FinTopSpace, kind: str) -> HyperCarrier:
    """One of the five carriers F, Fprime, L, Lprime, ML, as ``carriers``
    builds it."""
    if kind not in CARRIER_KINDS:
        raise ValueError(f"unknown carrier kind {kind!r}; expected one of {CARRIER_KINDS}")
    return carriers(space)[kind]
