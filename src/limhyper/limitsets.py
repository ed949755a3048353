"""Limit-set predicates and the carriers built from them.

A set L is a limit set when every finite family of opens that all meet L
has a common point. On a finite space the family of all opens meeting L
is itself such a family, so the criterion collapses to one intersection,
the AND of the minimal neighborhoods of L's points;
``is_limit_set_oracle`` keeps the literal quantification over subfamilies
as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import BudgetExceeded, NotInCarrier
from .finspace import FinTopSpace, _check_subset, bits, canonical_key, closed_sets, closure, set_repr

CARRIER_KINDS = ("F", "Fprime", "L", "Lprime", "ML")

ORACLE_OPENS_BUDGET = 20


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
        """``holding[x]``: mask of the carrier indices whose element holds x."""
        cols = [0] * self.space.n
        for i, m in enumerate(self.elements):
            for x in bits(m):
                cols[x] |= 1 << i
        return tuple(cols)

    def meeting(self, points: int) -> int:
        """Mask of the carrier indices whose element meets ``points``."""
        out = 0
        for x in bits(points):
            out |= self.holding[x]
        return out

    def index(self, mask: int) -> int:
        try:
            return self._positions[mask]
        except KeyError:
            raise NotInCarrier(f"{set_repr(mask)} is not an element of carrier {self.kind}") from None

    def __len__(self) -> int:
        return len(self.elements)


def _meet_of_meeting_opens(space: FinTopSpace, l: int) -> int:
    # the minimal neighborhood of each point of l is an open meeting l, and
    # every open meeting l at x contains it, so their AND is the meet
    meet = space.full
    for x in bits(l):
        meet &= space.rows[x]
    return meet


def is_limit_set(space: FinTopSpace, l: int) -> bool:
    """Fast criterion: the opens meeting l must share a point.

    The empty intersection over zero opens counts as the ground set, so
    the empty set is a limit set of every nonempty space. l need not be
    closed.
    """
    _check_subset(space, l)
    return _meet_of_meeting_opens(space, l) != 0


def is_limit_set_oracle(space: FinTopSpace, l: int) -> bool:
    """Literal quantification: every subfamily of opens meeting l must have
    a nonempty intersection. Exponential in the number of meeting opens;
    intended for small spaces only.
    """
    _check_subset(space, l)
    if len(space.opens) > ORACLE_OPENS_BUDGET:
        raise BudgetExceeded(f"oracle limited to {ORACLE_OPENS_BUDGET} opens, space has {len(space.opens)}")
    meeting = [u for u in space.opens if u & l]
    full = space.full
    for chosen in range(1 << len(meeting)):
        inter = full
        for i in bits(chosen):
            inter &= meeting[i]
        if inter == 0:
            return False
    return True


def limit_witness(space: FinTopSpace, l: int) -> int | None:
    """A point lying in every open that meets l, when one exists.

    Present exactly when l is a limit set; the constant sequence at the
    witness converges to every point of l.
    """
    _check_subset(space, l)
    meet = _meet_of_meeting_opens(space, l)
    if meet == 0:
        return None
    return (meet & -meet).bit_length() - 1


def eta(space: FinTopSpace, x: int) -> int:
    """Closure of the singleton {x}; always a nonempty closed limit set."""
    return closure(space, 1 << x)


def carrier(space: FinTopSpace, kind: str) -> HyperCarrier:
    """Build one of the five carriers F, Fprime, L, Lprime, ML.

    L keeps the closed sets satisfying the limit-set predicate, Lprime
    drops the empty set, and ML keeps the inclusion-maximal nonempty
    closed limit sets. Maximality among closed limit sets agrees with
    maximality among all limit sets because the closure of a limit set is
    again a limit set.
    """
    if kind not in CARRIER_KINDS:
        raise ValueError(f"unknown carrier kind {kind!r}; expected one of {CARRIER_KINDS}")
    closed = closed_sets(space)
    if kind == "F":
        elems = closed
    elif kind == "Fprime":
        elems = tuple(c for c in closed if c)
    else:
        limits = tuple(c for c in closed if is_limit_set(space, c))
        if kind == "L":
            elems = limits
        elif kind == "Lprime":
            elems = tuple(c for c in limits if c)
        else:
            nonempty = [c for c in limits if c]
            elems = tuple(
                c for c in nonempty
                if not any(d != c and c & ~d == 0 for d in nonempty)
            )
    return HyperCarrier(space, kind, tuple(sorted(elems, key=canonical_key)))
