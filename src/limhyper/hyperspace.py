"""The lower semifinite topology (tau_w) and the Fell topology (tau_s) on a
carrier of closed sets.

Both topologies are represented by minimal neighborhoods: on a finite
space every carrier element has an inclusion-least basic open around it,
and the table of those neighborhoods determines closure, density,
separation and convergence. ``build_topology`` uses closed forms for the
tables; ``min_nbhd_oracle`` recomputes them by literally intersecting
subbasic opens and exists so the closed forms are never trusted silently.

A set of carrier indices is a bitmask, as a set of points is; a relation
on carrier indices is a tuple of such masks, one row per index, the form
of ``HyperTopology.rows``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import InvariantViolation, NotOpen
from .finspace import FinTopSpace, bits, component, is_separated, mask_of, meet_of, set_repr, transpose, union_of
from .limitsets import HyperCarrier, carrier as build_carrier

FLAVORS = ("w", "s")


@dataclass(frozen=True)
class HyperTopology:
    """Minimal-neighborhood table of tau_w or tau_s restricted to a carrier.

    ``rows[i]`` is the bitmask of the carrier indices inside the least
    open neighborhood of element i; it is the one stored table. ``cols``
    is its transpose, derived on first use: ``cols[j]`` holds
    {i : j in rows[i]}, the closure of element j.
    """

    carrier: HyperCarrier
    flavor: str
    rows: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.carrier.elements)

    @cached_property
    def cols(self) -> tuple[int, ...]:
        return transpose(self.rows, len(self))

    @cached_property
    def open_rows(self) -> int:
        """Mask of the indices i whose row is open: rows[j] lies inside
        rows[i] for every j in rows[i]. Every row of a topology's table is
        open; a table that is not transitive has rows that are not."""
        rows = self.rows
        return mask_of(i for i, row in enumerate(rows) if not any(rows[j] & ~row for j in bits(row)))

    @property
    def min_nbhds(self) -> tuple[frozenset[int], ...]:
        """Read-only view of ``rows`` as sets of carrier indices, the one
        frozenset form left; the benchmark's tracer in ``perfbench/`` reads
        it."""
        return tuple(frozenset(bits(row)) for row in self.rows)


@dataclass(frozen=True)
class EvPerSeq:
    """An eventually periodic sequence: a finite preperiod and a nonempty
    cycle repeated forever. Entries are carrier indices for topology-level
    operations and closed-set masks for the point-selection conditions.
    """

    preperiod: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("cycle must be nonempty")

    def term(self, k: int) -> int:
        if k < len(self.preperiod):
            return self.preperiod[k]
        return self.cycle[(k - len(self.preperiod)) % len(self.cycle)]


def basic_open_membership(space: FinTopSpace, a: int, c: int, phi: Iterable[int]) -> bool:
    """Membership of a in the basic set determined by the miss set c and
    the finite hit family phi: a avoids c and meets every member of phi.
    Every subset of a finite space is compact, so c is unconstrained.
    """
    fam = set(space.opens)
    members = list(phi)
    for u in members:
        if u not in fam:
            raise NotOpen(f"hit family member {set_repr(u)} is not open")
    return not a & c and all(a & u for u in members)


def build_topology(car: HyperCarrier, flavor: str) -> HyperTopology:
    """Closed-form minimal neighborhoods, as word operations.

    tau_w: B is in the minimal neighborhood of A iff B meets every open
    that meets A, that is min_nbhd(x) for each x in A, since an open meets
    A exactly when it contains some such min_nbhd(x); this holds for any
    subset A, closed or not. So row i is the AND of ``car.near[x]`` over
    the points x of element i. tau_s additionally requires B to be a
    subset of A: the union of the compacts disjoint from A is the
    complement of A, so the tightest miss constraint around A is exactly
    that complement, and the row is ANDed with ``car.subsets[i]``.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected 'w' or 's'")
    near = car.near
    full_k = (1 << len(car)) - 1
    rows = [meet_of(near, a, full_k) for a in car.elements]
    if flavor == "s":
        rows = [row & sub for row, sub in zip(rows, car.subsets)]
    return HyperTopology(car, flavor, tuple(rows))


def min_nbhd_oracle(car: HyperCarrier, flavor: str, a: int) -> int:
    """Minimal neighborhood of ``a`` by brute force: the mask of the
    carrier elements lying in every subbasic open around a.

    The subbasic opens of tau_w are the hit sets {B : B meets u} for the
    opens u (Michael); tau_s adds the miss sets {B : B misses c} for the
    compact c, here every subset (Fell). Basic opens are finite
    intersections of these, so the meet of the basic opens around a is
    the meet of the subbasic ones: hit(u) for every open u meeting a and,
    for tau_s, miss(c) for every c disjoint from a. Exact on every space;
    the tau_s side visits all 2^n subsets.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected 'w' or 's'")
    space = car.space
    idx = car.index(a)
    hits = [u for u in space.opens if u & a]
    misses = [c for c in range(space.full + 1) if not c & a] if flavor == "s" else []
    result = mask_of(
        j
        for j, b in enumerate(car.elements)
        if all(b & u for u in hits) and not any(b & c for c in misses)
    )
    if not (result >> idx) & 1:
        raise InvariantViolation(
            f"oracle neighborhood of {set_repr(a)} in carrier {car.kind} misses the element itself"
        )
    return result


def hyper_closure(top: HyperTopology, s: int) -> int:
    """Closure of a mask of carrier indices: everything whose minimal
    neighborhood meets the set."""
    return union_of(top.cols, s)


def is_dense(top: HyperTopology, s: int) -> bool:
    return hyper_closure(top, s) == (1 << len(top)) - 1


def is_closed_sub(top: HyperTopology, s: int) -> bool:
    return hyper_closure(top, s) == s


def identity_continuous_at(space: FinTopSpace, a: int) -> bool:
    """Continuity at ``a`` of the identity map from (L(X), tau_w) to
    (L(X), tau_s): the tau_w minimal neighborhood must already fit inside
    the tau_s one.
    """
    car = build_carrier(space, "L")
    i = car.index(a)
    return not build_topology(car, "w").rows[i] & ~build_topology(car, "s").rows[i]


def is_separated_in(top: HyperTopology, i: int) -> bool:
    """True when element i has a neighborhood disjoint from one of every
    element outside its closure (``finspace.is_separated``). O(|rows[i]|)."""
    return is_separated(top.rows, top.cols, i)


def is_hausdorff(top: HyperTopology) -> bool:
    rows = top.rows
    k = len(top)
    return all(not rows[i] & rows[j] for i in range(k) for j in range(i + 1, k))


def hyper_component(top: HyperTopology, start: int) -> int:
    """Mask of the component of element ``start`` in the symmetric
    minimal-neighborhood adjacency graph: the least clopen set holding it."""
    return component(top.rows, top.cols, start)


def is_connected_hyper(top: HyperTopology) -> bool:
    """No proper nonempty clopen subset; equivalently the symmetric
    minimal-neighborhood adjacency graph has one component."""
    return len(top) <= 1 or hyper_component(top, 0) == (1 << len(top)) - 1


def is_compact_cover(top: HyperTopology, s: int, cover: int) -> bool:
    """Verify a finite subcover of ``s`` exists inside ``cover``.

    Both are masks of carrier indices. The cover's member i is the minimal
    neighborhood ``top.rows[i]``, which must be open (see ``open_rows``);
    the lowest index whose row is not raises ``NotOpen``. A finite cover
    is its own finite subcover, so the result is whether the rows cover
    ``s``.
    """
    bad = cover & ~top.open_rows
    if bad:
        row = top.rows[(bad & -bad).bit_length() - 1]
        raise NotOpen(f"cover member {list(bits(row))} is not open in the hyperspace")
    covered = 0
    for i in bits(cover):
        covered |= top.rows[i]
    return not s & ~covered


def product_min_nbhd(t1: HyperTopology, t2: HyperTopology, pair: tuple[int, int]) -> tuple[int, ...]:
    """Minimal neighborhood of a pair in the product topology, the product
    of the factor minimal neighborhoods, as a relation: row x is
    ``t2.rows[j]`` for x in ``t1.rows[i]`` and empty elsewhere."""
    i, j = pair
    row = t2.rows[j]
    return tuple(row if (t1.rows[i] >> x) & 1 else 0 for x in range(len(t1)))


def product_closure(t1: HyperTopology, t2: HyperTopology, rel: tuple[int, ...]) -> tuple[int, ...]:
    """Closure of a relation in the product: (i, j) is in it when the
    product minimal neighborhood meets ``rel``, that is when row j of t2
    meets the second coordinates paired with some point of row i of t1."""
    return tuple(hyper_closure(t2, union_of(rel, row)) for row in t1.rows)


def product_is_closed(t1: HyperTopology, t2: HyperTopology, rel: tuple[int, ...]) -> bool:
    return product_closure(t1, t2, rel) == tuple(rel)


def S_of(m: tuple[int, ...], top: HyperTopology) -> int:
    """Mask of the elements whose whole row lies inside the relation m:
    the slice map {a : {a} x carrier inside m}."""
    full = (1 << len(top)) - 1
    return mask_of(a for a in range(len(top)) if m[a] == full)


def inclusion_relation(car: HyperCarrier) -> tuple[int, ...]:
    """Row i is the mask of the indices j with element i a subset of
    element j: ``car.supersets``."""
    return car.supersets


def seq_limits(top: HyperTopology, seq: EvPerSeq) -> int:
    """Mask of the limits of an eventually periodic sequence of carrier
    elements: the tail visits only the cycle, so A is a limit exactly when
    every cycle term sits in the minimal neighborhood of A."""
    lim = (1 << len(top)) - 1
    for t in seq.cycle:
        lim &= top.cols[t]
    return lim


def seq_clusters(top: HyperTopology, seq: EvPerSeq) -> int:
    """Mask of the cluster points: some cycle term recurs inside the
    minimal neighborhood."""
    return hyper_closure(top, mask_of(seq.cycle))


def is_primitive(top: HyperTopology, seq: EvPerSeq) -> bool:
    """A sequence is primitive when its limit set equals its cluster set."""
    return seq_limits(top, seq) == seq_clusters(top, seq)


def conv1_conditions(space: FinTopSpace, seq: EvPerSeq, a: int) -> tuple[bool, bool]:
    """Point-selection conditions for a sequence of closed-set masks
    against a target closed set ``a``.

    First condition: every point obtainable as the limit of points picked
    from infinitely many cycle terms lies in ``a``. A periodic selection
    converges to x exactly when each chosen point sits in min_nbhd(x), and
    selecting through more positions only shrinks the attainable limits,
    so single-position selections decide the condition: no term may meet
    ``escape``, the union of the minimal neighborhoods of the points
    outside ``a``.

    Second condition: every point of ``a`` is the limit of a full
    selection through the cycle. The positions constrain independently, so
    this holds iff every cycle term meets min_nbhd(x) for each x in a.

    Convergence is a tail property; the preperiod never matters.
    """
    terms = set(seq.cycle)
    escape = 0
    inside = []
    for x, row in enumerate(space.rows):
        if (a >> x) & 1:
            inside.append(row)
        else:
            escape |= row
    cond_a = not any(t & escape for t in terms)
    cond_b = all(t & row for row in inside for t in terms)
    return cond_a, cond_b
