"""The lower semifinite topology (tau_w) and the Fell topology (tau_s) on a
carrier of closed sets.

Both topologies are represented by minimal neighborhoods: on a finite
space every carrier element has an inclusion-least basic open around it,
and the table of those neighborhoods determines closure, density,
separation and convergence. ``build_topology`` uses closed forms for the
tables; ``min_nbhd_oracle`` recomputes them by literally intersecting
basic opens and exists so the closed forms are never trusted silently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import BudgetExceeded, InvariantViolation, NotOpen
from .finspace import FinTopSpace, bits, mask_of, set_repr
from .limitsets import HyperCarrier, carrier as build_carrier

FLAVORS = ("w", "s")

ORACLE_EXACT_OPENS = 12


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
        cols = [0] * len(self)
        for i, row in enumerate(self.rows):
            for j in bits(row):
                cols[j] |= 1 << i
        return tuple(cols)

    @cached_property
    def open_rows(self) -> int:
        """Mask of the indices i whose row is open: rows[j] lies inside
        rows[i] for every j in rows[i]. Every row of a topology's table is
        open; a table that is not transitive has rows that are not."""
        rows = self.rows
        return mask_of(i for i, row in enumerate(rows) if not any(rows[j] & ~row for j in bits(row)))

    @property
    def min_nbhds(self) -> tuple[frozenset[int], ...]:
        """Read-only view of ``rows`` as sets of carrier indices."""
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
    subset A, closed or not. tau_s additionally requires B to be a subset
    of A: the union of the compacts disjoint from A is the complement of
    A, so the tightest miss constraint around A is exactly that complement.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected 'w' or 's'")
    space = car.space
    near = [car.meeting(nb) for nb in space.rows]
    rows = []
    for a in car.elements:
        row = (1 << len(car)) - 1
        for x in bits(a):
            row &= near[x]
        if flavor == "s":
            row &= ~car.meeting(space.full & ~a)
        rows.append(row)
    return HyperTopology(car, flavor, tuple(rows))


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def min_nbhd_oracle(
    car: HyperCarrier,
    flavor: str,
    a: int,
    mode: str = "auto",
    samples: int = 2048,
    seed: int = 20260809,
) -> frozenset[int]:
    """Minimal neighborhood of ``a`` by brute force: intersect every basic
    open containing a, restricted to the carrier.

    For tau_s the miss set ranges over all subsets disjoint from a and the
    hit family over all subfamilies of opens meeting a; for tau_w the miss
    set is empty. Exact up to ``ORACLE_EXACT_OPENS`` opens; ``auto``
    switches to seeded sampling beyond that, ``exact`` raises instead.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected 'w' or 's'")
    if mode not in ("auto", "exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    space = car.space
    elems = car.elements
    idx = car.index(a)
    hits = [u for u in space.opens if u & a]
    comp = space.full & ~a
    exact = len(space.opens) <= ORACLE_EXACT_OPENS
    if mode == "exact" and not exact:
        raise BudgetExceeded(
            f"exact oracle limited to {ORACLE_EXACT_OPENS} opens, space has {len(space.opens)}"
        )

    result = set(range(len(elems)))

    def restrict(c: int, phi: list[int]) -> None:
        kept = set()
        for j in result:
            b = elems[j]
            if not b & c and all(b & u for u in phi):
                kept.add(j)
        result.intersection_update(kept)

    if exact and mode != "sampled":
        c_values = list(_submasks(comp)) if flavor == "s" else [0]
        for c in c_values:
            for chosen in range(1 << len(hits)):
                restrict(c, [hits[i] for i in bits(chosen)])
    else:
        rng = random.Random(seed)
        for _ in range(samples):
            c = rng.getrandbits(space.n) & comp if flavor == "s" else 0
            chosen = rng.getrandbits(len(hits)) if hits else 0
            restrict(c, [hits[i] for i in bits(chosen)])
    if idx not in result:
        raise InvariantViolation(
            f"oracle neighborhood of {set_repr(a)} in carrier {car.kind} misses the element itself"
        )
    return frozenset(result)


def hyper_closure(top: HyperTopology, s: Iterable[int]) -> frozenset[int]:
    """Closure of a set of carrier indices: everything whose minimal
    neighborhood meets the set."""
    cl = 0
    for j in s:
        cl |= top.cols[j]
    return frozenset(bits(cl))


def is_dense(top: HyperTopology, s: Iterable[int]) -> bool:
    return hyper_closure(top, s) == frozenset(range(len(top)))


def is_closed_sub(top: HyperTopology, s: Iterable[int]) -> bool:
    members = frozenset(s)
    return hyper_closure(top, members) == members


def identity_continuous_at(
    space: FinTopSpace,
    a: int,
    topologies: tuple[HyperTopology, HyperTopology] | None = None,
) -> bool:
    """Continuity at ``a`` of the identity map from (L(X), tau_w) to
    (L(X), tau_s): the tau_w minimal neighborhood must already fit inside
    the tau_s one. Prebuilt (tau_w, tau_s) tables over L may be passed to
    avoid rebuilding them per query.
    """
    if topologies is None:
        car = build_carrier(space, "L")
        topologies = (build_topology(car, "w"), build_topology(car, "s"))
    tw, ts = topologies
    idx = tw.carrier.index(a)
    return not tw.rows[idx] & ~ts.rows[idx]


def is_separated_in(top: HyperTopology, i: int) -> bool:
    """True when element i has a neighborhood disjoint from one of every
    element outside its closure."""
    rows = top.rows
    outside = ((1 << len(top)) - 1) & ~top.cols[i]
    return all(not rows[i] & rows[j] for j in bits(outside))


def is_hausdorff(top: HyperTopology) -> bool:
    rows = top.rows
    k = len(top)
    return all(not rows[i] & rows[j] for i in range(k) for j in range(i + 1, k))


def hyper_component(top: HyperTopology, start: int) -> frozenset[int]:
    """Component of element ``start`` in the symmetric minimal-neighborhood
    adjacency graph: the least clopen set containing it."""
    seen = frontier = 1 << start
    while frontier:
        i = (frontier & -frontier).bit_length() - 1
        new = (top.rows[i] | top.cols[i]) & ~seen
        seen |= new
        frontier = (frontier & (frontier - 1)) | new
    return frozenset(bits(seen))


def is_connected_hyper(top: HyperTopology) -> bool:
    """No proper nonempty clopen subset; equivalently the symmetric
    minimal-neighborhood adjacency graph has one component."""
    return len(top) <= 1 or len(hyper_component(top, 0)) == len(top)


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


def product_min_nbhd(
    t1: HyperTopology, t2: HyperTopology, pair: tuple[int, int]
) -> frozenset[tuple[int, int]]:
    """Minimal neighborhood of a pair in the product topology: the product
    of the factor minimal neighborhoods."""
    i, j = pair
    return frozenset((x, y) for x in bits(t1.rows[i]) for y in bits(t2.rows[j]))


def product_closure(
    t1: HyperTopology, t2: HyperTopology, pairs: Iterable[tuple[int, int]]
) -> frozenset[tuple[int, int]]:
    """Pairs (i, j) whose product minimal neighborhood meets ``pairs``: row j
    must meet the second coordinates paired with some point of row i."""
    seconds = [0] * len(t1)
    for x, y in pairs:
        seconds[x] |= 1 << y
    out = set()
    for i, row in enumerate(t1.rows):
        reach = 0
        for x in bits(row):
            reach |= seconds[x]
        out.update((i, j) for j, other in enumerate(t2.rows) if other & reach)
    return frozenset(out)


def product_is_closed(
    t1: HyperTopology, t2: HyperTopology, pairs: Iterable[tuple[int, int]]
) -> bool:
    pset = frozenset(pairs)
    return product_closure(t1, t2, pset) == pset


def S_of(m: Iterable[tuple[int, int]], top: HyperTopology) -> frozenset[int]:
    """Elements whose whole row lies inside the product set m: the slice
    map {a : {a} x carrier inside m}."""
    mset = frozenset(m)
    k = len(top)
    return frozenset(a for a in range(k) if all((a, b) in mset for b in range(k)))


def inclusion_relation(car: HyperCarrier) -> frozenset[tuple[int, int]]:
    """Index pairs (i, j) with element i a subset of element j."""
    elems = car.elements
    return frozenset(
        (i, j)
        for i, a in enumerate(elems)
        for j, b in enumerate(elems)
        if not a & ~b
    )


def seq_limits(top: HyperTopology, seq: EvPerSeq) -> frozenset[int]:
    """Limits of an eventually periodic sequence of carrier elements: the
    tail visits only the cycle, so A is a limit exactly when every cycle
    term sits in the minimal neighborhood of A."""
    lim = (1 << len(top)) - 1
    for t in seq.cycle:
        lim &= top.cols[t]
    return frozenset(bits(lim))


def seq_clusters(top: HyperTopology, seq: EvPerSeq) -> frozenset[int]:
    """Cluster points: some cycle term recurs inside the minimal
    neighborhood."""
    clu = 0
    for t in seq.cycle:
        clu |= top.cols[t]
    return frozenset(bits(clu))


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
