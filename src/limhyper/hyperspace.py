"""The lower semifinite topology (tau_w) and the Fell topology (tau_s) on a
carrier of closed sets.

Both topologies are represented by minimal neighborhoods: on a finite
space every carrier element has an inclusion-least basic open around it,
and the table of those neighborhoods determines closure, density,
separation and convergence. ``build_topology`` uses closed forms for the
tables; the tests recompute them with ``oracle.min_nbhd_oracle``, which
literally intersects the subbasic opens, so the closed forms are never
trusted silently.

A set of carrier indices is a bitmask, as a set of points is; a relation
on carrier indices is a tuple of such masks, one row per index, the form
of ``HyperTopology.rows``.
"""

from __future__ import annotations

from .finspace import _Value, bits, component, is_separated, lazy, mask_of, transpose, union_of
from .limitsets import HyperCarrier

FLAVORS = ("w", "s")


class HyperTopology(_Value):
    """Minimal-neighborhood table of tau_w or tau_s restricted to a carrier.

    ``rows[i]`` is the bitmask of the carrier indices inside the least
    open neighborhood of element i; it is the one stored table. ``cols``
    is its transpose, derived on first use unless ``build_topology``
    already holds it: ``cols[j]`` holds {i : j in rows[i]}, the closure of
    element j.
    """

    _fields = ("carrier", "flavor", "rows")

    def __init__(self, carrier: HyperCarrier, flavor: str, rows: tuple[int, ...]):
        self.__dict__.update(carrier=carrier, flavor=flavor, rows=rows)

    def __len__(self) -> int:
        return len(self.carrier.elements)

    @lazy
    def cols(self) -> tuple[int, ...]:
        return transpose(self.rows, len(self))

    @lazy
    def open_rows(self) -> int:
        """Mask of the indices i whose row is open: rows[j] lies inside
        rows[i] for every j in rows[i]. Every row of a topology's table is
        open; a table that is not transitive has rows that are not.
        ``build_topology`` and mining's non-closed tables record the full
        mask, so only a table built otherwise is scanned."""
        rows = self.rows
        return mask_of(i for i, row in enumerate(rows) if not any(rows[j] & ~row for j in bits(row)))

    @property
    def min_nbhds(self) -> tuple[frozenset[int], ...]:
        """Read-only view of ``rows`` as sets of carrier indices, the one
        frozenset form left; the benchmark's tracer in ``perfbench/`` reads
        it."""
        return tuple(frozenset(bits(row)) for row in self.rows)


def build_topology(car: HyperCarrier, flavor: str) -> HyperTopology:
    """Closed-form minimal neighborhoods of a carrier of closed sets; a
    carrier holding a set that is not closed is refused with ``ValueError``.

    tau_w: B is in the minimal neighborhood of A iff B meets every open
    that meets A, that is min_nbhd(x) for each x in A, since an open meets
    A exactly when it contains some such min_nbhd(x). A closed B meets
    min_nbhd(x) only when it holds x (a point y of B in min_nbhd(x) has x
    in cl{y}, inside B), so the row of A is the elements containing it,
    ``car.supersets[i]``, and its columns are ``car.subsets``: tau_w is
    inclusion. tau_s additionally requires B to be a subset of A: the union
    of the compacts disjoint from A is the complement of A, so the
    tightest miss constraint around A is exactly that complement. Its row
    is ``supersets[i] & subsets[i]``, the elements equal to A: tau_s is
    discrete. Both are preorders, so every row is open and ``open_rows``
    is recorded as the full mask instead of scanned.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected 'w' or 's'")
    if not car.closed:
        raise ValueError(f"carrier {car.kind} holds a set that is not closed; its hyperspace tables are not built")
    sup, sub = car.supersets, car.subsets
    rows = sup if flavor == "w" else tuple(a & b for a, b in zip(sup, sub))
    top = HyperTopology(car, flavor, rows)
    top.__dict__.update(cols=sub if flavor == "w" else rows, open_rows=(1 << len(car)) - 1)
    return top


def hyper_closure(top: HyperTopology, s: int) -> int:
    """Closure of a mask of carrier indices: everything whose minimal
    neighborhood meets the set."""
    return union_of(top.cols, s)


def is_dense(top: HyperTopology, s: int) -> bool:
    return hyper_closure(top, s) == (1 << len(top)) - 1


def is_closed_sub(top: HyperTopology, s: int) -> bool:
    return hyper_closure(top, s) == s


def is_separated_in(top: HyperTopology, i: int) -> bool:
    """True when element i has a neighborhood disjoint from one of every
    element outside its closure (``finspace.is_separated``). O(|rows[i]|)."""
    return is_separated(top.rows, top.cols, i)


def hyper_component(top: HyperTopology, start: int) -> int:
    """Mask of the component of element ``start`` in the symmetric
    minimal-neighborhood adjacency graph: the least clopen set holding it."""
    return component(top.rows, top.cols, start)


def is_connected_hyper(top: HyperTopology) -> bool:
    """No proper nonempty clopen subset; equivalently the symmetric
    minimal-neighborhood adjacency graph has one component."""
    return len(top) <= 1 or hyper_component(top, 0) == (1 << len(top)) - 1


def product_closure(t1: HyperTopology, t2: HyperTopology, rel: tuple[int, ...]) -> tuple[int, ...]:
    """Closure of a relation in the product: (i, j) is in it when the
    product minimal neighborhood meets ``rel``, that is when row j of t2
    meets the second coordinates paired with some point of row i of t1."""
    return tuple(hyper_closure(t2, union_of(rel, row)) for row in t1.rows)


def seq_limits(top: HyperTopology, cycle: tuple[int, ...]) -> int:
    """Mask of the limits of an eventually periodic sequence of carrier
    elements, given by its cycle: convergence is a tail property and the
    tail visits only the cycle, so A is a limit exactly when every cycle
    term sits in the minimal neighborhood of A."""
    lim = (1 << len(top)) - 1
    for t in cycle:
        lim &= top.cols[t]
    return lim
