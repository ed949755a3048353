"""Literal definitions, one per concept, that the tests compare the fast
paths against.

Each function states its object as the paper and its sources define it:
closure as the meet of the closed supersets, limit sets by quantifying
over families of opens, the minimal neighborhoods of tau_w and tau_s as
the meet of Michael's hit sets and Fell's miss sets, convergence one
ordered cycle and one target at a time, a point set written one point
at a time, and so on. Nothing here is fast, and no verdict reads it: the
decision modules (``finspace``, ``limitsets``, ``hyperspace``,
``theorems``, ``spaceio``, ``cli``) never import this module, so a
closed form can never be checked against itself.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .errors import BudgetExceeded, InvariantViolation, NotOpen
from .finspace import FinTopSpace, _check_subset, bits, mask_of, set_repr
from .hyperspace import FLAVORS, HyperTopology
from .limitsets import HyperCarrier
from .theorems import FAIL, PROXY, TRIVIALLY_TRUE, CheckResult

ORACLE_OPENS_BUDGET = 20


# ------------------------------------------------------------ the space


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


def closure_oracle(space: FinTopSpace, s: int) -> int:
    """Intersection of every closed superset of s, straight from the
    definition: the complement of an open u is one exactly when s misses
    u."""
    full = space.full
    out = full
    for u in space.opens:
        if not s & u:
            out &= full ^ u
    return out


def pairwise_separated(rows, i: int) -> bool:
    """Separation of index i in a minimal-neighborhood table, one index at a
    time: rows[i] misses rows[j] for every j outside the closure of i, the
    j whose row does not hold i. Works on a space's ``rows`` and on a
    hyperspace table alike."""
    return all(not rows[i] & row for row in rows if not (row >> i) & 1)


def clopen_scan_is_connected(space: FinTopSpace) -> bool:
    """No open other than the empty set and the ground set has an open
    complement."""
    fam = set(space.opens)
    full = space.full
    return not any(u not in (0, full) and (full ^ u) in fam for u in space.opens)


# ---------------------------------------------------------- formatting


def set_repr_oracle(mask: int, n: int, labels: tuple[str, ...] | None = None) -> str:
    """A point set of an n-point space written out point by point: each
    point p of ``range(n)`` in turn, named by its label or its number
    when its bit is set, as ``{0,2}`` or ``{a,c}``."""
    names = [labels[p] if labels else str(p) for p in range(n) if (mask >> p) & 1]
    return "{" + ",".join(names) + "}"


def family_repr_oracle(masks: Iterable[int], n: int, labels: tuple[str, ...] | None = None) -> str:
    """A family of point sets in canonical order, fewest points first and
    then by mask value, as ``[{} {a} {a,b}]``."""
    ordered = sorted(masks, key=lambda m: (sum((m >> p) & 1 for p in range(n)), m))
    return "[" + " ".join(set_repr_oracle(m, n, labels) for m in ordered) + "]"


# ------------------------------------------------ hit sets and miss sets


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


def inclusion_relation(car: HyperCarrier) -> tuple[int, ...]:
    """Row i is the mask of the indices j with element i a subset of
    element j."""
    elems = car.elements
    return tuple(mask_of(j for j, b in enumerate(elems) if not a & ~b) for a in elems)


def is_hausdorff(top: HyperTopology) -> bool:
    rows = top.rows
    k = len(top)
    return all(not rows[i] & rows[j] for i in range(k) for j in range(i + 1, k))


def dense_open_meet_oracle(t: HyperTopology) -> int:
    """Intersection of the dense opens of a topology's table, by
    enumerating every union of its rows; an open is dense when it meets
    every row."""
    opens = {0}
    for row in set(t.rows):
        opens |= {u | row for u in opens}
    meet = (1 << len(t)) - 1
    for u in opens:
        if all(u & row for row in t.rows):
            meet &= u
    return meet


# ---------------------------------------------------------------- products


def product_min_nbhd(t1: HyperTopology, t2: HyperTopology, pair: tuple[int, int]) -> tuple[int, ...]:
    """Minimal neighborhood of a pair in the product topology, the product
    of the factor minimal neighborhoods, as a relation: row x is
    ``t2.rows[j]`` for x in ``t1.rows[i]`` and empty elsewhere."""
    i, j = pair
    row = t2.rows[j]
    return tuple(row if (t1.rows[i] >> x) & 1 else 0 for x in range(len(t1)))


def S_of(m: tuple[int, ...], top: HyperTopology) -> int:
    """Mask of the elements whose whole row lies inside the relation m:
    the slice map {a : {a} x carrier inside m}."""
    full = (1 << len(top)) - 1
    return mask_of(a for a in range(len(top)) if m[a] == full)


# --------------------------------------------------------------- sequences


def conv1_conditions(space: FinTopSpace, cycle: tuple[int, ...], a: int) -> tuple[bool, bool]:
    """Point-selection conditions for an eventually periodic sequence of
    closed-set masks, given by its cycle, against a target closed set
    ``a``.

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
    terms = set(cycle)
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


def per_cycle_conv_props(env, max_pre=1, max_cycle=2):
    """``check_conv_props`` decided one ordered cycle and one target at a
    time: for every cycle of at most ``max_cycle`` F-carrier terms, in
    order of length and then lexicographically, and every target A, Fell
    convergence to A, the point-selection conditions
    (``conv1_conditions``) and primitivity in tau_w with limit set equal
    to the closed subsets of A must agree. The tail of the sequence visits
    only the cycle, so A is a limit in a table when every cycle term lies
    in A's minimal neighborhood, and a cluster point when some term does;
    the sequence is primitive when the two sets are equal. The first cycle
    and target where the three disagree are the witness. A preperiod
    changes no tail, so sequences are counted over every preperiod of at
    most ``max_pre`` terms."""
    cid = "check_conv_props"
    tw = env.topology("F", "w")
    ts = env.topology("F", "s")
    elems = tw.carrier.elements
    k = len(elems)
    cycles = [cyc for c in range(1, max_cycle + 1) for cyc in itertools.product(range(k), repeat=c)]
    closed_subsets = [mask_of(j for j, b in enumerate(elems) if not b & ~a) for a in elems]
    for cyc in cycles:
        fell = mask_of(a for a, row in enumerate(ts.rows) if all((row >> t) & 1 for t in cyc))
        lower = mask_of(a for a, row in enumerate(tw.rows) if all((row >> t) & 1 for t in cyc))
        clusters = mask_of(a for a, row in enumerate(tw.rows) if any((row >> t) & 1 for t in cyc))
        masks = tuple(elems[t] for t in cyc)
        for a, target in enumerate(elems):
            flags = (
                bool((fell >> a) & 1),
                all(conv1_conditions(env.space, masks, target)),
                lower == clusters == closed_subsets[a],
            )
            if len(set(flags)) > 1:
                names = ("fell_convergence", "selection_conditions", "primitive_characterization")
                return CheckResult(
                    cid,
                    FAIL,
                    witness=(
                        ("cycle", "(" + " ".join(env.fmt(elems[t]) for t in cyc) + ")"),
                        ("target", env.fmt(target)),
                        *((name, str(flag).lower()) for name, flag in zip(names, flags)),
                    ),
                )
    n_seq = sum(k**p for p in range(max_pre + 1)) * len(cycles)
    return CheckResult(
        cid,
        PROXY,
        notes=(
            f"sequences stand in for nets; {len(cycles)} cycles, {n_seq} sequences "
            f"(preperiod<={max_pre}, cycle<={max_cycle}) over F(X)"
        ),
    )


# ---------------------------------------------------- local compactness


def member_wise_compact_cover(top: HyperTopology, s: Iterable[int], cover: Iterable[Iterable[int]]) -> bool:
    """Subcover search over explicit sets of carrier indices: every member
    of ``cover`` must be open, holding the minimal neighborhood of each of
    its indices, and the first that is not raises ``NotOpen``. A finite
    cover is its own finite subcover, so the result is whether every index
    of ``s`` lies in some member."""
    members = [mask_of(m) for m in cover]
    for m in members:
        if any(top.rows[i] & ~m for i in bits(m)):
            raise NotOpen(f"cover member {list(bits(m))} is not open in the hyperspace")
    return all(any((m >> i) & 1 for m in members) for i in s)


def per_open_local_compactness(env):
    """``check_local_compactness`` from the subbasic opens: for each element
    a of F, Fprime, L and Lprime under tau_w and each open u meeting a,
    hit(min_nbhd(x)), x the lowest point of a & u, is a basic neighborhood
    of a inside hit(u), as min_nbhd(x) lies inside u. Their meet ``inner``
    must hold a, lie inside ``outer``, the meet of the hit(u), and be
    covered by the minimal neighborhoods of its own members
    (``member_wise_compact_cover``, which raises ``NotOpen`` on a row that
    is not open)."""
    cid = "check_local_compactness"
    witnessed = 0
    for kind in ("F", "Fprime", "L", "Lprime"):
        t = env.topology(kind, "w")
        meeting = {u: t.carrier.meeting(u) for u in env.space.opens}
        for i, a in enumerate(t.carrier.elements):
            inner = outer = (1 << len(t)) - 1
            for u, meeting_u in meeting.items():
                if u & a:
                    low = (a & u) & -(a & u)
                    inner &= meeting[env.space.rows[low.bit_length() - 1]]
                    outer &= meeting_u
            cover = [bits(t.rows[j]) for j in bits(inner)]
            if not (inner >> i) & 1 or inner & ~outer or not member_wise_compact_cover(t, bits(inner), cover):
                return CheckResult(cid, FAIL, witness=(("carrier", kind), ("element", env.fmt(a))))
            witnessed += 1
    return CheckResult(
        cid, TRIVIALLY_TRUE, notes=f"sandwich neighborhoods constructed for {witnessed} carrier elements"
    )
