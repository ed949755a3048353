"""Finite topological spaces on small ground sets.

Points are the integers ``0..n-1`` and every point set is an ``int``
bitmask, so a space on at most 16 points stores its whole topology as a
tuple of machine words. All values are immutable after construction and
safe to share between parallel workers.
"""

from __future__ import annotations

from itertools import compress, count
from typing import Iterable, Iterator, Sequence

from .errors import AxiomViolation, BudgetExceeded, DuplicateLabel, GroundMismatch, InvariantViolation, ParseError

MAX_POINTS = 16
MAX_ENUM_POINTS = 6

_ALPHABET = "abcdefghijklmnop"


def check_point_count(n: int) -> None:
    """Refuse a ground set of fewer than 0 or more than ``MAX_POINTS`` points."""
    if n < 0 or n > MAX_POINTS:
        raise GroundMismatch(f"point count {n} outside 0..{MAX_POINTS}")


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(_ALPHABET[i] for i in range(n))


def check_labels(labels: Sequence) -> tuple[str, ...]:
    """The point labels as a tuple, or the first refusal: more than
    ``MAX_POINTS`` labels, counted before any is read; a label that is
    not a nonempty string without braces, commas or whitespace, since
    ``{a,b}`` must name one point set; a repeat."""
    check_point_count(len(labels))
    labels = tuple(labels)
    if not all(isinstance(p, str) for p in labels):
        raise ParseError("'points' must be a list of string labels")
    for p in labels:
        if not p or any(ch in "{}," or ch.isspace() for ch in p):
            raise ParseError(f"point label {p!r} must be nonempty without braces, commas or spaces")
    seen = set()
    for p in labels:
        if p in seen:
            raise DuplicateLabel(f"point label {p!r} declared twice")
        seen.add(p)
    return labels


def check_enum_points(n: int) -> None:
    """Refuse an enumeration over fewer than 0 or more than ``MAX_ENUM_POINTS`` points."""
    if n < 0:
        raise GroundMismatch("negative point count")
    if n > MAX_ENUM_POINTS:
        raise BudgetExceeded(
            f"enumeration capped at {MAX_ENUM_POINTS} points, got {n}; 7 points carry 9535241 labeled topologies (A000798)"
        )


class lazy:
    """A value computed on first read and stored in the instance
    ``__dict__``, where later reads find it before this non-data
    descriptor; a value stored there in advance is never recomputed.
    ``functools.cached_property`` does the same from Python 3.12 on, but
    before that it takes a lock on every first read."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def full_mask(n: int) -> int:
    return (1 << n) - 1


def bits(mask: int) -> Iterator[int]:
    """Yield the points of a bitmask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(points: Iterable[int]) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def canonical_key(mask: int) -> tuple[int, int]:
    """Sort key for set families: cardinality first, then mask value."""
    return (mask.bit_count(), mask)


def transpose(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """Transpose of a table of row masks: ``cols[j]`` holds the i with j in
    ``rows[i]``, for j below ``width``."""
    cols = [0] * width
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
    return tuple(cols)


def union_of(rows: Sequence[int], mask: int) -> int:
    """OR of ``rows[i]`` over the bits i of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def meet_of(rows: Sequence[int], mask: int, full: int) -> int:
    """AND of ``rows[i]`` over the bits i of ``mask``, starting from ``full``."""
    out = full
    while mask:
        low = mask & -mask
        out &= rows[low.bit_length() - 1]
        mask ^= low
    return out


def component(rows: Sequence[int], cols: Sequence[int], start: int) -> int:
    """Mask of the indices joined to ``start`` through rows and columns,
    where i is adjacent to every index of ``rows[i] | cols[i]``. For a
    minimal-neighborhood table this is the least clopen set holding
    ``start``: a clopen set holds each row and each closure of its members."""
    seen = frontier = 1 << start
    while frontier:
        i = (frontier & -frontier).bit_length() - 1
        new = (rows[i] | cols[i]) & ~seen
        seen |= new
        frontier = (frontier & (frontier - 1)) | new
    return seen


def is_separated(rows: Sequence[int], cols: Sequence[int], i: int) -> bool:
    """True when index i has a neighborhood disjoint from one of every index
    outside its closure ``cols[i]``: every index whose row meets ``rows[i]``,
    the closure of ``rows[i]``, lies in ``cols[i]``. Minimal neighborhoods
    are disjoint exactly when some neighborhoods are."""
    return not union_of(cols, rows[i]) & ~cols[i]


_FLAG_BYTES = bytes.maketrans(b"01", b"\0\1")


def flags(mask: int) -> bytes:
    """One byte per bit of a nonnegative mask, lowest first: 1 for a
    member, 0 otherwise. ``compress(names, flags(mask))`` then picks the
    members' names in one C pass."""
    return bin(mask)[:1:-1].encode().translate(_FLAG_BYTES)


def members(names: Sequence[str], mask: int) -> Iterable[str]:
    """``names[i]`` for each bit i of a nonnegative mask, lowest first.
    The ``flags`` pass costs O(width), so a mask with fewer than one
    member per 32 bits of width, such as a row of a discrete table, is
    read bit by bit instead."""
    if mask.bit_count() * 32 < mask.bit_length():
        return [names[i] for i in bits(mask)]
    return compress(names, flags(mask))


def set_repr(mask: int, labels: tuple[str, ...] | None = None) -> str:
    """Render a bitmask as ``{0,2}``, or with point labels as ``{a,c}``.
    A negative int names no set, and ``bin`` would read its magnitude, so
    it raises ``ValueError``; so does a mask with a point past its labels,
    which would have no name."""
    if mask < 0:
        raise ValueError(f"a point set is a nonnegative mask, got {mask}")
    if labels is not None and mask >> len(labels):
        raise ValueError(f"mask {mask} has a point past its {len(labels)} labels")
    return "{" + ",".join(compress(labels or map(str, count()), flags(mask))) + "}"


def family_repr(masks: Iterable[int], labels: tuple[str, ...] | None = None) -> str:
    """Render a set family as ``[{} {a} {a,b}]`` in canonical order."""
    return "[" + " ".join(set_repr(m, labels) for m in sorted(masks, key=canonical_key)) + "]"


class _Value:
    """Base of the value classes. Equality, hashing and ``repr`` read the
    fields a class names in ``_fields``, which its ``__init__`` stores in
    ``__dict__`` directly; ``lazy`` values are stored there too, and
    assignment and deletion raise ``AttributeError``."""

    _fields: tuple[str, ...]

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, f) for f in self._fields))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class FinTopSpace(_Value):
    """A validated finite topology: point count plus its open-set family.

    ``opens`` is deduplicated and canonically ordered, so equal spaces
    compare equal and serialize identically.
    """

    _fields = ("n", "opens")

    def __init__(self, n: int, opens: tuple[int, ...]):
        self.__dict__.update(n=n, opens=opens)

    @property
    def full(self) -> int:
        return full_mask(self.n)

    @lazy
    def rows(self) -> tuple[int, ...]:
        """``rows[x]`` is the minimal neighborhood of the point x, computed
        once per space."""
        rows = [self.full] * self.n
        for u in self.opens:
            for x in bits(u):
                rows[x] &= u
        return tuple(rows)

    @lazy
    def closures(self) -> tuple[int, ...]:
        """``closures[x]`` is cl{x}, the transpose of ``rows``: y lies in
        cl{x} exactly when x lies in every open around y."""
        return transpose(self.rows, self.n)

    def __repr__(self) -> str:
        sets = " ".join(set_repr(u) for u in self.opens)
        return f"FinTopSpace(n={self.n}, opens=[{sets}])"


def validate_topology(n: int, opens: Iterable[int]) -> FinTopSpace:
    """Check the topology axioms and return the canonicalized space.

    The family must contain the empty set and the ground set and be closed
    under pairwise union and pairwise intersection; pairwise closure
    suffices because the family is finite. Equivalently, it must equal the
    set of unions of its minimal-neighborhood rows, which is decided in
    O(n * |opens|); only a family that fails this is searched pair by pair
    for the violation to report.
    """
    check_point_count(n)
    full = full_mask(n)
    fam = set()
    for m in opens:
        if m < 0 or m & ~full:
            raise GroundMismatch(f"open set {m} not within the {n}-point ground set")
        fam.add(m)
    ordered = sorted(fam, key=canonical_key)
    space = FinTopSpace(n, tuple(ordered))
    if _space_from_rows(n, space.rows).opens == space.opens:
        return space
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if a | b not in fam:
                raise AxiomViolation(
                    f"union of opens {set_repr(a)} and {set_repr(b)} missing",
                    witness=(a, b),
                )
            if a & b not in fam:
                raise AxiomViolation(
                    f"intersection of opens {set_repr(a)} and {set_repr(b)} missing",
                    witness=(a, b),
                )
    if 0 not in fam:
        raise AxiomViolation("empty set missing from the open family")
    if full not in fam:
        raise AxiomViolation("ground set missing from the open family")
    raise InvariantViolation("family differs from the unions of its rows yet passes every axiom")


def _check_subset(space: FinTopSpace, s: int) -> None:
    if s < 0:
        raise GroundMismatch(f"negative point set mask {s}")
    if s & ~space.full:
        raise GroundMismatch(f"point set {set_repr(s)} outside the {space.n}-point ground set")


def closure(space: FinTopSpace, s: int) -> int:
    """Smallest closed superset of ``s``: the union of the point closures
    cl{x} over x in s, a finite union of closed sets. O(|s|)."""
    _check_subset(space, s)
    return union_of(space.closures, s)


def min_nbhd(space: FinTopSpace, x: int) -> int:
    """The inclusion-least open set containing the point ``x``.

    Finite intersection-closure of the open family guarantees the result
    is itself open.
    """
    if not 0 <= x < space.n:
        raise GroundMismatch(f"point {x} outside the {space.n}-point ground set")
    return space.rows[x]


def closed_sets(space: FinTopSpace) -> tuple[int, ...]:
    """Complements of the opens, canonically ordered: complement maps the key
    (|u|, u) to (n - |u|, full - u), so it reverses the order of the opens."""
    full = space.full
    return tuple(full ^ u for u in reversed(space.opens))


def is_T0(space: FinTopSpace) -> bool:
    """True when singleton closures are pairwise distinct."""
    return len(set(space.closures)) == space.n


def is_connected(space: FinTopSpace) -> bool:
    """True when no set other than the empty set and the ground set is
    clopen: the component of point 0 is the whole space. O(n)."""
    return space.n <= 1 or component(space.rows, space.closures, 0) == space.full


def separated_points(space: FinTopSpace) -> int:
    """Points y that have a neighborhood disjoint from some neighborhood of
    every z outside closure({y}); returned as a bitmask."""
    return mask_of(y for y in range(space.n) if is_separated(space.rows, space.closures, y))


def specialization_pairs(space: FinTopSpace) -> tuple[tuple[int, int], ...]:
    """All pairs (x, y) with x in closure({y}), reflexive pairs included."""
    pairs = []
    for y, cl in enumerate(space.closures):
        pairs.extend((x, y) for x in bits(cl))
    return tuple(sorted(pairs))


def _space_from_rows(n: int, rows: tuple[int, ...]) -> FinTopSpace:
    """Topology whose opens are the unions of the given minimal neighborhoods,
    found by closing {0} under union with one distinct row at a time, in
    O(n * |opens|) unions. ``rows`` must be reflexive and transitive; such a
    table is the minimal-neighborhood table of its up-set topology, so it is
    kept as the space's ``rows``."""
    fam = {0}
    for row in set(rows):
        fam |= {u | row for u in fam}
    space = FinTopSpace(n, tuple(sorted(fam, key=canonical_key)))
    space.__dict__["rows"] = rows
    return space


def from_preorder(n: int, relation: Iterable[tuple[int, int]]) -> FinTopSpace:
    """Topology whose opens are the up-sets of a preorder.

    A pair (a, b) means a <= b. The reflexive-transitive closure is taken
    internally. The convention matches the specialization preorder
    x <= y iff x in closure({y}): the minimal neighborhood of x comes out
    as {y : x <= y}, so ``from_preorder`` composed with
    ``specialization_pairs`` is the identity on spaces.
    """
    check_point_count(n)
    rows = [1 << i for i in range(n)]
    for a, b in relation:
        if not (0 <= a < n and 0 <= b < n):
            raise GroundMismatch(f"relation pair ({a},{b}) outside the {n}-point ground set")
        rows[a] |= 1 << b
    changed = True
    while changed:
        changed = False
        for i in range(n):
            # rows[i] holds i, so the union holds rows[i] itself
            merged = union_of(rows, rows[i])
            if merged != rows[i]:
                rows[i] = merged
                changed = True
    return _space_from_rows(n, tuple(rows))


def _preorder_rows(n: int, prefix: tuple[int, ...] = (), depth: int | None = None) -> Iterator[tuple[int, ...]]:
    """Every reflexive transitive row table on n points that starts with
    ``prefix``, depth first, cut to its first ``depth`` rows (all n by
    default).

    rows[i] is the bitmask {j : i <= j}; transitivity is the row condition
    j in rows[i] implies rows[j] subset of rows[i], checked incrementally.
    Every partial table the search reaches extends to a whole one, so the
    tables under the cut tables, in order, are all tables in order.
    """
    depth = n if depth is None else depth
    candidates = [[m for m in range(1 << n) if m & (1 << i)] for i in range(n)]
    rows = list(prefix)

    def extend(k: int) -> Iterator[tuple[int, ...]]:
        if k == depth:
            yield tuple(rows)
            return
        for m in candidates[k]:
            ok = True
            for i in range(k):
                ri = rows[i]
                if (m >> i) & 1 and ri & ~m:
                    ok = False
                    break
                if (ri >> k) & 1 and m & ~ri:
                    ok = False
                    break
            if ok:
                rows.append(m)
                yield from extend(k + 1)
                rows.pop()

    yield from extend(len(rows))


def preorder_prefixes(n: int) -> tuple[tuple[int, ...], ...]:
    """The first two rows of every preorder table on n points, in
    enumeration order: the roots of the subtrees that a sweep splits the
    enumeration into (126 at n = 5). Enumeration is capped at
    ``MAX_ENUM_POINTS`` points."""
    check_enum_points(n)
    return tuple(_preorder_rows(n, depth=min(n, 2)))


def topologies_under(n: int, prefix: tuple[int, ...]) -> Iterator[FinTopSpace]:
    """The labeled topologies on n points whose row table starts with
    ``prefix``, in enumeration order."""
    for rows in _preorder_rows(n, prefix):
        yield _space_from_rows(n, rows)


def enumerate_topologies(n: int) -> Iterator[FinTopSpace]:
    """Every labeled topology on n points, each exactly once, in a
    deterministic order.

    Preorders and topologies on a finite labeled set are in bijection, so
    the stream enumerates transitive reflexive row tables and converts
    each to its up-set topology; no deduplication is needed. The stream is
    the concatenation of ``topologies_under(n, p)`` over the
    ``preorder_prefixes(n)``, which enforces the point cap.
    """
    for prefix in preorder_prefixes(n):
        yield from topologies_under(n, prefix)


def digest(space: FinTopSpace) -> str:
    """Short stable identifier of a space, derived from its canonical form."""
    import hashlib  # loaded on the first digest, not by every import

    payload = f"{space.n}|{','.join(map(str, space.opens))}"
    return hashlib.sha256(payload.encode()).hexdigest()[:12]
