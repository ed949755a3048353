"""Known answers for the benchmark, computed without limhyper.

Everything here follows the definitions directly and imports nothing from
limhyper, so the benchmark never grades limhyper against itself:

* a preorder is given by rows, ``rows[i]`` being the bitmask
  ``{j : i <= j}``, and the opens of its topology are its up-sets;
* a closed set C is a limit set when the opens meeting C share a point;
* ML keeps the inclusion-maximal nonempty closed limit sets.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
DOCS = HERE / "docs"
ANSWERS = DOCS / "answers.json"

# Labeled topologies on n points, OEIS A000798.
A000798 = {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942}

CARRIER_KINDS = ("F", "Fprime", "L", "Lprime", "ML")
FLAVORS = ("w", "s")
MINE_BUCKETS = 10
POINTS = 5  # point count of the sweep-5 and mine-5 spaces


def preorder_rows(n: int) -> list[tuple[int, ...]]:
    """Every reflexive transitive relation on n points, as row tuples.

    Rows are chosen point by point; a new row must agree with every row
    already chosen in both directions (i <= j implies row j inside row i),
    so each complete table is transitive and each is produced once.
    """
    out: list[tuple[int, ...]] = []
    rows: list[int] = []

    def place(k: int) -> None:
        if k == n:
            out.append(tuple(rows))
            return
        for row in range(1 << n):
            if not (row >> k) & 1:
                continue
            if all(
                (not (row >> i) & 1 or rows[i] & ~row == 0)
                and (not (rows[i] >> k) & 1 or row & ~rows[i] == 0)
                for i in range(k)
            ):
                rows.append(row)
                place(k + 1)
                rows.pop()

    place(0)
    return out


def up_sets(rows) -> list[int]:
    """All subsets U with row i inside U for each point i of U, in
    increasing mask order.  ``rows[i]`` lists the points above i; it need
    not be transitive, since a set closed under a relation is closed under
    its transitive closure."""
    n = len(rows)
    return [
        u for u in range(1 << n)
        if all(rows[i] & ~u == 0 for i in range(n) if (u >> i) & 1)
    ]


def carrier_sizes(n: int, opens: list[int]) -> dict[str, int]:
    """Sizes of F, Fprime, L, Lprime and ML from the definitions."""
    full = (1 << n) - 1
    closed = [full ^ u for u in opens]
    limits = []
    for c in closed:
        meet = full
        for u in opens:
            if u & c:
                meet &= u
        if meet:
            limits.append(c)
    nonempty = [c for c in limits if c]
    maximal = [c for c in nonempty if not any(d != c and c & ~d == 0 for d in nonempty)]
    return {
        "F": len(closed),
        "Fprime": sum(1 for c in closed if c),
        "L": len(limits),
        "Lprime": len(nonempty),
        "ML": len(maximal),
    }


def load_answers() -> dict:
    with open(ANSWERS, encoding="utf-8") as fh:
        return json.load(fh)


def document_facts(name: str, entry: dict) -> dict:
    """Brute-force facts of one committed document, cross-checked against
    the hand-written numbers in its answer-key entry.

    The up-sets of the key's preorder must also be exactly the document's
    open family when the document lists opens, so a key and its document
    cannot drift apart.  Raises ValueError on any disagreement: that is a
    defect of the benchmark, not of limhyper.
    """
    with open(DOCS / f"{name}.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    labels = doc["points"]
    index = {p: i for i, p in enumerate(labels)}
    n = len(labels)
    rows = [0] * n
    for a, b in entry["preorder"]:
        rows[index[a]] |= 1 << index[b]
    opens = up_sets(rows)
    if "opens" in doc:
        listed = sorted({sum(1 << index[p] for p in u) for u in doc["opens"]})
        if listed != opens:
            raise ValueError(f"{name}: document opens are not the up-sets of the key's preorder")
    facts = {"points": n, "opens": len(opens), "carriers": carrier_sizes(n, opens)}
    written = {"points": entry["points"], "opens": entry["opens"], "carriers": entry["carriers"]}
    if facts != written:
        raise ValueError(f"{name}: brute force gives {facts}, answer key says {written}")
    return facts


def space_key(opens) -> bytes:
    """Hash of a sorted open family, independent of limhyper's digest."""
    return hashlib.blake2b(",".join(map(str, sorted(opens))).encode(), digest_size=8).digest()


def mine_bucket(n: int, bucket: int) -> list[tuple[int, ...]]:
    """Open families of the n-point spaces in one of ``MINE_BUCKETS``
    buckets, each as a sorted tuple.

    Spaces are ordered by open count, then by ``space_key``, and dealt
    round-robin into the buckets.  Mining cost grows with the open count,
    so dealing in that order gives every bucket nearly the same mix of
    cheap and costly spaces, and the bucket a space lands in does not
    depend on any enumeration order.
    """
    families = [tuple(up_sets(rows)) for rows in preorder_rows(n)]
    dealt = sorted(families, key=lambda opens: (len(opens), space_key(opens)))
    return dealt[bucket::MINE_BUCKETS]
