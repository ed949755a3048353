"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints one PASS line on success; a failed assertion is the
FAIL line. Tolerances here are runtime budgets, since every verdict in
this package is exact.
"""

import random
import time

from limhyper import (
    build_topology,
    carrier,
    enumerate_topologies,
    is_limit_set,
    is_limit_set_oracle,
    min_nbhd_oracle,
    mine_check_failures,
    run_check,
    sweep,
    validate_topology,
)
from limhyper.cli import run as cli_run
from limhyper.finspace import bits, full_mask
from limhyper.limitsets import CARRIER_KINDS
from limhyper.theorems import CHECKS, FAIL

SIERPINSKI_DOC = '{"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]]}'
THREE_POINT_DOC = (
    '{"points": ["a", "b", "c"],'
    ' "opens": [[], ["a"], ["b"], ["a", "b"], ["a", "b", "c"]]}'
)

EXPECTED_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355}


def brute_force_count(n):
    full = full_mask(n)
    others = [m for m in range(full + 1) if m not in (0, full)]
    count = 0
    for r in range(1 << len(others)):
        fam = {0, full} | {others[i] for i in bits(r)}
        if all(a | b in fam and a & b in fam for a in fam for b in fam):
            count += 1
    return count


def labeled_poset_count(k):
    """Reflexive antisymmetric transitive relations on k labeled points."""
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    count = 0
    for r in range(1 << len(pairs)):
        rel = {(i, i) for i in range(k)} | {pairs[t] for t in bits(r)}
        if any((b, a) in rel for a, b in rel if a != b):
            continue
        if any(
            (a, c) not in rel
            for a, b in rel
            for b2, c in rel
            if b == b2
        ):
            continue
        count += 1
    return count


def stirling2(n, k):
    if k == 0:
        return 1 if n == 0 else 0
    if n == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def test_acceptance_1_enumeration_counts():
    t0 = time.perf_counter()
    counts = {n: sum(1 for _ in enumerate_topologies(n)) for n in (1, 2, 3, 4)}
    elapsed = time.perf_counter() - t0
    assert counts == EXPECTED_COUNTS
    for n in (1, 2, 3):
        assert brute_force_count(n) == EXPECTED_COUNTS[n]
    # independent route at n=4: preorders from labeled posets over set partitions
    poset_counts = {k: labeled_poset_count(k) for k in (1, 2, 3, 4)}
    assert poset_counts == {1: 1, 2: 3, 3: 19, 4: 219}
    cross = sum(stirling2(4, k) * poset_counts[k] for k in (1, 2, 3, 4))
    assert cross == EXPECTED_COUNTS[4]
    assert elapsed < 10.0, f"enumeration took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 (enumeration counts 1/4/29/355, {elapsed:.2f}s): PASS")


def test_acceptance_2_limit_set_oracle_equivalence():
    mismatches = 0
    for n in range(4):
        for space in enumerate_topologies(n):
            for l in range(space.full + 1):
                if is_limit_set(space, l) != is_limit_set_oracle(space, l):
                    mismatches += 1
    rng = random.Random(404)
    spaces4 = list(enumerate_topologies(4))
    for _ in range(1000):
        space = spaces4[rng.randrange(len(spaces4))]
        l = rng.randrange(space.full + 1)
        if is_limit_set(space, l) != is_limit_set_oracle(space, l):
            mismatches += 1
    assert mismatches == 0
    print("\nACCEPTANCE 2 (limit-set oracle equivalence, 0 mismatches): PASS")


def test_acceptance_3_min_nbhd_oracle_equivalence():
    mismatches = compared = 0
    for n in range(5):
        for space in enumerate_topologies(n):
            for kind in CARRIER_KINDS:
                car = carrier(space, kind)
                for flavor in ("w", "s"):
                    top = build_topology(car, flavor)
                    for i, a in enumerate(car.elements):
                        compared += 1
                        if top.rows[i] != min_nbhd_oracle(car, flavor, a):
                            mismatches += 1
    assert compared == 17214
    assert mismatches == 0
    print(f"\nACCEPTANCE 3 (minimal-neighborhood oracle equivalence, {compared} elements, 0 mismatches): PASS")


def test_acceptance_4_theorem_sweep():
    t0 = time.perf_counter()
    total_spaces = 0
    total_failures = 0
    for n in (1, 2, 3, 4):
        result = sweep(n, jobs=4)
        total_spaces += result.space_count
        total_failures += result.failure_count
        assert result.space_count == EXPECTED_COUNTS[n]
        assert result.first_failures == ()
    elapsed = time.perf_counter() - t0
    assert total_spaces == 389
    assert total_failures == 0
    assert elapsed < 60.0, f"sweep took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 4 (389 spaces, 0 failures, {elapsed:.1f}s with 4 workers): PASS")


def test_acceptance_5_convergence_propositions():
    t0 = time.perf_counter()
    checked_spaces = 0
    for n in range(4):
        for space in enumerate_topologies(n):
            if space.n == 0:
                continue
            result = run_check("check_conv_props", space, max_pre=2, max_cycle=3)
            assert result.status != FAIL, (space, result.witness)
            k = len(carrier(space, "F").elements)
            n_seq = sum(k**p for p in range(3)) * sum(k**c for c in (1, 2, 3))
            assert f"{n_seq} sequences" in result.notes
            checked_spaces += 1
    elapsed = time.perf_counter() - t0
    assert checked_spaces == 34
    assert elapsed < 30.0, f"convergence sweep took {elapsed:.2f}s"
    print(
        f"\nACCEPTANCE 5 (convergence equivalences, {checked_spaces} spaces, "
        f"{elapsed:.2f}s): PASS"
    )


def test_acceptance_6_non_vacuity():
    spaces = {
        "sierpinski": validate_topology(2, [0b00, 0b01, 0b11]),
        "three_point": validate_topology(3, [0b000, 0b001, 0b010, 0b011, 0b111]),
        "discrete2": validate_topology(2, [0b00, 0b01, 0b10, 0b11]),
        "sierpinski_plus_isolated": validate_topology(
            3, [0b000, 0b001, 0b100, 0b011, 0b101, 0b111]
        ),
    }
    detected = {}
    for name, space in spaces.items():
        for cid, hit in mine_check_failures(space).items():
            detected.setdefault(cid, (name, hit.description))
    missing = [cid for cid in CHECKS if cid not in detected]
    assert not missing, f"no corrupted carrier made these fail: {missing}"
    print(f"\nACCEPTANCE 6 (expect-fail mining covers all {len(CHECKS)} checks): PASS")


GOLDEN_SIERPINSKI_REPORT = """space: n=2 digest=0d814e726f66
points: {a,b}
opens: {} {a} {a,b}
separated points: {a}
carrier: F  topology: tau_w  elements: 3
{}: min_nbhd=[{} {b} {a,b}] closure=[{}] ml=no separated=no
{b}: min_nbhd=[{b} {a,b}] closure=[{} {b}] ml=no separated=no
{a,b}: min_nbhd=[{a,b}] closure=[{} {b} {a,b}] ml=yes separated=yes
"""

GOLDEN_THREE_POINT_REPORT = """space: n=3 digest=406dadc4b9ac
points: {a,b,c}
opens: {} {a} {b} {a,b} {a,b,c}
separated points: {a,b}
carrier: L  topology: tau_w  elements: 4
{}: min_nbhd=[{} {c} {a,c} {b,c}] closure=[{}] ml=no separated=no
{c}: min_nbhd=[{c} {a,c} {b,c}] closure=[{} {c}] ml=no separated=no
{a,c}: min_nbhd=[{a,c}] closure=[{} {c} {a,c}] ml=yes separated=yes
{b,c}: min_nbhd=[{b,c}] closure=[{} {c} {b,c}] ml=yes separated=yes
"""


def test_acceptance_7_golden_reports(tmp_path, capsys):
    sier = tmp_path / "sierpinski.json"
    sier.write_text(SIERPINSKI_DOC)
    assert cli_run(["report", str(sier)]) == 0
    assert capsys.readouterr().out == GOLDEN_SIERPINSKI_REPORT

    three = tmp_path / "three_point.json"
    three.write_text(THREE_POINT_DOC)
    assert cli_run(["report", str(three), "--carrier", "L", "--topology", "w"]) == 0
    assert capsys.readouterr().out == GOLDEN_THREE_POINT_REPORT
    print("\nACCEPTANCE 7 (golden worked-example reports, byte-exact): PASS")
