import itertools
import random
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import bench_doc_spaces
from limhyper import (
    BudgetExceeded,
    EvPerSeq,
    NotOpen,
    carrier,
    closure,
    conv1_conditions,
    enumerate_topologies,
    hyper_closure,
    is_compact_cover,
    mine_check_failures,
    parse_space,
    run_check,
    sweep,
    validate_topology,
    verify_all,
)
from limhyper import FinTopSpace, HyperCarrier, HyperTopology, S_of, theorems
from limhyper.finspace import bits, canonical_key, digest, mask_of, meet_of, preorder_prefixes
from limhyper.hyperspace import FLAVORS, build_topology
from limhyper.limitsets import CARRIER_KINDS
from limhyper.spaceio import parse_point_set
from limhyper.theorems import (
    CHECKS,
    FAIL,
    PASS,
    PROXY,
    TRIVIALLY_TRUE,
    CheckEnv,
    CheckResult,
    _flag,
    _fmt_seq,
    _meet_of_dense_opens,
    _not_a_topology_at,
    check_conv_props,
    corrupted_environments,
)

BENCH_DOCS = Path(__file__).resolve().parents[1] / "perfbench" / "docs"


ALL_OK = (PASS, TRIVIALLY_TRUE, PROXY)


def test_registry_names_are_stable():
    assert list(CHECKS) == [
        "check_closure_singleton",
        "check_eta_closure_and_density",
        "check_cont_iff_maximal",
        "check_separated_iff_maximal",
        "check_connectedness",
        "check_compactness_lemma",
        "check_local_compactness",
        "check_baire",
        "check_gdelta_ML",
        "check_product_structure",
        "check_separated_points_corollary",
        "check_conv_props",
    ]


def test_verify_all_sierpinski(sierpinski):
    report = verify_all(sierpinski)
    assert [r.check_id for r in report.results] == list(CHECKS)
    assert all(r.status in ALL_OK for r in report.results)
    by_id = {r.check_id: r for r in report.results}
    assert by_id["check_closure_singleton"].status == PASS
    assert by_id["check_compactness_lemma"].status == TRIVIALLY_TRUE
    assert by_id["check_baire"].status == TRIVIALLY_TRUE
    assert by_id["check_conv_props"].status == PROXY
    assert "informational" in by_id["check_connectedness"].notes


def test_verify_all_named_spaces(three_point, discrete2, indiscrete2):
    for space in (three_point, discrete2, indiscrete2):
        report = verify_all(space)
        assert all(r.status in ALL_OK for r in report.results)


def test_connectedness_vacuous_note(discrete2):
    r = run_check("check_connectedness", discrete2)
    assert r.status == PASS
    assert "hypothesis not met" in r.notes


def test_verify_all_rejects_empty_space():
    empty = validate_topology(0, [0])
    with pytest.raises(ValueError):
        verify_all(empty)


def test_checks_are_deterministic(three_point):
    first = verify_all(three_point)
    second = verify_all(three_point)
    assert first.results == second.results
    assert first.space_digest == second.space_digest


def test_conv_props_counts_long_cycles_without_walking_them(sierpinski):
    # single terms decide every cycle, so no cycle length is out of reach;
    # the three closed sets of the Sierpinski space give sum 3^c cycles
    r = run_check("check_conv_props", sierpinski, max_pre=0, max_cycle=30)
    n_cycles = sum(3**c for c in range(1, 31))
    assert r.status == PROXY
    assert r.notes == (
        f"sequences stand in for nets; {n_cycles} cycles, {n_cycles} sequences "
        "(preperiod<=0, cycle<=30) over F(X)"
    )


def test_verify_all_discrete_eleven():
    # 2048 closed sets: the conv note counts k + k^2 cycles and (1 + k)
    # times as many sequences, none of them walked
    space = validate_topology(11, range(1 << 11))
    results = {r.check_id: r for r in verify_all(space).results}
    assert all(r.status != FAIL for r in results.values())
    assert "4196352 cycles, 8598325248 sequences" in results["check_conv_props"].notes


def test_sweep_counts_and_cleanliness():
    r2 = sweep(2)
    assert (r2.space_count, r2.failure_count) == (4, 0)
    r3 = sweep(3)
    assert (r3.space_count, r3.failure_count) == (29, 0)
    assert r3.first_failures == ()


def test_trivially_true_only_where_expected():
    allowed = {"check_compactness_lemma", "check_local_compactness", "check_baire"}
    for space in enumerate_topologies(3):
        for r in verify_all(space).results:
            if r.status == TRIVIALLY_TRUE:
                assert r.check_id in allowed


def test_lh_jobs_env_is_the_default(monkeypatch):
    monkeypatch.setenv("LH_JOBS", "2")
    r = sweep(2)
    assert (r.space_count, r.failure_count) == (4, 0)


def test_lh_jobs_that_is_not_an_integer_is_named(monkeypatch):
    monkeypatch.setenv("LH_JOBS", "two")
    with pytest.raises(ValueError, match="LH_JOBS must be an integer, got 'two'"):
        sweep(2)


def test_sweep_jobs_do_not_change_results():
    for n in range(1, 5):
        serial = replace(sweep(n, jobs=1), elapsed_s=0.0)
        assert replace(sweep(n, jobs=2), elapsed_s=0.0) == serial, n


@pytest.fixture
def recording_pool(monkeypatch):
    """An in-process stand-in for the pool: records the worker count sweep
    asks for and the items it maps; no process is started."""
    record = SimpleNamespace(sizes=[], items=[])

    class RecordingPool:
        def __init__(self, workers):
            record.sizes.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            record.items.extend(items)
            return [fn(item) for item in items]

    monkeypatch.setattr(theorems, "Pool", RecordingPool)
    return record


def outcome(result):
    return result.space_count, result.failure_count, result.first_failures


def test_sweep_starts_no_more_workers_than_spaces(recording_pool):
    # one task per prefix subtree, so at most that many workers, and a
    # subtree holds at least one space
    sizes = recording_pool.sizes
    serial = sweep(2, jobs=1)
    assert sizes == []
    assert outcome(sweep(2, jobs=8)) == outcome(serial) == (4, 0, ())
    assert sizes == [4]
    assert outcome(sweep(1, jobs=8)) == (1, 0, ()) and sizes == [4]
    assert outcome(sweep(3, jobs=2)) == (29, 0, ()) and sizes == [4, 2]
    assert outcome(sweep(4, jobs=64)) == (355, 0, ()) and sizes == [4, 2, 38]


def test_sweep_maps_prefixes_not_spaces(recording_pool):
    sweep(4, jobs=2)
    assert recording_pool.items == list(preorder_prefixes(4))
    assert all(isinstance(p, tuple) and all(type(r) is int for r in p) for p in recording_pool.items)


def test_sweep_merges_task_results_in_enumeration_order(monkeypatch, recording_pool):
    # two checks fail on fixed subsets of the spaces; the merged counts
    # and first failures equal those of one plain loop
    def failing_on(check_id, pred):
        return lambda space, env: CheckResult(check_id, FAIL if pred(space) else PASS)

    monkeypatch.setitem(CHECKS, "check_baire", failing_on("check_baire", lambda s: int(digest(s), 16) % 7 == 3))
    monkeypatch.setitem(
        CHECKS, "check_connectedness", failing_on("check_connectedness", lambda s: len(s.opens) == s.n + 1)
    )
    for n in range(1, 5):
        count = failures = 0
        first = {}
        for space in enumerate_topologies(n):
            count += 1
            for r in verify_all(space).results:
                if r.status == FAIL:
                    failures += 1
                    first.setdefault(r.check_id, digest(space))
        want = (count, failures, tuple(sorted(first.items())))
        if n == 4:
            assert len(first) == 2 and failures > 2
        for jobs in (1, 2, 8):
            assert outcome(sweep(n, jobs=jobs)) == want, (n, jobs)


def test_sweep_guards():
    with pytest.raises(ValueError):
        sweep(0)
    with pytest.raises(BudgetExceeded):
        sweep(5)
    # above the enumeration cap even a long run refuses before any work
    with pytest.raises(BudgetExceeded, match="capped at 5 points"):
        sweep(6, long_run=True)


# ------------------------------------------------------- expect-fail mining

def test_mining_detects_failures_per_check(sierpinski, three_point):
    found = dict(mine_check_failures(sierpinski))
    found.update(mine_check_failures(three_point))
    missing = [cid for cid in CHECKS if cid not in found]
    assert not missing, f"checks never failed under corruption: {missing}"
    for cid, hit in found.items():
        assert hit.result.status == FAIL
        assert hit.result.witness, cid


def test_corruptions_do_not_fool_honest_env(sierpinski):
    # the corrupted environments really are the reason checks fail
    for cid in CHECKS:
        assert run_check(cid, sierpinski).status in ALL_OK
    descriptions = [d for d, _ in corrupted_environments(sierpinski)]
    assert len(descriptions) == len(set(descriptions))


def test_mined_witness_self_validates(sierpinski):
    # re-evaluate a mined closure-singleton witness through public operations
    from limhyper import hyper_closure

    hit = mine_check_failures(sierpinski)["check_closure_singleton"]
    witness = dict(hit.result.witness)
    env = dict(corrupted_environments(sierpinski))[hit.description]
    t = env.topology("F", "w")
    elem = parse_point_set(witness["element"], hit.labels)
    i = t.carrier.index(elem)
    got = hyper_closure(t, 1 << i)
    expected = mask_of(j for j, b in enumerate(t.carrier.elements) if not b & ~elem)
    assert got != expected


def test_mining_covers_gdelta_flip(sierpinski_plus_isolated):
    # a corrupted maximal-limit family over the two-component space flips
    # both embedding checks
    found = mine_check_failures(sierpinski_plus_isolated)
    for cid in ("check_gdelta_ML", "check_cont_iff_maximal"):
        assert found[cid].result.status == FAIL


# what each corruption replaces: a carrier kind, or a (kind, flavor) table
CORRUPTED = {
    "non-closed set injected into F": "F",
    "non-limit closed set injected into L": "L",
    "non-closed set injected into L": "L",
    "non-maximal limit set injected into ML": "ML",
    "maximal limit set removed from ML": "ML",
    "L restricted to its maximal elements": "L",
    "cyclic neighborhood table on (F,tau_w)": ("F", "w"),
    "cyclic neighborhood table on (L,tau_w)": ("L", "w"),
    "Fell table served as the lower topology on F": ("F", "w"),
    "lower table served as the Fell topology on L": ("L", "s"),
}


def test_shared_honest_structures_stay_in_their_environments():
    # the environments of one space share its honest carriers and tables;
    # each sees the honest ones exactly where it replaces nothing, a
    # replaced carrier brings tables built on it, and no check run on any
    # environment changes what the others share
    spaces = [space for n in range(5) for space in enumerate_topologies(n)]
    for name in ("discrete7", "discrete8", "chain16", "bipartite10"):
        spaces.append(parse_space((BENCH_DOCS / f"{name}.json").read_text()).space)
    for space in spaces:
        honest = {kind: carrier(space, kind) for kind in CARRIER_KINDS}
        envs = []
        shared = {}
        for description, env in corrupted_environments(space):
            replaced = CORRUPTED[description]
            for kind in CARRIER_KINDS:
                assert (env.carrier(kind) == honest[kind]) == (kind != replaced), (description, kind)
                for flavor in FLAVORS:
                    if (kind, flavor) == replaced:
                        continue
                    t = env.topology(kind, flavor)
                    assert t.carrier == env.carrier(kind) and t.flavor == flavor
                    assert t.rows == build_topology(env.carrier(kind), flavor).rows, (description, kind, flavor)
                    if kind != replaced:
                        assert shared.setdefault((kind, flavor), t) is t, (description, kind, flavor)
            envs.append(env)
        assert len(shared) == 10
        for env in envs:
            for cid in CHECKS:
                run_check(cid, space, env)
        for (kind, flavor), t in shared.items():
            fresh = build_topology(carrier(space, kind), flavor)
            assert t.carrier == fresh.carrier and t.carrier.holding == fresh.carrier.holding
            assert (t.rows, t.cols, t.open_rows) == (fresh.rows, fresh.cols, fresh.open_rows)


def test_report_invariant_every_check_once():
    for space in enumerate_topologies(2):
        report = verify_all(space)
        assert sorted(r.check_id for r in report.results) == sorted(CHECKS)


def test_fail_results_always_carry_witness(sierpinski, three_point):
    for space in (sierpinski, three_point):
        for cid, hit in mine_check_failures(space).items():
            assert hit.result.status == FAIL
            assert len(hit.result.witness) >= 1


def _fell_selection_witness(cycle, target, fell, conds, prim):
    return (
        ("cycle", cycle),
        ("target", target),
        ("fell_convergence", fell),
        ("selection_conditions", conds),
        ("primitive_characterization", prim),
    )


GOLDEN_CONV_MINING = {
    "sierpinski": (
        "non-closed set injected into F",
        _fell_selection_witness("({a})", "{a}", "true", "false", "false"),
    ),
    "three_point": (
        "non-closed set injected into F",
        _fell_selection_witness("({a})", "{a}", "true", "false", "false"),
    ),
    "discrete2": (
        "cyclic neighborhood table on (F,tau_w)",
        _fell_selection_witness("({})", "{}", "true", "true", "false"),
    ),
    "sierpinski_plus_isolated": (
        "non-closed set injected into F",
        _fell_selection_witness("({a})", "{a}", "true", "false", "false"),
    ),
}


def test_conv_props_mining_witnesses_are_golden(
    sierpinski, three_point, discrete2, sierpinski_plus_isolated
):
    # the first corruption detected and its witness, byte for byte, on the
    # four spaces of the acceptance mining gate
    spaces = {
        "sierpinski": sierpinski,
        "three_point": three_point,
        "discrete2": discrete2,
        "sierpinski_plus_isolated": sierpinski_plus_isolated,
    }
    for name, space in spaces.items():
        hit = mine_check_failures(space)["check_conv_props"]
        assert (hit.description, hit.result.witness) == GOLDEN_CONV_MINING[name], name


def test_sequence_and_product_checks_are_exact():
    # what `sweep 4` and `verify` on the benchmark documents run: neither
    # check samples, and every in-budget sequence is counted
    spaces = list(enumerate_topologies(4))
    for name in ("discrete7", "discrete8", "chain16", "bipartite10"):
        spaces.append(parse_space((BENCH_DOCS / f"{name}.json").read_text()).space)
    for space in spaces:
        env = CheckEnv(space)
        product = run_check("check_product_structure", space, env)
        conv = run_check("check_conv_props", space, env)
        baire = run_check("check_baire", space, env)
        assert (product.status, conv.status, baire.status) == (PASS, PROXY, TRIVIALLY_TRUE)
        assert all("sampled" not in r.notes for r in (product, conv, baire))
        k = len(carrier(space, "F").elements)
        cycles, seqs = map(int, re.search(r"(\d+) cycles, (\d+) sequences", conv.notes).groups())
        assert (cycles, seqs) == (k + k * k, (1 + k) * (k + k * k))


def dense_open_meet_oracle(t):
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


def test_exact_baire_matches_dense_open_enumeration():
    # the honest and corrupted (L, Lprime, ML; tau_w) tables of every space
    # on at most four points: the O(k^2) reduction agrees with full
    # enumeration wherever the table is a topology's, and the cyclic
    # tables, which are not transitive, fail the check at the precheck
    exact = rejected = 0
    for n in range(1, 5):
        for space in enumerate_topologies(n):
            for env in [CheckEnv(space)] + [env for _, env in corrupted_environments(space)]:
                for kind in ("L", "Lprime", "ML"):
                    t = env.topology(kind, "w")
                    if _not_a_topology_at(t) is None:
                        assert _meet_of_dense_opens(t) == dense_open_meet_oracle(t)
                        exact += 1
                    else:
                        result = run_check("check_baire", space, env)
                        assert result.status == FAIL
                        assert [key for key, _ in result.witness] == ["carrier", "not_a_topology_at"]
                        rejected += 1
    assert exact > 10000 and rejected > 0


def per_open_local_compactness(space, env):
    """``check_local_compactness`` as it was before it took the inner
    neighborhood as an AND over the points of the element: inner and outer
    are ANDs over every open u meeting the element a, of the elements
    meeting min_nbhd(x), x the lowest point of a & u, and of the elements
    meeting u. Its three failure branches that hold by construction are
    assertions here: min_nbhd(x) lies inside u, inner holds a, and inner
    lies inside outer; so is the equality of inner with the AND over all
    points x of a that the check takes."""
    cid = "check_local_compactness"
    witnessed = 0
    for kind in ("F", "Fprime", "L", "Lprime"):
        t = env.topology(kind, "w")
        meeting = {u: t.carrier.meeting(u) for u in space.opens}
        for i, a in enumerate(t.carrier.elements):
            inner = outer = (1 << len(t)) - 1
            for u, meeting_u in meeting.items():
                if not u & a:
                    continue
                x = ((a & u) & -(a & u)).bit_length() - 1
                v = space.rows[x]
                assert not v & ~u
                inner &= meeting[v]
                outer &= meeting_u
            assert (inner >> i) & 1 and not inner & ~outer
            per_point = (1 << len(t)) - 1
            for x in bits(a):
                per_point &= t.carrier.meeting(space.rows[x])
            assert inner == per_point
            if not is_compact_cover(t, inner, inner):
                return CheckResult(cid, FAIL, witness=(("carrier", kind), ("element", env.fmt(a))))
            witnessed += 1
    return CheckResult(
        cid, TRIVIALLY_TRUE, notes=f"sandwich neighborhoods constructed for {witnessed} carrier elements"
    )


def test_local_compactness_matches_per_open_construction():
    # the honest and every corrupted environment of each space on at most
    # four points and of the benchmark documents; environments whose four
    # tau_w tables coincide are run once
    spaces = [space for n in range(5) for space in enumerate_topologies(n)]
    for name in ("discrete7", "discrete8", "chain16", "bipartite10"):
        spaces.append(parse_space((BENCH_DOCS / f"{name}.json").read_text()).space)
    seen = set()
    statuses = []
    for space in spaces:
        for env in [CheckEnv(space)] + [env for _, env in corrupted_environments(space)]:
            tables = [env.topology(kind, "w") for kind in ("F", "Fprime", "L", "Lprime")]
            key = (space, tuple((t.carrier.elements, t.rows) for t in tables))
            if key in seen:
                continue
            seen.add(key)
            got = run_check("check_local_compactness", space, env)
            try:
                want = per_open_local_compactness(space, env)
            except NotOpen as exc:
                want = CheckResult(
                    "check_local_compactness",
                    FAIL,
                    witness=(("structural_error", str(exc)),),
                    notes="carrier or neighborhood structure inconsistent",
                )
            assert got == want
            statuses.append(got.status)
    assert len(seen) > 1000 and set(statuses) == {TRIVIALLY_TRUE, FAIL}


# ------------------------------ the per-cycle loops, kept as references

def pointwise_conv1_conditions(space, seq, a):
    """``conv1_conditions`` with its first condition tested point by point,
    as it was before it became one OR of minimal neighborhoods."""
    mins = space.rows
    terms = sorted(set(seq.cycle), key=canonical_key)
    cond_a = True
    for t in terms:
        if not cond_a:
            break
        for p in bits(t):
            bad = any((mins[x] >> p) & 1 and not (a >> x) & 1 for x in range(space.n))
            if bad:
                cond_a = False
                break
    cond_b = all(t & mins[x] for x in bits(a) for t in terms)
    return cond_a, cond_b


def per_cycle_conv_props(space, env, max_pre=1, max_cycle=2):
    """``check_conv_props`` deciding every ordered cycle on its own, as it
    did before it decided each set of cycle terms once."""
    cid = "check_conv_props"
    tw = env.topology("F", "w")
    ts = env.topology("F", "s")
    elems = tw.carrier.elements
    k = len(elems)
    if k == 0:
        return CheckResult(cid, PROXY, notes="empty carrier")
    full_t = (1 << k) - 1
    holding = tw.carrier.holding
    by_subsets = {}
    for a, m in enumerate(elems):
        subs = full_t & ~tw.carrier.meeting(space.full & ~m)
        by_subsets[subs] = by_subsets.get(subs, 0) | 1 << a
    mins = space.rows
    near = [mask_of(x for x in range(space.n) if m & mins[x]) for m in elems]
    cycles = []
    for c in range(1, max_cycle + 1):
        cycles.extend(itertools.product(range(k), repeat=c))
    verdicts = []
    for cyc in cycles:
        lim_w = lim_s = full_t
        clu_w = reach = 0
        good = space.full
        for t in cyc:
            lim_w &= tw.cols[t]
            clu_w |= tw.cols[t]
            lim_s &= ts.cols[t]
            reach |= near[t]
            good &= near[t]
        conds = full_t
        for x in bits(reach):
            conds &= holding[x]
        conds &= ~tw.carrier.meeting(space.full & ~good)
        p22 = by_subsets.get(lim_w, 0) if lim_w == clu_w else 0
        bad = (lim_s ^ conds) | (conds ^ p22)
        if bad:
            a = (bad & -bad).bit_length() - 1
            return CheckResult(
                cid,
                FAIL,
                witness=(
                    ("cycle", _fmt_seq(env, elems, cyc)),
                    ("target", env.fmt(elems[a])),
                    ("fell_convergence", _flag(lim_s, a)),
                    ("selection_conditions", _flag(conds, a)),
                    ("primitive_characterization", _flag(p22, a)),
                ),
            )
        verdicts.append((lim_w, conds))
    rng = random.Random(20260809)
    for _ in range(min(64, 8 * len(cycles))):
        i = rng.randrange(len(cycles))
        a = rng.randrange(k)
        seq = EvPerSeq((), tuple(elems[t] for t in cycles[i]))
        ca, cb = pointwise_conv1_conditions(space, seq, elems[a])
        if (ca and cb) != bool((verdicts[i][1] >> a) & 1):
            return CheckResult(
                cid,
                FAIL,
                witness=(
                    ("cycle", _fmt_seq(env, elems, cycles[i])),
                    ("target", env.fmt(elems[a])),
                    ("disagreement", "selection-condition masks vs conv1_conditions"),
                ),
            )
    n_seq = 0
    for p in range(max_pre + 1):
        pre = (0,) * p
        for cyc, (lim_w, _) in zip(cycles, verdicts):
            seq = EvPerSeq(pre, cyc)
            lim = full_t
            for j in range(p, p + len(cyc)):
                lim &= tw.cols[seq.term(j)]
            if lim != lim_w:
                return CheckResult(
                    cid,
                    FAIL,
                    witness=(
                        ("preperiod", _fmt_seq(env, elems, pre)),
                        ("cycle", _fmt_seq(env, elems, cyc)),
                        ("disagreement", "preperiod changed the limit set"),
                    ),
                )
        n_seq += k**p * len(cycles)
    return CheckResult(
        cid,
        PROXY,
        notes=(
            f"sequences stand in for nets; {len(cycles)} cycles, {n_seq} sequences "
            f"(preperiod<={max_pre}, cycle<={max_cycle}) over F(X)"
        ),
    )


def test_conv1_first_condition_matches_pointwise_loop():
    # every subset of the ground set as a cycle term and as a target, so
    # non-closed terms and targets are covered too
    for n in range(4):
        for space in enumerate_topologies(n):
            subsets = range(space.full + 1)
            for c in (1, 2):
                for cyc in itertools.product(subsets, repeat=c):
                    seq = EvPerSeq((), cyc)
                    for a in subsets:
                        assert conv1_conditions(space, seq, a) == pointwise_conv1_conditions(space, seq, a)


def test_conv_props_per_set_matches_per_cycle_loop():
    # status, witness and notes, on the honest environment and on every
    # corrupted one of each space on at most three points; the longer
    # budgets reach cycles of three terms and preperiods of two
    failures = 0
    for n in range(4):
        for space in enumerate_topologies(n):
            envs = [CheckEnv(space)] + [env for _, env in corrupted_environments(space)]
            for env in envs:
                for max_pre, max_cycle in ((1, 2), (0, 1), (2, 3)):
                    got = check_conv_props(space, env, max_pre=max_pre, max_cycle=max_cycle)
                    want = per_cycle_conv_props(space, env, max_pre=max_pre, max_cycle=max_cycle)
                    assert (got.status, got.witness, got.notes) == (want.status, want.witness, want.notes)
                    failures += got.status == FAIL
    assert failures > 0


def per_set_conv_props(space, env, max_pre=1, max_cycle=2):
    """``check_conv_props`` as it was before single terms decided it: each
    set of at most ``max_cycle`` cycle terms decided once, in the
    lexicographic order of its sorted terms. Its cycle budget and seeded
    ``conv1_conditions`` spot-check are left out."""
    cid = "check_conv_props"
    tw = env.topology("F", "w")
    ts = env.topology("F", "s")
    car = tw.carrier
    elems = car.elements
    k = len(elems)
    if k == 0:
        return CheckResult(cid, PROXY, notes="empty carrier")
    n_cycles = sum(k**c for c in range(1, max_cycle + 1))
    full_t = (1 << k) - 1
    cols_w, cols_s = tw.cols, ts.cols
    by_subsets = {}
    for a, m in enumerate(elems):
        subs = full_t & ~car.meeting(space.full & ~m)
        by_subsets[subs] = by_subsets.get(subs, 0) | 1 << a
    mins = space.rows
    near = [mask_of(x for x in range(space.n) if m & mins[x]) for m in elems]
    sel = []
    for nt in near:
        s = full_t & ~car.meeting(space.full & ~nt)
        for x in bits(nt):
            s &= car.holding[x]
        sel.append(s)
    for c in range(1, max_cycle + 1):
        for terms in itertools.combinations(range(k), c):
            lim_w = lim_s = conds = full_t
            clu_w = 0
            for t in terms:
                lim_w &= cols_w[t]
                clu_w |= cols_w[t]
                lim_s &= cols_s[t]
                conds &= sel[t]
            p22 = by_subsets.get(lim_w, 0) if lim_w == clu_w else 0
            bad = (lim_s ^ conds) | (conds ^ p22)
            if bad:
                a = (bad & -bad).bit_length() - 1
                return CheckResult(
                    cid,
                    FAIL,
                    witness=(
                        ("cycle", _fmt_seq(env, elems, terms)),
                        ("target", env.fmt(elems[a])),
                        ("fell_convergence", _flag(lim_s, a)),
                        ("selection_conditions", _flag(conds, a)),
                        ("primitive_characterization", _flag(p22, a)),
                    ),
                )
    n_seq = sum(k**p for p in range(max_pre + 1)) * n_cycles
    return CheckResult(
        cid,
        PROXY,
        notes=(
            f"sequences stand in for nets; {n_cycles} cycles, {n_seq} sequences "
            f"(preperiod<={max_pre}, cycle<={max_cycle}) over F(X)"
        ),
    )


def test_conv_props_single_terms_match_per_set_loop():
    # status, witness and notes on the honest and every corrupted
    # environment of each space on at most four points for cycles of up to
    # three terms, and of the benchmark documents for up to two
    spaces = [space for n in range(5) for space in enumerate_topologies(n)]
    for name in ("discrete7", "discrete8", "chain16", "bipartite10"):
        spaces.append(parse_space((BENCH_DOCS / f"{name}.json").read_text()).space)
    statuses = []
    for space in spaces:
        budgets = ((0, 1), (1, 2), (2, 3)) if space.n <= 4 else ((0, 1), (1, 2))
        for env in [CheckEnv(space)] + [env for _, env in corrupted_environments(space)]:
            for max_pre, max_cycle in budgets:
                got = check_conv_props(space, env, max_pre=max_pre, max_cycle=max_cycle)
                want = per_set_conv_props(space, env, max_pre=max_pre, max_cycle=max_cycle)
                assert (got.status, got.witness, got.notes) == (want.status, want.witness, want.notes)
                statuses.append(got.status)
    assert set(statuses) == {PROXY, FAIL}


def selection_fold(car, m):
    """The selection mask of term m as ``check_conv_props`` folded it
    before it read the index of m's closure: the elements that hold every
    point of the closure and miss every point outside it."""
    space = car.space
    nt = closure(space, m)
    return meet_of(car.holding, nt, ((1 << len(car)) - 1) & ~car.meeting(space.full & ~nt))


def test_selection_fold_is_the_bit_of_the_term_closure(carrier_corpus):
    # every F carrier of the corpus, honest and corrupted: the selection
    # conditions of a term hold at its closure only, or nowhere when the
    # carrier lacks the closure
    terms = 0
    for car in carrier_corpus:
        if car.kind != "F":
            continue
        for m in car.elements:
            nt = closure(car.space, m)
            want = 1 << car.elements.index(nt) if nt in car.elements else 0
            assert selection_fold(car, m) == want, (car, m)
            terms += 1
    assert terms > 70000


def test_carrier_elements_have_distinct_subsets_masks(carrier_corpus):
    # what makes the primitive side of a term one target at most
    for car in carrier_corpus:
        assert len(set(car.subsets)) == len(car), car


def point_scan_closure(space, m):
    """The points whose minimal neighborhood meets m, one point at a time:
    how ``check_conv_props`` took each term's closure before it called
    ``closure``; kept as the reference."""
    return mask_of(x for x in range(space.n) if m & space.rows[x])


def test_term_closure_matches_point_scan():
    # every subset with n <= 5, n = 0 and the non-closed sets that mining
    # injects included, and every singleton and closed set of the documents
    for n in range(6):
        for space in enumerate_topologies(n):
            for m in range(space.full + 1):
                assert closure(space, m) == point_scan_closure(space, m), (space, m)
    for space in bench_doc_spaces():
        for m in {1 << x for x in range(space.n)} | set(carrier(space, "F").elements):
            assert closure(space, m) == point_scan_closure(space, m), (space, m)


def per_term_selection(space, car):
    """One selection mask per F-carrier term, in the reach/good form of
    ``per_cycle_conv_props`` for a cycle of that term alone: the targets A
    with reach <= A <= good, where reach and good are both the points whose
    minimal neighborhood meets the term."""
    full_t = (1 << len(car)) - 1
    sel = []
    for m in car.elements:
        near = point_scan_closure(space, m)
        conds = full_t
        for x in bits(near):
            conds &= car.holding[x]
        conds &= ~car.meeting(space.full & ~near)
        sel.append(conds)
    return sel


def test_conv1_conditions_are_the_and_of_per_term_selections():
    # every ordered cycle of at most two F-carrier terms against every
    # target, on the honest and every corrupted environment of each space
    # on at most three points
    pairs = held = 0
    for n in range(4):
        for space in enumerate_topologies(n):
            for env in [CheckEnv(space)] + [env for _, env in corrupted_environments(space)]:
                car = env.carrier("F")
                elems = car.elements
                sel = per_term_selection(space, car)
                for c in (1, 2):
                    for cyc in itertools.product(range(len(elems)), repeat=c):
                        conds = (1 << len(elems)) - 1
                        for t in cyc:
                            conds &= sel[t]
                        seq = EvPerSeq((), tuple(elems[t] for t in cyc))
                        for a, target in enumerate(elems):
                            ca, cb = conv1_conditions(space, seq, target)
                            assert (ca and cb) == bool((conds >> a) & 1), (space, cyc, target)
                            pairs += 1
                            held += ca and cb
    assert pairs > 10000 and 0 < held < pairs


def scan_closure_singleton(space, env):
    """``check_closure_singleton`` with its expected closure found by
    scanning every carrier element, as before it became the complement of
    the elements meeting the points outside."""
    t = env.topology("F", "w")
    elems = t.carrier.elements
    for i, a in enumerate(elems):
        got = hyper_closure(t, 1 << i)
        expected = mask_of(j for j, b in enumerate(elems) if not b & ~a)
        if got != expected:
            return CheckResult(
                "check_closure_singleton",
                FAIL,
                witness=(
                    ("element", env.fmt(a)),
                    ("closure", env.fmt_indices(t.carrier, got)),
                    ("expected", env.fmt_indices(t.carrier, expected)),
                ),
            )
    return CheckResult("check_closure_singleton", PASS)


def test_closure_singleton_matches_element_scan():
    # the honest and every corrupted environment of each space on at most
    # four points and of the benchmark documents
    spaces = [space for n in range(5) for space in enumerate_topologies(n)]
    for name in ("discrete7", "discrete8", "chain16", "bipartite10"):
        spaces.append(parse_space((BENCH_DOCS / f"{name}.json").read_text()).space)
    statuses = []
    for space in spaces:
        for env in [CheckEnv(space)] + [env for _, env in corrupted_environments(space)]:
            got = run_check("check_closure_singleton", space, env)
            assert got == scan_closure_singleton(space, env)
            statuses.append(got.status)
    assert set(statuses) == {PASS, FAIL}


def slice_loop_failure(ts):
    """The slice-map loop ``check_product_structure`` ran after its
    topology precheck, kept as the reference its docstring's proof
    replaces: the first index a whose row nb[a] is not inside
    S(hull(row a)), or None."""
    nb = ts.rows
    k = len(nb)
    for a in range(k):
        # the product minimal neighborhood of (a, b) is nb[a] x nb[b]; the
        # hull of row a is their union over b, one mask of second
        # coordinates per first coordinate
        hull = [0] * k
        for b in range(k):
            for x in bits(nb[a]):
                hull[x] |= nb[b]
        s_mask = S_of(tuple(hull), ts)
        if nb[a] & ~s_mask:
            return a
    return None


def random_preorder_rows(rng, k):
    """A random reflexive, transitive relation on k indices, as row masks."""
    rows = [1 << i | (rng.getrandbits(k) & rng.getrandbits(k)) for i in range(k)]
    for m in range(k):
        for i in range(k):
            if (rows[i] >> m) & 1:
                rows[i] |= rows[m]
    return tuple(rows)


def test_slice_loop_never_fails_past_the_topology_precheck(carrier_corpus):
    # both tables of every carrier in the corpus (honest with n <= 5 and of
    # the documents, corrupted with n <= 4), every table of every corrupted
    # environment with n <= 4, and random preorders: wherever
    # ``_not_a_topology_at`` passes, the deleted loop would have passed too
    tables = [build_topology(car, flavor) for car in carrier_corpus for flavor in FLAVORS]
    for space in (s for n in range(5) for s in enumerate_topologies(n)):
        for _, env in corrupted_environments(space):
            tables += [env.topology(kind, flavor) for kind in CARRIER_KINDS for flavor in FLAVORS]
    rng = random.Random(1210)
    dummy = FinTopSpace(0, (0,))
    for _ in range(2000):
        k = rng.randrange(1, 10)
        tables.append(HyperTopology(HyperCarrier(dummy, "L", tuple(range(k))), "s", random_preorder_rows(rng, k)))
    # the loop reads only the rows, so each distinct table is run once
    distinct = {t.rows: t for t in tables}
    checked = 0
    for t in distinct.values():
        if _not_a_topology_at(t) is None:
            assert slice_loop_failure(t) is None, t
            checked += 1
    assert checked > 1000
    # the loop itself can fail: on a table that is not reflexive
    stuck = HyperTopology(HyperCarrier(dummy, "L", (0, 1, 2)), "s", (1, 1, 1))
    assert _not_a_topology_at(stuck) == 1 and slice_loop_failure(stuck) == 0
