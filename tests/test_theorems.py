import itertools
import random
import re
from pathlib import Path

import pytest

from limhyper import (
    BudgetExceeded,
    EvPerSeq,
    NotOpen,
    carrier,
    conv1_conditions,
    enumerate_topologies,
    is_compact_cover,
    mine_check_failures,
    parse_space,
    run_check,
    sweep,
    validate_topology,
    verify_all,
)
from limhyper.finspace import bits, canonical_key, mask_of
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
    _spot_check_plan,
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


def test_compactness_lemma_accepts_explicit_families(three_point):
    r = run_check("check_compactness_lemma", three_point, families=[(0b100, 0b011)])
    assert r.status == TRIVIALLY_TRUE


def test_conv_props_budget_guard(sierpinski):
    with pytest.raises(BudgetExceeded):
        run_check("check_conv_props", sierpinski, max_pre=0, max_cycle=30)


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


def test_sweep_jobs_do_not_change_results():
    serial = sweep(2, jobs=1)
    parallel = sweep(2, jobs=2)
    assert (serial.space_count, serial.failure_count) == (
        parallel.space_count,
        parallel.failure_count,
    )


def test_sweep_guards():
    with pytest.raises(ValueError):
        sweep(0)
    with pytest.raises(BudgetExceeded):
        sweep(5)


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

    found = mine_check_failures(sierpinski, check_ids=("check_closure_singleton",))
    hit = found["check_closure_singleton"]
    witness = dict(hit.result.witness)
    env = dict(corrupted_environments(sierpinski))[hit.description]()
    t = env.topology("F", "w")
    elem = parse_point_set(witness["element"], hit.labels)
    i = t.carrier.index(elem)
    got = hyper_closure(t, 1 << i)
    expected = mask_of(j for j, b in enumerate(t.carrier.elements) if not b & ~elem)
    assert got != expected


def test_mining_covers_gdelta_flip(sierpinski_plus_isolated):
    # a corrupted maximal-limit family over the two-component space flips
    # at least one of the embedding checks
    found = mine_check_failures(
        sierpinski_plus_isolated,
        check_ids=("check_gdelta_ML", "check_cont_iff_maximal"),
    )
    assert found


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
        hit = mine_check_failures(space, check_ids=("check_conv_props",))["check_conv_props"]
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
            for env in [CheckEnv(space)] + [factory() for _, factory in corrupted_environments(space)]:
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
        for env in [CheckEnv(space)] + [factory() for _, factory in corrupted_environments(space)]:
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


def inline_spot_check_plan(k, max_cycle):
    """The seeded cross-check samples as ``check_conv_props`` drew them
    inline, from the list of every ordered cycle, before the plan was
    cached per (k, max_cycle)."""
    cycles = []
    for c in range(1, max_cycle + 1):
        cycles.extend(itertools.product(range(k), repeat=c))
    rng = random.Random(20260809)
    plan = []
    for _ in range(min(64, 8 * len(cycles))):
        i = rng.randrange(len(cycles))
        a = rng.randrange(k)
        plan.append((cycles[i], a))
    return tuple(plan)


def test_spot_check_plan_matches_inline_draws():
    for k in range(1, 41):
        for max_cycle in (1, 2, 3):
            assert _spot_check_plan(k, max_cycle) == inline_spot_check_plan(k, max_cycle), (k, max_cycle)


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
            envs = [CheckEnv(space)] + [factory() for _, factory in corrupted_environments(space)]
            for env in envs:
                for max_pre, max_cycle in ((1, 2), (0, 1), (2, 3)):
                    got = check_conv_props(space, env, max_pre=max_pre, max_cycle=max_cycle)
                    want = per_cycle_conv_props(space, env, max_pre=max_pre, max_cycle=max_cycle)
                    assert (got.status, got.witness, got.notes) == (want.status, want.witness, want.notes)
                    failures += got.status == FAIL
    assert failures > 0
