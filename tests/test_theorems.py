import ast
import hashlib
import json
import random
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import bench_doc_spaces, hyper_table, spaces_upto
from limhyper import (
    BudgetExceeded,
    DuplicateLabel,
    NotOpen,
    ParseError,
    carrier,
    carriers,
    enumerate_topologies,
    hyper_closure,
    is_limit_set,
    mine_check_failures,
    run_check,
    sweep,
    validate_topology,
    verify_all,
)
from limhyper import finspace, theorems
from limhyper.cli import run as run_cli
from limhyper.finspace import canonical_key, closed_sets, default_labels, digest, mask_of, preorder_prefixes, union_of
from limhyper.hyperspace import FLAVORS, HyperTopology, build_topology, is_dense
from limhyper.limitsets import CARRIER_KINDS, HyperCarrier
from limhyper.oracle import dense_open_meet_oracle, per_cycle_conv_props, per_open_local_compactness
from limhyper.spaceio import parse_point_set
from limhyper.theorems import (
    CHECKS,
    FAIL,
    PASS,
    PROXY,
    TRIVIALLY_TRUE,
    CheckEnv,
    CheckResult,
    _non_closed_tables,
    _not_a_topology_at,
    check_conv_props,
    corrupted_environments,
)


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
    r = run_check("check_connectedness", CheckEnv(discrete2))
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
    # the lemma's note counts the empty family and the n singletons, plus
    # the family of all singletons when there is a point: 1 family on the
    # 0-point space and n + 2 on every other, the documents included
    for space in [*spaces_upto(5), *bench_doc_spaces()]:
        r = run_check("check_compactness_lemma", CheckEnv(space))
        assert r.status == TRIVIALLY_TRUE
        assert r.notes == f"finite subcover found for {1 + space.n + (space.n > 0)} hit families"


def test_labels_must_name_every_point(sierpinski):
    with pytest.raises(ValueError, match="1 labels given for a space of 2 points"):
        verify_all(sierpinski, labels=("a",))
    with pytest.raises(ValueError, match="3 labels given for a space of 2 points"):
        CheckEnv(sierpinski, labels=("x", "y", "z"))
    for labels in (None, ()):
        assert verify_all(sierpinski, labels=labels).labels == ("a", "b")
    assert verify_all(sierpinski, labels=["p", "q"]).labels == ("p", "q")


def test_labels_must_be_distinct(sierpinski, three_point):
    # a report whose points share a label is one that parse_space refuses
    # to read back
    with pytest.raises(DuplicateLabel, match="point label 'a' declared twice"):
        verify_all(sierpinski, labels=("a", "a"))
    with pytest.raises(DuplicateLabel, match="point label 'y' declared twice"):
        CheckEnv(three_point, labels=("x", "y", "y"))


def test_verify_all_refuses_labels_a_document_refuses(sierpinski, monkeypatch):
    # "a,b" would write the witness {a,b,c} for two sets at once, and a
    # report with non-string points is one parse_report cannot read back;
    # each list is refused before any check runs
    def ran(check_id, env):
        raise AssertionError(f"{check_id} ran on refused labels")

    monkeypatch.setattr(theorems, "run_check", ran)
    for labels, message in (
        (("a,b", "c"), "point label 'a,b' must be nonempty without braces, commas or spaces"),
        ((1, 2), "'points' must be a list of string labels"),
        (("", "b"), "point label '' must be nonempty without braces, commas or spaces"),
    ):
        with pytest.raises(ParseError) as info:
            verify_all(sierpinski, labels=labels)
        assert str(info.value) == message


def test_sweep_refuses_worker_counts_below_one(monkeypatch):
    # they used to run serially; now nothing is enumerated
    def enumerated(n):
        raise AssertionError("enumerated before the worker count was checked")

    monkeypatch.setattr(theorems, "preorder_prefixes", enumerated)
    for jobs in (0, -4):
        with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
            sweep(2, jobs=jobs)


def test_sweep_jobs_do_not_change_results():
    for n in range(1, 5):
        serial = sweep(n, jobs=1)._replace(elapsed_s=0.0)
        assert sweep(n, jobs=2)._replace(elapsed_s=0.0) == serial, n


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
        return lambda env: CheckResult(check_id, FAIL if pred(env.space) else PASS)

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
    with pytest.raises(BudgetExceeded, match="capped at 6 points"):
        sweep(7, long_run=True)


def test_seven_point_sweep_is_refused_before_enumerating(monkeypatch, capsys):
    # six points sweep under the long-run flag; seven are refused before
    # the first preorder row is searched, in the library and the CLI, and
    # the message says how many spaces a seven-point sweep would verify.
    # The cap is checked before the long-run flag, which cannot lift it
    def enumerated(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(finspace, "_preorder_rows", enumerated)
    for long_run in (True, False):
        with pytest.raises(BudgetExceeded, match=r"capped at 6 points, got 7; .*9535241 labeled topologies \(A000798\)"):
            sweep(7, long_run=long_run)
    for argv in (["sweep", "7", "--long"], ["sweep", "7"]):
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert "enumeration capped at 6 points" in err and "9535241" in err, argv
    with pytest.raises(BudgetExceeded, match="long-run flag"):
        sweep(6)


def test_long_run_refusal_names_the_requested_point_count(capsys):
    # five and six points both need the flag; each refusal names its own
    # count, in the library and the CLI
    for n in (5, 6):
        with pytest.raises(BudgetExceeded, match=rf"^sweep over {n} points requires the long-run flag$"):
            sweep(n)
    assert run_cli(["sweep", "6"]) == 2
    assert capsys.readouterr().err == "error: sweep over 6 points requires the long-run flag\n"


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
        assert run_check(cid, CheckEnv(sierpinski)).status in ALL_OK
    descriptions = [d for d, _ in corrupted_environments(sierpinski)]
    assert len(descriptions) == len(set(descriptions))


def test_mined_witness_self_validates(sierpinski):
    # re-evaluate a mined closure-singleton witness through public operations
    from limhyper import hyper_closure

    hit = mine_check_failures(sierpinski)["check_closure_singleton"]
    witness = dict(hit.result.witness)
    env = dict(corrupted_environments(sierpinski))[hit.description]
    t = env.topology("F", "w")
    elem = parse_point_set(witness["element"], default_labels(sierpinski.n))
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
    for space in [*spaces_upto(4), *bench_doc_spaces()]:
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
                    assert t.rows == hyper_table(env.carrier(kind), flavor).rows, (description, kind, flavor)
                    if kind != replaced:
                        assert shared.setdefault((kind, flavor), t) is t, (description, kind, flavor)
            envs.append(env)
        assert len(shared) == 10
        for env in envs:
            for cid in CHECKS:
                run_check(cid, env)
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


# sha256 of every mining hit on the spaces with n <= 4, one JSON line per
# hit: space digest, check, corruption, status, witness and notes. The
# compactness lemma's 385 hits, all on the cyclic (F,tau_w) table, name
# the row where its precheck fails ("not_a_topology_at")
GOLDEN_MINING_SHA256 = "767aa8765a23bc62f368aca07a31a27e561dba3446267194d372d6064378a9e3"


def test_every_mining_hit_is_golden():
    # all 4240 hits of all twelve checks, byte for byte: a change in which
    # corruption a check catches first, or in what it reports, moves the
    # hash
    h = hashlib.sha256()
    hits = 0
    for space in spaces_upto(4):
        for cid, hit in mine_check_failures(space).items():
            r = hit.result
            line = [digest(space), cid, hit.description, r.status, r.witness, r.notes]
            h.update(json.dumps(line).encode() + b"\n")
            hits += 1
    assert (hits, h.hexdigest()) == (4240, GOLDEN_MINING_SHA256)


def _witness_keys(witness, check):
    """The keys of a literal witness tuple, each with its value when that
    is a string constant: the name of one FAIL site within its check. A
    key that is not a string literal names no site, so it fails an
    assertion that gives the check and the key's line."""
    keys = []
    for key, value in (pair.elts for pair in witness.elts):
        assert isinstance(key, ast.Constant) and isinstance(key.value, str), (
            f"{check}, line {key.lineno}: witness key {ast.unparse(key)} is not a string literal"
        )
        keys.append(key.value + (f"={value.value}" if isinstance(value, ast.Constant) else ""))
    return ", ".join(keys)


def fail_sites(source=None):
    """Every place in ``theorems.py``, or in ``source`` when given, that
    makes a check fail, keyed by its function and its witness keys, mapped
    to the lines of its statement: each ``return CheckResult(..., FAIL,
    ...)`` and each raise of an error that ``run_check`` turns into a
    FAIL. A witness passed on by name is the one its helper returns."""
    if source is None:
        source = Path(theorems.__file__).read_text(encoding="utf-8")
    tree = ast.parse(source)
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    sites = {}
    for fn in funcs.values():
        for node in ast.walk(fn):
            call = getattr(node, "exc" if isinstance(node, ast.Raise) else "value", None)
            if not isinstance(node, (ast.Raise, ast.Return)) or not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", "")
            if isinstance(node, ast.Raise) and name in ("NotOpen", "NotInCarrier"):
                key = f"raise {name}"
            elif isinstance(node, ast.Return) and name == "CheckResult" and getattr(call.args[1], "id", "") == "FAIL":
                witness = next(k.value for k in call.keywords if k.arg == "witness")
                if isinstance(witness, ast.Name):
                    # ``ml, bad = helper(env)``: what the helper returns in that place
                    assign = next(
                        a for a in ast.walk(fn) if isinstance(a, ast.Assign)
                        and witness.id in [getattr(t, "id", "") for t in getattr(a.targets[0], "elts", ())]
                    )
                    pos = [t.id for t in assign.targets[0].elts].index(witness.id)
                    witness = next(
                        r.value.elts[pos] for r in ast.walk(funcs[assign.value.func.id])
                        if isinstance(r, ast.Return) and isinstance(r.value, ast.Tuple)
                        and isinstance(r.value.elts[pos], ast.Tuple)
                    )
                key = _witness_keys(witness, fn.name)
            else:
                continue
            assert (fn.name, key) not in sites, (fn.name, key)
            sites[fn.name, key] = set(range(node.lineno, node.end_lineno + 1))
    return sites


def lines_run(filename, fn):
    """The line numbers of ``filename`` that run while ``fn()`` runs."""
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename == filename else None)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return seen


# the FAIL sites that mining reaches on every space with n <= 3, the same
# as with n <= 4
MINED_FAIL_SITES = {
    ("check_closure_singleton", "element, closure, expected"),
    ("check_eta_closure_and_density", "closure_of_eta_image, limit_carrier"),
    ("check_eta_closure_and_density", "not_dense=ML in (L,tau_w)"),
    ("check_cont_iff_maximal", "element, continuous, maximal"),
    ("check_separated_iff_maximal", "element, separated, maximal"),
    ("check_connectedness", "clopen_component"),
    ("check_compactness_lemma", "not_a_topology_at"),
    ("check_local_compactness", "raise NotOpen"),
    ("check_baire", "carrier, not_a_topology_at"),
    ("check_gdelta_ML", "element, nbhd_leaks_to"),
    ("check_product_structure", "pair_in_closure_only"),
    ("check_separated_points_corollary", "separated_point_closures, maximal_point_closures"),
    ("check_separated_points_corollary", "not_tau_s_open_at"),
    ("check_conv_props", "cycle, target, fell_convergence, selection_conditions, primitive_characterization"),
    ("run_check", "structural_error"),
}

# the FAIL returns no corruption reaches: ROADMAP item 12 asks for a
# corruption that reaches each, or a proof that an earlier branch shadows
# it and its deletion
UNMINED_FAIL_SITES = {
    ("check_eta_closure_and_density", "not_dense=Fprime in (F,tau_w)"),
    ("check_eta_closure_and_density", "not_closed=L in (F,tau_w)"),
    ("check_eta_closure_and_density", "not_closed=L in (F,tau_s)"),
    ("check_cont_iff_maximal", "ml_member_outside_L"),
    ("check_separated_iff_maximal", "ml_member_outside_L"),
    ("check_gdelta_ML", "ml_member_outside_L"),
    ("check_cont_iff_maximal", "element, tau_w_nbhd, tau_s_nbhd"),
    ("check_local_compactness", "carrier, element"),
    ("check_product_structure", "not_a_topology_at"),
    ("check_separated_points_corollary", "not_dense_in_ML"),
}


def test_mining_reaches_the_listed_fail_sites():
    # mining every space with n <= 3 under a line tracer: a new FAIL branch
    # that no corruption reaches, or a listed one that stops being reached,
    # fails here
    sites = fail_sites()
    assert set(sites) == MINED_FAIL_SITES | UNMINED_FAIL_SITES and len(sites) == 25
    seen = lines_run(theorems.__file__, lambda: [mine_check_failures(space) for space in spaces_upto(3, start=1)])
    assert {key for key, lines in sites.items() if lines & seen} == MINED_FAIL_SITES


# one environment per unmined FAIL site, the first hits of exhaustive
# searches over the spaces with n <= 2 (ROADMAP item 12): (check, site,
# points, carrier put in place of the honest one as (kind, elements), table
# put in place of the honest one as (kind, flavor, rows))
UNMINED_SITE_ENVIRONMENTS = [
    # L emptied on the one-point space: ML's {a} lies outside it
    ("check_cont_iff_maximal", "ml_member_outside_L", 1, ("L", ()), None),
    ("check_separated_iff_maximal", "ml_member_outside_L", 1, ("L", ()), None),
    ("check_gdelta_ML", "ml_member_outside_L", 1, ("L", ()), None),
    # all-zero, so not reflexive, tables on the one-point space
    ("check_cont_iff_maximal", "element, tau_w_nbhd, tau_s_nbhd", 1, None, ("ML", "w", (0,))),
    ("check_eta_closure_and_density", "not_closed=L in (F,tau_s)", 1, None, ("F", "s", (0, 0))),
    ("check_local_compactness", "carrier, element", 1, None, ("F", "w", (0, 0))),
    ("check_product_structure", "not_a_topology_at", 1, None, ("L", "s", (0, 0))),
    # on the discrete two-point space
    ("check_separated_points_corollary", "not_dense_in_ML", 2, ("ML", (0b01, 0b10, 0b11)), None),
    ("check_eta_closure_and_density", "not_closed=L in (F,tau_w)", 2, None, ("F", "w", (2, 2, 2, 9))),
    ("check_eta_closure_and_density", "not_dense=Fprime in (F,tau_w)", 2, None, ("F", "w", (2, 2, 2, 0))),
]


def test_each_unmined_fail_site_fires_on_its_environment():
    # every site mining does not reach still fails its check, with that
    # site's witness keys, and runs that site's lines
    sites = fail_sites()
    assert {(cid, site) for cid, site, *_ in UNMINED_SITE_ENVIRONMENTS} == UNMINED_FAIL_SITES
    for cid, site, n, replaced_carrier, replaced_table in UNMINED_SITE_ENVIRONMENTS:
        space = validate_topology(n, range(1 << n))  # discrete
        cars = carriers(space)
        tables = {}
        if replaced_carrier is not None:
            kind, elements = replaced_carrier
            cars = {**cars, kind: HyperCarrier(space, kind, elements)}
        if replaced_table is not None:
            kind, flavor, rows = replaced_table
            tables[kind, flavor] = HyperTopology(cars[kind], flavor, rows)
        env = CheckEnv(space, carriers=cars, topologies=tables)
        got = []
        seen = lines_run(theorems.__file__, lambda: got.append(run_check(cid, env)))
        (result,) = got
        keys = ", ".join(key for key, _ in result.witness)
        if "=" in site:
            ((key, value),) = result.witness
            keys = f"{key}={value}"
        assert (result.status, keys) == (FAIL, site), (cid, site, result)
        assert sites[cid, site] & seen, (cid, site)


def test_fail_sites_refuse_a_witness_key_that_is_not_a_literal():
    source = """
def check_named_key(env):
    key = "element"
    if env:
        return CheckResult("check_named_key", FAIL, witness=((key, env.fmt(0)),))
    return CheckResult("check_named_key", PASS)
"""
    with pytest.raises(AssertionError, match=r"check_named_key, line 5: witness key key is not a string literal"):
        fail_sites(source)
    assert set(fail_sites(source.replace("(key,", '("element",'))) == {("check_named_key", "element")}


def test_sequence_and_product_checks_are_exact():
    # what `sweep 4` and `verify` on the benchmark documents run: neither
    # check samples, and every in-budget sequence is counted
    for space in [*enumerate_topologies(4), *bench_doc_spaces()]:
        env = CheckEnv(space)
        product = run_check("check_product_structure", env)
        conv = run_check("check_conv_props", env)
        baire = run_check("check_baire", env)
        assert (product.status, conv.status, baire.status) == (PASS, PROXY, TRIVIALLY_TRUE)
        assert all("sampled" not in r.notes for r in (product, conv, baire))
        k = len(carrier(space, "F").elements)
        cycles, seqs = map(int, re.search(r"(\d+) cycles, (\d+) sequences", conv.notes).groups())
        assert (cycles, seqs) == (k + k * k, (1 + k) * (k + k * k))


def reflexive_relation(rng, k):
    """A random reflexive table on k indices at a random density: mostly
    not transitive."""
    p = rng.random() / 2
    return tuple(1 << i | mask_of(j for j in range(k) if rng.random() < p) for i in range(k))


def transitive_closure(rows):
    """The least transitive table above a reflexive one: each row takes in
    the rows of its members until nothing changes. ``from_preorder`` closes
    the same way but then lists every open, up to 2^k of them."""
    rows = list(rows)
    changed = True
    while changed:
        changed = False
        for i, row in enumerate(rows):
            grown = union_of(rows, row)
            if grown != row:
                rows[i], changed = grown, True
    return tuple(rows)


def with_tables(space, kinds, rng):
    """One environment per kind, its honest (kind, tau_w) table replaced by
    a random reflexive relation, and one by that relation's transitive
    closure, a random preorder table."""
    cars = carriers(space)
    for kind in kinds:
        car = cars[kind]
        relation = reflexive_relation(rng, len(car))
        for rows in (relation, transitive_closure(relation)):
            yield CheckEnv(space, carriers=cars, topologies={(kind, "w"): HyperTopology(car, "w", rows)})


def test_exact_baire_matches_dense_open_enumeration():
    # the honest and corrupted (L, Lprime, ML; tau_w) tables of every space
    # on at most four points, and random reflexive and preorder tables on
    # those carriers: wherever a table passes the precheck, the meet of its
    # dense opens, enumerated by the oracle, is dense, and the check is
    # trivially_true exactly when all three tables pass; a table that is
    # not a topology's (the cyclic and most random relations) fails the
    # check at the precheck
    rng = random.Random(19)
    exact = passed = rejected = 0
    for space in spaces_upto(4, start=1):
        envs = [CheckEnv(space)] + [env for _, env in corrupted_environments(space)]
        envs += with_tables(space, ("L", "Lprime", "ML"), rng)
        for env in envs:
            tables = [env.topology(kind, "w") for kind in ("L", "Lprime", "ML")]
            prechecks = [_not_a_topology_at(t) for t in tables]
            for t, a in zip(tables, prechecks):
                if a is None:
                    assert is_dense(t, dense_open_meet_oracle(t))
                    exact += 1
            result = run_check("check_baire", env)
            if prechecks == [None] * 3:
                assert result.status == TRIVIALLY_TRUE
                passed += 1
            else:
                assert result.status == FAIL
                assert [key for key, _ in result.witness] == ["carrier", "not_a_topology_at"]
                rejected += 1
    assert exact > 15000 and passed > 5000 and rejected > 500


def test_local_compactness_matches_per_open_construction():
    # the honest and every corrupted environment of each space on at most
    # four points and of the benchmark documents; environments whose four
    # tau_w tables coincide are run once
    seen = set()
    statuses = []
    for space in [*spaces_upto(4), *bench_doc_spaces()]:
        for env in [CheckEnv(space)] + [env for _, env in corrupted_environments(space)]:
            tables = [env.topology(kind, "w") for kind in ("F", "Fprime", "L", "Lprime")]
            key = (space, tuple((t.carrier.elements, t.rows) for t in tables))
            if key in seen:
                continue
            seen.add(key)
            got = run_check("check_local_compactness", env)
            try:
                want = per_open_local_compactness(env)
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


def test_compactness_checks_are_decided_by_the_precheck():
    # the honest and every corrupted environment of each space on at most
    # four points and of the benchmark documents, and random reflexive and
    # preorder tables on F, Fprime, L and Lprime: each compactness check is
    # trivially_true exactly when the tau_w tables it reads are a
    # topology's. Every table here is reflexive; on a table that is not,
    # the cover loop can pass where the precheck fails, so such tables are
    # left out of the equality
    rng = random.Random(20)
    kinds = ("F", "Fprime", "L", "Lprime")
    seen = set()
    outcomes = set()
    for space in [*spaces_upto(4, start=1), *bench_doc_spaces()]:
        envs = [CheckEnv(space)] + [env for _, env in corrupted_environments(space)]
        if space.n <= 4:
            envs += with_tables(space, kinds, rng)
        for env in envs:
            tables = [env.topology(kind, "w") for kind in kinds]
            key = (space, tuple((t.carrier.elements, t.rows) for t in tables))
            if key in seen:
                continue
            seen.add(key)
            assert all((row >> a) & 1 for t in tables for a, row in enumerate(t.rows))
            prechecks = [_not_a_topology_at(t) is None for t in tables]
            lemma = run_check("check_compactness_lemma", env).status == TRIVIALLY_TRUE
            local = run_check("check_local_compactness", env).status == TRIVIALLY_TRUE
            assert lemma == prechecks[0]
            assert local == all(prechecks)
            outcomes.add((lemma, local))
    assert len(seen) > 1000 and outcomes == {(True, True), (False, False), (True, False)}


# ----------------------------------- the checks against their definitions

def conv_props_against_oracle(spaces, budgets):
    """Run ``check_conv_props`` and ``oracle.per_cycle_conv_props`` at each
    budget on the honest and every corrupted environment of each space,
    and assert that status and witness agree, and the notes too at the
    oracle's default budget, the one the check's note counts. The check
    reads only F and its two tables, so environments that share them are
    run once. Returns the statuses seen."""
    seen = set()
    statuses = []
    for space in spaces:
        for env in [CheckEnv(space)] + [env for _, env in corrupted_environments(space)]:
            key = (space, env.carrier("F").elements, env.topology("F", "w").rows, env.topology("F", "s").rows)
            if key in seen:
                continue
            seen.add(key)
            got = check_conv_props(env)
            for max_pre, max_cycle in budgets:
                want = per_cycle_conv_props(env, max_pre=max_pre, max_cycle=max_cycle)
                assert (got.status, got.witness) == (want.status, want.witness)
                if (max_pre, max_cycle) == (1, 2):
                    assert got.notes == want.notes
            statuses.append(got.status)
    return statuses


def test_conv_props_per_set_matches_per_cycle_loop():
    # "per set" is the check, which decides each set of cycle terms once,
    # and "per cycle" is ``oracle.per_cycle_conv_props``, which decides
    # every ordered cycle. Each space on at most three points: the longer
    # budgets reach cycles of three terms and preperiods of two, so every
    # set of cycle terms the check folds is compared with each of its
    # orderings in the oracle
    statuses = conv_props_against_oracle(spaces_upto(3), ((1, 2), (0, 1), (2, 3)))
    assert set(statuses) == {PROXY, FAIL}


def test_conv_props_single_terms_match_per_set_loop():
    # the name is historical: the per-set loop the check was first
    # compared with is gone, and the reference is
    # ``oracle.per_cycle_conv_props``, as above. Each space on four points
    # and each benchmark document over the single-term cycles, where a set
    # of terms is one term: every term against every target
    statuses = conv_props_against_oracle([*spaces_upto(4, start=4), *bench_doc_spaces()], ((0, 1),))
    assert set(statuses) == {PROXY, FAIL}


def test_conv_props_names_a_target_strictly_above_the_closure(discrete2):
    # F of the discrete two-point space, {} {a} {b} {a,b}, with its honest
    # Fell table widened so that {a} lies in the minimal neighborhood of
    # {a,b}: the constant sequence at {a} Fell-converges to {a,b} too. That
    # target lies strictly above the closure {a} of the term, where the
    # selection conditions fail, so the witness reads false there; a
    # selection mask widened to every superset of the closure would read
    # true, which no honest or corrupted environment shows
    cars = carriers(discrete2)
    f = cars["F"]
    rows = list(build_topology(f, "s").rows)
    rows[3] |= 1 << 1
    env = CheckEnv(discrete2, carriers=cars, topologies={("F", "s"): HyperTopology(f, "s", tuple(rows))})
    got = check_conv_props(env)
    assert (got.status, got.witness) == (
        FAIL,
        (
            ("cycle", "({a})"),
            ("target", "{a,b}"),
            ("fell_convergence", "true"),
            ("selection_conditions", "false"),
            ("primitive_characterization", "false"),
        ),
    )
    assert got == per_cycle_conv_props(env)


def test_conv_props_on_an_empty_carrier(sierpinski):
    # no space has an empty F carrier, but a hand-built one is decided
    # like any other: no term fails, and the note counts nothing
    env = CheckEnv(sierpinski, carriers={**carriers(sierpinski), "F": HyperCarrier(sierpinski, "F", ())})
    got = run_check("check_conv_props", env)
    assert got == per_cycle_conv_props(env)
    assert (got.status, got.witness) == (PROXY, ())
    assert "0 cycles, 0 sequences" in got.notes


def test_checks_never_build_near_on_an_honest_carrier(monkeypatch):
    # every honest carrier records ``closed``, so no check and no
    # ``build_topology`` call ORs ``holding`` over minimal neighborhoods on
    # such a carrier to decide it; only mining's corrupted carriers are
    # decided, and on those holding a non-closed set every check reads the
    # tables ``_non_closed_tables`` builds
    decided = []
    closed = HyperCarrier.__dict__["closed"]
    compute = closed.func

    def recording(car):
        decided.append(car)
        return compute(car)

    monkeypatch.setattr(closed, "func", recording)
    total = 0
    for space in spaces_upto(4, start=1):
        decided.clear()
        honest = carriers(space)
        env = CheckEnv(space)
        for cid in CHECKS:
            run_check(cid, env)
        for _, env in corrupted_environments(space):
            for cid in CHECKS:
                run_check(cid, env)
            for kind in CARRIER_KINDS:
                car = env.carrier(kind)
                if not car.closed:
                    for flavor in FLAVORS:
                        assert env.topology(kind, flavor).rows == _non_closed_tables(car)[kind, flavor].rows
        assert all(car != honest[car.kind] for car in decided), space
        total += len(decided)
    assert total > 1900, total


def _first_non_closed_by_scan(space):
    """The first set in canonical order that is not closed, found by
    sorting all 2^n subsets: the reference for mining's pick."""
    closed = {space.full ^ u for u in space.opens}
    subsets = sorted(range(space.full + 1), key=canonical_key)
    return next((m for m in subsets if m not in closed), None)


def test_closed_sets_order_and_the_non_closed_pick_match_their_scans():
    # ``closed_sets`` reverses the canonical opens instead of sorting, and
    # mining injects a non-closed singleton instead of scanning every
    # subset; both against the sort they replace, on every space with
    # n <= 5 and the four benchmark documents
    injected_into = {"non-closed set injected into F": "F", "non-closed set injected into L": "L"}
    for space in [*spaces_upto(5), *bench_doc_spaces()]:
        closed = closed_sets(space)
        assert closed == tuple(sorted((space.full ^ u for u in space.opens), key=canonical_key)), space
        expected = _first_non_closed_by_scan(space)
        picked = {}
        for description, env in corrupted_environments(space):
            kind = injected_into.get(description)
            if kind is not None:
                (picked[kind],) = set(env.carrier(kind).elements).difference(closed)
        if expected is None:
            assert picked == {}, space
        else:
            assert picked["F"] == expected, space
            assert picked.get("L") == (expected if is_limit_set(space, expected) else None), space


def test_carrier_elements_have_distinct_subsets_masks(carrier_corpus):
    # what makes the primitive side of a term one target at most
    for car in carrier_corpus:
        assert len(set(car.subsets)) == len(car), car


def test_closure_singleton_matches_element_scan():
    # the honest and every corrupted environment of each space on at most
    # four points and of the benchmark documents: the closure of element
    # i, read off the rows as the j whose minimal neighborhood holds i,
    # against the elements inside element i; the check fails exactly when
    # some element differs, and names the first with both sets
    statuses = []
    for space in [*spaces_upto(4), *bench_doc_spaces()]:
        for env in [CheckEnv(space)] + [env for _, env in corrupted_environments(space)]:
            t = env.topology("F", "w")
            elems = t.carrier.elements
            differ = []
            for i, a in enumerate(elems):
                got = mask_of(j for j, row in enumerate(t.rows) if (row >> i) & 1)
                expected = mask_of(j for j, b in enumerate(elems) if not b & ~a)
                if got != expected:
                    differ.append(
                        (
                            ("element", env.fmt(a)),
                            ("closure", env.fmt_indices(t.carrier, got)),
                            ("expected", env.fmt_indices(t.carrier, expected)),
                        )
                    )
            result = run_check("check_closure_singleton", env)
            assert (result.status, result.witness) == ((FAIL, differ[0]) if differ else (PASS, ()))
            statuses.append(result.status)
    assert set(statuses) == {PASS, FAIL}
