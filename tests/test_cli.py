import hashlib
import itertools
import json
import random
import subprocess
import sys

import pytest

from conftest import BENCH_DOCS, DOC_NAMES, spaces_upto
from limhyper import ParseError, build_topology, carrier, carriers, cli, parse_space, validate_topology
from limhyper.cli import run
from limhyper.finspace import default_labels, digest, mask_of, set_repr
from limhyper.hyperspace import FLAVORS
from limhyper.limitsets import CARRIER_KINDS
from limhyper.oracle import family_repr_oracle, pairwise_separated, set_repr_oracle

SIERPINSKI = '{"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]]}'
THREE_POINT = (
    '{"points": ["a", "b", "c"],'
    ' "opens": [[], ["a"], ["b"], ["a", "b"], ["a", "b", "c"]]}'
)


@pytest.fixture
def sierpinski_file(tmp_path):
    p = tmp_path / "sierpinski.json"
    p.write_text(SIERPINSKI)
    return str(p)


@pytest.fixture
def three_point_file(tmp_path):
    p = tmp_path / "threept.json"
    p.write_text(THREE_POINT)
    return str(p)


def test_validate_ok(sierpinski_file, capsys):
    assert run(["validate", sierpinski_file]) == 0
    out = capsys.readouterr().out
    assert "valid: 2 points, 3 open sets" in out
    assert "opens: {} {a} {a,b}" in out


def test_validate_axiom_failure(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"points": ["a", "b"], "opens": [[], ["a"], ["b"]]}')
    assert run(["validate", str(p)]) == 1
    assert "invalid:" in capsys.readouterr().out


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "broken.json"
    points = [f"p{i}" for i in range(17)]
    for text in ("{", json.dumps({"points": points, "opens": [[], points]})):
        p.write_text(text)
        assert run(["validate", str(p)]) == 2
        assert "error:" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert run(["verify", "/nonexistent/space.json"]) == 2


def test_usage_error_exit_code(capsys):
    assert run(["frobnicate"]) == 2


def test_verify_text_and_exit(sierpinski_file, capsys):
    assert run(["verify", sierpinski_file]) == 0
    out = capsys.readouterr().out
    assert "check_cont_iff_maximal: pass" in out
    assert "check_conv_props: proxy" in out


def test_verify_json(sierpinski_file, capsys):
    assert run(["verify", sierpinski_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    status = {c["check_id"]: c["status"] for c in doc["checks"]}
    assert status["check_gdelta_ML"] == "pass"


def test_report_default_carrier(sierpinski_file, capsys):
    assert run(["report", sierpinski_file]) == 0
    out = capsys.readouterr().out
    assert "carrier: F  topology: tau_w  elements: 3" in out
    assert "{b}: min_nbhd=[{b} {a,b}] closure=[{} {b}] ml=no separated=no" in out


def test_report_is_deterministic(three_point_file, capsys):
    run(["report", three_point_file, "--carrier", "L"])
    first = capsys.readouterr().out
    run(["report", three_point_file, "--carrier", "L"])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("name", DOC_NAMES)
def test_report_matches_reference_formatter_on_benchmark_documents(name, capsys):
    # every carrier and topology of each document, byte for byte, against
    # the report rendered from the definitions: an element's minimal
    # neighborhood is its row of the table, its closure the elements whose
    # row holds it, and separation is pairwise, for the points as for the
    # elements; every set and family is written by the oracle's point by
    # point formatter
    path = BENCH_DOCS / f"{name}.json"
    doc = parse_space(path.read_text())
    space, labels = doc.space, doc.labels
    n = space.n
    cars = carriers(space)
    separated = mask_of(y for y in range(n) if pairwise_separated(space.rows, y))
    head = [
        f"space: n={n} digest={digest(space)}",
        "points: " + set_repr_oracle(space.full, n, labels),
        "opens: " + " ".join(set_repr_oracle(u, n, labels) for u in space.opens),
        "separated points: " + set_repr_oracle(separated, n, labels),
    ]
    for kind in CARRIER_KINDS:
        elems = cars[kind].elements
        for flavor in FLAVORS:
            rows = build_topology(cars[kind], flavor).rows
            lines = head + [f"carrier: {kind}  topology: tau_{flavor}  elements: {len(elems)}"]
            for i, m in enumerate(elems):
                nbhd = family_repr_oracle((b for j, b in enumerate(elems) if (rows[i] >> j) & 1), n, labels)
                clo = family_repr_oracle((b for b, row in zip(elems, rows) if (row >> i) & 1), n, labels)
                is_ml = "yes" if m in cars["ML"].elements else "no"
                sep = "yes" if pairwise_separated(rows, i) else "no"
                lines.append(f"{set_repr_oracle(m, n, labels)}: min_nbhd={nbhd} closure={clo} ml={is_ml} separated={sep}")
            assert run(["report", str(path), "--carrier", kind, "--topology", flavor]) == 0
            got, want = capsys.readouterr().out, "\n".join(lines) + "\n"
            # a bare bool keeps pytest from diffing hundreds of long lines
            same = got == want
            assert same, (kind, flavor, next((p for p in zip(got.splitlines(), want.splitlines()) if p[0] != p[1]), None))


# sha256 of what the document commands print, one JSON line per command:
# document name, command without the file, exit code and stdout
GOLDEN_DOC_SHA256 = "183ca662a66d64d3c6a7f691b4deab08ba7557a62fb3541c1626de1b782f86c0"


def test_document_command_output_is_golden(capsys):
    # validate, every report, verify and verify --json on the four
    # documents with their labels in file order, byte for byte: every
    # report reads the carrier tables, and verify reads them all
    commands = [["validate"]]
    commands += [["report", "--carrier", kind, "--topology", flavor] for kind in CARRIER_KINDS for flavor in FLAVORS]
    commands += [["verify"], ["verify", "--json"]]
    h = hashlib.sha256()
    for name in DOC_NAMES:
        path = str(BENCH_DOCS / f"{name}.json")
        for command in commands:
            code = run([command[0], path, *command[1:]])
            h.update(json.dumps([name, *command, code, capsys.readouterr().out]).encode() + b"\n")
    assert h.hexdigest() == GOLDEN_DOC_SHA256


def test_report_builds_the_carriers_once(monkeypatch, capsys):
    calls = []

    def counted(space):
        calls.append(space)
        return carriers(space)

    monkeypatch.setattr(cli, "carriers", counted)
    monkeypatch.setattr(cli, "carrier", None)  # a per-kind build would raise
    for kind in ("F", "ML"):
        assert run(["report", str(BENCH_DOCS / "discrete7.json"), "--carrier", kind]) == 0
    capsys.readouterr()
    assert len(calls) == 2


def test_sweep_three(capsys):
    assert run(["sweep", "3"]) == 0
    assert capsys.readouterr().out == "29 spaces, 0 failures\n"


def test_run_builds_the_parser_once(monkeypatch, capsys):
    built = []
    build_parser = cli.build_parser

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert run(["sweep", "2"]) == 0
    finally:
        cli._parser.cache_clear()
    assert capsys.readouterr().out == "4 spaces, 0 failures\n" * 3
    assert built == [1]


def test_sweep_refuses_worker_counts_below_one(capsys):
    assert run(["sweep", "2", "--jobs", "-4"]) == 2
    assert capsys.readouterr() == ("", "error: jobs must be at least 1, got -4\n")


def test_sweep_five_needs_long_flag(capsys):
    assert run(["sweep", "5"]) == 2
    assert "long-run" in capsys.readouterr().err


def test_converge_tau_w(sierpinski_file, capsys):
    rc = run(
        [
            "converge",
            sierpinski_file,
            "--seq",
            "pre:[];cyc:[{b},{a,b}]",
            "--target",
            "{b}",
            "--topology",
            "w",
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out == "limit: yes\n"


def test_converge_tau_s(sierpinski_file, capsys):
    rc = run(
        [
            "converge",
            sierpinski_file,
            "--seq",
            "pre:[{}];cyc:[{a,b}]",
            "--target",
            "{a,b}",
            "--topology",
            "s",
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out == "limit: yes\n"


def test_converge_rejects_non_closed_target(sierpinski_file, capsys):
    rc = run(
        ["converge", sierpinski_file, "--seq", "pre:[];cyc:[{b}]", "--target", "{a}"]
    )
    assert rc == 2
    assert "closed" in capsys.readouterr().err


def test_converge_refuses_an_empty_cycle(sierpinski_file, capsys):
    # _parse_seq refuses an empty cycle once both parts are read
    rc = run(["converge", sierpinski_file, "--seq", "pre:[];cyc:[]", "--target", "{}"])
    assert rc == 2
    assert capsys.readouterr() == ("", "error: cycle must be nonempty\n")


def test_converge_refuses_a_bad_preperiod_term_before_an_empty_cycle(sierpinski_file, capsys):
    # the preperiod is read and checked though no verdict reads it, so its
    # non-closed term is refused before the empty cycle is
    rc = run(["converge", sierpinski_file, "--seq", "pre:[{a}];cyc:[]", "--target", "{}"])
    assert rc == 2
    assert capsys.readouterr() == ("", "error: {a} is not a closed set of the space\n")


def test_converge_answers_the_same_with_any_closed_preperiod(tmp_path, capsys):
    # convergence is a tail property: on every space with n <= 2, every F
    # cycle of at most two terms against every closed target in both
    # flavors answers with a closed one-term preperiod as with none
    answers = set()
    for k, space in enumerate(spaces_upto(2)):
        labels = default_labels(space.n)
        path = tmp_path / f"space{k}.json"
        opens = [[labels[x] for x in range(space.n) if (u >> x) & 1] for u in space.opens]
        path.write_text(json.dumps({"points": list(labels), "opens": opens}))
        names = [set_repr(m, labels) for m in carrier(space, "F").elements]
        cycles = [",".join(c) for size in (1, 2) for c in itertools.product(names, repeat=size)]
        for flavor, cyc, target in itertools.product(FLAVORS, cycles, names):
            outcomes = set()
            for pre in ["", *names]:
                argv = ["converge", str(path), "--seq", f"pre:[{pre}];cyc:[{cyc}]", "--target", target]
                outcomes.add((run(argv + ["--topology", flavor]), capsys.readouterr()))
            assert len(outcomes) == 1, (space, flavor, cyc, target, outcomes)
            answers |= outcomes
    assert {(rc, err) for rc, (_, err) in answers} == {(0, "")}
    assert {out for _, (out, _) in answers} == {"limit: yes\n", "limit: no\n"}


def test_console_entry_point(sierpinski_file):
    proc = subprocess.run(
        [sys.executable, "-m", "limhyper.cli", "validate", sierpinski_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "valid" in proc.stdout


# Modules that no document command runs: a fresh `import limhyper` and a
# `validate` load none of them, and a one-process sweep loads none but
# the hash that its digests need
COLD_START = """
import json, sys
LAZY = ("hashlib", "multiprocessing", "limhyper.oracle", "dataclasses", "inspect")
import limhyper
loaded = [[m for m in LAZY if m in sys.modules]]
from limhyper import cli
code = cli.run(["validate", sys.argv[1]])
loaded.append([m for m in LAZY if m in sys.modules])
limhyper.sweep(3, jobs=1)
loaded.append([m for m in LAZY[1:] if m in sys.modules])
print(json.dumps([code, loaded]))
"""

ORACLE_EXPORTS = (
    "S_of",
    "basic_open_membership",
    "conv1_conditions",
    "inclusion_relation",
    "is_hausdorff",
    "is_limit_set_oracle",
    "min_nbhd_oracle",
    "product_min_nbhd",
)


def test_fresh_import_loads_only_what_a_command_runs(sierpinski_file):
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, sierpinski_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == [[], [], []]


def test_oracle_functions_live_in_the_oracle_module_only():
    # the oracle's functions are read from limhyper.oracle alone; the
    # package holds none of them under a second name
    import limhyper
    import limhyper.oracle

    listed = dir(limhyper)
    for name in ORACLE_EXPORTS:
        assert callable(getattr(limhyper.oracle, name))
        assert not hasattr(limhyper, name), name
        assert name not in listed, name


def test_unreadable_path_is_a_usage_error(tmp_path, capsys):
    # a directory is an OSError other than FileNotFoundError; exit 1 is
    # kept for a detected check failure
    for argv in (
        ["validate", str(tmp_path)],
        ["report", str(tmp_path)],
        ["verify", str(tmp_path)],
        ["converge", str(tmp_path), "--seq", "pre:[];cyc:[{a}]", "--target", "{a}"],
    ):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


def grammar_parts(max_len):
    """Every sequence part of at most ``max_len`` characters over braces,
    ',', '|', spaces and the labels a, b that the ``--seq`` grammar
    generates, mapped to the point sets its groups name: spaces, then
    nothing or {...} groups joined by a comma with spaces after it or by a
    bar with spaces around it, then spaces. A group holds only spaces (the
    empty set) or labels separated by commas, spaces around each."""
    groups = {}
    for k in range(max_len - 1):
        for inner in map("".join, itertools.product(" ,ab", repeat=k)):
            names = [name.strip() for name in inner.split(",")]
            if names == [""]:
                groups["{" + inner + "}"] = 0
            elif all(name in ("a", "b") for name in names):
                groups["{" + inner + "}"] = mask_of("ab".index(name) for name in names)
    seps = [",", "|"] + [sep + " " * k for k in range(1, max_len) for sep in (",", "|")]
    seps += [" " * i + "|" + " " * k for k in range(max_len) for i in range(1, max_len)]
    chains = frontier = {text: (mask,) for text, mask in groups.items()}
    while frontier:
        frontier = {
            text + sep + group: terms + (mask,)
            for text, terms in frontier.items()
            for sep in seps
            for group, mask in groups.items()
            if len(text + sep + group) <= max_len
        }
        chains = {**chains, **frontier}
    chains[""] = ()
    return {
        " " * i + text + " " * j: terms
        for text, terms in chains.items()
        for i in range(max_len + 1)
        for j in range(max_len + 1 - i - len(text))
    }


def test_parse_seq_accepts_exactly_what_the_grammar_generates():
    # every part of up to five characters over braces, separators, spaces
    # and the labels of the discrete two-point space, as the cycle and as
    # the preperiod: the parser accepts exactly the parts the grammar
    # generates and reads each cycle back as the sets its groups name, so
    # bare labels, doubled, leading or trailing separators and empty slots
    # are refused. On the discrete two-point space each subset is closed,
    # and its F index is its mask
    labels, fcar = ("a", "b"), carrier(validate_topology(2, range(4)), "F")
    assert fcar.elements == (0, 1, 2, 3)
    language = grammar_parts(5)

    def outcome(spec):
        # the cycle read, or None for a refusal: every refusal, the empty
        # cycle's included, is a ParseError, which run answers with exit
        # code 2; the preperiod is checked and dropped
        try:
            return cli._parse_seq(spec, labels, fcar)
        except ParseError:
            return None

    accepted = 0
    for length in range(6):
        for part in map("".join, itertools.product("{},| ab", repeat=length)):
            terms = language.get(part)
            assert outcome(f"pre:[];cyc:[{part}]") == (terms or None), part
            assert outcome(f"pre:[{part}];cyc:[{{a}}]") == (None if terms is None else (1,)), part
            accepted += terms is not None
    assert accepted == len(language) == 62 and {"{},{}", "{}|{}"} <= language.keys()
    # longer sequences written as the grammar allows: terms with spaces
    # inside the braces, separated by a comma with or without whitespace
    # after it or by a '|' with or without spaces around it, a preperiod
    # that may be empty and spaces around the whole; each cycle reads back
    # as the closed sets it was written from, and a brace, a '|' or ',,' put
    # anywhere in either part, which no position makes grammatical, is
    # refused
    spellings = {0: ["{}", "{ }"], 1: ["{a}", "{ a }"], 2: ["{b}", "{b }"], 3: ["{a,b}", "{ b , a }", "{b,a}"]}
    separators = [",", ", ", ",\t", "|", " | ", " |", "| "]
    rng = random.Random(7)

    def write(terms):
        text = rng.choice(spellings[terms[0]]) if terms else ""
        for t in terms[1:]:
            text += rng.choice(separators) + rng.choice(spellings[t])
        return " " * rng.randint(0, 1) + text

    for _ in range(2000):
        pre = tuple(rng.randrange(4) for _ in range(rng.randint(0, 3)))
        cyc = tuple(rng.randrange(4) for _ in range(rng.randint(1, 4)))
        bodies = [write(pre), write(cyc)]
        spec = " " * rng.randint(0, 1) + "pre:[{}];cyc:[{}]".format(*bodies)
        assert outcome(spec) == cyc, spec
        part = rng.randrange(2)
        at = rng.randint(0, len(bodies[part]))
        bodies[part] = bodies[part][:at] + rng.choice(["{", "}", "|", ",,"]) + bodies[part][at:]
        spec = "pre:[{}];cyc:[{}]".format(*bodies)
        assert outcome(spec) is None, spec
    # the last two lack the ']' closing the preperiod
    for spec in (
        "pre:[];cyc:[{b}{a}]",
        "pre:[];cyc:[{a} ,{b}]",
        "pre:[];cyc:[{a},]",
        "pre:[];cyc:[{a|b}]",
        "pre:[{a}x;cyc:[{b}]",
        "pre:[;cyc:[{a}]",
    ):
        assert outcome(spec) is None, spec


BAR_LABELS = '{"points": ["a|b", "c"], "opens": [[], ["a|b"], ["a|b", "c"]]}'
PLAIN_LABELS = '{"points": ["a", "c"], "opens": [[], ["a"], ["a", "c"]]}'


def test_converge_reads_labels_holding_a_bar(tmp_path, capsys):
    bar, plain = tmp_path / "bar.json", tmp_path / "plain.json"
    bar.write_text(BAR_LABELS)
    plain.write_text(PLAIN_LABELS)
    answers = []
    for flavor in FLAVORS:
        for target in ("{}", "{c}", "{a,c}"):
            for spec in ("pre:[];cyc:[{c},{a,c}]", "pre:[{}];cyc:[{a, c}]", "pre:[{c}];cyc:[{}]"):
                outcomes = []
                for path, name in ((bar, "a|b"), (plain, "a")):
                    argv = ["converge", str(path), "--seq", spec.replace("a", name), "--target", target.replace("a", name)]
                    outcomes.append((run(argv + ["--topology", flavor]), capsys.readouterr().out))
                assert outcomes[0] == outcomes[1], (flavor, target, spec)
                answers.append(outcomes[0])
    assert {rc for rc, _ in answers} == {0}
    assert {out for _, out in answers} == {"limit: yes\n", "limit: no\n"}


def test_converge_reads_a_label_holding_the_cycle_marker(tmp_path, capsys):
    # ';cyc:[' inside a {...} group is part of a label, not the start of
    # the cycle part
    marked, plain = tmp_path / "marked.json", tmp_path / "plain.json"
    marked.write_text('{"points": ["x;cyc:[y", "c"], "opens": [[], ["x;cyc:[y"], ["c"], ["x;cyc:[y", "c"]]}')
    plain.write_text('{"points": ["x", "c"], "opens": [[], ["x"], ["c"], ["x", "c"]]}')
    outcomes = []
    for path, name in ((marked, "x;cyc:[y"), (plain, "x")):
        argv = ["converge", str(path), "--seq", f"pre:[{{{name}}}];cyc:[{{c}}]", "--target", "{c}"]
        outcomes.append((run(argv), capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 0 and outcomes[0][1].out == "limit: yes\n" and outcomes[0][1].err == ""
