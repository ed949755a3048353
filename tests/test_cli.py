import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from limhyper import EvPerSeq, ParseError, build_topology, carrier, carriers, cli, is_separated_in, parse_space
from limhyper.cli import run
from limhyper.finspace import bits, digest, family_repr, separated_points, set_repr
from limhyper.hyperspace import FLAVORS
from limhyper.limitsets import CARRIER_KINDS
from limhyper.spaceio import parse_point_set

BENCH_DOCS = Path(__file__).resolve().parents[1] / "perfbench" / "docs"

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
    p.write_text("{")
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


def reference_report(path, kind, flavor):
    """The report as each line was once built: every neighborhood and
    closure re-formatted and re-sorted through family_repr."""
    doc = parse_space(Path(path).read_text())
    space, labels = doc.space, doc.labels
    car = carrier(space, kind)
    top = build_topology(car, flavor)
    ml = set(carrier(space, "ML").elements)
    lines = [
        f"space: n={space.n} digest={digest(space)}",
        "points: " + set_repr(space.full, labels),
        "opens: " + " ".join(set_repr(u, labels) for u in space.opens),
        "separated points: " + set_repr(separated_points(space), labels),
        f"carrier: {kind}  topology: tau_{flavor}  elements: {len(car.elements)}",
    ]
    for i, m in enumerate(car.elements):
        nbhd = family_repr((car.elements[j] for j in bits(top.rows[i])), labels)
        clo = family_repr((car.elements[j] for j in bits(top.cols[i])), labels)
        is_ml = "yes" if m in ml else "no"
        sep = "yes" if is_separated_in(top, i) else "no"
        lines.append(f"{set_repr(m, labels)}: min_nbhd={nbhd} closure={clo} ml={is_ml} separated={sep}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", ["discrete7", "discrete8", "chain16", "bipartite10"])
def test_report_matches_reference_formatter_on_benchmark_documents(name, capsys):
    path = str(BENCH_DOCS / f"{name}.json")
    for kind in CARRIER_KINDS:
        for flavor in FLAVORS:
            assert run(["report", path, "--carrier", kind, "--topology", flavor]) == 0
            got, want = capsys.readouterr().out, reference_report(path, kind, flavor)
            # a bare bool keeps pytest from diffing hundreds of long lines
            same = got == want
            assert same, (kind, flavor, next((p for p in zip(got.splitlines(), want.splitlines()) if p[0] != p[1]), None))


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


def test_sweep_names_a_bad_lh_jobs(monkeypatch, capsys):
    monkeypatch.setenv("LH_JOBS", "two")
    assert run(["sweep", "2"]) == 2
    assert capsys.readouterr().err == "error: LH_JOBS must be an integer, got 'two'\n"


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


def test_console_entry_point(sierpinski_file):
    proc = subprocess.run(
        [sys.executable, "-m", "limhyper.cli", "validate", sierpinski_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "valid" in proc.stdout


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


def split_parse_seq(spec, labels, closed_elems):
    """``_parse_seq`` as it split the terms on a '|' sentinel, before it
    read them as {...} groups; kept as the reference for labels without
    '|'."""
    spec = spec.strip()
    if not spec.startswith("pre:[") or ";cyc:[" not in spec or not spec.endswith("]"):
        raise ParseError("sequence must look like pre:[{a},...];cyc:[{b},...]")
    pre_part, cyc_part = spec.split(";cyc:[", 1)

    def parse_terms(body):
        body = body.strip()
        if not body:
            return ()
        terms = []
        for piece in body.replace("},", "}|").split("|"):
            mask = parse_point_set(piece, labels)
            try:
                terms.append(closed_elems.index(mask))
            except ValueError:
                raise ParseError("not closed") from None
        return tuple(terms)

    pre = parse_terms(pre_part[len("pre:["):-1])
    cyc = parse_terms(cyc_part[:-1])
    if not cyc:
        raise ParseError("cycle part must be nonempty")
    return EvPerSeq(pre, cyc)


def _seq_outcome(parse, spec, labels, elems):
    try:
        return parse(spec, labels, elems)
    except ParseError:
        return "ParseError"


def test_parse_seq_accepts_what_the_split_parser_accepted():
    # every cycle body of up to five characters over braces, separators,
    # spaces and the labels of the discrete two-point space, and random
    # bodies and preperiods of up to six tokens
    labels, elems = ("a", "b"), (0, 1, 2, 3)
    bodies = [""]
    for length in range(1, 6):
        bodies += ["".join(p) for p in itertools.product("{},| ab", repeat=length)]
    rng = random.Random(7)
    terms = ["{a}", "{b}", "{a,b}", "{ b , a }", "{}"]
    separators = [",", ", ", ",\t", "|", " | "]
    noise = ["{", "}", "a", " ,", ",,", " ", "|"]
    randoms = []
    for _ in range(4000):
        pieces = [rng.choice(terms)]
        for _ in range(rng.randint(0, 3)):
            pieces += [rng.choice(separators), rng.choice(terms)]
        if rng.random() < 0.2:
            pieces.insert(rng.randint(0, len(pieces)), rng.choice(noise))
        randoms.append(" " * rng.randint(0, 1) + "".join(pieces))
    specs = [f"pre:[];cyc:[{b}]" for b in bodies] + [f"pre:[{p}];cyc:[{c}]" for p, c in zip(randoms, reversed(randoms))]
    accepted = 0
    for spec in specs:
        want = _seq_outcome(split_parse_seq, spec, labels, elems)
        assert _seq_outcome(cli._parse_seq, spec, labels, elems) == want, spec
        accepted += want != "ParseError"
    assert accepted > 1000
    # the last two lack the ']' closing the preperiod; the split parser
    # dropped the preperiod's last character unread and accepted them
    for spec in (
        "pre:[];cyc:[{b}{a}]",
        "pre:[];cyc:[{a} ,{b}]",
        "pre:[];cyc:[{a},]",
        "pre:[];cyc:[{a|b}]",
        "pre:[{a}x;cyc:[{b}]",
        "pre:[;cyc:[{a}]",
    ):
        with pytest.raises(ParseError):
            cli._parse_seq(spec, labels, elems)


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
