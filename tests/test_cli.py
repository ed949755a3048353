import json
import subprocess
import sys
from pathlib import Path

import pytest

from limhyper import build_topology, carrier, carriers, cli, is_separated_in, parse_space
from limhyper.cli import run
from limhyper.finspace import bits, digest, family_repr, separated_points, set_repr
from limhyper.hyperspace import FLAVORS
from limhyper.limitsets import CARRIER_KINDS

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
