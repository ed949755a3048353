import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limhyper import (
    AxiomViolation,
    DuplicateLabel,
    GroundMismatch,
    LimHyperError,
    ParseError,
    emit_report,
    parse_report,
    parse_space,
    validate_topology,
    verify_all,
)
from limhyper.finspace import default_labels, set_repr
from limhyper.spaceio import parse_point_set
from limhyper.theorems import CheckEnv

SIERPINSKI_DOC = '{"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]]}'


def test_parse_space_opens():
    doc = parse_space(SIERPINSKI_DOC)
    assert doc.labels == ("a", "b")
    assert doc.space == validate_topology(2, [0, 1, 3])


def test_parse_space_preorder_matches_up_set_convention():
    doc = parse_space('{"points": ["a", "b"], "preorder": [["b", "a"]]}')
    assert doc.space == validate_topology(2, [0, 1, 3])
    from limhyper import from_preorder

    assert doc.space == from_preorder(2, [(1, 0)])


def test_parse_space_duplicate_label():
    with pytest.raises(DuplicateLabel):
        parse_space('{"points": ["a", "a"], "opens": [[], ["a"]]}')


def test_parse_space_refuses_too_many_points_before_reading_them(monkeypatch):
    # a 17th label is refused by the count alone: the repeat at the end is
    # never looked for and no open mask is built, as no list of the
    # document is iterated
    reads = []

    class Recorded(list):
        def __iter__(self):
            reads.append(self)
            return super().__iter__()

    real_loads = json.loads

    def loads(text):
        return {key: Recorded(value) for key, value in real_loads(text).items()}

    monkeypatch.setattr(json, "loads", loads)
    labels = [f"p{i}" for i in range(16)]
    for key, value in (("opens", [[], labels]), ("preorder", [["p0", "p1"]])):
        with pytest.raises(GroundMismatch):
            parse_space(json.dumps({"points": labels + ["p0"], key: value}))
        assert reads == []
        # at the cap the labels are read, and the repeat is then found
        with pytest.raises(DuplicateLabel):
            parse_space(json.dumps({"points": labels[:15] + ["p0"], key: value}))
        assert reads
        reads.clear()


def report_with_points(points) -> str:
    return json.dumps({"schema": 1, "space": {"digest": "abc", "points": points}, "checks": []})


def test_point_count_refusals_share_one_message():
    # parse_space, parse_report, validate_topology and from_preorder refuse
    # a ground set past 0..16 through one guard, with one message
    from limhyper import from_preorder

    labels = json.dumps([f"p{i}" for i in range(17)])
    refusals = [
        (17, lambda: parse_space(f'{{"points": {labels}, "opens": [[]]}}')),
        (17, lambda: parse_report(report_with_points(json.loads(labels)))),
        (17, lambda: validate_topology(17, [0])),
        (-1, lambda: validate_topology(-1, [0])),
        (17, lambda: from_preorder(17, [])),
        (-1, lambda: from_preorder(-1, [])),
    ]
    for n, refused in refusals:
        with pytest.raises(GroundMismatch, match=rf"^point count {n} outside 0\.\.16$"):
            refused()


def test_parse_space_rejects_unrenderable_labels():
    # {a,b,c} would name two point sets at once; a report is read by the
    # same rule
    for bad in ("a,b", "a b", "{a}", ""):
        with pytest.raises(ParseError):
            parse_space(f'{{"points": ["{bad}"], "opens": [[], ["{bad}"]]}}')
        with pytest.raises(ParseError, match="must be nonempty without braces, commas or spaces"):
            parse_report(report_with_points([bad, "c"]))


def test_parse_space_error_cases():
    with pytest.raises(ParseError):
        parse_space("{not json")
    with pytest.raises(ParseError):
        parse_space('{"points": ["a"], "opens": [[]], "preorder": []}')
    with pytest.raises(ParseError):
        parse_space('{"points": ["a"]}')
    with pytest.raises(ParseError):
        parse_space('{"points": ["a"], "opens": [[], ["z"]]}')
    with pytest.raises(AxiomViolation):
        parse_space('{"points": ["a", "b"], "opens": [[], ["a"], ["b"]]}')


def test_parse_space_invariant_to_opens_ordering():
    shuffled = '{"points": ["a", "b"], "opens": [["a", "b"], [], ["a"]]}'
    assert parse_space(shuffled).space == parse_space(SIERPINSKI_DOC).space


def test_point_set_round_trip():
    labels = ("a", "b", "c")
    for mask in range(8):
        assert parse_point_set(set_repr(mask, labels), labels) == mask
    with pytest.raises(ParseError):
        parse_point_set("{z}", labels)
    with pytest.raises(ParseError):
        parse_point_set("a,b", labels)


def test_emit_text_contains_check_lines(sierpinski):
    report = verify_all(sierpinski, labels=("a", "b"))
    text = emit_report(report, "text")
    assert "check_cont_iff_maximal: pass" in text.splitlines()
    assert text.startswith("space: n=2 digest=")


def test_emit_json_round_trip(sierpinski):
    report = verify_all(sierpinski, labels=("a", "b"))
    blob = emit_report(report, "json")
    doc = json.loads(blob)
    assert doc["schema"] == 1
    assert doc["space"]["points"] == ["a", "b"]
    parsed = parse_report(blob)
    assert emit_report(parsed, "json") == blob
    assert parsed.results == report.results


def test_parse_report_rejects_malformed_structure(sierpinski):
    doc = json.loads(emit_report(verify_all(sierpinski, labels=("a", "b")), "json"))
    with pytest.raises(ParseError, match="JSON object"):
        parse_report("[]")
    no_space = {k: v for k, v in doc.items() if k != "space"}
    with pytest.raises(ParseError, match="'space'"):
        parse_report(json.dumps(no_space))
    no_check_id = dict(doc, checks=[{"status": "pass"}])
    with pytest.raises(ParseError, match="'check_id'"):
        parse_report(json.dumps(no_check_id))



def test_parse_report_reads_only_the_integer_schema_1(sierpinski):
    doc = json.loads(emit_report(verify_all(sierpinski, labels=("a", "b")), "json"))
    for schema in (True, 1.0, "1", 2, None):
        with pytest.raises(ParseError, match="unsupported report schema"):
            parse_report(json.dumps(dict(doc, schema=schema)))


def test_parse_report_rejects_fields_that_are_not_strings(sierpinski):
    doc = json.loads(emit_report(verify_all(sierpinski, labels=("a", "b")), "json"))
    bad_docs = [
        dict(doc, space=dict(doc["space"], points="ab")),
        dict(doc, space=dict(doc["space"], points=["a", 2])),
        dict(doc, space=dict(doc["space"], digest=5)),
        dict(doc, checks=[{"check_id": 3, "status": None}]),
        dict(doc, checks=[{"check_id": "check_baire", "status": "pass", "notes": 1}]),
        dict(doc, checks=[{"check_id": "check_baire", "status": "fail", "witness": {"carrier": ["L"]}}]),
    ]
    for bad in bad_docs:
        with pytest.raises(ParseError, match="must be"):
            parse_report(json.dumps(bad))


def test_parse_report_refuses_a_repeated_point_label(sierpinski):
    # verify never emits such a report: its labels name one point each
    doc = json.loads(emit_report(verify_all(sierpinski, labels=("a", "b")), "json"))
    for points in (["a", "a"], ["a", "b", "a"]):
        with pytest.raises(DuplicateLabel, match="'a' declared twice"):
            parse_report(json.dumps(dict(doc, space={"digest": "abc", "points": points})))


# letters, the characters the label grammar refuses or the witness
# grammars of ``converge`` split on, the empty string and non-strings;
# short entries drawn from few characters repeat often
LABEL_ENTRIES = st.one_of(
    st.text(alphabet="abc{}, \t|;[]", max_size=2),
    st.text(alphabet="abcdefgh", min_size=1, max_size=2),
    st.integers(0, 2),
    st.none(),
    st.booleans(),
)


def label_outcome(read):
    try:
        read()
    except LimHyperError as exc:
        return type(exc), str(exc)
    return "accepted"


@settings(max_examples=300, deadline=None)
@given(st.lists(LABEL_ENTRIES, min_size=1, max_size=17))
def test_labels_pass_one_rule_in_every_reader(labels):
    # verify writes a report with the labels CheckEnv accepts, and
    # parse_space and parse_report read documents with the same points:
    # all three accept the same lists and refuse the rest alike
    n = len(labels)
    doc = json.dumps({"points": labels, "opens": [[], labels]})
    outcomes = {
        label_outcome(lambda: parse_space(doc)),
        label_outcome(lambda: parse_report(report_with_points(labels))),
    }
    if n <= 16:
        space = validate_topology(n, [0, (1 << n) - 1])
        outcomes.add(label_outcome(lambda: CheckEnv(space, labels)))
    assert len(outcomes) == 1, (labels, outcomes)
    if outcomes == {"accepted"}:
        assert parse_report(emit_report(verify_all(space, labels), "json")).labels == tuple(labels)
        assert parse_space(doc) == (space, tuple(labels))


def test_emit_is_deterministic(three_point):
    a = emit_report(verify_all(three_point), "json")
    b = emit_report(verify_all(three_point), "json")
    assert a == b


def test_witnesses_render_with_labels(sierpinski):
    from limhyper import mine_check_failures

    hit = mine_check_failures(sierpinski)
    result = hit["check_closure_singleton"].result
    rendered = dict(result.witness)
    for value in rendered.values():
        assert "0b" not in value and "mask" not in value
    # mining names points by the default labels, and the witness reads back
    # through them
    labels = default_labels(sierpinski.n)
    assert labels == ("a", "b")
    assert 0 <= parse_point_set(rendered["element"], labels) <= sierpinski.full


def test_unknown_format_rejected(sierpinski):
    with pytest.raises(ValueError):
        emit_report(verify_all(sierpinski), "yaml")
