"""Stable file formats: space documents in, verification reports out.

A space document is JSON with distinct string point labels and exactly
one of ``opens`` (lists of labels) or ``preorder`` (pairs [a, b] meaning
a <= b). Point labels appear in all user-facing output; indices stay
internal. Report JSON is versioned with a ``schema`` field and round
trips through :func:`parse_report`.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import ParseError
from .finspace import FinTopSpace, check_labels, from_preorder, validate_topology
from .theorems import CheckResult, VerificationReport

REPORT_SCHEMA = 1


class LabeledSpace(NamedTuple):
    space: FinTopSpace
    labels: tuple[str, ...]


def parse_point_set(text: str, labels: tuple[str, ...]) -> int:
    """Parse ``{a,b}`` back into a bitmask using the space's labels."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(f"point set must be written as {{label,...}}, got {text!r}")
    body = text[1:-1].strip()
    mask = 0
    if body:
        for name in body.split(","):
            name = name.strip()
            try:
                mask |= 1 << labels.index(name)
            except ValueError:
                raise ParseError(f"unknown point label {name!r}") from None
    return mask


def parse_space(text: str) -> LabeledSpace:
    """Parse and validate a space document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError("space document must be a JSON object")
    points = doc.get("points")
    if not isinstance(points, list):
        raise ParseError("'points' must be a list of string labels")
    # too many labels are refused by their count alone, before any label
    # is read or any open mask is built
    labels = check_labels(points)

    has_opens = "opens" in doc
    has_preorder = "preorder" in doc
    if has_opens == has_preorder:
        raise ParseError("document must carry exactly one of 'opens' or 'preorder'")

    positions = {p: i for i, p in enumerate(labels)}

    def label_index(name) -> int:
        if not isinstance(name, str):
            raise ParseError(f"expected a point label, got {name!r}")
        try:
            return positions[name]
        except KeyError:
            raise ParseError(f"unknown point label {name!r}") from None

    if has_opens:
        opens = doc["opens"]
        if not isinstance(opens, list) or not all(isinstance(u, list) for u in opens):
            raise ParseError("'opens' must be a list of lists of labels")
        masks = []
        for u in opens:
            m = 0
            for name in u:
                m |= 1 << label_index(name)
            masks.append(m)
        space = validate_topology(len(labels), masks)
    else:
        preorder = doc["preorder"]
        if not isinstance(preorder, list):
            raise ParseError("'preorder' must be a list of [label, label] pairs")
        pairs = []
        for entry in preorder:
            if not isinstance(entry, list) or len(entry) != 2:
                raise ParseError(f"preorder entry {entry!r} is not a [label, label] pair")
            pairs.append((label_index(entry[0]), label_index(entry[1])))
        space = from_preorder(len(labels), pairs)
    return LabeledSpace(space, labels)


def emit_report(report: VerificationReport, fmt: str = "text") -> str:
    """Serialize a verification report deterministically.

    Timing is deliberately left out of both formats so that identical
    inputs give identical bytes.
    """
    if fmt == "text":
        lines = [f"space: n={len(report.labels)} digest={report.space_digest}"]
        for r in report.results:
            lines.append(f"{r.check_id}: {r.status}")
            for key, value in r.witness:
                lines.append(f"  witness {key}: {value}")
            if r.notes:
                lines.append(f"  note: {r.notes}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        checks = []
        for r in report.results:
            entry: dict = {"check_id": r.check_id, "status": r.status}
            if r.witness:
                entry["witness"] = {k: v for k, v in r.witness}
            if r.notes:
                entry["notes"] = r.notes
            checks.append(entry)
        doc = {
            "schema": REPORT_SCHEMA,
            "space": {"digest": report.space_digest, "points": list(report.labels)},
            "checks": checks,
        }
        return json.dumps(doc, indent=2) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def parse_report(text: str) -> VerificationReport:
    """Rebuild a report from its JSON form; inverse of json emission up to
    the unserialized timing field."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError("report must be a JSON object")
    schema = doc.get("schema")
    # true and 1.0 compare equal to 1 but are not the schema number
    if type(schema) is not int or schema != REPORT_SCHEMA:
        raise ParseError(f"unsupported report schema {schema!r}")
    try:
        points, digest = doc["space"]["points"], doc["space"]["digest"]
        if not isinstance(points, list):
            raise ParseError("'points' must be a list of string labels")
        labels = check_labels(points)
        if not isinstance(digest, str):
            raise ParseError("'digest' must be a string")
        results = []
        for entry in doc["checks"]:
            witness = tuple(entry.get("witness", {}).items())
            result = CheckResult(entry["check_id"], entry["status"], witness, entry.get("notes", ""))
            fields = (result.check_id, result.status, result.notes, *(s for pair in witness for s in pair))
            if not all(isinstance(f, str) for f in fields):
                raise ParseError("check ids, statuses, notes and witness keys and values must be strings")
            results.append(result)
        return VerificationReport(digest, labels, tuple(results))
    except KeyError as exc:
        raise ParseError(f"report is missing the field {exc}") from None
    except (TypeError, AttributeError):
        raise ParseError("report fields have the wrong JSON types") from None
