"""Command-line interface.

Exit codes: 0 for success or all checks passing, 1 for a detected check
failure (witness printed), 2 for usage, parse or read errors. Results go to
stdout, diagnostics to stderr. ``--jobs`` only changes timing, never
output bytes.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import cache

from .errors import AxiomViolation, LimHyperError, NotInCarrier, ParseError
from .finspace import digest, members, separated_points, set_repr
from .hyperspace import FLAVORS, build_topology, is_separated_in, seq_limits
from .limitsets import CARRIER_KINDS, carrier, carriers
from .spaceio import LabeledSpace, emit_report, parse_point_set, parse_space
from .theorems import FAIL, sweep, verify_all

# A term is a {label,...} group, separated from the next by a comma or a
# '|'. Labels hold no braces, so the groups are found before the labels are
# read, and a label may contain '|', ';', '[' or ']'. A body is read as
# whole groups and characters outside them other than ']', so the
# ';cyc:[' that ends the preperiod is the one outside every group.
_TERM = r"\{[^{}]*\}"
_TERMS = re.compile(rf"{_TERM}(?:(?:,\s*|\s*\|\s*){_TERM})*")
_BODY = rf"((?:{_TERM}|[^{{}}\]])*)"
_SEQ = re.compile(rf"pre:\[{_BODY}\];cyc:\[{_BODY}\]")


def _load(path: str) -> LabeledSpace:
    with open(path, encoding="utf-8") as fh:
        return parse_space(fh.read())


def _cmd_validate(args) -> int:
    try:
        doc = _load(args.file)
    except AxiomViolation as exc:
        print(f"invalid: {exc}")
        return 1
    space = doc.space
    print(f"valid: {space.n} points, {len(space.opens)} open sets")
    print("opens: " + " ".join(set_repr(u, doc.labels) for u in space.opens))
    return 0


def _cmd_report(args) -> int:
    doc = _load(args.file)
    space, labels = doc.space, doc.labels
    cars = carriers(space)
    car = cars[args.carrier]
    flavor = args.topology
    top = build_topology(car, flavor)
    ml = set(cars["ML"].elements)

    print(f"space: n={space.n} digest={digest(space)}")
    print("points: " + set_repr(space.full, labels))
    print("opens: " + " ".join(set_repr(u, labels) for u in space.opens))
    print("separated points: " + set_repr(separated_points(space), labels))
    print(f"carrier: {args.carrier}  topology: tau_{flavor}  elements: {len(car.elements)}")
    # each element is formatted once; carrier indices run in canonical
    # order, so joining names by index prints what family_repr would
    names = [set_repr(m, labels) for m in car.elements]
    for i, m in enumerate(car.elements):
        nbhd = " ".join(members(names, top.rows[i]))
        clo = " ".join(members(names, top.cols[i]))
        is_ml = "yes" if m in ml else "no"
        sep = "yes" if is_separated_in(top, i) else "no"
        print(f"{names[i]}: min_nbhd=[{nbhd}] closure=[{clo}] ml={is_ml} separated={sep}")
    return 0


def _cmd_verify(args) -> int:
    doc = _load(args.file)
    report = verify_all(doc.space, labels=doc.labels)
    print(emit_report(report, "json" if args.json else "text"), end="")
    print(f"elapsed: {report.elapsed_s:.3f}s", file=sys.stderr)
    return 1 if any(r.status == FAIL for r in report.results) else 0


def _cmd_sweep(args) -> int:
    result = sweep(args.n, long_run=args.long, jobs=args.jobs)
    print(f"{result.space_count} spaces, {result.failure_count} failures")
    for check_id, dig in result.first_failures:
        print(f"first failure of {check_id}: space {dig}")
    print(f"elapsed: {result.elapsed_s:.3f}s", file=sys.stderr)
    return 1 if result.failure_count else 0


def _parse_seq(spec: str, labels, fcar) -> tuple[int, ...]:
    """The cycle of an eventually periodic sequence of closed sets, as F
    carrier indices. The preperiod is read and checked term by term, then
    dropped: convergence is a tail property."""
    match = _SEQ.fullmatch(spec.strip())
    if not match:
        raise ParseError("sequence must look like pre:[{a},...];cyc:[{b},...]")

    def parse_terms(body: str) -> tuple[int, ...]:
        body = body.strip()
        if not body:
            return ()
        if not _TERMS.fullmatch(body):
            raise ParseError(f"terms must be point sets {{label,...}} separated by commas, got {body!r}")
        terms = []
        for piece in re.findall(_TERM, body):
            mask = parse_point_set(piece, labels)
            try:
                terms.append(fcar.index(mask))
            except NotInCarrier:
                raise ParseError(
                    f"{set_repr(mask, labels)} is not a closed set of the space"
                ) from None
        return tuple(terms)

    _, cycle = map(parse_terms, match.groups())
    if not cycle:
        raise ParseError("cycle must be nonempty")
    return cycle


def _cmd_converge(args) -> int:
    doc = _load(args.file)
    labels = doc.labels
    fcar = carrier(doc.space, "F")
    cycle = _parse_seq(args.seq, labels, fcar)
    target = parse_point_set(args.target, labels)
    try:
        i = fcar.index(target)
    except NotInCarrier:
        raise ParseError(f"target {set_repr(target, labels)} is not a closed set") from None
    top = build_topology(fcar, args.topology)
    print("limit: " + ("yes" if (seq_limits(top, cycle) >> i) & 1 else "no"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limhyper",
        description="Hyperspaces of closed sets of finite topological spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the topology axioms of a space file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("report", help="print carrier elements with their neighborhood data")
    p.add_argument("file")
    p.add_argument("--carrier", choices=CARRIER_KINDS, default="F")
    p.add_argument("--topology", choices=FLAVORS, default="w")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("verify", help="run every check against one space")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="run every check over all topologies on N points")
    p.add_argument("n", type=int)
    p.add_argument("--long", action="store_true", help="allow the 5- and 6-point sweeps")
    p.add_argument("--jobs", type=int, default=1, help="worker count (default 1)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("converge", help="decide sequence convergence in a hyperspace")
    p.add_argument("file")
    p.add_argument("--seq", required=True, help='eventually periodic sequence, e.g. "pre:[];cyc:[{b},{a,b}]"')
    p.add_argument("--target", required=True, help='closed target set, e.g. "{b}"')
    p.add_argument("--topology", choices=FLAVORS, default="w")
    p.set_defaults(func=_cmd_converge)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process and reused by every ``run``."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (LimHyperError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entry()
