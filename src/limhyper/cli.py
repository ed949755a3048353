"""Command-line interface.

Exit codes: 0 for success or all checks passing, 1 for a detected check
failure (witness printed), 2 for usage or parse errors. Results go to
stdout, diagnostics to stderr. ``--jobs`` only changes timing, never
output bytes; its default comes from the LH_JOBS environment variable.
"""

from __future__ import annotations

import argparse
import sys

from .errors import AxiomViolation, BudgetExceeded, LimHyperError, ParseError
from .finspace import bits, digest, family_repr, separated_points, set_repr
from .hyperspace import EvPerSeq, build_topology, is_separated_in, seq_limits
from .limitsets import CARRIER_KINDS, carrier
from .spaceio import LabeledSpace, emit_report, parse_point_set, parse_space
from .theorems import FAIL, sweep, verify_all

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
    car = carrier(space, args.carrier)
    flavor = args.topology
    top = build_topology(car, flavor)
    ml = set(carrier(space, "ML").elements)

    print(f"space: n={space.n} digest={digest(space)}")
    print("points: " + set_repr(space.full, labels))
    print("opens: " + " ".join(set_repr(u, labels) for u in space.opens))
    print("separated points: " + set_repr(separated_points(space), labels))
    print(f"carrier: {args.carrier}  topology: tau_{flavor}  elements: {len(car.elements)}")
    for i, m in enumerate(car.elements):
        name = set_repr(m, labels)
        nbhd = family_repr((car.elements[j] for j in bits(top.rows[i])), labels)
        clo = family_repr((car.elements[j] for j in bits(top.cols[i])), labels)
        is_ml = "yes" if m in ml else "no"
        sep = "yes" if is_separated_in(top, i) else "no"
        print(f"{name}: min_nbhd={nbhd} closure={clo} ml={is_ml} separated={sep}")
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


def _parse_seq(spec: str, labels, closed_elems) -> EvPerSeq:
    spec = spec.strip()
    if not spec.startswith("pre:[") or ";cyc:[" not in spec or not spec.endswith("]"):
        raise ParseError("sequence must look like pre:[{a},...];cyc:[{b},...]")
    pre_part, cyc_part = spec.split(";cyc:[", 1)
    pre_body = pre_part[len("pre:["):-1]
    cyc_body = cyc_part[:-1]

    def parse_terms(body: str) -> tuple[int, ...]:
        body = body.strip()
        if not body:
            return ()
        terms = []
        for piece in body.replace("},", "}|").split("|"):
            mask = parse_point_set(piece, labels)
            try:
                terms.append(closed_elems.index(mask))
            except ValueError:
                raise ParseError(
                    f"{set_repr(mask, labels)} is not a closed set of the space"
                ) from None
        return tuple(terms)

    pre = parse_terms(pre_body)
    cyc = parse_terms(cyc_body)
    if not cyc:
        raise ParseError("cycle part must be nonempty")
    return EvPerSeq(pre, cyc)


def _cmd_converge(args) -> int:
    doc = _load(args.file)
    space, labels = doc.space, doc.labels
    fcar = carrier(space, "F")
    seq = _parse_seq(args.seq, labels, fcar.elements)
    target = parse_point_set(args.target, labels)
    if target not in fcar.elements:
        raise ParseError(f"target {set_repr(target, labels)} is not a closed set")
    top = build_topology(fcar, args.topology)
    limits = seq_limits(top, seq)
    print("limit: " + ("yes" if (limits >> fcar.index(target)) & 1 else "no"))
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
    p.add_argument("--topology", choices=("w", "s"), default="w")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("verify", help="run every check against one space")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="run every check over all topologies on N points")
    p.add_argument("n", type=int)
    p.add_argument("--long", action="store_true", help="allow the 5-point sweep")
    p.add_argument("--jobs", type=int, default=None, help="worker count (default: LH_JOBS or 1)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("converge", help="decide sequence convergence in a hyperspace")
    p.add_argument("file")
    p.add_argument("--seq", required=True, help='eventually periodic sequence, e.g. "pre:[];cyc:[{b},{a,b}]"')
    p.add_argument("--target", required=True, help='closed target set, e.g. "{b}"')
    p.add_argument("--topology", choices=("w", "s"), default="w")
    p.set_defaults(func=_cmd_converge)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (ParseError, BudgetExceeded, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LimHyperError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entry()
