from functools import cache
from pathlib import Path

import pytest

from limhyper import build_topology, carriers, enumerate_topologies, parse_space, validate_topology
from limhyper.finspace import bits
from limhyper.limitsets import CARRIER_KINDS
from limhyper.theorems import _non_closed_tables, corrupted_environments


@pytest.fixture
def sierpinski():
    # one open point (0), one closed point (1)
    return validate_topology(2, [0b00, 0b01, 0b11])


@pytest.fixture
def three_point():
    # opens {} {a} {b} {a,b} {a,b,c}; both a and b are open points
    return validate_topology(3, [0b000, 0b001, 0b010, 0b011, 0b111])


@pytest.fixture
def discrete2():
    return validate_topology(2, [0b00, 0b01, 0b10, 0b11])


@pytest.fixture
def indiscrete2():
    return validate_topology(2, [0b00, 0b11])


@pytest.fixture
def sierpinski_plus_isolated():
    # Sierpinski on {0,1} next to the isolated point 2
    return validate_topology(3, [0b000, 0b001, 0b100, 0b011, 0b101, 0b111])


BENCH_DOCS = Path(__file__).resolve().parents[1] / "perfbench" / "docs"
DOC_NAMES = ("discrete7", "discrete8", "chain16", "bipartite10")


def bench_doc_spaces():
    return [parse_space((BENCH_DOCS / f"{name}.json").read_text()).space for name in DOC_NAMES]


@cache
def _spaces(n):
    return tuple(enumerate_topologies(n))


def spaces_upto(n_max, start=0):
    """Every labeled topology on start..n_max points, in enumeration order.
    The spaces are enumerated once per test run and shared: they are
    immutable, and their cached rows and closures are deterministic."""
    for n in range(start, n_max + 1):
        yield from _spaces(n)


def loop_transpose(rows, width):
    """The transpose loop that ``FinTopSpace.closures``,
    ``HyperTopology.cols`` and ``HyperCarrier.holding`` (over the elements)
    each carried before they called ``transpose``; kept as their reference."""
    cols = [0] * width
    for i, row in enumerate(rows):
        for j in bits(row):
            cols[j] |= 1 << i
    return tuple(cols)


def hyper_table(car, flavor):
    """A carrier's table of one flavor as mining's environments hold it:
    ``build_topology``'s on a carrier of closed sets, every honest one
    included, and ``theorems._non_closed_tables``' on a carrier holding a
    set that is not closed, which ``build_topology`` refuses."""
    if car.closed:
        return build_topology(car, flavor)
    return _non_closed_tables(car)[car.kind, flavor]


@pytest.fixture(scope="session")
def carrier_corpus():
    """The carriers the table equivalence tests run on: the five honest
    carriers of every space with n <= 5 and of the four benchmark
    documents, then every corrupted carrier that mining builds on the
    spaces with n <= 4, non-closed, non-limit and non-maximal elements
    included."""
    spaces = [*spaces_upto(5), *bench_doc_spaces()]
    cars = [car for space in spaces for car in carriers(space).values()]
    seen = {(car.space, car.kind, car.elements) for car in cars}
    for space in spaces_upto(4):
        for _, env in corrupted_environments(space):
            for kind in CARRIER_KINDS:
                car = env.carrier(kind)
                key = (space, kind, car.elements)
                if key not in seen:
                    seen.add(key)
                    cars.append(car)
    return cars
