import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bench_doc_spaces, spaces_upto
from limhyper import (
    BudgetExceeded,
    GroundMismatch,
    NotInCarrier,
    carrier,
    carriers,
    closure,
    eta,
    from_preorder,
    is_limit_set,
    limit_witness,
    min_nbhd,
    validate_topology,
)
from limhyper.finspace import bits, canonical_key, mask_of
from limhyper.limitsets import CARRIER_KINDS, HyperCarrier
from limhyper.oracle import is_limit_set_oracle


def test_is_limit_set_examples(sierpinski, discrete2):
    assert is_limit_set(sierpinski, 0b11)
    assert not is_limit_set(discrete2, 0b11)
    assert is_limit_set(sierpinski, 0)
    assert is_limit_set(discrete2, 0)


def test_oracle_examples(sierpinski, three_point):
    assert is_limit_set_oracle(sierpinski, 0b10)
    assert not is_limit_set_oracle(three_point, 0b111)


def test_oracle_budget():
    big = validate_topology(5, range(32))  # discrete: 32 opens
    with pytest.raises(BudgetExceeded):
        is_limit_set_oracle(big, 0b11)


def test_fast_equals_oracle_exhaustive():
    for space in spaces_upto(4):
        for l in range(space.full + 1):
            limit = is_limit_set_oracle(space, l)
            assert is_limit_set(space, l) == limit
            assert (limit_witness(space, l) is not None) == limit


def meet_of_meeting_opens_scan(space, l):
    """The meet of every open meeting l, by a scan over all opens: the
    form ``is_limit_set`` and ``limit_witness`` took before they ANDed the
    minimal neighborhoods of l's points; kept as their reference."""
    meet = space.full
    for u in space.opens:
        if u & l:
            meet &= u
    return meet


def test_fast_equals_opens_scan_on_benchmark_documents():
    # every subset of each document; the oracle's subfamily search is out of
    # reach on these, the scan over all opens is not
    for space in bench_doc_spaces():
        for l in range(space.full + 1):
            meet = meet_of_meeting_opens_scan(space, l)
            assert is_limit_set(space, l) == (meet != 0)
            assert limit_witness(space, l) == (next(bits(meet)) if meet else None)


def test_limit_witness_examples(sierpinski, three_point, discrete2):
    assert limit_witness(sierpinski, 0b11) == 0
    assert limit_witness(three_point, 0b101) == 0
    assert limit_witness(discrete2, 0b11) is None


def test_limit_witness_consistency():
    for space in spaces_upto(3):
        for l in range(space.full + 1):
            w = limit_witness(space, l)
            assert (w is not None) == is_limit_set(space, l)
            if w is not None:
                for u in space.opens:
                    if u & l:
                        assert (u >> w) & 1


def test_subsets_of_limit_sets_are_limit_sets():
    for space in spaces_upto(3):
        for l in range(space.full + 1):
            if is_limit_set(space, l):
                sub = l
                while True:
                    assert is_limit_set(space, sub)
                    if sub == 0:
                        break
                    sub = (sub - 1) & l


def test_carrier_examples(sierpinski, three_point, discrete2):
    assert carrier(sierpinski, "L").elements == (0, 0b10, 0b11)
    assert carrier(sierpinski, "ML").elements == (0b11,)
    assert carrier(three_point, "L").elements == (0, 0b100, 0b101, 0b110)
    assert carrier(three_point, "ML").elements == (0b101, 0b110)
    assert carrier(discrete2, "ML").elements == (0b01, 0b10)


def test_carrier_kinds_and_index(sierpinski):
    f = carrier(sierpinski, "F")
    assert f.elements == (0, 2, 3)
    assert carrier(sierpinski, "Fprime").elements == (2, 3)
    assert carrier(sierpinski, "Lprime").elements == (2, 3)
    assert f.index(2) == 1
    with pytest.raises(NotInCarrier):
        f.index(1)
    # a negative mask is named by its integer, not by the set bin() reads
    with pytest.raises(NotInCarrier, match=r"^-1 is not an element of carrier F$"):
        f.index(-1)
    with pytest.raises(ValueError):
        carrier(sierpinski, "XX")


def test_carrier_structure_invariants():
    # every space with n <= 5 and the four benchmark documents, each
    # carrier against its definition in canonical order: F the closed sets,
    # L those that are limit sets, the primed kinds without the empty set,
    # and ML an antichain of nonempty limit sets with every nonempty closed
    # limit set under one of its members, which makes it the set of the
    # maximal ones; ``carrier`` hands out the carrier ``carriers`` builds,
    # checked for one kind per space in turn, as each call builds all five
    for i, space in enumerate([*spaces_upto(5), *bench_doc_spaces()]):
        built = carriers(space)
        assert tuple(built) == CARRIER_KINDS
        assert all((car.space, car.kind) == (space, kind) for kind, car in built.items())
        kind = CARRIER_KINDS[i % len(CARRIER_KINDS)]
        assert carrier(space, kind) == built[kind]
        closed = tuple(sorted((space.full ^ u for u in space.opens), key=canonical_key))
        limits = tuple(c for c in closed if is_limit_set(space, c))
        nonempty = tuple(c for c in limits if c)
        assert [built[kind].elements for kind in CARRIER_KINDS[:4]] == [
            closed, tuple(c for c in closed if c), limits, nonempty
        ], space
        ml = built["ML"].elements
        assert ml == tuple(sorted(set(ml), key=canonical_key)) and set(ml) <= set(nonempty)
        assert all(a == b or a & ~b for a in ml for b in ml), space
        assert all(any(not a & ~m for m in ml) for a in nonempty), space


def test_eta_examples(sierpinski, three_point, discrete2):
    assert eta(sierpinski, 0) == 0b11
    assert eta(three_point, 1) == 0b110
    assert all(eta(discrete2, x) == 1 << x for x in range(2))


def test_eta_rejects_points_outside_the_ground_set(sierpinski):
    for x in (-1, 2):
        with pytest.raises(GroundMismatch):
            eta(sierpinski, x)


def test_carrier_tables_match_definitions(carrier_corpus):
    # honest carriers with n <= 5 and of the documents, corrupted ones
    # with n <= 4; each table against its definition, pair by pair
    # (``supersets`` is compared with ``oracle.inclusion_relation`` in
    # tests/test_hyperspace.py). The elements meeting min_nbhd(x), which
    # ``closed`` and mining's non-closed tables read through ``meeting``,
    # are those holding x on a carrier of closed sets
    for car in carrier_corpus:
        elems = car.elements
        near = tuple(mask_of(i for i, m in enumerate(elems) if m & row) for row in car.space.rows)
        assert tuple(car.meeting(row) for row in car.space.rows) == near, car
        if car.closed:
            assert car.holding == near, car
        assert car.subsets == tuple(mask_of(j for j, b in enumerate(elems) if not b & ~a) for a in elems)


def test_closed_flag_matches_its_definition(carrier_corpus):
    # every element equal to its closure; ``carriers`` records the flag on
    # its carriers, a corrupted one computes it from meeting and holding
    for car in carrier_corpus:
        assert car.closed == all(closure(car.space, m) == m for m in car.elements), car


def test_carrier_links_hold_their_base_elements_or_the_empty_set_before_them():
    # carriers links F', L and L' to the carrier whose tables they read
    # off; each link must hold the base's elements, or those elements behind
    # a leading empty set, on the same space, or the shifted tables would
    # describe other sets
    links = set()
    for space in [*spaces_upto(4), *bench_doc_spaces()]:
        for car in carriers(space).values():
            base = car._base
            if base is None:
                continue
            links.add((car.kind, base.kind))
            elems = base.elements
            assert base.space is car.space, car
            assert elems == car.elements or (elems[:1] == (0,) and elems[1:] == car.elements), car
    assert links == {("Fprime", "F"), ("L", "F"), ("Lprime", "Fprime"), ("Lprime", "L")}


def test_carriers_share_tables_along_their_links():
    # L equals F exactly when every closed set is a limit set; then L and
    # Lprime hand out F's and Fprime's tuples, and otherwise Lprime derives
    # from L. Fprime computes no table itself: reading one fills F's, which
    # it shifts past the empty set. ML's tables are the identity, as ML is
    # an antichain
    equal = total = 0
    for space in spaces_upto(4):
        total += 1
        cars = carriers(space)
        f, fp, l, lp, ml = (cars[kind] for kind in CARRIER_KINDS)
        fp_supersets = fp.supersets
        assert fp_supersets == tuple(row >> 1 for row in vars(f)["supersets"][1:])
        if l.elements == f.elements:
            equal += 1
            assert l.subsets is f.subsets and l.supersets is f.supersets and l.holding is f.holding
            assert lp.subsets is fp.subsets
        else:
            lp_subsets = lp.subsets
            assert lp_subsets == tuple(row >> 1 for row in vars(l)["subsets"][1:])
            assert "subsets" not in vars(f)
        identity = tuple(1 << i for i in range(len(ml)))
        assert ml.subsets == ml.supersets == identity
    assert 0 < equal < total


def test_eta_lands_in_lprime():
    for space in spaces_upto(3):
        lp = set(carrier(space, "Lprime").elements)
        for x in range(space.n):
            e = eta(space, x)
            assert is_limit_set(space, e)
            assert e in lp


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8),
            st.integers(0, 15),
        )
    )
)
def test_constant_sequence_at_witness_converges_everywhere(args):
    # the witness point belongs to the minimal neighborhood of every point
    # of the limit set, which is what makes the constant net work
    n, pairs, raw = args
    space = from_preorder(n, pairs)
    l = raw & space.full
    w = limit_witness(space, l)
    if w is None:
        return
    for x in bits(l):
        assert (min_nbhd(space, x) >> w) & 1
    assert not l & ~closure(space, 1 << w)
