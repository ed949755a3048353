import inspect
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bench_doc_spaces, loop_transpose, spaces_upto
from limhyper import (
    AxiomViolation,
    BudgetExceeded,
    CheckResult,
    GroundMismatch,
    HyperCarrier,
    HyperTopology,
    LabeledSpace,
    SweepResult,
    VerificationReport,
    carriers,
    closed_sets,
    closure,
    enumerate_topologies,
    from_preorder,
    is_T0,
    is_connected,
    min_nbhd,
    separated_points,
    specialization_pairs,
    validate_topology,
)
from limhyper.finspace import (
    FinTopSpace,
    _Value,
    _preorder_rows,
    _space_from_rows,
    bits,
    canonical_key,
    component,
    digest,
    family_repr,
    full_mask,
    members,
    is_separated,
    mask_of,
    meet_of,
    preorder_prefixes,
    set_repr,
    topologies_under,
    transpose,
    union_of,
)
from limhyper.oracle import (
    clopen_scan_is_connected,
    closure_oracle,
    family_repr_oracle,
    pairwise_separated,
    set_repr_oracle,
)
from limhyper.theorems import Corruption, MiningHit


# ---------------------------------------------------------------- oracles

def brute_force_topologies(n):
    """Independent filter: every family of subsets containing the empty set
    and the ground set that is closed under pairwise union/intersection."""
    full = full_mask(n)
    others = [m for m in range(full + 1) if m not in (0, full)]
    out = []
    for r in range(1 << len(others)):
        fam = {0, full} | {others[i] for i in bits(r)}
        if all(a | b in fam and a & b in fam for a in fam for b in fam):
            out.append(tuple(sorted(fam, key=canonical_key)))
    return sorted(set(out))


def separated_by_open_pairs(space, y):
    """Separation of the point y as first defined: for every z outside
    cl{y} some open around y misses some open around z. Quadratic in the
    opens; the test of ``oracle.pairwise_separated``, which reads only
    the least opens."""
    cl = closure_oracle(space, 1 << y)
    return all(
        any((u >> y) & 1 and (v >> z) & 1 and not u & v for u in space.opens for v in space.opens)
        for z in bits(space.full & ~cl)
    )


preorder_pairs = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8),
    )
)


# ------------------------------------------------------------- validation

def test_validate_sierpinski():
    sp = validate_topology(2, [0, 1, 3])
    assert sp.opens == (0, 1, 3)


def test_validate_missing_union():
    with pytest.raises(AxiomViolation) as exc:
        validate_topology(2, [0, 1, 2])
    assert exc.value.witness == (1, 2)
    assert "union" in str(exc.value)


def test_validate_three_point_oracle():
    fam = [0, 0b001, 0b010, 0b011, 0b111]
    sp = validate_topology(3, fam)
    assert sp.opens in brute_force_topologies(3)


def test_validate_ground_mismatch():
    with pytest.raises(GroundMismatch):
        validate_topology(2, [0, 0b100, 0b11])


def test_validate_missing_empty_and_full():
    with pytest.raises(AxiomViolation):
        validate_topology(2, [0, 1])
    with pytest.raises(AxiomViolation):
        validate_topology(2, [1, 3])


def test_validate_dedupes_and_canonicalizes():
    sp = validate_topology(2, [3, 0, 1, 1, 0])
    assert sp.opens == (0, 1, 3)


def pairwise_validate_topology(n, opens):
    """Validation by testing every pair of opens for its union and
    intersection, then the empty and ground sets; O(|opens|^2)."""
    full = full_mask(n)
    fam = set()
    for m in opens:
        if m < 0 or m & ~full:
            raise GroundMismatch(f"open set {m} not within the {n}-point ground set")
        fam.add(m)
    ordered = sorted(fam, key=canonical_key)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if a | b not in fam:
                raise AxiomViolation(
                    f"union of opens {set_repr(a)} and {set_repr(b)} missing",
                    witness=(a, b),
                )
            if a & b not in fam:
                raise AxiomViolation(
                    f"intersection of opens {set_repr(a)} and {set_repr(b)} missing",
                    witness=(a, b),
                )
    if 0 not in fam:
        raise AxiomViolation("empty set missing from the open family")
    if full not in fam:
        raise AxiomViolation("ground set missing from the open family")
    return FinTopSpace(n, tuple(ordered))


def validation_outcome(validate, n, opens):
    try:
        return validate(n, opens)
    except AxiomViolation as exc:
        return type(exc), str(exc), exc.witness


def test_validate_matches_pairwise_on_every_small_family():
    # every family of subsets of a ground set of at most three points
    for n in range(4):
        subsets = range(1 << n)
        for pick in range(1 << len(subsets)):
            fam = [m for m in subsets if (pick >> m) & 1]
            got = validation_outcome(validate_topology, n, fam)
            assert got == validation_outcome(pairwise_validate_topology, n, fam), (n, fam)


def test_validate_matches_pairwise_on_four_point_topologies_and_their_punctures():
    families = []
    for space in enumerate_topologies(4):
        families.append(space.opens)
        families += [tuple(v for v in space.opens if v != u) for u in space.opens if u not in (0, space.full)]
    assert len(families) > 355
    for fam in families:
        assert validation_outcome(validate_topology, 4, fam) == validation_outcome(pairwise_validate_topology, 4, fam)


def test_validate_sixteen_singletons_reports_the_pairwise_witness():
    fam = [0, full_mask(16)] + [1 << x for x in range(16)]
    got = validation_outcome(validate_topology, 16, fam)
    assert got == validation_outcome(pairwise_validate_topology, 16, fam)
    assert got == (AxiomViolation, "union of opens {0} and {1} missing", (1, 2))


def test_validate_discrete_sixteen_points():
    space = validate_topology(16, range(1 << 16))
    assert space.opens == tuple(sorted(range(1 << 16), key=canonical_key))


# ---------------------------------------------------------------- closure

def test_closure_examples(sierpinski, three_point):
    assert closure(sierpinski, 0b01) == 0b11
    assert closure(sierpinski, 0) == 0
    assert closure(three_point, 0b001) == 0b101


def test_closure_matches_oracle_everywhere():
    # every subset with n <= 5, n = 0 and the non-closed sets that mining
    # injects included
    for space in spaces_upto(5):
        for s in range(space.full + 1):
            assert closure(space, s) == closure_oracle(space, s), (space, s)


def test_closure_properties_exhaustive():
    for space in spaces_upto(3):
        for s in range(space.full + 1):
            c = closure(space, s)
            assert s & ~c == 0                       # extensive
            assert closure(space, c) == c            # idempotent
            for t in range(space.full + 1):
                if not s & ~t:
                    assert not c & ~closure(space, t)  # monotone


@settings(max_examples=60, deadline=None)
@given(preorder_pairs, st.integers(0, 15))
def test_closure_properties_sampled(np, raw):
    n, pairs = np
    space = from_preorder(n, pairs)
    s = raw & space.full
    c = closure(space, s)
    assert s & ~c == 0
    assert closure(space, c) == c


# ----------------------------------------------------- minimal neighborhoods

def test_min_nbhd_examples(sierpinski, indiscrete2):
    assert min_nbhd(sierpinski, 0) == 0b01
    assert min_nbhd(sierpinski, 1) == 0b11
    assert min_nbhd(indiscrete2, 0) == 0b11


def test_min_nbhd_is_least_open():
    for space in spaces_upto(3):
        for x in range(space.n):
            m = min_nbhd(space, x)
            assert m in space.opens
            for u in space.opens:
                if (u >> x) & 1:
                    assert not m & ~u


# ------------------------------------------------------------- closed sets

def test_closed_sets_examples(sierpinski, discrete2, three_point):
    assert closed_sets(sierpinski) == (0, 2, 3)
    assert closed_sets(discrete2) == (0, 1, 2, 3)
    assert closed_sets(three_point) == (0, 0b100, 0b101, 0b110, 0b111)


def test_closed_sets_cardinality_and_closure_props():
    for space in spaces_upto(3):
        cs = closed_sets(space)
        assert len(cs) == len(space.opens)
        fam = set(cs)
        assert all(a | b in fam and a & b in fam for a in fam for b in fam)


# ------------------------------------------------------ simple predicates

def test_is_T0(sierpinski, indiscrete2, discrete2):
    assert is_T0(sierpinski)
    assert not is_T0(indiscrete2)
    assert is_T0(discrete2)


def test_is_connected(sierpinski, discrete2):
    assert is_connected(sierpinski)
    assert not is_connected(discrete2)
    assert is_connected(validate_topology(3, [0, 7]))


def test_separated_points_examples(sierpinski, three_point, discrete2):
    assert separated_points(sierpinski) == 0b01
    assert separated_points(three_point) == 0b011
    assert separated_points(discrete2) == 0b11


def test_separated_points_matches_oracle():
    # separated_points and the pairwise oracle, which reads only minimal
    # neighborhoods, against the definition over pairs of opens, on every
    # space with n <= 3
    for space in spaces_upto(3):
        literal = [separated_by_open_pairs(space, y) for y in range(space.n)]
        assert [pairwise_separated(space.rows, y) for y in range(space.n)] == literal, space
        assert separated_points(space) == mask_of(y for y, sep in enumerate(literal) if sep), space


def test_closures_match_closure_of_each_point():
    for space in [*spaces_upto(5), *bench_doc_spaces()]:
        assert space.closures == loop_transpose(space.rows, space.n)
        assert space.closures == tuple(closure_oracle(space, 1 << x) for x in range(space.n))


def test_closure_matches_open_scan():
    # every singleton and closed set of the four benchmark documents, where
    # the oracle scans up to 256 opens for the closed supersets
    for space in bench_doc_spaces():
        for s in {1 << x for x in range(space.n)} | set(closed_sets(space)):
            assert closure(space, s) == closure_oracle(space, s), (space, s)


def test_closure_rejects_sets_outside_the_ground_set(sierpinski):
    for s in (0b100, -1):
        with pytest.raises(GroundMismatch):
            closure(sierpinski, s)


def test_connected_and_separated_match_their_scans():
    # every space with n <= 5, n = 0 included, and the four documents
    for space in [*spaces_upto(5), *bench_doc_spaces()]:
        assert is_connected(space) == clopen_scan_is_connected(space), space
        assert separated_points(space) == mask_of(y for y in range(space.n) if pairwise_separated(space.rows, y)), space


def random_table(rng, k):
    """k row masks on k indices at a random density: mostly neither
    reflexive nor transitive, like mining's cyclic tables."""
    p = rng.random()
    return tuple(mask_of(j for j in range(k) if rng.random() < p) for _ in range(k))


def test_table_operations_match_naive_loops():
    rng = random.Random(2013)
    for _ in range(1500):
        width = rng.randint(0, 8)
        rows = tuple(rng.getrandbits(width) for _ in range(rng.randint(0, 8)))
        assert transpose(rows, width) == tuple(
            mask_of(i for i, row in enumerate(rows) if (row >> j) & 1) for j in range(width)
        )

        k = rng.randint(0, 7)
        rows = random_table(rng, k)
        cols = loop_transpose(rows, k)
        start = rng.getrandbits(k + 1)
        for mask in range(1 << k):
            picked = [rows[i] for i in range(k) if (mask >> i) & 1]
            union, meet = 0, start
            for row in picked:
                union |= row
                meet &= row
            assert union_of(rows, mask) == union
            assert meet_of(rows, mask, start) == meet
        for i in range(k):
            reached, stack = {i}, [i]
            while stack:
                a = stack.pop()
                for b in range(k):
                    if b not in reached and ((rows[a] >> b) & 1 or (rows[b] >> a) & 1):
                        reached.add(b)
                        stack.append(b)
            assert component(rows, cols, i) == mask_of(reached), (rows, i)
            assert is_separated(rows, cols, i) == pairwise_separated(rows, i), (rows, i)


# ----------------------------------------------------------- preorder side

def test_from_preorder_examples():
    assert from_preorder(2, [(1, 0)]) == validate_topology(2, [0, 1, 3])
    assert from_preorder(2, []) == validate_topology(2, [0, 1, 2, 3])
    total = [(0, 1), (1, 0)]
    assert from_preorder(2, total) == validate_topology(2, [0, 3])


def test_from_preorder_opens_are_up_sets():
    space = from_preorder(3, [(2, 0), (2, 1)])
    pairs = set(specialization_pairs(space))
    for u in space.opens:
        for x in bits(u):
            for z in range(space.n):
                if (x, z) in pairs:
                    assert (u >> z) & 1


def subset_union_space(n, rows):
    """Opens as the unions of the rows over all 2^n point subsets."""
    fam = set()
    for sub in range(1 << n):
        u = 0
        for i in bits(sub):
            u |= rows[i]
        fam.add(u)
    return FinTopSpace(n, tuple(sorted(fam, key=canonical_key)))


def test_space_from_rows_matches_subset_unions():
    tables = 0
    for n in range(5):
        for rows in _preorder_rows(n):
            assert _space_from_rows(n, rows) == subset_union_space(n, rows)
            tables += 1
    assert tables == 1 + 1 + 4 + 29 + 355
    for space in bench_doc_spaces():
        want = subset_union_space(space.n, space.rows)
        assert space == want == _space_from_rows(space.n, space.rows), space.n


def test_preorder_round_trip_on_enumeration():
    for space in spaces_upto(3):
        assert from_preorder(space.n, specialization_pairs(space)) == space


@settings(max_examples=60, deadline=None)
@given(preorder_pairs)
def test_preorder_round_trip_sampled(np):
    n, pairs = np
    space = from_preorder(n, pairs)
    assert from_preorder(n, specialization_pairs(space)) == space


# ------------------------------------------------------------- enumeration

def test_enumerate_counts_small():
    assert sum(1 for _ in enumerate_topologies(0)) == 1
    assert sum(1 for _ in enumerate_topologies(1)) == 1
    assert sum(1 for _ in enumerate_topologies(2)) == 4
    assert sum(1 for _ in enumerate_topologies(3)) == 29
    assert sum(1 for _ in enumerate_topologies(4)) == 355


def test_enumerate_matches_brute_force():
    for n in range(4):
        enumerated = sorted(s.opens for s in enumerate_topologies(n))
        assert enumerated == brute_force_topologies(n)


def test_enumerate_unique_and_valid():
    seen = set()
    for space in enumerate_topologies(4):
        assert space.opens not in seen
        seen.add(space.opens)
        assert validate_topology(space.n, space.opens) == space


def test_prefix_subtrees_concatenate_to_the_enumeration():
    # one search cut after two rows, then resumed under each cut table,
    # walks the tables of the uncut search in the same order; the rows a
    # space keeps from the search are the rows its opens give
    for n in range(6):
        prefixes = preorder_prefixes(n)
        assert len(prefixes) == (1, 1, 4, 12, 38, 126)[n]
        subtrees = [list(topologies_under(n, p)) for p in prefixes]
        assert all(subtrees), n
        spaces = [space for subtree in subtrees for space in subtree]
        assert spaces == list(enumerate_topologies(n))
        assert [s.opens for s in spaces] == [_space_from_rows(n, r).opens for r in _preorder_rows(n)]
        for prefix, subtree in zip(prefixes, subtrees):
            for space in subtree:
                assert space.rows == FinTopSpace(n, space.opens).rows
                assert space.rows[:len(prefix)] == prefix


def test_enumerate_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_topologies(7))


def test_digest_is_stable(sierpinski):
    assert digest(sierpinski) == digest(validate_topology(2, [3, 1, 0]))
    assert digest(sierpinski) != digest(validate_topology(2, [0, 2, 3]))


def test_formatters_match_the_point_by_point_formatter():
    # every mask of every space with n <= 10, numbered and labeled, then a
    # seeded sample of 16-point masks; each family is the mask with three
    # masks derived from it, out of canonical order and possibly repeated,
    # and for n <= 10 the whole power set listed backwards
    rng = random.Random(16)
    cases = [(n, m) for n in range(11) for m in range(1 << n)]
    cases += [(16, m) for m in (0, full_mask(16), *rng.sample(range(1 << 16), 1000))]
    for n in range(11):
        labels = tuple(f"q{n - p}" for p in range(n))
        power_set = range((1 << n) - 1, -1, -1)
        for names in (None, labels):
            assert family_repr(power_set, names) == family_repr_oracle(power_set, n, names)
    for n, m in cases:
        labels = tuple(f"q{n - p}" for p in range(n))
        family = (m, full_mask(n) ^ m, m >> 1, m & -m)
        for names in (None, labels):
            assert set_repr(m, names) == set_repr_oracle(m, n, names), (n, m, names)
            assert family_repr(family, names) == family_repr_oracle(family, n, names), (n, m, names)


def test_set_repr_rejects_negative_masks():
    # bin(-1) is '-0b1' and bin(-6) is '-0b110': read as flags they named
    # {0,1} and {1,2,3}
    for mask in (-1, -6, -(1 << 16)):
        for names in (None, ("a", "b", "c", "d")):
            with pytest.raises(ValueError, match=str(mask)):
                set_repr(mask, names)


def test_set_repr_rejects_points_past_its_labels():
    # compress stopped at the shorter input: these named {} and {a}
    for mask in (0b100, 0b101, 1 << 40):
        with pytest.raises(ValueError, match=f"mask {mask} "):
            set_repr(mask, ("a", "b"))
    assert set_repr(0b11, ("a", "b")) == "{a,b}"
    assert set_repr(0b100) == "{2}"
    with pytest.raises(ValueError, match="mask 1 "):
        set_repr(1, ())


def test_members_reads_sparse_and_dense_masks_alike():
    # widths around the 32-bits-per-member switch between the bit by bit
    # read and the flags pass, from one member to all of them
    rng = random.Random(32)
    for width in (1, 31, 32, 33, 64, 300):
        names = [f"e{i}" for i in range(width)]
        for count in sorted({1, 2, width // 32, width // 32 + 1, width // 2, width} - {0}):
            for _ in range(20):
                mask = 1 << (width - 1)
                for i in rng.sample(range(width), min(count - 1, width)):
                    mask |= 1 << i
                want = [names[i] for i in range(width) if (mask >> i) & 1]
                assert list(members(names, mask)) == want, (width, mask)
    assert list(members(["a"], 0)) == []


# ------------------------------------------------------------ value records

def test_value_records_compare_by_their_fields_and_stay_immutable():
    # each maker builds a fresh record from equal fields; the variants of
    # the three hand-written classes each change one compared field
    space = lambda: FinTopSpace(2, (0b00, 0b01, 0b11))
    car = lambda: HyperCarrier(space(), "F", (0b00, 0b10, 0b11))
    result = lambda: CheckResult("check_baire", "pass", (("k", "v"),), "note")
    records = {
        FinTopSpace: (space, [FinTopSpace(3, (0b00, 0b01, 0b11)), FinTopSpace(2, (0b00, 0b11))]),
        HyperCarrier: (
            car,
            [
                HyperCarrier(FinTopSpace(2, (0b00, 0b11)), "F", (0b00, 0b10, 0b11)),
                HyperCarrier(space(), "L", (0b00, 0b10, 0b11)),
                HyperCarrier(space(), "F", (0b00, 0b11)),
            ],
        ),
        HyperTopology: (
            lambda: HyperTopology(car(), "w", (7, 6, 4)),
            [
                HyperTopology(HyperCarrier(space(), "L", (0b00, 0b10, 0b11)), "w", (7, 6, 4)),
                HyperTopology(car(), "s", (7, 6, 4)),
                HyperTopology(car(), "w", (1, 2, 4)),
            ],
        ),
        CheckResult: (result, []),
        VerificationReport: (lambda: VerificationReport("abc", ("a", "b"), (result(),), 0.5), []),
        SweepResult: (lambda: SweepResult(4, 0, (), 0.5), []),
        MiningHit: (lambda: MiningHit("corruption", result()), []),
        Corruption: (
            lambda: Corruption("cyclic", "F", (0b00, 0b10, 0b11), "w", (3, 6, 5)),
            [
                Corruption("other", "F", (0b00, 0b10, 0b11), "w", (3, 6, 5)),
                Corruption("cyclic", "L", (0b00, 0b10, 0b11), "w", (3, 6, 5)),
                Corruption("cyclic", "F", None, "w", (3, 6, 5)),
                Corruption("cyclic", "F", (0b00, 0b10, 0b11), "s", (3, 6, 5)),
                Corruption("cyclic", "F", (0b00, 0b10, 0b11), "w", None),
            ],
        ),
        LabeledSpace: (lambda: LabeledSpace(space(), ("a", "b")), []),
    }
    for cls, (make, variants) in records.items():
        a, b = make(), make()
        assert type(a) is cls and a is not b
        assert a == b and hash(a) == hash(b) and not a != b, cls
        assert pickle.loads(pickle.dumps(a)) == a, cls
        for other in variants:
            assert a != other and not a == other, (cls, other)
        names = a._fields if isinstance(a, tuple) else list(vars(a))
        for name in [*names, "extra"]:
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == b, cls
    named = (CheckResult, VerificationReport, SweepResult, MiningHit, Corruption, LabeledSpace)
    assert all(issubclass(cls, tuple) for cls in named)
    assert not any(issubclass(cls, tuple) for cls in records if cls not in named)

    # the link carriers records only says where the tables come from
    f = car()
    fp = carriers(space())["Fprime"]
    assert fp._base == f and fp == HyperCarrier(space(), "Fprime", (0b10, 0b11))
    assert hash(fp) == hash(HyperCarrier(space(), "Fprime", (0b10, 0b11)))

    assert repr(space()) == "FinTopSpace(n=2, opens=[{} {0} {0,1}])"
    assert repr(fp) == "HyperCarrier(space=FinTopSpace(n=2, opens=[{} {0} {0,1}]), kind='Fprime', elements=(2, 3))"
    assert repr(HyperTopology(f, "w", (7, 6, 4))) == (
        "HyperTopology(carrier=HyperCarrier(space=FinTopSpace(n=2, opens=[{} {0} {0,1}]), kind='F', "
        "elements=(0, 2, 3)), flavor='w', rows=(7, 6, 4))"
    )


def test_value_fields_are_the_init_parameters():
    # equality, hashing and repr read _fields only, so a parameter that
    # __init__ stores and _fields leaves out, or the other way round, fails
    # here
    classes = (FinTopSpace, HyperCarrier, HyperTopology)
    assert set(_Value.__subclasses__()) == set(classes)
    for cls in classes:
        params = list(inspect.signature(cls.__init__).parameters)[1:]
        assert list(cls._fields) == params, cls
        # the base's methods are the only ones; FinTopSpace keeps its own
        # repr, whose opens are written as sets
        assert not {"__eq__", "__hash__", "__setattr__", "__delattr__"} & set(vars(cls)), cls
        assert ("__repr__" in vars(cls)) == (cls is FinTopSpace), cls
