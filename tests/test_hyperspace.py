import itertools
import random

import pytest

from conftest import bench_doc_spaces, hyper_table, loop_transpose, spaces_upto
from limhyper import (
    HyperCarrier,
    HyperTopology,
    InvariantViolation,
    NotInCarrier,
    NotOpen,
    build_topology,
    carrier,
    carriers,
    closed_sets,
    enumerate_topologies,
    eta,
    hyper_closure,
    hyper_component,
    is_closed_sub,
    is_connected,
    is_connected_hyper,
    is_dense,
    is_separated_in,
    product_closure,
    seq_limits,
    validate_topology,
)
from limhyper.finspace import _preorder_rows, bits, mask_of
from limhyper.hyperspace import FLAVORS
from limhyper.limitsets import CARRIER_KINDS
from limhyper.oracle import (
    S_of,
    basic_open_membership,
    conv1_conditions,
    inclusion_relation,
    is_hausdorff,
    member_wise_compact_cover,
    min_nbhd_oracle,
    pairwise_separated,
    product_min_nbhd,
)
from limhyper.theorems import FAIL, CheckEnv, Corruption, _non_closed_tables, corrupted_environments, run_check


# ------------------------------------------------------------ basic opens

def test_basic_open_membership_examples(sierpinski):
    assert basic_open_membership(sierpinski, 0b10, 0, [0b11])
    assert basic_open_membership(sierpinski, 0b10, 0b01, [0b11])
    assert not basic_open_membership(sierpinski, 0b11, 0b01, [])
    with pytest.raises(NotOpen):
        basic_open_membership(sierpinski, 0b10, 0, [0b10])


# ------------------------------------------------- building the topologies

def test_build_topology_sierpinski_tables(sierpinski):
    f = carrier(sierpinski, "F")  # elements (0, {1}, X)
    tw = build_topology(f, "w")
    assert tw.min_nbhds == (frozenset({0, 1, 2}), frozenset({1, 2}), frozenset({2}))
    ts = build_topology(f, "s")
    assert ts.min_nbhds == (frozenset({0}), frozenset({1}), frozenset({2}))


def test_tau_w_min_nbhd_of_empty_is_whole_carrier():
    for space in spaces_upto(3, start=1):
        f = carrier(space, "F")
        tw = build_topology(f, "w")
        assert tw.min_nbhds[f.index(0)] == frozenset(range(len(f.elements)))


def test_build_topology_structural_invariants():
    for space in spaces_upto(3):
        for kind in CARRIER_KINDS:
            car = carrier(space, kind)
            tw = build_topology(car, "w")
            ts = build_topology(car, "s")
            for i in range(len(car.elements)):
                assert i in tw.min_nbhds[i]
                assert ts.min_nbhds[i] <= tw.min_nbhds[i]
                for j in tw.min_nbhds[i]:
                    assert tw.min_nbhds[j] <= tw.min_nbhds[i]
                for j in ts.min_nbhds[i]:
                    assert ts.min_nbhds[j] <= ts.min_nbhds[i]


def test_build_topology_and_inclusion_relation_match_reference_bodies(carrier_corpus):
    # the reference bodies are the oracle's: ``inclusion_relation`` for
    # ``supersets`` on every corpus carrier (tests/conftest.py), and
    # ``min_nbhd_oracle`` row by row on honest carriers acceptance 3 leaves
    # out: both tables of the documents' carriers and the tau_w table of
    # every five-point F carrier. F holds every closed set and the other
    # kinds are subfamilies of it, which acceptance 3 and the corrupted
    # carriers cover up to four points; the other five-point tables would
    # add about 6 s, the tau_s side visiting all 32 subsets per element.
    # A carrier of closed sets, every honest one and the corrupted ones
    # that stay closed, takes its tables from inclusion: tau_w is the
    # inclusion relation (its closures, the subsets, are its transpose,
    # which test_cols_and_holding_match_the_transpose_loop checks) and
    # tau_s is equality; a carrier with a non-closed element is told apart
    # by ``closed``, refused by build_topology and tabled by mining
    # (test_non_closed_tables_match_oracle_on_corrupted_carriers)
    spaces = [*spaces_upto(5), *bench_doc_spaces()]
    closed = {space: set(closed_sets(space)) for space in spaces}
    compared = from_inclusion = 0
    for car in carrier_corpus:
        elems = car.elements
        sup = inclusion_relation(car)
        assert car.supersets == sup, car
        if closed[car.space].issuperset(elems):
            assert car.closed
            equal = {}
            for j, b in enumerate(elems):
                equal[b] = equal.get(b, 0) | 1 << j
            equal = tuple(equal[a] for a in elems)
            assert build_topology(car, "w").rows == sup, car
            ts = build_topology(car, "s")
            assert (ts.rows, ts.cols) == (equal, equal), car
            from_inclusion += 1
        else:
            assert not car.closed
        if car.space.n > 5:
            flavors = FLAVORS
        elif car.space.n == 5 and car.kind == "F":
            flavors = ("w",)
        else:
            continue
        for flavor in flavors:
            rows = build_topology(car, flavor).rows
            assert rows == tuple(min_nbhd_oracle(car, flavor, a) for a in car.elements), (car, flavor)
            compared += len(rows)
    assert compared > 60000
    # the honest carriers, five per space, and closed corrupted ones
    assert from_inclusion > len(CARRIER_KINDS) * len(spaces)


def test_build_topology_records_the_open_rows_a_scan_finds(carrier_corpus):
    # every table build_topology returns is reflexive and transitive, on
    # honest and corrupted closed carriers alike, and so is every table
    # mining builds on a carrier with a non-closed element, so the full
    # mask each records is what scanning a fresh copy finds
    non_closed = 0
    for car in carrier_corpus:
        non_closed += not car.closed
        for flavor in FLAVORS:
            t = hyper_table(car, flavor)
            assert t.__dict__["open_rows"] == (1 << len(car)) - 1
            assert t.open_rows == HyperTopology(car, flavor, t.rows).open_rows, (car, flavor)
    assert non_closed > 700


def test_build_topology_refuses_a_carrier_that_is_not_closed(carrier_corpus, sierpinski):
    # tau_w and tau_s are built on closed sets: every corpus carrier that
    # holds a non-closed set, which only mining makes, is refused in both
    # flavors, and the message names the carrier
    refused = 0
    for car in carrier_corpus:
        if not car.closed:
            for flavor in FLAVORS:
                with pytest.raises(ValueError, match=f"carrier {car.kind} holds a set that is not closed"):
                    build_topology(car, flavor)
                refused += 1
    assert refused > 1500
    # {a} is open and not closed in the Sierpinski space
    with pytest.raises(ValueError, match="carrier F holds a set that is not closed"):
        build_topology(HyperCarrier(sierpinski, "F", (0b00, 0b01, 0b10, 0b11)), "w")


def test_cols_and_holding_match_the_transpose_loop(carrier_corpus):
    # every corpus carrier and both its tables (mining's on a carrier with
    # a non-closed element), and every table of every corrupted environment
    # with n <= 4, the cyclic ones included
    tables = [hyper_table(car, flavor) for car in carrier_corpus for flavor in FLAVORS]
    for space in spaces_upto(4):
        for _, env in corrupted_environments(space):
            tables += [env.topology(kind, flavor) for kind in CARRIER_KINDS for flavor in FLAVORS]
    for car in carrier_corpus:
        assert car.holding == loop_transpose(car.elements, car.space.n)
    for t in tables:
        assert t.cols == loop_transpose(t.rows, len(t)), (t.carrier.kind, t.flavor, t.rows)


def test_build_topology_matches_oracle_on_corrupted_carriers(carrier_corpus):
    # the corpus carriers mining injects non-limit and non-maximal closed
    # elements into, or drops maximal ones from, on every space with
    # n <= 4: the closed form holds for any family of closed sets, not
    # only for honest carriers
    honest = {space: carriers(space) for space in spaces_upto(4)}
    built = 0
    for car in carrier_corpus:
        if car.space.n > 4 or not car.closed or car.elements == honest[car.space][car.kind].elements:
            continue
        for flavor in FLAVORS:
            rows = build_topology(car, flavor).rows
            assert rows == tuple(min_nbhd_oracle(car, flavor, a) for a in car.elements), (car, flavor)
            built += 1
    assert built > 2400


def test_non_closed_tables_match_oracle_on_corrupted_carriers(carrier_corpus):
    # the corpus carriers mining injects a non-closed set into, F and L on
    # every space with n <= 4 that has one: mining's general form holds
    # for any family of subsets
    built = 0
    for car in carrier_corpus:
        if car.closed:
            continue
        tables = _non_closed_tables(car)
        assert set(tables) == {(car.kind, flavor) for flavor in FLAVORS}
        for flavor in FLAVORS:
            rows = tables[car.kind, flavor].rows
            assert rows == tuple(min_nbhd_oracle(car, flavor, a) for a in car.elements), (car, flavor)
            built += 1
    assert built > 1500


def test_min_nbhd_oracle_examples(sierpinski):
    f = carrier(sierpinski, "F")
    assert min_nbhd_oracle(f, "s", 0b10) == 1 << f.index(0b10)
    assert min_nbhd_oracle(f, "w", 0b11) == 1 << f.index(0b11)


def test_min_nbhd_oracle_exact_past_twelve_opens(sierpinski):
    f = carrier(sierpinski, "F")
    assert min_nbhd_oracle(f, "w", 0b10) == 0b110
    # the discrete space on four points has 16 opens, more than the 12 the
    # subfamily enumeration below was limited to
    big = carrier(validate_topology(4, range(16)), "F")
    for flavor in ("w", "s"):
        built = build_topology(big, flavor)
        assert tuple(min_nbhd_oracle(big, flavor, a) for a in big.elements) == built.rows


def subfamily_min_nbhd(car, flavor, a):
    """The minimal neighborhood of ``a`` as the intersection of every basic
    open around it, each the meet of a miss set c disjoint from a (tau_s
    only) and a subfamily of the opens meeting a: the enumeration
    ``min_nbhd_oracle`` ran before it intersected subbasic opens, kept as
    its reference. Exponential in the number of opens."""
    space = car.space
    elems = car.elements
    hits = [u for u in space.opens if u & a]
    comp = space.full & ~a
    c_values = [c for c in range(comp + 1) if not c & ~comp] if flavor == "s" else [0]
    result = set(range(len(elems)))
    for c in c_values:
        for chosen in range(1 << len(hits)):
            phi = [hits[i] for i in bits(chosen)]
            result &= {j for j in result if not elems[j] & c and all(elems[j] & u for u in phi)}
    return mask_of(result)


def test_min_nbhd_oracle_matches_subfamily_enumeration():
    # every carrier and flavor of the honest and every corrupted
    # environment of each space on at most three points (at most 8 opens);
    # on the four-point spaces with at most 12 opens the enumeration takes
    # over a minute
    compared = 0
    for space in spaces_upto(3):
        for env in [CheckEnv(space)] + [env for _, env in corrupted_environments(space)]:
            for kind in CARRIER_KINDS:
                car = env.carrier(kind)
                for flavor in ("w", "s"):
                    for a in car.elements:
                        assert min_nbhd_oracle(car, flavor, a) == subfamily_min_nbhd(car, flavor, a)
                        compared += 1
    assert compared > 2000


def test_min_nbhd_oracle_refuses_result_missing_its_element(sierpinski, monkeypatch):
    # an index pointing at the wrong element breaks the oracle's own
    # invariant; the error must survive python -O, unlike an assert
    f = carrier(sierpinski, "F")
    monkeypatch.setattr(HyperCarrier, "index", lambda self, mask: len(self.elements) - 1)
    with pytest.raises(InvariantViolation):
        min_nbhd_oracle(f, "s", 0b10)


# ------------------------------------------------------------ closure ops

def test_hyper_closure_examples(sierpinski):
    f = carrier(sierpinski, "F")
    tw = build_topology(f, "w")
    assert hyper_closure(tw, 1 << f.index(0b11)) == 0b111
    assert hyper_closure(tw, 0) == 0
    ts = build_topology(f, "s")
    assert hyper_closure(ts, 1 << f.index(0b10)) == 1 << f.index(0b10)


def test_closure_of_singleton_formula_exhaustive_n4():
    for space in spaces_upto(4, start=1):
        f = carrier(space, "F")
        tw = build_topology(f, "w")
        for i, a in enumerate(f.elements):
            expected = mask_of(j for j, b in enumerate(f.elements) if not b & ~a)
            assert hyper_closure(tw, 1 << i) == expected


def test_eta_closure_is_limit_carrier_exhaustive_n4():
    for space in spaces_upto(4, start=1):
        f = carrier(space, "F")
        tw = build_topology(f, "w")
        eta_idx = mask_of(f.index(eta(space, x)) for x in range(space.n))
        l_idx = mask_of(f.index(m) for m in carrier(space, "L").elements)
        assert hyper_closure(tw, eta_idx) == l_idx


def test_density_and_closedness_examples(sierpinski, discrete2):
    f = carrier(sierpinski, "F")
    tw = build_topology(f, "w")
    fprime = mask_of(i for i, m in enumerate(f.elements) if m)
    assert is_dense(tw, fprime)
    l_idx = mask_of(f.index(m) for m in carrier(sierpinski, "L").elements)
    assert is_closed_sub(tw, l_idx)
    # the empty set alone is closed
    assert is_closed_sub(tw, 1 << f.index(0))

    f2 = carrier(discrete2, "F")
    tw2 = build_topology(f2, "w")
    l2 = mask_of(f2.index(m) for m in carrier(discrete2, "L").elements)
    assert is_closed_sub(tw2, l2)
    assert not (hyper_closure(tw2, l2) >> f2.index(0b11)) & 1


# ----------------------------------------------------- continuity / separation

def test_identity_continuous_examples(sierpinski, three_point):
    # the identity from (L, tau_w) to (L, tau_s) is continuous at a when
    # a's tau_w minimal neighborhood fits inside its tau_s one, both read
    # off the hit and miss sets around a
    def continuous_at(space, a):
        l = carrier(space, "L")
        return not min_nbhd_oracle(l, "w", a) & ~min_nbhd_oracle(l, "s", a)

    assert continuous_at(sierpinski, 0b11)
    assert not continuous_at(sierpinski, 0b10)
    assert not continuous_at(sierpinski, 0)
    assert continuous_at(three_point, 0b101)
    with pytest.raises(NotInCarrier):
        continuous_at(validate_topology(2, [0, 1, 2, 3]), 0b11)


def test_is_separated_in_examples(sierpinski, three_point):
    l = carrier(sierpinski, "L")
    tw = build_topology(l, "w")
    assert is_separated_in(tw, l.index(0b11))
    assert not is_separated_in(tw, l.index(0b10))

    l3 = carrier(three_point, "L")
    tw3 = build_topology(l3, "w")
    assert is_separated_in(tw3, l3.index(0b110))

    ts = build_topology(l, "s")
    assert all(is_separated_in(ts, i) for i in range(len(l.elements)))


def test_is_separated_in_matches_pairwise_definition():
    # every table of every space with n <= 4, of every corrupted
    # environment on those spaces and of the four benchmark documents, and
    # every relation on three carrier indices and every reflexive one on four
    envs = [CheckEnv(space) for space in [*spaces_upto(4), *bench_doc_spaces()]]
    for space in spaces_upto(4):
        envs += [env for _, env in corrupted_environments(space)]
    tables = [env.topology(kind, flavor) for env in envs for kind in CARRIER_KINDS for flavor in FLAVORS]
    car3 = carrier(validate_topology(2, [0, 1, 3]), "F")
    tables += [HyperTopology(car3, "w", rows) for rows in itertools.product(range(8), repeat=3)]
    car4 = carrier(validate_topology(2, [0, 1, 2, 3]), "F")
    tables += [
        HyperTopology(car4, "w", rows)
        for rows in itertools.product(range(16), repeat=4)
        if all((row >> i) & 1 for i, row in enumerate(rows))
    ]
    for t in tables:
        for i in range(len(t)):
            assert is_separated_in(t, i) == pairwise_separated(t.rows, i), (t.carrier.kind, t.flavor, t.rows, i)


# ------------------------------------- hausdorff / connected / compact cover

def test_fell_topology_is_hausdorff_everywhere():
    for space in spaces_upto(4):
        f = carrier(space, "F")
        assert is_hausdorff(build_topology(f, "s"))


def test_connectedness_implication_exhaustive_n4():
    for space in spaces_upto(4, start=1):
        if is_connected(space):
            tw = build_topology(carrier(space, "L"), "w")
            assert is_connected_hyper(tw)


def test_connectedness_examples(sierpinski, discrete2):
    tw = build_topology(carrier(sierpinski, "L"), "w")
    assert is_connected_hyper(tw)
    # the empty set's minimal neighborhood is the whole carrier, so (L, tau_w)
    # stays connected even over a disconnected space; dropping the empty set
    # breaks the bridge
    tw2 = build_topology(carrier(discrete2, "L"), "w")
    assert is_connected_hyper(tw2)
    tw2p = build_topology(carrier(discrete2, "Lprime"), "w")
    assert not is_connected_hyper(tw2p)
    lp = tw2p.carrier  # ({0}, {1})
    assert hyper_component(tw2p, lp.index(0b01)) == 1 << lp.index(0b01)
    assert hyper_component(tw, 0) == (1 << len(tw)) - 1


def test_compact_cover(sierpinski):
    # the member-wise subcover search that ``per_open_local_compactness``
    # runs, its cover given as the rows of a mask of carrier indices
    f = carrier(sierpinski, "F")
    tw = build_topology(f, "w")
    everything = (1 << len(f.elements)) - 1

    def rows_of(t, mask):
        return [bits(t.rows[i]) for i in bits(mask)]

    assert member_wise_compact_cover(tw, bits(everything), rows_of(tw, everything))
    assert not member_wise_compact_cover(tw, bits(everything), rows_of(tw, 1 << f.index(0b11)))
    # the row of {} is the carrier
    assert member_wise_compact_cover(tw, bits(everything), rows_of(tw, 1 << f.index(0)))
    # an honest table has no row that is not open; the cyclic one does
    cyc = dict(corrupted_environments(sierpinski))["cyclic neighborhood table on (F,tau_w)"].topology("F", "w")
    assert cyc.rows == (0b011, 0b110, 0b101)
    assert cyc.open_rows == 0
    with pytest.raises(NotOpen, match=r"cover member \[1, 2\] is not open"):
        member_wise_compact_cover(cyc, bits(everything), rows_of(cyc, 1 << 2 | 1 << 1))


# ------------------------------------------------------------ product side

def test_product_ops_and_inclusion_closed(sierpinski):
    l = carrier(sierpinski, "L")
    ts = build_topology(l, "s")
    e = inclusion_relation(l)
    assert (e[l.index(0b10)] >> l.index(0b11)) & 1
    assert not (e[l.index(0b11)] >> l.index(0b10)) & 1
    assert product_closure(ts, ts, e) == e
    assert product_min_nbhd(ts, ts, (0, 1)) == (0b010, 0, 0)  # the one pair (0, 1)

    full = (1 << len(l.elements)) - 1
    everything = (full,) * len(l.elements)
    assert S_of(everything, ts) == full


def test_inclusion_relation_closed_exhaustive_n4():
    for space in spaces_upto(4, start=1):
        l = carrier(space, "L")
        ts = build_topology(l, "s")
        e = inclusion_relation(l)
        assert product_closure(ts, ts, e) == e


def test_slice_of_product_open_is_open():
    # exhaustive over all unions of product minimal neighborhoods while the
    # pair count stays within 2**16 unions; seeded sampling beyond that
    rng = random.Random(1105)
    for space in spaces_upto(3, start=1):
        l = carrier(space, "L")
        ts = build_topology(l, "s")
        k = len(l.elements)
        # pair (x, y) is bit x * k + y of a mask over all pairs
        pairs = [(i, j) for i in range(k) for j in range(k)]
        gen_masks = [
            sum(r << (x * k) for x, r in enumerate(product_min_nbhd(ts, ts, p))) for p in pairs
        ]
        row = [((1 << k) - 1) << (a * k) for a in range(k)]
        nb = ts.rows

        if len(pairs) <= 16:
            opens = {0}
            for g in gen_masks:
                opens |= {m | g for m in opens}
        else:
            opens = {0, (1 << len(pairs)) - 1}
            for _ in range(512):
                m = 0
                for t in bits(rng.getrandbits(len(pairs))):
                    m |= gen_masks[t]
                opens.add(m)
        for m in opens:
            s_mask = 0
            for a in range(k):
                if row[a] & m == row[a]:
                    s_mask |= 1 << a
            for a in bits(s_mask):
                assert nb[a] & ~s_mask == 0
        # the integer fast path must agree with the public slice operation
        for m in list(sorted(opens))[:: max(1, len(opens) // 16)]:
            rel = tuple((m >> (x * k)) & ((1 << k) - 1) for x in range(k))
            s_pub = S_of(rel, ts)
            s_mask = 0
            for a in range(k):
                if row[a] & m == row[a]:
                    s_mask |= 1 << a
            assert s_pub == s_mask


def brute_product_verdict(lcar, ts, cap=1 << 16):
    """check_product_structure's claim decided by enumerating product opens
    and testing every slice for openness. The opens are all unions of
    product minimal neighborhoods while there are at most ``cap`` of them;
    past that (near-discrete tables with k >= 5), all unions of row hulls,
    the unions of the minimal neighborhoods of the pairs in some rows."""
    k = len(lcar.elements)
    e = inclusion_relation(lcar)
    if product_closure(ts, ts, e) != e:
        return False
    gens = [
        sum(r << (x * k) for x, r in enumerate(product_min_nbhd(ts, ts, (i, j))))
        for i in range(k)
        for j in range(k)
    ]
    opens = {0}
    for g in gens:
        opens |= {m | g for m in opens}
        if len(opens) > cap:
            hulls = [0] * k
            for t, g2 in enumerate(gens):
                hulls[t // k] |= g2
            opens = {0}
            for h in hulls:
                opens |= {m | h for m in opens}
            break
    row = (1 << k) - 1
    for m in opens:
        s = frozenset(a for a in range(k) if (m >> (a * k)) & row == row)
        if any(not ts.min_nbhds[a] <= s for a in s):
            return False
    return True


def test_exact_product_check_matches_enumeration():
    # every space on at most three points, with its honest (L, tau_s) table,
    # every corrupted environment's, a non-transitive cyclic table, a
    # non-reflexive shift on the antichain of maximal limit sets, where the
    # inclusion relation stays closed and only the slice half can fail, a
    # transitive table whose one nonempty row is the first element's,
    # where the inclusion half passes and only reflexivity fails, and every
    # preorder table on the L carrier when it has at most three elements,
    # where the check decides the slice claim without a loop; the verdict
    # depends only on the table and the inclusion relation
    tables = {}
    for space in spaces_upto(3, start=1):
        honest = CheckEnv(space)
        envs = [honest] + [env for _, env in corrupted_environments(space)]
        k = len(honest.carrier("L"))
        tried = [(1,) + (0,) * (k - 1)] + (list(_preorder_rows(k)) if k <= 3 else [])
        if k >= 3:
            tried.append(tuple(1 << i | 1 << (i + 1) % k for i in range(k)))  # cyclic
        records = [Corruption("hand-built (L,tau_s) table", "L", flavor="s", rows=rows) for rows in tried]
        ml = honest.carrier("ML").elements
        if len(ml) >= 2:
            shift = tuple(1 << (i + 1) % len(ml) for i in range(len(ml)))
            records.append(Corruption("ML served as L, its Fell table shifted", "L", ml, "s", shift))
        envs += [honest.corrupted(c) for c in records]
        for env in envs:
            ts = env.topology("L", "s")
            tables.setdefault((ts.rows, inclusion_relation(env.carrier("L"))), env)
    verdicts = set()
    for env in tables.values():
        exact = run_check("check_product_structure", env).status != FAIL
        assert exact == brute_product_verdict(env.carrier("L"), env.topology("L", "s"))
        verdicts.add(exact)
    assert len(tables) > 50 and verdicts == {True, False}


def test_inclusion_witness_is_first_pair_in_closure_only():
    # the witness is the least pair, in (first, second) order, that lies in
    # the closure of the inclusion relation but not in the relation; the
    # closure is taken literally, pair by pair, from the product minimal
    # neighborhoods, on every honest and corrupted environment with n <= 3
    witnessed = 0
    for space in spaces_upto(3, start=1):
        for env in [CheckEnv(space)] + [env for _, env in corrupted_environments(space)]:
            result = run_check("check_product_structure", env)
            if [key for key, _ in result.witness] != ["pair_in_closure_only"]:
                continue
            lcar = env.carrier("L")
            rows = env.topology("L", "s").rows
            k = len(lcar)
            e = {(i, j) for i, a in enumerate(lcar.elements) for j, b in enumerate(lcar.elements) if not a & ~b}
            extra = [
                (i, j)
                for i in range(k)
                for j in range(k)
                if (i, j) not in e and any((x, y) in e for x in bits(rows[i]) for y in bits(rows[j]))
            ]
            i, j = min(extra)
            pair = env.fmt(lcar.elements[i]) + "," + env.fmt(lcar.elements[j])
            assert result.witness == (("pair_in_closure_only", pair),)
            witnessed += 1
    assert witnessed > 10


def test_slice_open_sampled_n4():
    rng = random.Random(44)
    spaces = list(enumerate_topologies(4))
    for space in rng.sample(spaces, 40):
        l = carrier(space, "L")
        ts = build_topology(l, "s")
        k = len(l.elements)
        for _ in range(32):
            m = [0] * k
            for i in range(k):
                for j in range(k):
                    if rng.random() < 0.4:
                        for x, r in enumerate(product_min_nbhd(ts, ts, (i, j))):
                            m[x] |= r
            s = S_of(tuple(m), ts)
            for a in bits(s):
                assert not ts.rows[a] & ~s


# --------------------------------------------------------------- sequences

def test_seq_ops_sierpinski_constant_at_x(sierpinski):
    f = carrier(sierpinski, "F")
    tw = build_topology(f, "w")
    ts = build_topology(f, "s")
    x = f.index(0b11)
    const = (x,)
    assert seq_limits(tw, const) == 0b111
    assert seq_limits(ts, const) == 1 << x
    # primitive: the limit set is the cluster set, the closure of the cycle
    assert seq_limits(tw, const) == hyper_closure(tw, mask_of(const))


def test_seq_ops_sierpinski_cycle(sierpinski):
    f = carrier(sierpinski, "F")
    tw = build_topology(f, "w")
    ts = build_topology(f, "s")
    cyc = (f.index(0b10), f.index(0b11))
    assert seq_limits(tw, cyc) == 1 << f.index(0) | 1 << f.index(0b10)
    assert hyper_closure(tw, mask_of(cyc)) == 0b111
    assert seq_limits(tw, cyc) != hyper_closure(tw, mask_of(cyc))
    assert seq_limits(ts, cyc) == 0


def test_constant_sequence_always_converges_to_itself():
    for space in spaces_upto(3):
        f = carrier(space, "F")
        for flavor in ("w", "s"):
            top = build_topology(f, flavor)
            for i in range(len(f.elements)):
                assert (seq_limits(top, (i,)) >> i) & 1


def seq_limit_oracle(space, car, flavor, cycle, a_idx):
    """A is a limit iff each basic open around A eventually swallows the
    sequence; with an eventually periodic sequence that means every cycle
    term is a member of every such basic set."""
    a = car.elements[a_idx]
    hits = [u for u in space.opens if u & a]
    comp = space.full & ~a
    c_values = []
    if flavor == "s":
        sub = comp
        while True:
            c_values.append(sub)
            if sub == 0:
                break
            sub = (sub - 1) & comp
    else:
        c_values = [0]
    for c in c_values:
        for r in range(1 << len(hits)):
            phi = [hits[i] for i in bits(r)]
            if not basic_open_membership(space, a, c, phi):
                continue
            for t in cycle:
                if not basic_open_membership(space, car.elements[t], c, phi):
                    return False
    return True


def test_seq_limits_match_literal_basic_open_oracle():
    for space in spaces_upto(2):
        f = carrier(space, "F")
        k = len(f.elements)
        for flavor in ("w", "s"):
            top = build_topology(f, flavor)
            for c in range(1, 3):
                for cyc in itertools.product(range(k), repeat=c):
                    lim = seq_limits(top, cyc)
                    for a in range(k):
                        assert bool((lim >> a) & 1) == seq_limit_oracle(space, f, flavor, cyc, a)


def test_seq_limits_match_oracle_three_point(three_point):
    f = carrier(three_point, "F")
    k = len(f.elements)
    for flavor in ("w", "s"):
        top = build_topology(f, flavor)
        for cyc in itertools.product(range(k), repeat=2):
            lim = seq_limits(top, cyc)
            for a in range(k):
                assert bool((lim >> a) & 1) == seq_limit_oracle(three_point, f, flavor, cyc, a)


# ----------------------------------------------- point-selection conditions

def point_seq_converges(space, choices, x):
    """Literal convergence of the periodic point sequence given by the
    choices: eventually inside every open containing x."""
    return all(
        all((u >> c) & 1 for c in choices)
        for u in space.opens
        if (u >> x) & 1
    )


def conv1_oracle(space, cycle_masks, a):
    """Quantify over selections literally.

    First condition ranges over selections through every nonempty subset of
    cycle positions; second over full selections through the whole cycle.
    """
    positions = range(len(cycle_masks))
    cond_a = True
    for size in range(1, len(cycle_masks) + 1):
        for chosen in itertools.combinations(positions, size):
            pools = [list(bits(cycle_masks[i])) for i in chosen]
            if any(not p for p in pools):
                continue
            for choices in itertools.product(*pools):
                for x in range(space.n):
                    if point_seq_converges(space, choices, x) and not (a >> x) & 1:
                        cond_a = False

    pools = [list(bits(m)) for m in cycle_masks]
    cond_b = True
    for x in bits(a):
        if any(not p for p in pools):
            cond_b = False
            break
        if not any(
            point_seq_converges(space, choices, x)
            for choices in itertools.product(*pools)
        ):
            cond_b = False
            break
    return cond_a, cond_b


def test_conv1_examples(sierpinski):
    f = carrier(sierpinski, "F")
    const_x = (0b11,)
    assert conv1_conditions(sierpinski, const_x, 0b11) == (True, True)
    cond_a, cond_b = conv1_conditions(sierpinski, const_x, 0b10)
    assert not cond_a
    const_b = (0b10,)
    assert conv1_conditions(sierpinski, const_b, 0b10) == (True, True)


def test_conv1_matches_selection_oracle_exhaustive_n2():
    # every subset of the ground set as a cycle term and as a target, so
    # non-closed terms and targets are covered too
    for space in spaces_upto(2):
        subsets = range(space.full + 1)
        for c in range(1, 3):
            for cyc in itertools.product(subsets, repeat=c):
                for a in subsets:
                    assert conv1_conditions(space, cyc, a) == conv1_oracle(space, cyc, a), (space, cyc, a)


def test_conv1_matches_selection_oracle_three_point():
    # every three-point space, with every subset as a cycle term and as a
    # target, cycles of one and two terms
    for space in enumerate_topologies(3):
        subsets = range(space.full + 1)
        for c in (1, 2):
            for cyc in itertools.product(subsets, repeat=c):
                for a in subsets:
                    assert conv1_conditions(space, cyc, a) == conv1_oracle(space, cyc, a), (space, cyc, a)


def test_primitive_characterization_matches_fell_convergence():
    # a sequence Fell-converges to A exactly when it is primitive in tau_w
    # and its tau_w-limit set is the closed subsets of A
    for space in spaces_upto(2, start=1):
        f = carrier(space, "F")
        tw = build_topology(f, "w")
        ts = build_topology(f, "s")
        k = len(f.elements)
        for c in (1, 2, 3):
            for cyc in itertools.product(range(k), repeat=c):
                lim_s = seq_limits(ts, cyc)
                lim_w = seq_limits(tw, cyc)
                prim = lim_w == hyper_closure(tw, mask_of(cyc))
                for a in range(k):
                    subs = mask_of(j for j in range(k) if not f.elements[j] & ~f.elements[a])
                    assert bool((lim_s >> a) & 1) == (prim and lim_w == subs)


def test_conv1_equivalent_to_fell_convergence():
    # both conditions together characterize Fell convergence of the sequence
    for space in spaces_upto(3, start=1):
        f = carrier(space, "F")
        ts = build_topology(f, "s")
        k = len(f.elements)
        for c in range(1, 3):
            for cyc in itertools.product(range(k), repeat=c):
                lim = seq_limits(ts, cyc)
                masks = tuple(f.elements[t] for t in cyc)
                for a in range(k):
                    ca, cb = conv1_conditions(space, masks, f.elements[a])
                    assert (ca and cb) == bool((lim >> a) & 1)
