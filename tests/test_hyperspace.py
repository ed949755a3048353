import itertools
import random

import pytest

from limhyper import (
    EvPerSeq,
    HyperCarrier,
    HyperTopology,
    InvariantViolation,
    NotInCarrier,
    NotOpen,
    S_of,
    basic_open_membership,
    build_topology,
    carrier,
    conv1_conditions,
    enumerate_topologies,
    eta,
    hyper_closure,
    hyper_component,
    identity_continuous_at,
    inclusion_relation,
    is_closed_sub,
    is_compact_cover,
    is_connected,
    is_connected_hyper,
    is_dense,
    is_hausdorff,
    is_primitive,
    is_separated_in,
    min_nbhd_oracle,
    product_closure,
    product_is_closed,
    product_min_nbhd,
    seq_clusters,
    seq_limits,
    validate_topology,
)
from limhyper.finspace import bits, mask_of
from limhyper.limitsets import CARRIER_KINDS
from limhyper.theorems import FAIL, CheckEnv, _cyclic_topology, corrupted_environments, run_check


def spaces_upto(n_max, start=0):
    for n in range(start, n_max + 1):
        yield from enumerate_topologies(n)


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


def test_build_topology_matches_oracle_on_corrupted_carriers():
    # the carriers mining injects non-closed, non-limit and non-maximal
    # elements into, or drops maximal ones from: the closed form holds for
    # any family of subsets, not only for honest carriers
    built = 0
    for space in spaces_upto(3):
        for _, factory in corrupted_environments(space):
            env = factory()
            for kind in CARRIER_KINDS:
                car = env.carrier(kind)
                if car.elements == carrier(space, kind).elements:
                    continue
                for flavor in ("w", "s"):
                    top = build_topology(car, flavor)
                    for i, a in enumerate(car.elements):
                        assert top.rows[i] == min_nbhd_oracle(car, flavor, a)
                    built += 1
    assert built > 100


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
        for env in [CheckEnv(space)] + [factory() for _, factory in corrupted_environments(space)]:
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
    assert identity_continuous_at(sierpinski, 0b11)
    assert not identity_continuous_at(sierpinski, 0b10)
    assert not identity_continuous_at(sierpinski, 0)
    assert identity_continuous_at(three_point, 0b101)
    with pytest.raises(NotInCarrier):
        identity_continuous_at(validate_topology(2, [0, 1, 2, 3]), 0b11)


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
    f = carrier(sierpinski, "F")
    tw = build_topology(f, "w")
    everything = (1 << len(f.elements)) - 1
    assert is_compact_cover(tw, everything, everything)
    assert not is_compact_cover(tw, everything, 1 << f.index(0b11))
    assert is_compact_cover(tw, everything, 1 << f.index(0))  # the row of {} is the carrier
    # an honest table has no row that is not open; the cyclic one does
    cyc = _cyclic_topology(sierpinski, "F", "w")  # rows {0,1} {1,2} {0,2}
    assert cyc.open_rows == 0
    with pytest.raises(NotOpen, match=r"cover member \[1, 2\] is not open"):
        is_compact_cover(cyc, everything, 1 << 2 | 1 << 1)


def member_wise_compact_cover(top, s, cover):
    """The member-wise subcover search over explicit open sets of carrier
    indices that ``is_compact_cover`` ran before it took row indices; kept
    as its reference."""
    members = [mask_of(m) for m in cover]
    for m in members:
        if any(top.rows[i] & ~m for i in bits(m)):
            raise NotOpen(f"cover member {list(bits(m))} is not open in the hyperspace")
    covered = 0
    for i in bits(mask_of(s)):
        if (covered >> i) & 1:
            continue
        for m in members:
            if (m >> i) & 1:
                covered |= m
                break
        else:
            return False
    return True


def _cover_outcome(fn, top, s, cover):
    try:
        return fn(top, s, cover)
    except NotOpen as exc:
        return str(exc)


def test_compact_cover_by_row_index_matches_member_wise_search():
    # every honest and corrupted table of every space on at most three
    # points, every set of cover rows (a seeded sample past 2^6), and three
    # targets per cover: the carrier, the cover's own indices, a random set
    rng = random.Random(5)
    tables = {}
    for space in spaces_upto(3):
        for env in [CheckEnv(space)] + [factory() for _, factory in corrupted_environments(space)]:
            for kind in CARRIER_KINDS:
                for flavor in ("w", "s"):
                    t = env.topology(kind, flavor)
                    tables[(space, t.carrier.elements, t.rows)] = t
    outcomes = set()
    for t in tables.values():
        k = len(t)
        full = (1 << k) - 1
        covers = range(full + 1) if k <= 6 else [rng.getrandbits(k) for _ in range(64)]
        for cover_mask in covers:
            for s in (full, cover_mask, rng.getrandbits(k) if k else 0):
                rows_cover = [bits(t.rows[i]) for i in bits(cover_mask)]
                got = _cover_outcome(is_compact_cover, t, s, cover_mask)
                assert got == _cover_outcome(member_wise_compact_cover, t, bits(s), rows_cover)
                outcomes.add(got if isinstance(got, bool) else "NotOpen")
    assert len(tables) > 400 and outcomes == {True, False, "NotOpen"}


# ------------------------------------------------------------ product side

def test_product_ops_and_inclusion_closed(sierpinski):
    l = carrier(sierpinski, "L")
    ts = build_topology(l, "s")
    e = inclusion_relation(l)
    assert (e[l.index(0b10)] >> l.index(0b11)) & 1
    assert not (e[l.index(0b11)] >> l.index(0b10)) & 1
    assert product_is_closed(ts, ts, e)
    assert product_min_nbhd(ts, ts, (0, 1)) == (0b010, 0, 0)  # the one pair (0, 1)

    full = (1 << len(l.elements)) - 1
    everything = (full,) * len(l.elements)
    assert S_of(everything, ts) == full


def test_inclusion_relation_closed_exhaustive_n4():
    for space in spaces_upto(4, start=1):
        l = carrier(space, "L")
        ts = build_topology(l, "s")
        assert product_is_closed(ts, ts, inclusion_relation(l))


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
    # every corrupted environment's, a non-transitive cyclic table, and a
    # non-reflexive shift on the antichain of maximal limit sets, where the
    # inclusion relation stays closed and only the slice half can fail;
    # the verdict depends only on the table and the inclusion relation
    tables = {}
    for space in spaces_upto(3, start=1):
        envs = [CheckEnv(space)] + [factory() for _, factory in corrupted_environments(space)]
        cyclic = _cyclic_topology(space, "L", "s")
        if cyclic is not None:
            envs.append(CheckEnv(space, topologies={("L", "s"): cyclic}))
        ml = HyperCarrier(space, "L", carrier(space, "ML").elements)
        if len(ml) >= 2:
            shift = tuple(1 << (i + 1) % len(ml) for i in range(len(ml)))
            envs.append(CheckEnv(space, carriers={"L": ml}, topologies={("L", "s"): HyperTopology(ml, "s", shift)}))
        for env in envs:
            ts = env.topology("L", "s")
            tables.setdefault((ts.rows, inclusion_relation(env.carrier("L"))), env)
    verdicts = set()
    for env in tables.values():
        exact = run_check("check_product_structure", env.space, env).status != FAIL
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
        for env in [CheckEnv(space)] + [factory() for _, factory in corrupted_environments(space)]:
            result = run_check("check_product_structure", space, env)
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

def test_evperseq_terms():
    seq = EvPerSeq((7,), (1, 2))
    assert [seq.term(k) for k in range(6)] == [7, 1, 2, 1, 2, 1]
    with pytest.raises(ValueError):
        EvPerSeq((), ())


def test_evperseq_term_matches_index_arithmetic():
    # every preperiod of at most three terms and every cycle of one to four
    # terms over a three-letter alphabet, read up to three cycles past the
    # preperiod; check_conv_props counts these sequences without walking them
    for p in range(4):
        for pre in itertools.product(range(3), repeat=p):
            for c in range(1, 5):
                for cyc in itertools.product(range(3), repeat=c):
                    seq = EvPerSeq(pre, cyc)
                    assert [seq.term(j) for j in range(p + 3 * c)] == list(pre + cyc * 3)


def test_seq_ops_sierpinski_constant_at_x(sierpinski):
    f = carrier(sierpinski, "F")
    tw = build_topology(f, "w")
    ts = build_topology(f, "s")
    x = f.index(0b11)
    const = EvPerSeq((), (x,))
    assert seq_limits(tw, const) == 0b111
    assert seq_limits(ts, const) == 1 << x
    assert is_primitive(tw, const)


def test_seq_ops_sierpinski_cycle(sierpinski):
    f = carrier(sierpinski, "F")
    tw = build_topology(f, "w")
    ts = build_topology(f, "s")
    seq = EvPerSeq((), (f.index(0b10), f.index(0b11)))
    assert seq_limits(tw, seq) == 1 << f.index(0) | 1 << f.index(0b10)
    assert seq_clusters(tw, seq) == 0b111
    assert not is_primitive(tw, seq)
    assert seq_limits(ts, seq) == 0


def test_constant_sequence_always_converges_to_itself():
    for space in spaces_upto(3):
        f = carrier(space, "F")
        for flavor in ("w", "s"):
            top = build_topology(f, flavor)
            for i in range(len(f.elements)):
                assert (seq_limits(top, EvPerSeq((), (i,))) >> i) & 1


def seq_limit_oracle(space, car, flavor, seq, a_idx):
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
            for t in seq.cycle:
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
                    seq = EvPerSeq((), cyc)
                    lim = seq_limits(top, seq)
                    for a in range(k):
                        assert bool((lim >> a) & 1) == seq_limit_oracle(space, f, flavor, seq, a)


def test_seq_limits_match_oracle_three_point(three_point):
    f = carrier(three_point, "F")
    k = len(f.elements)
    for flavor in ("w", "s"):
        top = build_topology(f, flavor)
        for cyc in itertools.product(range(k), repeat=2):
            seq = EvPerSeq((1,), cyc)
            lim = seq_limits(top, seq)
            for a in range(k):
                assert bool((lim >> a) & 1) == seq_limit_oracle(three_point, f, flavor, seq, a)


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
    const_x = EvPerSeq((), (0b11,))
    assert conv1_conditions(sierpinski, const_x, 0b11) == (True, True)
    cond_a, cond_b = conv1_conditions(sierpinski, const_x, 0b10)
    assert not cond_a
    const_b = EvPerSeq((), (0b10,))
    assert conv1_conditions(sierpinski, const_b, 0b10) == (True, True)


def test_conv1_matches_selection_oracle_exhaustive_n2():
    for space in spaces_upto(2):
        closed = carrier(space, "F").elements
        for c in range(1, 3):
            for cyc in itertools.product(closed, repeat=c):
                seq = EvPerSeq((), cyc)
                for a in closed:
                    assert conv1_conditions(space, seq, a) == conv1_oracle(space, cyc, a)


def test_conv1_matches_selection_oracle_three_point(three_point):
    closed = carrier(three_point, "F").elements
    for cyc in itertools.product(closed, repeat=2):
        seq = EvPerSeq((), cyc)
        for a in closed:
            assert conv1_conditions(three_point, seq, a) == conv1_oracle(three_point, cyc, a)


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
                for pre in ((), (0,)):
                    seq = EvPerSeq(pre, cyc)
                    lim_s = seq_limits(ts, seq)
                    lim_w = seq_limits(tw, seq)
                    prim = is_primitive(tw, seq)
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
                seq = EvPerSeq((), cyc)
                lim = seq_limits(ts, seq)
                mask_seq = EvPerSeq((), tuple(f.elements[t] for t in cyc))
                for a in range(k):
                    ca, cb = conv1_conditions(space, mask_seq, f.elements[a])
                    assert (ca and cb) == bool((lim >> a) & 1)
