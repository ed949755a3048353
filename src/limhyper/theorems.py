"""One named check per structural claim about the hyperspaces, a driver
that runs them all over a space or an enumeration sweep, and a
corrupted-carrier exploration mode proving the checks can actually fail.

Checks assert statements, never proof intermediates. Facts that finite
spaces make automatic (every subset compact, countable intersections
finite) still go through the generic machinery and are reported with the
distinct status ``trivially_true`` so they are never confused with
substantive passes. Sequence-based convergence checks carry the status
``proxy``.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import time
from dataclasses import dataclass
from multiprocessing import Pool

from .errors import BudgetExceeded, NotInCarrier, NotOpen
from .finspace import (
    FinTopSpace,
    bits,
    canonical_key,
    closed_sets,
    digest,
    enumerate_topologies,
    family_repr,
    is_connected,
    mask_of,
    separated_points,
    set_repr,
)
from .hyperspace import (
    EvPerSeq,
    S_of,
    HyperTopology,
    build_topology,
    conv1_conditions,
    hyper_closure,
    hyper_component,
    identity_continuous_at,
    inclusion_relation,
    is_closed_sub,
    is_compact_cover,
    is_connected_hyper,
    is_dense,
    is_separated_in,
    product_closure,
)
from .limitsets import HyperCarrier, carrier as build_carrier, eta, is_limit_set

PASS = "pass"
FAIL = "fail"
TRIVIALLY_TRUE = "trivially_true"
PROXY = "proxy"

_ALPHABET = "abcdefghijklmnop"


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str
    witness: tuple[tuple[str, str], ...] = ()
    notes: str = ""


@dataclass(frozen=True)
class VerificationReport:
    space_digest: str
    n: int
    labels: tuple[str, ...]
    results: tuple[CheckResult, ...]
    elapsed_s: float = 0.0


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(_ALPHABET[i] for i in range(n))


class CheckEnv:
    """The carriers and hyperspace topologies that one space's checks share.

    Mining hands in corrupted carriers or raw neighborhood tables through
    the ``carriers`` / ``topologies`` overrides; every check then runs its
    ordinary logic against the broken structures.
    """

    def __init__(self, space, labels=None, carriers=None, topologies=None):
        self.space = space
        self.labels = tuple(labels) if labels else default_labels(space.n)
        self._carriers: dict[str, HyperCarrier] = dict(carriers or {})
        self._topologies: dict[tuple[str, str], HyperTopology] = dict(topologies or {})

    def carrier(self, kind: str) -> HyperCarrier:
        if kind not in self._carriers:
            self._carriers[kind] = build_carrier(self.space, kind)
        return self._carriers[kind]

    def topology(self, kind: str, flavor: str) -> HyperTopology:
        key = (kind, flavor)
        if key not in self._topologies:
            self._topologies[key] = build_topology(self.carrier(kind), flavor)
        return self._topologies[key]

    def fmt(self, mask: int) -> str:
        return set_repr(mask, self.labels)

    def fmt_family(self, masks) -> str:
        return family_repr(masks, self.labels)

    def fmt_indices(self, car: HyperCarrier, mask: int) -> str:
        return self.fmt_family(car.elements[i] for i in bits(mask))


def check_closure_singleton(space, env):
    """The closure of one closed set in the lower topology on F(X) must be
    exactly its closed subsets."""
    t = env.topology("F", "w")
    elems = t.carrier.elements
    for i, a in enumerate(elems):
        got = hyper_closure(t, 1 << i)
        expected = mask_of(j for j, b in enumerate(elems) if not b & ~a)
        if got != expected:
            return CheckResult(
                "check_closure_singleton",
                FAIL,
                witness=(
                    ("element", env.fmt(a)),
                    ("closure", env.fmt_indices(t.carrier, got)),
                    ("expected", env.fmt_indices(t.carrier, expected)),
                ),
            )
    return CheckResult("check_closure_singleton", PASS)


def check_eta_closure_and_density(space, env):
    """Point-closure image: its closure in (F(X), tau_w) is L(X); Fprime is
    dense in F(X); ML(X) is dense in L(X); and L(X) is closed in both
    topologies on F(X)."""
    cid = "check_eta_closure_and_density"
    tf = env.topology("F", "w")
    fcar = tf.carrier
    lcar = env.carrier("L")

    eta_idx = mask_of(fcar.index(eta(space, x)) for x in range(space.n))
    l_idx = mask_of(fcar.index(m) for m in lcar.elements)
    got = hyper_closure(tf, eta_idx)
    if got != l_idx:
        return CheckResult(
            cid,
            FAIL,
            witness=(
                ("closure_of_eta_image", env.fmt_indices(fcar, got)),
                ("limit_carrier", env.fmt_indices(fcar, l_idx)),
            ),
        )

    fp_idx = mask_of(i for i, m in enumerate(fcar.elements) if m)
    if not is_dense(tf, fp_idx):
        return CheckResult(cid, FAIL, witness=(("not_dense", "Fprime in (F,tau_w)"),))

    tl = env.topology("L", "w")
    ml_idx = mask_of(lcar.index(m) for m in env.carrier("ML").elements)
    if not is_dense(tl, ml_idx):
        return CheckResult(cid, FAIL, witness=(("not_dense", "ML in (L,tau_w)"),))

    if not is_closed_sub(tf, l_idx):
        return CheckResult(cid, FAIL, witness=(("not_closed", "L in (F,tau_w)"),))
    if not is_closed_sub(env.topology("F", "s"), l_idx):
        return CheckResult(cid, FAIL, witness=(("not_closed", "L in (F,tau_s)"),))
    return CheckResult(cid, PASS)


def _ml_inside_l(env):
    """Mask of the ML elements' indices within the L carrier; None plus
    witness when a claimed maximal set is not even a carrier element."""
    lcar = env.carrier("L")
    ml = 0
    for m in env.carrier("ML").elements:
        try:
            ml |= 1 << lcar.index(m)
        except NotInCarrier:
            return None, (("ml_member_outside_L", env.fmt(m)),)
    return ml, None


def check_cont_iff_maximal(space, env):
    """Identity map from (L, tau_w) to (L, tau_s) is continuous exactly at
    the maximal limit sets, and the two topologies agree on ML."""
    cid = "check_cont_iff_maximal"
    lcar = env.carrier("L")
    tw = env.topology("L", "w")
    ts = env.topology("L", "s")
    ml, bad = _ml_inside_l(env)
    if bad:
        return CheckResult(cid, FAIL, witness=bad)
    for i, a in enumerate(lcar.elements):
        cont = identity_continuous_at(space, a, topologies=(tw, ts))
        if cont != bool((ml >> i) & 1):
            return CheckResult(
                cid,
                FAIL,
                witness=(
                    ("element", env.fmt(a)),
                    ("continuous", str(cont).lower()),
                    ("maximal", _flag(ml, i)),
                ),
            )
    tmw = env.topology("ML", "w")
    tms = env.topology("ML", "s")
    for i, m in enumerate(env.carrier("ML").elements):
        if tmw.rows[i] != tms.rows[i]:
            return CheckResult(
                cid,
                FAIL,
                witness=(
                    ("element", env.fmt(m)),
                    ("tau_w_nbhd", env.fmt_indices(tmw.carrier, tmw.rows[i])),
                    ("tau_s_nbhd", env.fmt_indices(tms.carrier, tms.rows[i])),
                ),
            )
    return CheckResult(cid, PASS)


def check_separated_iff_maximal(space, env):
    """An element of (L, tau_w) is a separated point exactly when it is a
    maximal limit set."""
    cid = "check_separated_iff_maximal"
    lcar = env.carrier("L")
    tw = env.topology("L", "w")
    ml, bad = _ml_inside_l(env)
    if bad:
        return CheckResult(cid, FAIL, witness=bad)
    for i, a in enumerate(lcar.elements):
        sep = is_separated_in(tw, i)
        if sep != bool((ml >> i) & 1):
            return CheckResult(
                cid,
                FAIL,
                witness=(
                    ("element", env.fmt(a)),
                    ("separated", str(sep).lower()),
                    ("maximal", _flag(ml, i)),
                ),
            )
    return CheckResult(cid, PASS)


def check_connectedness(space, env):
    """Connected ground space forces (L, tau_w) connected. The Fell-side
    analogue fails routinely and is reported as an informational note,
    not asserted."""
    cid = "check_connectedness"
    if not is_connected(space):
        return CheckResult(cid, PASS, notes="hypothesis not met: the space is disconnected")
    tw = env.topology("L", "w")
    if not is_connected_hyper(tw):
        comp = hyper_component(tw, 0)
        return CheckResult(
            cid,
            FAIL,
            witness=(("clopen_component", env.fmt_indices(tw.carrier, comp)),),
        )
    notes = ""
    if not is_connected_hyper(env.topology("L", "s")):
        notes = "informational: (L(X),tau_s) is disconnected although X is connected"
    return CheckResult(cid, PASS, notes=notes)


def check_compactness_lemma(space, env, families=None):
    """The set of closed sets hitting each member of a finite family is
    compact in (F, tau_w). Finite carriers make this automatic; the
    check still runs the generic subcover search over a basis cover."""
    cid = "check_compactness_lemma"
    t = env.topology("F", "w")
    if families is None:
        families = [()]
        families += [(1 << x,) for x in range(space.n)]
        if space.n:
            families.append(tuple(1 << x for x in range(space.n)))
    for fam in families:
        s = (1 << len(t)) - 1
        for c in fam:
            s &= t.carrier.meeting(c)
        if not is_compact_cover(t, s, s):
            return CheckResult(
                cid,
                FAIL,
                witness=(("family", env.fmt_family(fam)), ("uncovered", env.fmt_indices(t.carrier, s))),
            )
    return CheckResult(
        cid, TRIVIALLY_TRUE, notes=f"finite subcover found for {len(families)} hit families"
    )


def check_local_compactness(space, env):
    """Every element of F, Fprime, L and Lprime has a compact neighborhood
    sandwiched between basic neighborhoods, built constructively from
    minimal point neighborhoods."""
    cid = "check_local_compactness"
    witnessed = 0
    for kind in ("F", "Fprime", "L", "Lprime"):
        t = env.topology(kind, "w")
        near = [t.carrier.meeting(row) for row in space.rows]
        for a in t.carrier.elements:
            # the basic neighborhood hit(min_nbhd(x) : x in a): it holds a and
            # lies in hit(u) for each open u meeting a, as min_nbhd(x) <= u
            # for x in a & u
            inner = (1 << len(t)) - 1
            for x in bits(a):
                inner &= near[x]
            if not is_compact_cover(t, inner, inner):
                return CheckResult(
                    cid,
                    FAIL,
                    witness=(("carrier", kind), ("element", env.fmt(a))),
                )
            witnessed += 1
    return CheckResult(
        cid,
        TRIVIALLY_TRUE,
        notes=f"sandwich neighborhoods constructed for {witnessed} carrier elements",
    )


def _not_a_topology_at(t):
    """First carrier index whose row breaks reflexivity or transitivity,
    or None when the table is the minimal-neighborhood table of a
    topology, which the Baire and product reductions need. A transitive
    table is one whose rows are all open."""
    bad = ((1 << len(t)) - 1) & ~t.open_rows
    bad |= mask_of(a for a, row in enumerate(t.rows) if not (row >> a) & 1)
    return (bad & -bad).bit_length() - 1 if bad else None


def _meet_of_dense_opens(t):
    """Intersection of all dense opens of a topology's table: the x with
    some row inside cols[x] = cl{x}. If int(cl{x}) is empty, X - cl{x} is
    a dense open missing x; else each dense open meets it, so holds x."""
    return mask_of(x for x, col in enumerate(t.cols) if any(not row & ~col for row in t.rows))


def check_baire(space, env):
    """The intersection of all dense open subsets of (L, tau_w),
    (Lprime, tau_w) and (ML, tau_w) is dense: the strongest Baire
    statement a finite carrier supports, computed rather than assumed.
    Exact in O(k^2) once the table is checked to be a topology's."""
    cid = "check_baire"
    sizes = []
    for kind in ("L", "Lprime", "ML"):
        t = env.topology(kind, "w")
        a = _not_a_topology_at(t)
        if a is not None:
            return CheckResult(
                cid, FAIL, witness=(("carrier", kind), ("not_a_topology_at", env.fmt(t.carrier.elements[a])))
            )
        inter = _meet_of_dense_opens(t)
        if not is_dense(t, inter):
            return CheckResult(
                cid,
                FAIL,
                witness=(
                    ("carrier", kind),
                    ("intersection_of_dense_opens", env.fmt_indices(t.carrier, inter)),
                ),
            )
        sizes.append(f"{kind}={len(t)}")
    return CheckResult(
        cid, TRIVIALLY_TRUE, notes="dense-open intersection decided exactly over " + ", ".join(sizes)
    )


def check_gdelta_ML(space, env):
    """ML(X) is open inside (L(X), tau_s); countable intersections of opens
    collapse to finite ones here, so Gdelta and open coincide."""
    cid = "check_gdelta_ML"
    lcar = env.carrier("L")
    ts = env.topology("L", "s")
    ml, bad = _ml_inside_l(env)
    if bad:
        return CheckResult(cid, FAIL, witness=bad)
    for i in bits(ml):
        if ts.rows[i] & ~ml:
            leak = next(bits(ts.rows[i] & ~ml))
            return CheckResult(
                cid,
                FAIL,
                witness=(
                    ("element", env.fmt(lcar.elements[i])),
                    ("nbhd_leaks_to", env.fmt(lcar.elements[leak])),
                ),
            )
    return CheckResult(cid, PASS, notes="Gdelta reduced to open: finite carrier")


def check_product_structure(space, env):
    """Product-side facts over (L, tau_s) x (L, tau_s): the inclusion
    relation is closed, and the slice map of any product open is open.

    The slice map S(m) = {a : {a} x L inside m} is monotone and the least
    product open holding the row {a} x L is its hull, so S(m) is open for
    every product open m exactly when nb[a] lies in S(hull(row a)) for
    every a. The reduction holds for the tables of a topology, reflexive
    and transitive, which is checked first. Exact in O(k^3).
    """
    cid = "check_product_structure"
    lcar = env.carrier("L")
    ts = env.topology("L", "s")
    e = inclusion_relation(lcar)
    for i, (row, e_row) in enumerate(zip(product_closure(ts, ts, e), e)):
        extra = row & ~e_row
        if extra:
            j = (extra & -extra).bit_length() - 1
            return CheckResult(
                cid,
                FAIL,
                witness=(
                    ("pair_in_closure_only", env.fmt(lcar.elements[i]) + "," + env.fmt(lcar.elements[j])),
                ),
            )

    nb = ts.rows
    k = len(nb)
    a = _not_a_topology_at(ts)
    if a is not None:
        return CheckResult(cid, FAIL, witness=(("not_a_topology_at", env.fmt(lcar.elements[a])),))
    for a in range(k):
        # the product minimal neighborhood of (a, b) is nb[a] x nb[b]; the
        # hull of row a is their union over b, one mask of second
        # coordinates per first coordinate
        hull = [0] * k
        for b in range(k):
            for x in bits(nb[a]):
                hull[x] |= nb[b]
        s_mask = S_of(tuple(hull), ts)
        if nb[a] & ~s_mask:
            return CheckResult(
                cid,
                FAIL,
                witness=(
                    ("slice", env.fmt_indices(lcar, s_mask)),
                    ("not_open_at", env.fmt(lcar.elements[a])),
                ),
            )
    return CheckResult(cid, PASS, notes=f"slice map decided exactly over {k} rows")


def check_separated_points_corollary(space, env):
    """Point closures of separated points are exactly the maximal point
    closures; the family is dense in (ML, tau_w) and open in (L, tau_s)."""
    cid = "check_separated_points_corollary"
    sep = separated_points(space)
    fam = {eta(space, x) for x in bits(sep)}
    eta_all = {eta(space, x) for x in range(space.n)}
    ml_masks = set(env.carrier("ML").elements)
    if fam != eta_all & ml_masks:
        return CheckResult(
            cid,
            FAIL,
            witness=(
                ("separated_point_closures", env.fmt_family(fam)),
                ("maximal_point_closures", env.fmt_family(eta_all & ml_masks)),
            ),
        )
    tml = env.topology("ML", "w")
    fam_ml_idx = mask_of(tml.carrier.index(m) for m in fam)
    if not is_dense(tml, fam_ml_idx):
        return CheckResult(cid, FAIL, witness=(("not_dense_in_ML", env.fmt_family(fam)),))
    lcar = env.carrier("L")
    ts = env.topology("L", "s")
    fam_l = mask_of(lcar.index(m) for m in fam)
    for i in bits(fam_l):
        if ts.rows[i] & ~fam_l:
            return CheckResult(
                cid, FAIL, witness=(("not_tau_s_open_at", env.fmt(lcar.elements[i])),)
            )
    return CheckResult(cid, PASS)


def _fmt_seq(env, elems, indices) -> str:
    return "(" + " ".join(env.fmt(elems[t]) for t in indices) + ")"


def _flag(mask: int, a: int) -> str:
    return "true" if (mask >> a) & 1 else "false"


@functools.lru_cache(maxsize=256)
def _spot_check_plan(k: int, max_cycle: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The seeded (ordered cycle, target index) samples of the
    ``conv1_conditions`` cross-check in ``check_conv_props``, which depend
    on k and ``max_cycle`` only. Each draw indexes the ordered cycles over
    k terms, shortest first and each length in lexicographic order, so its
    cycle is its offset within its length written in base k."""
    n_cycles = sum(k**c for c in range(1, max_cycle + 1))
    rng = random.Random(20260809)
    plan = []
    for _ in range(min(64, 8 * n_cycles)):
        i = rng.randrange(n_cycles)
        a = rng.randrange(k)
        c = 1
        while i >= k**c:
            i -= k**c
            c += 1
        plan.append((tuple(i // k ** (c - 1 - d) % k for d in range(c)), a))
    return tuple(plan)


def check_conv_props(space, env, max_pre=1, max_cycle=2):
    """Triple equivalence over every in-budget eventually periodic sequence
    of closed sets and every closed target A: Fell convergence to A, the
    point-selection conditions, and primitivity in tau_w with limit set
    equal to the closed subsets of A.

    All three verdicts depend on the set of cycle terms only: the limits
    and clusters are ANDs and ORs of table columns, and the selection
    conditions are the AND of one mask per term. So each set of at most
    ``max_cycle`` terms is decided once, for all targets at once as
    bitmasks over carrier indices, in the lexicographic order of its
    sorted terms; that order meets the sorted form of the first failing
    ordered cycle first. A seeded sample of ordered cycles is re-evaluated
    through ``conv1_conditions``, which decides the selection conditions
    from the point-level definition instead. Convergence is a tail
    property, so no preperiod changes a verdict: the sequences with a
    preperiod of at most ``max_pre`` terms are counted, not walked.
    """
    cid = "check_conv_props"
    tw = env.topology("F", "w")
    ts = env.topology("F", "s")
    car = tw.carrier
    elems = car.elements
    k = len(elems)
    if k == 0:
        return CheckResult(cid, PROXY, notes="empty carrier")

    n_cycles = sum(k**c for c in range(1, max_cycle + 1))
    if n_cycles > 2_000_000:
        raise BudgetExceeded(f"{n_cycles} cycles exceed the sequence budget")

    full_t = (1 << k) - 1
    cols_w, cols_s = tw.cols, ts.cols
    # targets keyed by their closed subsets, as a mask of carrier indices
    by_subsets: dict[int, int] = {}
    for a, m in enumerate(elems):
        subs = full_t & ~car.meeting(space.full & ~m)
        by_subsets[subs] = by_subsets.get(subs, 0) | 1 << a
    # near[t]: points x whose minimal neighborhood meets term t, i.e. the
    # limits of constant point sequences drawn from t. A cycle's selection
    # conditions hold for the targets A with reach <= A <= good, reach and
    # good the union and the intersection of near over its terms; holding
    # and meeting distribute over unions of points, so that is the AND over
    # the terms of sel[t], the targets with reach <= A <= good for t alone.
    mins = space.rows
    near = [mask_of(x for x in range(space.n) if m & mins[x]) for m in elems]
    sel = []
    for nt in near:
        s = full_t & ~car.meeting(space.full & ~nt)
        for x in bits(nt):
            s &= car.holding[x]
        sel.append(s)

    for c in range(1, max_cycle + 1):
        for terms in itertools.combinations(range(k), c):
            lim_w = lim_s = conds = full_t
            clu_w = 0
            for t in terms:
                lim_w &= cols_w[t]
                clu_w |= cols_w[t]
                lim_s &= cols_s[t]
                conds &= sel[t]
            p22 = by_subsets.get(lim_w, 0) if lim_w == clu_w else 0
            bad = (lim_s ^ conds) | (conds ^ p22)
            if bad:
                a = (bad & -bad).bit_length() - 1
                return CheckResult(
                    cid,
                    FAIL,
                    witness=(
                        ("cycle", _fmt_seq(env, elems, terms)),
                        ("target", env.fmt(elems[a])),
                        ("fell_convergence", _flag(lim_s, a)),
                        ("selection_conditions", _flag(conds, a)),
                        ("primitive_characterization", _flag(p22, a)),
                    ),
                )

    for cyc, a in _spot_check_plan(k, max_cycle):
        ca, cb = conv1_conditions(space, EvPerSeq((), tuple(elems[t] for t in cyc)), elems[a])
        conds = full_t
        for t in cyc:
            conds &= sel[t]
        if (ca and cb) != bool((conds >> a) & 1):
            return CheckResult(
                cid,
                FAIL,
                witness=(
                    ("cycle", _fmt_seq(env, elems, cyc)),
                    ("target", env.fmt(elems[a])),
                    ("disagreement", "selection-condition masks vs conv1_conditions"),
                ),
            )

    n_seq = sum(k**p for p in range(max_pre + 1)) * n_cycles
    return CheckResult(
        cid,
        PROXY,
        notes=(
            f"sequences stand in for nets; {n_cycles} cycles, {n_seq} sequences "
            f"(preperiod<={max_pre}, cycle<={max_cycle}) over F(X)"
        ),
    )


CHECKS = {
    "check_closure_singleton": check_closure_singleton,
    "check_eta_closure_and_density": check_eta_closure_and_density,
    "check_cont_iff_maximal": check_cont_iff_maximal,
    "check_separated_iff_maximal": check_separated_iff_maximal,
    "check_connectedness": check_connectedness,
    "check_compactness_lemma": check_compactness_lemma,
    "check_local_compactness": check_local_compactness,
    "check_baire": check_baire,
    "check_gdelta_ML": check_gdelta_ML,
    "check_product_structure": check_product_structure,
    "check_separated_points_corollary": check_separated_points_corollary,
    "check_conv_props": check_conv_props,
}


def run_check(check_id: str, space: FinTopSpace, env: CheckEnv | None = None, **kwargs) -> CheckResult:
    """Run one registered check; inconsistent carrier or neighborhood
    structures surface as failures instead of exceptions."""
    fn = CHECKS[check_id]
    if env is None:
        env = CheckEnv(space)
    try:
        return fn(space, env, **kwargs)
    except (NotOpen, NotInCarrier) as exc:
        return CheckResult(
            check_id,
            FAIL,
            witness=(("structural_error", str(exc)),),
            notes="carrier or neighborhood structure inconsistent",
        )


def verify_all(space: FinTopSpace, labels=None) -> VerificationReport:
    """Run every registered check once and collect the results."""
    if space.n < 1:
        raise ValueError("verification needs at least one point")
    env = CheckEnv(space, labels)
    t0 = time.perf_counter()
    results = [run_check(check_id, space, env) for check_id in CHECKS]
    return VerificationReport(
        digest(space), space.n, env.labels, tuple(results), time.perf_counter() - t0
    )


@dataclass(frozen=True)
class SweepResult:
    n: int
    space_count: int
    failure_count: int
    first_failures: tuple[tuple[str, str], ...]  # (check_id, space digest)
    elapsed_s: float


def _sweep_worker(space: FinTopSpace) -> tuple[str, tuple[str, ...]]:
    report = verify_all(space)
    failing = tuple(r.check_id for r in report.results if r.status == FAIL)
    return report.space_digest, failing


def sweep(n: int, long_run: bool = False, jobs: int | None = None) -> SweepResult:
    """Run the whole suite over every labeled topology on n points.

    The five-point sweep multiplies 6942 spaces by the full suite and must
    be requested explicitly through ``long_run``.
    """
    if n < 1:
        raise ValueError("sweep needs at least one point")
    if n >= 5 and not long_run:
        raise BudgetExceeded("sweep over five points requires the long-run flag")
    if jobs is None:
        jobs = int(os.environ.get("LH_JOBS", "1"))
    spaces = list(enumerate_topologies(n))
    t0 = time.perf_counter()
    if jobs > 1:
        chunk = max(1, len(spaces) // (jobs * 8))
        with Pool(jobs) as pool:
            rows = pool.map(_sweep_worker, spaces, chunksize=chunk)
    else:
        rows = [_sweep_worker(s) for s in spaces]
    failures = 0
    first: dict[str, str] = {}
    for dig, failing in rows:
        failures += len(failing)
        for check_id in failing:
            first.setdefault(check_id, dig)
    return SweepResult(
        n,
        len(spaces),
        failures,
        tuple(sorted(first.items())),
        time.perf_counter() - t0,
    )


@dataclass
class MiningHit:
    description: str
    labels: tuple[str, ...]
    result: CheckResult


def _canon_carrier(space, kind, masks) -> HyperCarrier:
    return HyperCarrier(space, kind, tuple(sorted(masks, key=canonical_key)))


def _cyclic_topology(space, kind, flavor) -> HyperTopology | None:
    car = build_carrier(space, kind)
    k = len(car.elements)
    if k < 3:
        return None
    rows = tuple(1 << i | 1 << (i + 1) % k for i in range(k))
    return HyperTopology(car, flavor, rows)


def corrupted_environments(space: FinTopSpace):
    """Yield (description, env_factory) pairs with deliberately broken
    carriers or neighborhood tables, for expect-fail exploration."""
    closed = set(closed_sets(space))
    all_subsets = sorted(range(space.full + 1), key=canonical_key)

    non_closed = next((m for m in all_subsets if m not in closed), None)
    if non_closed is not None:
        f_plus = _canon_carrier(space, "F", closed | {non_closed})
        yield ("non-closed set injected into F", lambda c=f_plus: CheckEnv(space, carriers={"F": c}))

    lcar = build_carrier(space, "L")
    lset = set(lcar.elements)
    non_limit = next((m for m in closed if m not in lset), None)
    if non_limit is not None:
        l_plus = _canon_carrier(space, "L", lset | {non_limit})
        yield ("non-limit closed set injected into L", lambda c=l_plus: CheckEnv(space, carriers={"L": c}))

    if non_closed is not None and is_limit_set(space, non_closed):
        l_open = _canon_carrier(space, "L", lset | {non_closed})
        yield ("non-closed set injected into L", lambda c=l_open: CheckEnv(space, carriers={"L": c}))

    mlcar = build_carrier(space, "ML")
    mlset = set(mlcar.elements)
    non_maximal = next((m for m in lcar.elements if m not in mlset), None)
    if non_maximal is not None:
        ml_plus = _canon_carrier(space, "ML", mlset | {non_maximal})
        yield (
            "non-maximal limit set injected into ML",
            lambda c=ml_plus: CheckEnv(space, carriers={"ML": c}),
        )

    if mlset:
        dropped = sorted(mlset, key=canonical_key)[-1]
        ml_minus = _canon_carrier(space, "ML", mlset - {dropped})
        yield ("maximal limit set removed from ML", lambda c=ml_minus: CheckEnv(space, carriers={"ML": c}))

    if len(mlset) >= 2:
        l_as_ml = _canon_carrier(space, "L", mlset)
        yield ("L restricted to its maximal elements", lambda c=l_as_ml: CheckEnv(space, carriers={"L": c}))

    for kind in ("F", "L"):
        cyc = _cyclic_topology(space, kind, "w")
        if cyc is not None:
            yield (
                f"cyclic neighborhood table on ({kind},tau_w)",
                lambda k=kind, t=cyc: CheckEnv(space, topologies={(k, "w"): t}),
            )

    swapped = build_topology(build_carrier(space, "F"), "s")
    swapped = HyperTopology(swapped.carrier, "w", swapped.rows)
    yield (
        "Fell table served as the lower topology on F",
        lambda t=swapped: CheckEnv(space, topologies={("F", "w"): t}),
    )

    widened = build_topology(build_carrier(space, "L"), "w")
    widened = HyperTopology(widened.carrier, "s", widened.rows)
    yield (
        "lower table served as the Fell topology on L",
        lambda t=widened: CheckEnv(space, topologies={("L", "s"): t}),
    )


def mine_check_failures(space: FinTopSpace, check_ids=None) -> dict[str, MiningHit]:
    """Expect-fail exploration: corrupt the structures and record, per
    check, the first corruption it detects. Proves the suite is
    non-vacuous."""
    if check_ids is None:
        check_ids = tuple(CHECKS)
    found: dict[str, MiningHit] = {}
    for description, factory in corrupted_environments(space):
        remaining = [cid for cid in check_ids if cid not in found]
        if not remaining:
            break
        for cid in remaining:
            env = factory()
            result = run_check(cid, space, env)
            if result.status == FAIL:
                found[cid] = MiningHit(description, env.labels, result)
    return found
