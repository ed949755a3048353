"""One named check per structural claim about the hyperspaces, a driver
that runs them all over a space or an enumeration sweep, and a
corrupted-carrier exploration mode proving the checks can actually fail.

Each check reads one ``CheckEnv``, which holds the space, and asserts
statements, never proof intermediates. Facts that finite spaces make
automatic (every subset compact, every preorder space Baire) are
reported with the distinct status ``trivially_true`` so they are never
confused with substantive passes; the compactness lemma and the Baire
check decide them by checking that their tables are a topology's.
Sequence-based convergence checks carry the status ``proxy``.
"""

from __future__ import annotations

import time
from functools import partial
from typing import NamedTuple

from .errors import BudgetExceeded, NotInCarrier, NotOpen
from .finspace import (
    FinTopSpace,
    bits,
    canonical_key,
    check_enum_points,
    check_labels,
    closure,
    default_labels,
    digest,
    family_repr,
    is_connected,
    mask_of,
    meet_of,
    preorder_prefixes,
    separated_points,
    set_repr,
    topologies_under,
    union_of,
)
from .hyperspace import (
    FLAVORS,
    HyperTopology,
    build_topology,
    hyper_closure,
    hyper_component,
    is_closed_sub,
    is_connected_hyper,
    is_dense,
    is_separated_in,
    product_closure,
)
from .limitsets import CARRIER_KINDS, HyperCarrier, carriers as build_carriers, eta

PASS = "pass"
FAIL = "fail"
TRIVIALLY_TRUE = "trivially_true"
PROXY = "proxy"

class CheckResult(NamedTuple):
    check_id: str
    status: str
    witness: tuple[tuple[str, str], ...] = ()
    notes: str = ""


class VerificationReport(NamedTuple):
    space_digest: str
    labels: tuple[str, ...]
    results: tuple[CheckResult, ...]
    elapsed_s: float = 0.0


class Corruption(NamedTuple):
    """One named corruption of a space's honest structures, as plain data.
    ``elements`` replace carrier ``kind`` (put in canonical order), and
    ``rows`` replace its (``kind``, ``flavor``) table; a record holding
    both puts one table on the replaced carrier."""

    description: str
    kind: str
    elements: tuple[int, ...] | None = None
    flavor: str | None = None
    rows: tuple[int, ...] | None = None


class CheckEnv:
    """The carriers and hyperspace topologies that one space's checks share.

    ``corrupted`` is the one builder of a broken env: it shares this env's
    honest carriers and tables with an env that replaces what one
    ``Corruption`` names, and every check then runs its ordinary logic
    against the broken structures. Labels, when given, name the points one
    each and obey the one label rule of ``finspace.check_labels``, the rule
    space documents and reports are read by; ``None`` or an empty sequence
    defaults them.
    """

    def __init__(self, space, labels=None):
        self.space = space
        self.labels = tuple(labels) if labels else default_labels(space.n)
        if len(self.labels) != space.n:
            raise ValueError(f"{len(self.labels)} labels given for a space of {space.n} points")
        if labels:
            check_labels(self.labels)
        self._carriers: dict[str, HyperCarrier] = {}
        self._topologies: dict[tuple[str, str], HyperTopology] = {}

    def carrier(self, kind: str) -> HyperCarrier:
        if not self._carriers:
            self._carriers = build_carriers(self.space)
        return self._carriers[kind]

    def corrupted(self, c: Corruption) -> CheckEnv:
        """The env of corruption ``c``, a copy of this one that shares its
        carriers and the tables built so far, but for what ``c`` replaces:
        a replaced carrier drops its two tables, which the new env
        rebuilds on it (``_non_closed_tables`` here when it is not
        closed), and a replaced table replaces that one only."""
        car = self.carrier(c.kind)
        env = object.__new__(CheckEnv)  # a copy: space and labels are already checked
        env.__dict__.update(vars(self), _carriers=dict(self._carriers), _topologies=dict(self._topologies))
        if c.elements is not None:
            car = env._carriers[c.kind] = HyperCarrier(self.space, c.kind, tuple(sorted(c.elements, key=canonical_key)))
            for flavor in FLAVORS:
                env._topologies.pop((c.kind, flavor), None)
            if not car.closed:
                env._topologies.update(_non_closed_tables(car))
        if c.rows is not None:
            env._topologies[c.kind, c.flavor] = HyperTopology(car, c.flavor, c.rows)
        return env

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


def check_closure_singleton(env):
    """The closure of one closed set in the lower topology on F(X) must be
    exactly its closed subsets: the closure of element i is the column
    ``cols[i]``, and its closed subsets are ``car.subsets[i]``."""
    t = env.topology("F", "w")
    car = t.carrier
    for a, got, expected in zip(car.elements, t.cols, car.subsets):
        if got != expected:
            return CheckResult(
                "check_closure_singleton",
                FAIL,
                witness=(
                    ("element", env.fmt(a)),
                    ("closure", env.fmt_indices(car, got)),
                    ("expected", env.fmt_indices(car, expected)),
                ),
            )
    return CheckResult("check_closure_singleton", PASS)


def check_eta_closure_and_density(env):
    """Point-closure image: its closure in (F(X), tau_w) is L(X); Fprime is
    dense in F(X); ML(X) is dense in L(X); and L(X) is closed in both
    topologies on F(X)."""
    cid = "check_eta_closure_and_density"
    tf = env.topology("F", "w")
    fcar = tf.carrier
    lcar = env.carrier("L")

    eta_idx = mask_of(fcar.index(eta(env.space, x)) for x in range(env.space.n))
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


def _first_disagreement(prop: int, ml: int) -> int | None:
    """The lowest L index whose bit in ``prop`` differs from its ML bit in ``ml``, or None."""
    bad = prop ^ ml
    return (bad & -bad).bit_length() - 1 if bad else None


def check_cont_iff_maximal(env):
    """Identity map from (L, tau_w) to (L, tau_s) is continuous exactly at
    the maximal limit sets, and the two topologies agree on ML. The map is
    continuous at element i when its tau_w row lies inside its tau_s row."""
    cid = "check_cont_iff_maximal"
    tw = env.topology("L", "w")
    ts = env.topology("L", "s")
    ml, bad = _ml_inside_l(env)
    if bad:
        return CheckResult(cid, FAIL, witness=bad)
    cont = mask_of(i for i, (w, s) in enumerate(zip(tw.rows, ts.rows)) if not w & ~s)
    i = _first_disagreement(cont, ml)
    if i is not None:
        a = env.fmt(tw.carrier.elements[i])
        return CheckResult(cid, FAIL, witness=(("element", a), ("continuous", _flag(cont, i)), ("maximal", _flag(ml, i))))
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


def check_separated_iff_maximal(env):
    """An element of (L, tau_w) is a separated point exactly when it is a
    maximal limit set."""
    cid = "check_separated_iff_maximal"
    tw = env.topology("L", "w")
    ml, bad = _ml_inside_l(env)
    if bad:
        return CheckResult(cid, FAIL, witness=bad)
    sep = mask_of(i for i in range(len(tw)) if is_separated_in(tw, i))
    i = _first_disagreement(sep, ml)
    if i is not None:
        a = env.fmt(tw.carrier.elements[i])
        return CheckResult(cid, FAIL, witness=(("element", a), ("separated", _flag(sep, i)), ("maximal", _flag(ml, i))))
    return CheckResult(cid, PASS)


def check_connectedness(env):
    """Connected ground space forces (L, tau_w) connected. The Fell-side
    analogue fails routinely and is reported as an informational note,
    not asserted."""
    cid = "check_connectedness"
    if not is_connected(env.space):
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


def _not_a_topology_at(t):
    """First carrier index whose row breaks reflexivity or transitivity,
    or None when the table is the minimal-neighborhood table of a
    topology, which the compactness, Baire and product reductions need.
    A transitive table is one whose rows are all open."""
    bad = ((1 << len(t)) - 1) & ~t.open_rows
    bad |= mask_of(a for a, row in enumerate(t.rows) if not (row >> a) & 1)
    return (bad & -bad).bit_length() - 1 if bad else None


def check_compactness_lemma(env):
    """The set of closed sets hitting each member of a finite family is
    compact in (F, tau_w), for the empty family, each singleton and the
    family of all singletons. Once the table is checked to be a
    topology's, this holds: an open cover of a subset of a finite space is
    finite, so it is its own finite subcover. The note counts the
    families, 1 + n plus one more when the space has a point."""
    cid = "check_compactness_lemma"
    t = env.topology("F", "w")
    a = _not_a_topology_at(t)
    if a is not None:
        return CheckResult(cid, FAIL, witness=(("not_a_topology_at", env.fmt(t.carrier.elements[a])),))
    families = 1 + env.space.n + (env.space.n > 0)
    return CheckResult(cid, TRIVIALLY_TRUE, notes=f"finite subcover found for {families} hit families")


def check_local_compactness(env):
    """Every element of F, Fprime, L and Lprime has a compact neighborhood
    sandwiched between basic neighborhoods, built constructively from
    minimal point neighborhoods, and covered by the rows of its own
    elements; the lowest of those rows that is not open raises NotOpen."""
    cid = "check_local_compactness"
    witnessed = 0
    for kind in ("F", "Fprime", "L", "Lprime"):
        t = env.topology(kind, "w")
        holding = t.carrier.holding
        for a in t.carrier.elements:
            # the basic neighborhood hit(min_nbhd(x) : x in a): it holds a and
            # lies in hit(u) for each open u meeting a, as min_nbhd(x) <= u
            # for x in a & u, and a closed set meets min_nbhd(x) iff it holds x
            inner = (1 << len(t)) - 1
            for x in bits(a):
                inner &= holding[x]
            bad = inner & ~t.open_rows
            if bad:
                row = t.rows[(bad & -bad).bit_length() - 1]
                raise NotOpen(f"cover member {list(bits(row))} is not open in the hyperspace")
            if inner & ~union_of(t.rows, inner):
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


def check_baire(env):
    """The intersection of all dense open subsets of (L, tau_w),
    (Lprime, tau_w) and (ML, tau_w) is dense: the strongest Baire
    statement a finite carrier supports.

    Once each table is checked to be a topology's, the claim holds on it.
    Two dense opens U and V meet in a dense open: U & V is open, and a
    nonempty open W meets U in a nonempty open, which meets V. The dense
    opens are finitely many, so their intersection is dense too.
    ``oracle.dense_open_meet_oracle`` computes that intersection from every
    union of rows; the tests check it is dense wherever the precheck
    passes.
    """
    cid = "check_baire"
    sizes = []
    for kind in ("L", "Lprime", "ML"):
        t = env.topology(kind, "w")
        a = _not_a_topology_at(t)
        if a is not None:
            return CheckResult(
                cid, FAIL, witness=(("carrier", kind), ("not_a_topology_at", env.fmt(t.carrier.elements[a])))
            )
        sizes.append(f"{kind}={len(t)}")
    return CheckResult(
        cid, TRIVIALLY_TRUE, notes="dense-open intersection decided exactly over " + ", ".join(sizes)
    )


def check_gdelta_ML(env):
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


def check_product_structure(env):
    """Product-side facts over (L, tau_s) x (L, tau_s): the inclusion
    relation is closed, and the slice map of any product open is open.

    The slice map S(m) = {a : {a} x L inside m} is monotone and the least
    product open holding the row {a} x L is its hull, so S(m) is open for
    every product open m exactly when nb[a] lies in S(hull(row a)) for
    every a. The product minimal neighborhood of (a, b) is nb[a] x nb[b],
    so the hull of row a pairs each x in nb[a] with the union of nb[b]
    over all b, and nothing else. On a reflexive table that union is the
    whole carrier, so S(hull(row a)) = nb[a] and the slice claim holds.
    The table is checked to be a topology's, reflexive and transitive,
    after the inclusion relation; the slice claim then needs no loop.
    """
    cid = "check_product_structure"
    lcar = env.carrier("L")
    ts = env.topology("L", "s")
    e = lcar.supersets
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

    a = _not_a_topology_at(ts)
    if a is not None:
        return CheckResult(cid, FAIL, witness=(("not_a_topology_at", env.fmt(lcar.elements[a])),))
    return CheckResult(cid, PASS, notes=f"slice map decided exactly over {len(ts)} rows")


def check_separated_points_corollary(env):
    """Point closures of separated points are exactly the maximal point
    closures; the family is dense in (ML, tau_w) and open in (L, tau_s)."""
    cid = "check_separated_points_corollary"
    space = env.space
    fam = {eta(space, x) for x in bits(separated_points(space))}
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


def _flag(mask: int, a: int) -> str:
    return "true" if (mask >> a) & 1 else "false"


def check_conv_props(env):
    """Triple equivalence over every eventually periodic sequence of closed
    sets and every closed target A: Fell convergence to A, the
    point-selection conditions, and primitivity in tau_w with limit set
    equal to the closed subsets of A.

    Single cycle terms decide every sequence, for all targets at once as
    bitmasks over carrier indices. The selection conditions of a cycle
    hold for the targets A with reach <= A <= good, reach and good the
    union and the intersection over its terms t of near(t), the points
    whose minimal neighborhood meets t; near(t) is the closure of t, closed
    or not, and ``oracle.conv1_conditions`` decides the same point by
    point. So they are the AND over the terms of ``sel[t]``, the bit of
    the target equal to the closure of t, or 0 when the carrier lacks it.
    The Fell limits are the AND of ``cols_s[t]``, and the primitive side
    is the targets whose closed subsets are the terms' common
    ``cols_w[t]``, or none when those differ. Distinct elements have
    distinct ``subsets`` masks (``subsets[i]`` holds i, and lies inside
    ``subsets[j]`` only when element i lies inside element j), so that is
    one target at most. Term t passes when all three are one target j:
    ``cols_s[t] == 1 << j`` and ``cols_w[t] == subsets[j]``. If every term passes, every set of terms
    agrees: the first two are ANDs of the same single bits, and the
    ``cols_w[t] == subsets[j_t]`` differ exactly when the j_t do, where
    those ANDs are 0. ``sel`` and ``subsets`` depend on the space and the
    carrier only, so this holds on any table, corrupted ones included. The
    one-term cycles come first among the ordered cycles, so the first
    failing term is the first failing cycle. Convergence is a tail
    property, so no preperiod changes a verdict either. The note counts
    the k + k^2 cycles of at most two terms over the k elements, and the
    (1 + k)(k + k^2) sequences with a preperiod of at most one term.

    The verdict is also that of every net. The tail ranges
    T_d = {x_e : e >= d} of a net (x_d) in the finite carrier form a
    filter base of nonempty sets, so the smallest of them, S, lies in all
    the others. The net is eventually in a set U exactly when S lies in
    U, and frequently in U exactly when S meets U. Fell limits, tau_w
    limits and clusters, and the Kuratowski lower and upper limits of
    point selections read only these two predicates, so every net has the
    verdict of the periodic sequence with cycle S, and every nonempty S is
    such a cycle. The check therefore decides the net form of the claim
    exactly; its ``proxy`` status and its note are ``verify`` output and
    stay as they are.
    """
    cid = "check_conv_props"
    tw = env.topology("F", "w")
    ts = env.topology("F", "s")
    car = tw.carrier
    elems = car.elements
    for t, m in enumerate(elems):
        fell, lower = ts.cols[t], tw.cols[t]
        try:
            j = car.index(closure(env.space, m))
        except NotInCarrier:
            sel = 0
        else:
            if fell == 1 << j and lower == car.subsets[j]:
                continue
            sel = 1 << j
        # a failing term: every target whose closed subsets are cols_w[t]
        p22 = mask_of(a for a, subs in enumerate(car.subsets) if subs == lower)
        bad = (fell ^ sel) | (sel ^ p22)
        if bad:
            a = (bad & -bad).bit_length() - 1
            return CheckResult(
                cid,
                FAIL,
                witness=(
                    ("cycle", f"({env.fmt(m)})"),
                    ("target", env.fmt(elems[a])),
                    ("fell_convergence", _flag(fell, a)),
                    ("selection_conditions", _flag(sel, a)),
                    ("primitive_characterization", _flag(p22, a)),
                ),
            )

    k = len(elems)
    n_cycles = k + k * k
    return CheckResult(
        cid,
        PROXY,
        notes=(
            f"sequences stand in for nets; {n_cycles} cycles, {(1 + k) * n_cycles} sequences "
            "(preperiod<=1, cycle<=2) over F(X)"
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


def run_check(check_id: str, env: CheckEnv) -> CheckResult:
    """Run one registered check on ``env``; inconsistent carrier or
    neighborhood structures surface as failures instead of exceptions."""
    try:
        return CHECKS[check_id](env)
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
    results = [run_check(check_id, env) for check_id in CHECKS]
    return VerificationReport(digest(space), env.labels, tuple(results), time.perf_counter() - t0)


class SweepResult(NamedTuple):
    space_count: int
    failure_count: int
    first_failures: tuple[tuple[str, str], ...]  # (check_id, space digest)
    elapsed_s: float


def _sweep_task(n: int, prefix: tuple[int, ...]) -> tuple[int, int, tuple[tuple[str, str], ...]]:
    """Verify every space of one enumeration subtree: its space count,
    failure count and the first failing digest of each check, in
    enumeration order."""
    count = failures = 0
    first: dict[str, str] = {}
    for space in topologies_under(n, prefix):
        count += 1
        report = verify_all(space)
        for r in report.results:
            if r.status == FAIL:
                failures += 1
                first.setdefault(r.check_id, report.space_digest)
    return count, failures, tuple(first.items())


def Pool(workers: int):
    """``multiprocessing.Pool(workers)``, imported only by a sweep that
    starts workers. ``sweep`` looks the pool up by this name, so a
    stand-in can replace it."""
    from multiprocessing import Pool as pool

    return pool(workers)


def sweep(n: int, long_run: bool = False, jobs: int = 1) -> SweepResult:
    """Run the whole suite over every labeled topology on n points.

    The five- and six-point sweeps verify 6942 and 209527 spaces and must
    be requested explicitly through ``long_run``; a count past the
    enumeration cap is refused before that flag is read. The enumeration
    is split into subtrees by the first two rows of the preorder table;
    each task enumerates and verifies one subtree and returns one
    aggregate, and the aggregates are merged in enumeration order, so the
    result does not depend on ``jobs``. ``elapsed_s`` includes the
    enumeration.
    """
    if n < 1:
        raise ValueError("sweep needs at least one point")
    check_enum_points(n)
    if n >= 5 and not long_run:
        raise BudgetExceeded(f"sweep over {n} points requires the long-run flag")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    t0 = time.perf_counter()
    prefixes = preorder_prefixes(n)
    task = partial(_sweep_task, n)
    workers = min(jobs, len(prefixes))
    if workers > 1:
        # subtrees hold 9 to 632 of the 6942 five-point spaces, so each
        # task goes out on its own to keep the workers evenly loaded
        with Pool(workers) as pool:
            parts = pool.map(task, prefixes, chunksize=1)
    else:
        parts = [task(p) for p in prefixes]
    count = failures = 0
    first: dict[str, str] = {}
    for part_count, part_failures, part_first in parts:
        count += part_count
        failures += part_failures
        for check_id, dig in part_first:
            first.setdefault(check_id, dig)
    return SweepResult(count, failures, tuple(sorted(first.items())), time.perf_counter() - t0)


class MiningHit(NamedTuple):
    description: str
    result: CheckResult


def _non_closed_tables(car: HyperCarrier) -> dict[tuple[str, str], HyperTopology]:
    """Both tables of a carrier holding a set that is not closed, which
    ``build_topology`` refuses. B is in A's tau_w row iff B meets
    min_nbhd(x) for each x in A, closed or not: the AND of ``near[x]``, the
    elements meeting min_nbhd(x). tau_s ANDs ``car.subsets`` too. B is in
    A's tau_w row iff A lies inside cl(B), a preorder, and tau_s meets it
    with inclusion, so every row is open and ``open_rows`` is full."""
    near = tuple(car.meeting(row) for row in car.space.rows)
    full_k = (1 << len(car)) - 1
    w = tuple(meet_of(near, a, full_k) for a in car.elements)
    tables = {}
    for flavor, rows in (("w", w), ("s", tuple(row & sub for row, sub in zip(w, car.subsets)))):
        t = tables[car.kind, flavor] = HyperTopology(car, flavor, rows)
        t.__dict__["open_rows"] = full_k
    return tables


def corruptions(env: CheckEnv):
    """Yield mining's named corruptions of ``env``'s honest carriers and
    tables, in the order mining tries them."""
    f, l, ml = (env.carrier(kind).elements for kind in ("F", "L", "ML"))
    # the first non-closed set in canonical order: the empty set and the
    # singletons lead it, and if every singleton is closed so is every set
    non_closed = next((1 << x for x, cl in enumerate(env.space.closures) if cl != 1 << x), None)
    if non_closed is not None:
        yield Corruption("non-closed set injected into F", "F", (*f, non_closed))
    lset = set(l)
    non_limit = next((m for m in f if m not in lset), None)
    if non_limit is not None:
        yield Corruption("non-limit closed set injected into L", "L", (*l, non_limit))
    # a singleton is a limit set: the opens meeting it share its point
    if non_closed is not None:
        yield Corruption("non-closed set injected into L", "L", (*l, non_closed))
    mlset = set(ml)
    non_maximal = next((m for m in l if m not in mlset), None)
    if non_maximal is not None:
        yield Corruption("non-maximal limit set injected into ML", "ML", (*ml, non_maximal))
    if ml:
        yield Corruption("maximal limit set removed from ML", "ML", ml[:-1])
    if len(ml) >= 2:
        yield Corruption("L restricted to its maximal elements", "L", ml)
    for kind, k in (("F", len(f)), ("L", len(l))):
        if k >= 3:
            cycle = tuple(1 << i | 1 << (i + 1) % k for i in range(k))
            yield Corruption(f"cyclic neighborhood table on ({kind},tau_w)", kind, flavor="w", rows=cycle)
    yield Corruption("Fell table served as the lower topology on F", "F", flavor="w", rows=env.topology("F", "s").rows)
    yield Corruption("lower table served as the Fell topology on L", "L", flavor="s", rows=env.topology("L", "w").rows)


def corrupted_environments(space: FinTopSpace):
    """Yield (description, env) pairs with deliberately broken carriers or
    neighborhood tables, for expect-fail exploration: the env of each of
    ``corruptions``, all built from one honest env, so the space's five
    honest carriers and ten honest tables are built once."""
    honest = CheckEnv(space)
    for kind in CARRIER_KINDS:
        for flavor in FLAVORS:
            honest.topology(kind, flavor)
    for c in corruptions(honest):
        yield c.description, honest.corrupted(c)


def mine_check_failures(space: FinTopSpace) -> dict[str, MiningHit]:
    """Expect-fail exploration: corrupt the structures and record, per
    check, the first corruption it detects. Proves the suite is
    non-vacuous. The checks of one corruption share its environment: they
    only fill its caches of carriers and tables, which are deterministic.
    Witnesses name the points by ``default_labels(space.n)``."""
    found: dict[str, MiningHit] = {}
    for description, env in corrupted_environments(space):
        remaining = [cid for cid in CHECKS if cid not in found]
        if not remaining:
            break
        for cid in remaining:
            result = run_check(cid, env)
            if result.status == FAIL:
                found[cid] = MiningHit(description, result)
    return found
