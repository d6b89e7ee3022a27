import ast
import functools
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from rallypoint import (
    FamiliarityMode,
    Indexes,
    Location,
    MagsAudit,
    PruneConfig,
    Query,
    SearchStats,
    SocialGraph,
    SpatialDataset,
    brute_force,
    build_indexes,
    distance,
    is_feasible,
    mags_solve,
    srdo_seed,
    ssgmerge_solve,
    ssgs_solve,
    ssp_solve,
    total_distance,
)

from rallypoint import multi_venue, single_venue
from rallypoint.balltree import mindist_point_ball
from rallypoint.generator import radius_for_quantile, random_instance, unit_distance_dataset
from rallypoint.pruning import distance_prune, pool_degrees
from rallypoint.model import PRUNE_VENUE_RADIUS

from conftest import make_query_instance
import test_frame_counts as frame_counts


def _total(sol):
    return None if sol is None else round(sol.total_distance, 9)


# --- sequential processing -------------------------------------------------


def test_ssp_single_venue_equals_ssgs(g1_instance, g1_query):
    graph, data = g1_instance
    a = ssp_solve(g1_query, graph, data)
    b = ssgs_solve(g1_query, graph, data)
    assert a.group == b.group and a.total_distance == b.total_distance


def test_ssp_fig4_optimum(fig4_instance):
    graph, data, query = fig4_instance
    sol = ssp_solve(query, graph, data)
    assert sol.group == ("a", "b", "c")
    assert sol.venue == "q2"
    assert sol.total_distance == 6.0


def test_ssp_builds_its_indexes_once(fig4_instance, monkeypatch):
    graph, data, query = fig4_instance
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return build_indexes(*args, **kwargs)

    for module in (multi_venue, single_venue):
        monkeypatch.setattr(module, "build_indexes", counting)
    sol = ssp_solve(query, graph, data)
    assert (sol.group, sol.venue, sol.total_distance) == (("a", "b", "c"), "q2", 6.0)
    # One build for the three venues, none when the caller passes indexes.
    assert len(query.venues) == 3 and len(built) == 1
    ssp_solve(query, graph, data, build_indexes(data))
    assert len(built) == 1


def test_mags_fig4_optimum(fig4_instance):
    graph, data, query = fig4_instance
    for ordering in ("srdo", "apdo"):
        sol = mags_solve(query, graph, data, ordering=ordering)
        assert (sol.group, sol.venue, sol.total_distance) == (("a", "b", "c"), "q2", 6.0)


def test_oracle_fig4(fig4_instance):
    graph, data, query = fig4_instance
    res = brute_force(query, graph, data)
    assert (res.group, res.venue, res.total_distance) == (("a", "b", "c"), "q2", 6.0)


def test_all_venues_out_of_reach_returns_none(fig4_instance):
    graph, data, _ = fig4_instance
    query = Query(p=3, k=0, t=0.5, venues=("q1", "q2", "q3"))
    assert ssp_solve(query, graph, data) is None
    assert mags_solve(query, graph, data, ordering="srdo") is None
    assert mags_solve(query, graph, data) is None


def test_unknown_venue_is_a_value_error(fig4_instance):
    graph, data, _ = fig4_instance
    single = Query(p=3, k=0, t=30.0, venues=("zz",))
    multi = Query(p=3, k=0, t=30.0, venues=("q1", "zz"))
    solvers = {
        "ssgs": ssgs_solve,
        "ssgmerge": ssgmerge_solve,
        "ssp": ssp_solve,
        "mags-srdo": lambda q, g, d: mags_solve(q, g, d, ordering="srdo"),
        "mags-apdo": lambda q, g, d: mags_solve(q, g, d, ordering="apdo"),
        "brute_force": brute_force,
    }
    for name, solver in solvers.items():
        for query in (single,) if name.startswith("ssg") else (single, multi):
            with pytest.raises(ValueError, match="venue 'zz'"):
                solver(query, graph, data)


# --- seed selection ---------------------------------------------------------


def _table(data, pool, live):
    """Member-to-venue distance table over ``pool`` and ``live``, as a
    multi-venue search keeps it."""
    return {m: {q: data.member_venue_distance(m, q) for q in live} for m in pool}


def test_srdo_seed_fixture(srdo_instance):
    graph, data, query = srdo_instance
    degree_of = {v: graph.degree(v) for v in graph.vertices}
    member, venue, dist = srdo_seed(_table(data, "abcd", query.venues), degree_of)
    assert (member, venue) == ("d", "q4")
    assert dist == pytest.approx(0.9, abs=1e-9)
    # Without q4, the closest live venue is q3, 1 from a.
    table = _table(data, "abcd", ("q1", "q2", "q3"))
    assert srdo_seed(table, degree_of) == ("a", "q3", 1.0)


def test_srdo_seed_single_pair():
    data = SpatialDataset({"m": Location(0, 0)}, {"q": Location(3, 4)})
    assert srdo_seed(_table(data, ["m"], ["q"]), {}) == ("m", "q", 5.0)
    assert srdo_seed(_table(data, [], ["q"]), {}) is None
    assert srdo_seed(_table(data, ["m"], []), {}) is None


def test_srdo_seed_reads_only_the_table(monkeypatch):
    # The seed computes no distance: it reads the table it is given, even
    # one whose figures no location could produce.
    def no_distance(*args):
        raise AssertionError("srdo_seed computed a distance")

    # The module's one distance computation is its ``math.hypot`` call.
    monkeypatch.setattr(multi_venue.math, "hypot", no_distance)
    table = {"a": {"x": 3.0, "y": 0.5}, "b": {"x": 0.5, "y": 7.0}}
    assert srdo_seed(table, {}) == ("a", "y", 0.5)
    assert srdo_seed(table, {"b": 1}) == ("b", "x", 0.5)


def test_srdo_seed_matches_scan():
    rng = random.Random(8)
    for trial in range(40):
        members = {
            i: Location(rng.uniform(0, 80), rng.uniform(0, 80))
            for i in range(rng.randint(1, 25))
        }
        venues = {
            f"q{i}": Location(rng.uniform(0, 80), rng.uniform(0, 80))
            for i in range(rng.randint(1, 8))
        }
        data = SpatialDataset(members, venues)
        pool = rng.sample(sorted(members), rng.randint(1, len(members)))
        live = rng.sample(sorted(venues), rng.randint(1, len(venues)))
        got = srdo_seed(_table(data, pool, live), {})
        expected = min((distance(members[m], venues[q]), m, q) for m in pool for q in live)
        assert got[2] == pytest.approx(expected[0], abs=1e-12)
        assert (got[0], got[1]) == (expected[1], expected[2])


def _seed_by_scan(members, venues, degree_of, pool, live):
    d, _, m, q = min(
        (distance(members[m], venues[q]), -degree_of.get(m, 0), m, q)
        for m in sorted(pool)
        for q in live
    )
    return (m, q, d)


def _check_seed_against_scan(members, venues, degree_of, pool, live):
    got = srdo_seed(_table(SpatialDataset(members, venues), pool, live), degree_of)
    assert got == _seed_by_scan(members, venues, degree_of, pool, live)


def test_srdo_seed_tie_breaks_match_scan():
    # q1 and q2 share a spot at sqrt(2) from member 1: (1, q1) must win the
    # tie with (1, q2).
    _check_seed_against_scan(
        {0: Location(0, 6), 1: Location(5, 6)},
        {"q0": Location(1, 2), "q1": Location(4, 5), "q2": Location(4, 5), "q3": Location(6, 0)},
        {0: 1, 1: 1},
        {0, 1},
        ["q3", "q2", "q1", "q0"],
    )
    # Integer grid with members sharing spots and degrees: distances tie
    # often, so the order by degree, then member, then venue decides. Each
    # check takes a random pool and a random subset of live venues.
    rng = random.Random(21)
    for trial in range(300):
        spots = [Location(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(rng.randint(1, 8))]
        members = {i: rng.choice(spots) for i in range(rng.randint(1, 30))}
        venues = {
            f"q{j}": Location(rng.randint(0, 6), rng.randint(0, 6))
            for j in range(rng.randint(1, 12))
        }
        degree_of = {m: rng.randint(0, 3) for m in members if rng.random() < 0.8}
        pool = set(rng.sample(sorted(members), rng.randint(1, len(members))))
        live = rng.sample(sorted(venues), rng.randint(1, len(venues)))
        _check_seed_against_scan(members, venues, degree_of, pool, live)


def test_srdo_seed_many_pools_on_one_index():
    # Many pools and live-venue sets against one dataset. Integer spots make
    # members share locations and venues tie in distance.
    rng = random.Random(34)
    for trial in range(40):
        spots = [Location(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(1, 10))]
        members = {i: rng.choice(spots) for i in range(rng.randint(1, 40))}
        venues = {
            f"q{j}": Location(rng.randint(0, 5), rng.randint(0, 5))
            for j in range(rng.randint(1, 12))
        }
        for _ in range(25):
            degree_of = {m: rng.randint(0, 3) for m in members if rng.random() < 0.8}
            pool = set(rng.sample(sorted(members), rng.randint(1, len(members))))
            live = rng.sample(sorted(venues), rng.randint(1, len(venues)))
            _check_seed_against_scan(members, venues, degree_of, pool, live)
    # Four venues at distance 5 from the shared spot of members 0 and 1, two
    # of them on one spot: the smallest venue id wins, and the degree then
    # the member id decide between the members.
    members = {0: Location(0, 0), 1: Location(0, 0), 2: Location(9, 9)}
    venues = {
        "q3": Location(3, 4),
        "q1": Location(4, 3),
        "q2": Location(-5, 0),
        "q0": Location(0, -5),
        "q4": Location(0, -5),
    }
    data = SpatialDataset(members, venues)
    table = _table(data, {0, 1, 2}, list(venues))
    assert srdo_seed(table, {}) == (0, "q0", 5.0)
    assert srdo_seed(table, {1: 2}) == (1, "q0", 5.0)
    assert srdo_seed(_table(data, {0, 1}, ["q4", "q3", "q2"]), {}) == (0, "q2", 5.0)
    # Member 2 is sqrt(61) from both q3 and q1.
    assert srdo_seed(_table(data, {2}, list(venues)), {}) == (2, "q1", math.sqrt(61))


def test_srdo_seed_reads_only_its_own_indexes():
    near = SpatialDataset(
        {"a": Location(0, 0), "b": Location(4, 0)},
        {"x": Location(1, 0), "y": Location(9, 0)},
    )
    far = SpatialDataset(
        {"a": Location(10, 0), "b": Location(-1, 0)},
        {"x": Location(6, 0), "y": Location(-1, 0)},
    )
    # Alternate between two datasets over the same ids: the seed answers
    # from the table it is given only.
    for _ in range(2):
        assert srdo_seed(_table(near, "ab", "xy"), {}) == ("a", "x", 1.0)
        assert srdo_seed(_table(far, "ab", "xy"), {}) == ("b", "y", 0.0)
    # mags-srdo reads the members' R-tree and no ball tree: without one it
    # finds the same answer with the same search tree.
    for seed in range(40):
        graph, data, query = make_query_instance(seed, q_range=(2, 5))
        full = build_indexes(data)
        runs = []
        for idx in (full, Indexes(members=full.members, venues=None)):
            stats = SearchStats()
            sol = mags_solve(query, graph, data, idx, ordering="srdo", stats=stats)
            runs.append((_total(sol), stats.explored_states, stats.generated_states, stats.pruned))
        assert runs[0] == runs[1]

def test_srdo_candidates_out_of_every_live_venue_radius():
    # q1 hosts a and b, q2 hosts c and d, 10 apart; t = 1 and the graph is
    # complete, so no social rule fires. Seed (a, q1), order a, b, d,
    # c. Once the prefix holds a or b only q1 is live, so the frames under a
    # and b drop d and c on entry and never generate them; likewise q1 is
    # dropped after d.
    graph = SocialGraph("abcd", [(u, v) for u in "abcd" for v in "abcd" if u < v])
    data = SpatialDataset(
        {"a": Location(0, 0), "b": Location(1, 0), "c": Location(10, 0), "d": Location(9, 0)},
        {"q1": Location(0, 0), "q2": Location(10, 0)},
    )
    query = Query(p=2, k=0, t=1.0, venues=("q1", "q2"))
    stats = SearchStats()
    sol = mags_solve(
        query, graph, data, ordering="srdo", config=PruneConfig(venue_distance=False), stats=stats
    )
    assert (sol.group, sol.venue, sol.total_distance) == (("a", "b"), "q1", 1.0)
    # Root: a, b, d generated (c has no partner left). Under a: b; under b:
    # none; under d: c.
    assert stats.generated_states == 5
    # Root children a, b and d, plus leaves (a, b), (d, c).
    assert stats.explored_states == 5
    # q2 out of radius for a and b, q1 for d, all at the root.
    assert stats.pruned == {PRUNE_VENUE_RADIUS: 3}


# The work of one srdo search over string venue ids, counted in a fresh
# interpreter so that the string hash seed can vary.
HASH_SEED_CHILD = """
import sys
sys.path[:0] = [{src!r}, {tests!r}]
import rallypoint.multi_venue as mv
from conftest import make_query_instance
calls = 0
prune = mv.distance_prune
def counting(*args):
    global calls
    calls += 1
    return prune(*args)
mv.distance_prune = counting
for seed in range(10):
    graph, data, query = make_query_instance(seed, n_range=(20, 30), p_range=(3, 5), q_range=(4, 8))
    mv.mags_solve(query, graph, data, ordering="srdo")
print(calls)
"""


def _child_output(child, hash_seed):
    """Last stdout line of ``child`` run in a fresh interpreter under
    ``PYTHONHASHSEED=hash_seed``."""
    here = Path(__file__).resolve().parent
    code = child.format(src=str(here.parent / "src"), tests=str(here))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()[-1]


def test_srdo_work_does_not_depend_on_the_hash_seed():
    first = int(_child_output(HASH_SEED_CHILD, 0))
    assert first > 0
    assert int(_child_output(HASH_SEED_CHILD, 1)) == first


# The full record of each apdo search over string venue ids: answer, every
# counter and the digests of the audited selections and bounds.
APDO_HASH_SEED_CHILD = """
import hashlib, sys
sys.path[:0] = [{src!r}, {tests!r}]
from rallypoint import MagsAudit, SearchStats, mags_solve
from conftest import make_query_instance
def digest(records):
    return hashlib.sha256(repr(records).encode()).hexdigest()
runs = []
for seed in range(10):
    graph, data, query = make_query_instance(seed, n_range=(20, 30), p_range=(3, 5), q_range=(4, 8))
    stats, audit = SearchStats(), MagsAudit()
    sol = mags_solve(query, graph, data, ordering="apdo", stats=stats, audit=audit)
    answer = None if sol is None else (sol.group, sol.venue, repr(sol.total_distance))
    runs.append((
        answer,
        (stats.explored_states, stats.generated_states),
        sorted(stats.pruned.items()),
        (len(audit.selections), digest(audit.selections)),
        (len(audit.bounds), digest(audit.bounds)),
    ))
print(repr(runs))
"""


def test_apdo_work_does_not_depend_on_the_hash_seed():
    first = _child_output(APDO_HASH_SEED_CHILD, 0)
    runs = ast.literal_eval(first)
    assert sum(run[3][0] for run in runs) > 0
    assert sum(run[4][0] for run in runs) > 0
    assert _child_output(APDO_HASH_SEED_CHILD, 1) == first


def test_apdo_reference_switches(srdo_instance):
    graph, data, query = srdo_instance
    audit = MagsAudit()
    sol = mags_solve(query, graph, data, ordering="apdo", audit=audit)
    # The frame under [d, a] is a leaf frame, which scans its venues
    # without selecting.
    picks = [(s.member, s.venue) for s in audit.selections[:2]]
    assert picks == [("d", "q4"), ("a", "q3")]
    assert sol.group == ("a", "b", "d") and sol.venue == "q3"


def _check_selections_by_scan(graph, data, query, audit):
    """Each audited selection is the scan argmin of ``(score, -degree,
    member, venue)`` over its candidates and venues within ``t``."""
    for rec in audit.selections:
        best = None
        for m in rec.candidates:
            m_loc = data.member_locations[m]
            for q in rec.venues:
                q_loc = data.venue_locations[q]
                d = distance(m_loc, q_loc)
                if d > query.t:
                    continue
                score = d + sum(
                    distance(data.member_locations[s], q_loc) for s in rec.group
                )
                key = (score, -graph.degree(m), m, q)
                if best is None or key < best:
                    best = key
        assert best is not None
        assert rec.score == pytest.approx(best[0], abs=1e-9)
        assert (rec.member, rec.venue) == (best[2], best[3])


def test_apdo_selection_equals_scan_argmin():
    for seed in range(25):
        graph, data, query = make_query_instance(3100 + seed, q_range=(2, 5))
        audit = MagsAudit()
        mags_solve(query, graph, data, ordering="apdo", audit=audit)
        _check_selections_by_scan(graph, data, query, audit)


@pytest.mark.parametrize("mode", list(FamiliarityMode), ids=lambda m: m.value)
def test_apdo_selection_equals_scan_argmin_on_tie_heavy_grids(mode):
    # Integer grids with members at exactly t put many (member, venue) pairs
    # at equal scores, so the tie-breaks decide; every selection a frame
    # reads off its sorted order, the first and each one after a child
    # returns, must be the scan argmin.
    rng = random.Random(f"apdo-ties-{mode.value}")
    selections = 0
    for _ in range(6000):
        graph, data, query = _grid_instance(rng)
        query = Query(query.p, query.k, query.t, query.venues, mode)
        audit = MagsAudit()
        mags_solve(query, graph, data, ordering="apdo", audit=audit)
        _check_selections_by_scan(graph, data, query, audit)
        selections += len(audit.selections)
    assert selections > 1000, selections


@pytest.mark.parametrize("mode", list(FamiliarityMode), ids=lambda m: m.value)
def test_apdo_sorts_once_per_selecting_frame(mode, monkeypatch):
    # An apdo frame sorts its candidates at its first selection and reads
    # every later one off that order: a frame that selects nothing sorts
    # nothing, and no frame sorts again after a child returns.
    sorts = []
    original = multi_venue._MultiVenueSearch._selection_order

    def counting(self, prefix, universe, remaining):
        sorts.append(tuple(prefix))
        return original(self, prefix, universe, remaining)

    monkeypatch.setattr(multi_venue._MultiVenueSearch, "_selection_order", counting)
    rng = random.Random(f"apdo-ties-{mode.value}")
    frames = 0
    for _ in range(6000):
        graph, data, query = _grid_instance(rng)
        query = Query(query.p, query.k, query.t, query.venues, mode)
        audit = MagsAudit()
        sorts.clear()
        mags_solve(query, graph, data, ordering="apdo", audit=audit)
        selecting = {rec.group for rec in audit.selections}
        assert len(sorts) == len(selecting)
        assert set(sorts) == selecting
        frames += len(selecting)
    assert frames > 1000, frames


def test_apdo_checks_ball_bounds_only_against_a_finite_incumbent():
    # No lower bound reaches an infinite incumbent, so a check against one
    # is wasted work.
    records = 0
    for seed in range(130):
        graph, data, query = make_query_instance(
            40_000 + seed, n_range=(6, 12), p_range=(2, 5), q_range=(2, 6)
        )
        audit = MagsAudit()
        mags_solve(query, graph, data, ordering="apdo", audit=audit)
        assert all(math.isfinite(rec.best_at_check) for rec in audit.bounds), seed
        records += len(audit.bounds)
    assert records > 0


def test_apdo_without_a_venue_ball_tree_is_a_value_error(fig4_instance, monkeypatch):
    graph, data, query = fig4_instance
    full = build_indexes(data)

    def no_search(*args, **kwargs):
        raise AssertionError("search work started")

    monkeypatch.setattr(multi_venue, "candidate_order", no_search)
    with pytest.raises(ValueError, match="venue ball tree"):
        mags_solve(query, graph, data, Indexes(members=full.members, venues=None), ordering="apdo")


# --- search set-up ----------------------------------------------------------


def _grid_instance(rng):
    """Integer-grid instance: members at distance exactly ``t`` of a venue
    (3-4-5 offsets), located members that are not graph vertices, a graph
    vertex with no location, and venues with fewer than ``p`` members in
    range."""
    t = 5.0
    venues = {f"q{j}": Location(rng.randint(0, 12), rng.randint(0, 12)) for j in range(4)}
    members = {}
    for i in range(rng.randint(6, 14)):
        if rng.random() < 0.4:
            q = venues[rng.choice(sorted(venues))]
            dx, dy = rng.choice([(3, 4), (-4, 3), (5, 0), (0, -5), (-3, -4)])
            members[i] = Location(q.x + dx, q.y + dy)
        else:
            members[i] = Location(rng.randint(-3, 15), rng.randint(-3, 15))
    vertices = [m for m in members if rng.random() < 0.8] + [99]
    edges = [(u, v) for u in vertices for v in vertices if u < v and rng.random() < 0.5]
    graph = SocialGraph(vertices, edges)
    query = Query(p=rng.randint(2, 4), k=1, t=t, venues=tuple(sorted(venues)))
    return graph, SpatialDataset(members, venues), query


def _setup_instance(rng):
    """Float-coordinate instance whose members often share a spot, with
    located members that are not graph vertices, a graph vertex with no
    location and venues with fewer than ``p`` members in range."""
    venues = {f"q{j}": Location(rng.uniform(0, 10), rng.uniform(0, 10)) for j in range(5)}
    members = {}
    for i in range(rng.randint(6, 24)):
        if members and rng.random() < 0.25:
            members[i] = members[rng.choice(sorted(members))]
        else:
            members[i] = Location(rng.uniform(-1, 11), rng.uniform(-1, 11))
    vertices = [m for m in members if rng.random() < 0.8] + [99]
    edges = [(u, v) for u in vertices for v in vertices if u < v and rng.random() < 0.4]
    query = Query(p=rng.randint(2, 4), k=1, t=rng.uniform(2.0, 6.0), venues=tuple(sorted(venues)))
    return SocialGraph(vertices, edges), SpatialDataset(members, venues), query


def _core_by_definition(members, graph, need):
    """The largest subset of ``members`` in which each member knows at
    least ``need`` of the others: each round recounts every member's
    acquaintances among those left and drops every member short of
    ``need``."""
    core = set(members)
    while True:
        short = {v for v in core if len(graph.neighbors(v) & core) < need}
        if not short:
            return core
        core -= short


def _peeled_order(graph, query, order):
    """A venue's candidate order cut to its in-range core, in order."""
    core = _core_by_definition([m for _, m in order], graph, query.p - 1 - query.k)
    return [pair for pair in order if pair[1] in core]


def _srdo_peels(query, config, orders):
    """Whether srdo peels on ``query``: per-vertex with the member rule on,
    ``p - 1 - k > 0``, and more than one venue with ``p`` graph vertices
    in range (``orders`` holds their candidate orders)."""
    per_vertex = query.familiarity_mode is FamiliarityMode.PER_VERTEX
    return (
        per_vertex and config.member_familiarity and query.p - 1 - query.k > 0 and len(orders) > 1
    )


def test_search_setup_matches_the_distances():
    # Alive venues, their lists, ``near`` (in each row's venue order) and
    # the pool in each ordering's search order, bit for bit, against a
    # reference built from the dataset's distances. apdo prepares every
    # venue with at least ``p`` graph vertices in range, with its whole
    # candidate order. Where srdo peels, each list it peels is the venue's
    # candidate order cut to its core (``_core_by_definition``), a venue
    # whose core holds fewer than ``p`` leaves the alive venues, and every
    # venue it prepares is peeled. srdo prepares only the venues whose
    # first-``p`` bound stays below the incumbent the greedy seed sets, and
    # builds no pool when it prepares one; its reference venue comes from
    # the unpeeled orders of every venue with ``p`` in range. srdo pools mix
    # members in range of the reference venue, whose distance the search
    # reuses, with members out of it, whose distance it computes.
    rng = random.Random(12)
    seen = {
        "at_t": 0, "non_vertex": 0, "dead": 0, "shared_spot": 0, "mixed_reference": 0, "cut": 0,
        "peeled": 0, "dead_core": 0, "handoff": 0,
    }
    for trial in range(400):
        graph, data, query = (_grid_instance if trial % 2 else _setup_instance)(rng)
        in_range = {
            q: {
                m
                for m in data.member_locations
                if m in graph and data.member_venue_distance(m, q) <= query.t
            }
            for q in query.venues
        }
        alive = [q for q in query.venues if len(in_range[q]) >= query.p]
        orders = {
            q: sorted((data.member_venue_distance(m, q), m) for m in in_range[q]) for q in alive
        }

        def table(venues, lists):
            rows = {}
            for q in venues:
                for d, m in lists[q]:
                    rows.setdefault(m, {})[q] = d
            return rows

        degree = {m: graph.degree(m) for m in graph.vertices}
        q_ref = srdo_seed(table(alive, orders), degree)[1] if alive else None
        for q in query.venues:
            for m in data.member_locations:
                if data.member_venue_distance(m, q) == query.t and m in in_range[q]:
                    seen["at_t"] += 1
                if m not in graph and data.member_venue_distance(m, q) <= query.t:
                    seen["non_vertex"] += 1
            seen["dead"] += 0 < len(in_range[q]) < query.p
        for ordering in ("srdo", "apdo"):
            search = _joint_search(graph, data, query, ordering)
            lists = orders
            if ordering == "srdo" and _srdo_peels(query, PruneConfig(), orders):
                lists = {q: _peeled_order(graph, query, orders[q]) for q in alive}
                # A venue leaves the alive venues only for a core below p;
                # an alive venue's list is its order, peeled or not.
                assert search.alive_venues == [q for q in alive if q in search.by_distance]
                for q in alive:
                    if q in search.alive_venues:
                        assert search.by_distance[q] in (orders[q], lists[q]), q
                    else:
                        assert len(lists[q]) < query.p, q
                        seen["dead_core"] += 1
            else:
                assert search.alive_venues == alive
                assert search.by_distance == orders
            prepared = [
                q for q in search.alive_venues
                if ordering == "apdo"
                or not distance_prune(0.0, 0, query.p, lists[q], search.best_total)
            ]
            assert search.prepared == prepared, ordering
            for q in prepared:
                assert search.by_distance[q] == lists[q], (ordering, q)
                seen["peeled"] += len(lists[q]) < len(orders[q])
            if ordering == "srdo" and len(prepared) == 1:
                assert search.near == {} and search.pool == []
                seen["handoff"] += 1
                continue
            near = table(prepared, lists)
            if ordering == "apdo":
                pool = sorted(near)
            else:
                keys = sorted(
                    (data.member_venue_distance(m, q_ref), -degree[m], m) for m in near
                )
                pool = [m for _, _, m in keys]
                if pool:
                    seen["mixed_reference"] += 0 < len(in_range[q_ref] & set(pool)) < len(pool)
                seen["cut"] += len(prepared) < len(alive)
                spots = [data.member_locations[m] for m in pool]
                seen["shared_spot"] += len(set(spots)) < len(spots)
            assert search.pool == pool, ordering
            assert search.near == near
            assert all(list(search.near[m]) == list(row) for m, row in near.items())
    assert min(seen.values()) > 20, seen


CORE_MAKERS = [
    frame_counts._gnp_instance,
    frame_counts._power_law_instance,
    frame_counts._grid_instance,
]


def _peel_queries(label, make_instance, count=80):
    """Per-vertex queries over ``count`` instances of ``make_instance``,
    each with every venue of its instance: ``frame_counts``' queries, and
    the same query at ``k = 0`` to peel deeper."""
    rng = random.Random(f"{label}-{make_instance.__name__}")
    for seed in range(count):
        graph, data = make_instance(rng, 8300 + seed)
        query = next(frame_counts._queries(rng, graph, data, FamiliarityMode.PER_VERTEX))
        yield graph, data, query
        yield graph, data, Query(query.p, 0, query.t, query.venues, query.familiarity_mode)


@pytest.mark.parametrize("make_instance", CORE_MAKERS, ids=["gnp", "power-law", "grid"])
def test_in_range_cores_keep_every_feasible_group(make_instance):
    # Where srdo peels, a venue's peeled list is an in-order subsequence of
    # its candidate order in which every member has at least ``p - 1 - k``
    # acquaintances, the largest such (``_core_by_definition``), and every
    # feasible group at the venue lies inside it: the venue's best group
    # (``brute_force`` on the venue alone) and, where they are few enough to
    # enumerate, all of them. A venue peeled below ``p`` has none. Each
    # alive venue is peeled here, also those the search leaves unpeeled.
    seen = {"peeled": 0, "dead": 0, "groups": 0, "kept_whole": 0}
    for graph, data, query in _peel_queries("core-sound", make_instance):
        search = _srdo_search(graph, data, query)
        orders = {}
        for q in query.venues:
            order = single_venue.candidate_order(query, graph, data, q, search.indexes)
            if len(order) >= query.p:
                orders[q] = order
        if not _srdo_peels(query, PruneConfig(), orders):
            assert not search.unpeeled and search.by_distance == orders, query
            continue
        for q in list(search.by_distance):
            search._peel(q)
        need = query.p - 1 - query.k
        for q, order in orders.items():
            members = [m for _, m in order]
            core = _core_by_definition(members, graph, need)
            by_venue = brute_force(Query(query.p, query.k, query.t, (q,), query.familiarity_mode),
                                   graph, data)
            feasible = []
            if math.comb(len(members), query.p) <= 2000:
                feasible = [
                    c for c in itertools.combinations(members, query.p)
                    if is_feasible(c, q, query, graph, data)
                ]
            if q not in search.by_distance:
                assert len(core) < query.p and not by_venue.found and not feasible, (query, q)
                seen["dead"] += 1
                continue
            listed = search.by_distance[q]
            rest = iter(order)
            assert all(pair in rest for pair in listed), (query, q)
            inside = {m for _, m in listed}
            assert inside == core, (query, q)
            for m in inside:
                assert len(graph.neighbors(m) & inside) >= need, (query, q, m)
            if by_venue.found:
                assert set(by_venue.group) <= inside, (query, q)
            for group in feasible:
                assert set(group) <= inside, (query, q, group)
            seen["groups"] += len(feasible)
            seen["peeled"] += len(listed) < len(order)
            seen["kept_whole"] += len(listed) == len(order)
    assert min(seen.values()) > 20, seen


@pytest.mark.parametrize("make_instance", CORE_MAKERS, ids=["gnp", "power-law", "grid"])
def test_srdo_peels_only_per_vertex_with_the_member_rule_and_a_positive_need(make_instance):
    # With the member rule off, in average mode, at ``p - 1 - k <= 0``, or
    # with one venue of ``p`` graph vertices in range, srdo peels nothing:
    # every such venue stays alive with its whole candidate order. apdo
    # never peels.
    checked = 0
    for graph, data, query in _peel_queries("core-off", make_instance):
        average = Query(query.p, query.k, query.t, query.venues, FamiliarityMode.AVERAGE)
        loose = Query(query.p, query.p - 1, query.t, query.venues, query.familiarity_mode)
        one = Query(query.p, query.k, query.t, query.venues[:1], query.familiarity_mode)
        cases = [
            (query, PruneConfig().without("member_familiarity"), "srdo"),
            (average, PruneConfig(), "srdo"),
            (loose, PruneConfig(), "srdo"),
            (one, PruneConfig(), "srdo"),
            (query, PruneConfig(), "apdo"),
        ]
        for case, config, ordering in cases:
            search = _joint_search(graph, data, case, ordering, config)
            orders = {}
            for q in case.venues:
                order = single_venue.candidate_order(case, graph, data, q, search.indexes)
                if len(order) >= case.p:
                    orders[q] = order
            assert not search.unpeeled, (case, config, ordering)
            assert search.alive_venues == list(orders), (case, config, ordering)
            assert search.by_distance == orders, (case, config, ordering)
            checked += len(orders) > 1
    assert checked > 100, checked


def _joint_search(graph, data, query, ordering, config=None):
    return multi_venue._MultiVenueSearch(
        query,
        graph,
        data,
        build_indexes(data),
        config or PruneConfig(),
        SearchStats(),
        ordering=ordering,
    )


def _srdo_search(graph, data, query, config=None):
    return _joint_search(graph, data, query, "srdo", config)


def test_srdo_reference_order_matches_its_definition():
    # The pool sorted by (distance to the seed's venue, -degree, id), with
    # the seed taken from the whole member-to-venue table of the venues
    # with at least ``p`` graph vertices in range, unpeeled, those the
    # search prepares or not. A search that prepares at most one venue
    # builds no pool. Integer grids put members on shared spots, at equal
    # distance from several venues and with equal degrees, so the
    # tie-breaks decide.
    rng = random.Random(19)
    seen = {"seed_ties": 0, "key_ties": 0}
    for trial in range(600):
        if trial % 2:
            graph, data, query = _grid_instance(rng)
        else:
            graph, data = frame_counts._grid_instance(rng, 5900 + trial)
            t = radius_for_quantile(graph, data, rng.choice([0.3, 0.6, 1.0]))
            venues = tuple(sorted(data.venue_locations))
            query = Query(rng.randint(1, 4), 0, t, venues)
        search = _srdo_search(graph, data, query)
        assert search.degree_of == {v: graph.degree(v) for v in search.near}
        if len(search.prepared) < 2:
            assert search.pool == []
            continue
        alive_table = {}
        for q in query.venues:
            order = single_venue.candidate_order(query, graph, data, q, search.indexes)
            if len(order) >= query.p:
                for d, m in order:
                    alive_table.setdefault(m, {})[q] = d
        degree = {m: graph.degree(m) for m in alive_table}
        _, q_ref, d_min = srdo_seed(alive_table, degree)
        ref = data.venue_locations[q_ref]
        keys = sorted(
            (distance(data.member_locations[v], ref), -graph.degree(v), v) for v in search.near
        )
        assert search.pool == [v for _, _, v in keys]
        at_d_min = sum(d == d_min for row in alive_table.values() for d in row.values())
        seen["seed_ties"] += at_d_min > 1
        seen["key_ties"] += sum(a[:2] == b[:2] for a, b in zip(keys, keys[1:]))
    assert min(seen.values()) > 50, seen


def _entry_by_walk(search, pool, pool_set, size, sums, nearest, orders):
    """The entry filter as a walk of each venue's list in ``orders``, in
    distance order, up to the first pool member that fails the bound."""
    p = search.query.p
    best = search.best_total
    bound = search.config.venue_distance
    keep = set()
    for q, total in sums.items():
        row = nearest[q]
        for d, v in orders[q]:
            if v in pool_set:
                if bound and distance_prune(total + d, size + 1, p, row, best):
                    break
                keep.add(v)
    return [v for v in pool if v in keep]


def test_entry_filter_equals_the_walk_of_every_candidate():
    # Random non-leaf frames over random instances: a prefix of the pool,
    # the venues within its radius with their totals, a random entry pool,
    # and an incumbent that is infinite, finite, or exactly one candidate's
    # child bound; the venue-distance rule on and off. The lists are those
    # of the search with the rule on, peeled where it peels.
    rng = random.Random(23)
    seen = {"inf": 0, "tie": 0, "off": 0, "short_row": 0, "dropped": 0}
    makers = [
        frame_counts._gnp_instance,
        frame_counts._power_law_instance,
        frame_counts._grid_instance,
    ]
    # Many srdo searches prepare one venue and build no pool, so the test
    # draws enough instances to keep its floors.
    for trial in range(1200):
        graph, data = rng.choice(makers)(rng, 6100 + trial)
        t = radius_for_quantile(graph, data, rng.choice([0.3, 0.6, 1.0]))
        venues = tuple(sorted(data.venue_locations))
        query = Query(rng.randint(2, 6), 0, t, venues)
        on = _srdo_search(graph, data, query)
        off = _srdo_search(graph, data, query, PruneConfig().without("venue_distance"))
        for _ in range(10):
            if len(on.pool) < query.p:
                break
            size = rng.randint(0, query.p - 2)
            prefix = rng.sample(on.pool, size)
            sums = {
                q: sum(on.near[m][q] for m in prefix)
                for q in on.alive_venues
                if all(q in on.near[m] for m in prefix) and rng.random() < 0.8
            }
            if not sums:
                continue
            pool = [v for v in on.pool if v not in prefix and rng.random() < 0.7]
            pool_set = set(pool)
            # The frame's lists, and for the reference walk the first
            # ``p - size`` pairs of each, all the bound reads.
            lists = {q: [(d, v) for d, v in on.by_distance[q] if v in pool_set] for q in sums}
            nearest = {q: lists[q][: query.p - size] for q in sums}
            slots = query.p - size - 1
            seen["short_row"] += any(len(row) < slots for row in nearest.values())
            pairs = [(q, d, v) for q in sums for d, v in on.by_distance[q] if v in pool_set]
            incumbents = [math.inf, rng.uniform(0, 4 * t * query.p)]
            if pairs and all(len(nearest[q]) >= slots for q in sums):
                q, d, _ = rng.choice(pairs)
                tie = sums[q] + d
                for e, _ in nearest[q][:slots]:
                    tie += e
                # The bound of that candidate reaches this incumbent exactly.
                assert distance_prune(sums[q] + d, size + 1, query.p, nearest[q], tie)
                incumbents.append(tie)
                seen["tie"] += 1
            for best in incumbents:
                for search in (on, off):
                    search.best_total = best
                    expected = _entry_by_walk(
                        search, pool, pool_set, size, sums, nearest, on.by_distance
                    )
                    got = search._entry_candidates(pool, size, sums, lists)
                    assert got == expected, (trial, size, best, search.config)
                    seen["inf"] += best == math.inf
                    seen["off"] += search is off
                    in_radius = {v for q in sums for _, v in on.by_distance[q]} & pool_set
                    seen["dropped"] += len(got) < len(in_radius)
    assert min(seen.values()) > 50, seen


def _mags_matches_oracle(label, make_instance, mode, first_seed, ordering, count=40):
    """``mags_solve`` with ``ordering`` equals brute force on ``count``
    instances of ``make_instance``, with ``frame_counts``' queries in
    ``mode``; ``label`` seeds the draws."""
    rng = random.Random(label)
    for seed in range(count):
        graph, data = make_instance(rng, first_seed + seed)
        for query in frame_counts._queries(rng, graph, data, mode):
            oracle = brute_force(query, graph, data)
            sol = mags_solve(query, graph, data, ordering=ordering)
            where = f"seed {seed}, {query}"
            if not oracle.found:
                assert sol is None, where
                continue
            assert abs(sol.total_distance - oracle.total_distance) <= frame_counts.TOL, where
            assert is_feasible(sol.group, sol.venue, query, graph, data), where


def _record_frame_entries(monkeypatch):
    """Wrap ``_frame`` so that the returned stack holds, for each open
    frame, the incumbent and a copy of the venue table it entered with."""
    entries = []
    original = multi_venue._MultiVenueSearch._frame

    def framing(self, prefix, prefix_set, prefix_edges, pool, sums, *rest):
        entries.append((self.best_total, dict(sums)))
        try:
            return original(self, prefix, prefix_set, prefix_edges, pool, sums, *rest)
        finally:
            entries.pop()

    monkeypatch.setattr(multi_venue._MultiVenueSearch, "_frame", framing)
    return entries


@pytest.mark.parametrize("ordering", ["srdo", "apdo"])
@pytest.mark.parametrize("mode", list(FamiliarityMode), ids=lambda m: m.value)
def test_frames_only_read_the_pool_set_they_share(monkeypatch, mode, ordering):
    # A frame receives its caller's set of remaining candidates as its last
    # argument but one. At each entry it must equal the frame's pool, and
    # the frame must hand it back unchanged: the caller keeps using it.
    original = multi_venue._MultiVenueSearch._frame
    entered = []

    def guarded(self, prefix, prefix_set, prefix_edges, pool, sums, *rest):
        pool_set = rest[-2]
        assert isinstance(pool_set, set) and pool_set == set(pool), prefix
        before = frozenset(pool_set)
        original(self, prefix, prefix_set, prefix_edges, pool, sums, *rest)
        assert pool_set == before, prefix
        entered.append(len(prefix))

    monkeypatch.setattr(multi_venue._MultiVenueSearch, "_frame", guarded)
    label = f"pool-set-{mode.value}-{ordering}"
    # The greedy seed's incumbent leaves few average-mode srdo frames below
    # the root, and a search whose seed leaves one venue enters none, so
    # this test draws more instances than the oracle check's default to
    # keep its floor.
    for make_instance in (
        frame_counts._gnp_instance,
        frame_counts._power_law_instance,
        frame_counts._grid_instance,
    ):
        _mags_matches_oracle(label, make_instance, mode, 5700, ordering, count=120)
    assert sum(size > 0 for size in entered) > 100, len(entered)


@pytest.mark.parametrize("ordering", ["srdo", "apdo"])
@pytest.mark.parametrize("mode", list(FamiliarityMode), ids=lambda m: m.value)
def test_frames_read_the_candidate_orders_cut_to_their_pool(monkeypatch, mode, ordering):
    # Each frame receives its caller's lists as its last argument: at the
    # root, the search's lists themselves (candidate orders, peeled where
    # srdo peels); below it, the calling frame's lists, which a re-bound
    # may have cut below the caller's pool. For each venue the frame enters
    # with, the list must then hold pairs of that venue's list in the
    # caller's pool, in order, and every such pair whose member is in the
    # frame's own pool. Every non-leaf frame below the root shows its own
    # lists too: an srdo hand-off must receive, for the one venue its
    # frame's entry cut leaves, that venue's list cut to the candidates the
    # cut keeps, and the entry filter must receive, for each venue left,
    # that venue's list cut to the pool it filters, on entry and at each
    # re-bound. No frame may change the search's lists.
    cls = multi_venue._MultiVenueSearch
    original_frame = cls._frame
    original_venue_frame = cls._venue_frame
    original_entry = cls._entry_candidates
    # (pool set, venues entered with) of each open frame.
    open_frames = []
    # The venues left and the candidates kept at the last entry filter,
    # recomputed by a walk of each venue's list (``_entry_by_walk``).
    last_entry = []
    seen = {"root": 0, "child": 0, "handoff": 0, "entry": 0}

    def expected_lists(self, pool_set, venues):
        return {q: [pair for pair in self.by_distance[q] if pair[1] in pool_set] for q in venues}

    def framing(self, prefix, prefix_set, prefix_edges, pool, sums, *rest):
        lists = rest[-1]
        root = not open_frames
        if root:
            # The root's lists are the candidate orders, the same objects:
            # a frame that changed its lists would change the orders.
            assert lists is self.by_distance
            orders = dict(lists)
            copies = {q: list(order) for q, order in lists.items()}
            seen["root"] += 1
        else:
            caller_pool = open_frames[-1][0]
            full = expected_lists(self, caller_pool, sums)
            own = expected_lists(self, set(pool), sums)
            for q in sums:
                rest_of_full = iter(full[q])
                assert all(pair in rest_of_full for pair in lists[q]), (prefix, q)
                assert [pair for pair in lists[q] if pair[1] in set(pool)] == own[q], (prefix, q)
            seen["child"] += 1
        open_frames.append((set(pool), list(sums)))
        try:
            original_frame(self, prefix, prefix_set, prefix_edges, pool, sums, *rest)
        finally:
            open_frames.pop()
        if root:
            assert self.by_distance.keys() == orders.keys()
            assert all(self.by_distance[q] is orders[q] for q in orders)
            assert self.by_distance == copies

    def handing_off(self, prefix, prefix_set, prefix_edges, base, pool, counts, q):
        if sys._getframe(1).f_code is original_frame.__code__:
            # A joint frame hands off right after its entry cut: the cut
            # must have left q alone, one of the frame's venues, and the
            # hand-off receives q's list cut to the candidates it kept.
            _, venues = open_frames[-1]
            left, kept = last_entry.pop()
            assert left == [q] and q in venues, (prefix, left, q)
            assert pool == expected_lists(self, set(kept), left)[q], prefix
            seen["handoff"] += 1
        return original_venue_frame(self, prefix, prefix_set, prefix_edges, base, pool, counts, q)

    def entering(self, pool, size, sums, lists):
        assert {q: lists[q] for q in sums} == expected_lists(self, set(pool), sums), size
        seen["entry"] += 1
        kept = _entry_by_walk(self, pool, set(pool), size, sums, lists, lists)
        last_entry[:] = [(list(sums), kept)]
        return original_entry(self, pool, size, sums, lists)

    monkeypatch.setattr(cls, "_frame", framing)
    monkeypatch.setattr(cls, "_venue_frame", handing_off)
    monkeypatch.setattr(cls, "_entry_candidates", entering)
    label = f"frame-lists-{mode.value}-{ordering}"
    # As above, more instances than the default keep the floors: many srdo
    # searches prepare one venue and enter no joint frame at all.
    for make_instance in (
        frame_counts._gnp_instance,
        frame_counts._power_law_instance,
        frame_counts._grid_instance,
    ):
        _mags_matches_oracle(label, make_instance, mode, 5900, ordering, count=200)
    assert seen["root"] > 50 and seen["child"] > 100 and seen["entry"] > 50, seen
    assert (seen["handoff"] > 50) == (ordering == "srdo"), seen


# Each familiarity mode with each ordering; an srdo case is named by its
# mode alone.
MODE_ORDERINGS = [
    pytest.param(mode, ordering, id=mode.value if ordering == "srdo" else f"{mode.value}-apdo")
    for ordering in ("srdo", "apdo")
    for mode in FamiliarityMode
]


@pytest.mark.parametrize("mode, ordering", MODE_ORDERINGS)
@pytest.mark.parametrize(
    "make_instance",
    [frame_counts._gnp_instance, frame_counts._power_law_instance, frame_counts._grid_instance],
    ids=["gnp", "power-law", "grid"],
)
def test_static_frames_hold_only_candidates_a_frame_venue_can_take(
    monkeypatch, make_instance, mode, ordering
):
    # A frame's venues only shrink below it, so its candidates must each
    # have a venue within t of the venue table the frame entered with (apdo's
    # ball pass can take venues out of ``sums`` mid-frame). A wrapper around
    # ``_frame`` records that table; the candidates are read off the calling
    # frame whenever it builds a child venue table.
    venue_counts = []
    entries = _record_frame_entries(monkeypatch)
    original = multi_venue._MultiVenueSearch._child_sums

    def checking(self, u, *args):
        frame = sys._getframe(1).f_locals
        venues = list(entries[-1][1])
        for m in [u, *frame["remaining"]]:
            m_loc = self.member_loc[m]
            assert any(
                distance(m_loc, self.venue_loc[q]) <= self.query.t for q in venues
            ), (m, venues)
        venue_counts.append(len(venues))
        return original(self, u, *args)

    monkeypatch.setattr(multi_venue._MultiVenueSearch, "_child_sums", checking)
    label = f"static-{make_instance.__name__}-{mode.value}"
    _mags_matches_oracle(label, make_instance, mode, 5300, ordering)
    assert max(venue_counts) > 1


@pytest.mark.parametrize("mode, ordering", MODE_ORDERINGS)
@pytest.mark.parametrize(
    "make_instance",
    [frame_counts._gnp_instance, frame_counts._power_law_instance, frame_counts._grid_instance],
    ids=["gnp", "power-law", "grid"],
)
def test_static_frames_hold_only_candidates_that_can_beat_the_entry_incumbent(
    monkeypatch, make_instance, mode, ordering
):
    # A frame's incumbent only falls and its venues only shrink, so with
    # the venue-distance rule on, each of its candidates must have a venue
    # of the table it entered with within t whose child bound stays below
    # the incumbent it entered with. A wrapper around ``_frame`` records
    # that incumbent and venue table; the frame's prefix, entry pool and
    # candidates are read off the calling frame whenever it builds a child
    # venue table, and the bound's distances are recomputed from locations.
    entries = _record_frame_entries(monkeypatch)
    checked = []
    original_child_sums = multi_venue._MultiVenueSearch._child_sums

    def checking(self, u, *args):
        frame = sys._getframe(1).f_locals
        best = entries[-1][0]
        if math.isfinite(best):
            p, t = self.query.p, self.query.t
            size = len(frame["prefix"])
            sums = entries[-1][1]

            def dist(m, q):
                return distance(self.member_loc[m], self.venue_loc[q])

            # Each open slot at the entry pool's smallest in-range distance,
            # added one slot at a time as the engine adds its list's
            # distances: ``slots * d`` can round one unit above that sum, and
            # on an exact tie reach the incumbent where the sum stays below.
            d_min = {
                q: min((dist(m, q) for m in frame["pool"] if dist(m, q) <= t), default=math.inf)
                for q in sums
            }
            floor = {q: [(d, None)] * (p - size - 1) for q, d in d_min.items()}
            for m in [u, *frame["remaining"]]:
                assert any(
                    dist(m, q) <= t
                    and not distance_prune(sums[q] + dist(m, q), size + 1, p, floor[q], best)
                    for q in sums
                ), (m, best, sums)
            checked.append(1 + len(frame["remaining"]))
        return original_child_sums(self, u, *args)

    monkeypatch.setattr(multi_venue._MultiVenueSearch, "_child_sums", checking)
    label = f"static-bound-{make_instance.__name__}-{mode.value}"
    # Tight bounds leave few candidates in a frame, so this test draws more
    # instances than the others to keep its floor.
    _mags_matches_oracle(label, make_instance, mode, 5500, ordering, count=200)
    assert sum(checked) > 100, sum(checked)


def _in_range(search, m, q):
    """Whether member ``m`` can join a group at venue ``q``: within ``t``
    of it, by its location, and in its core where srdo peeled it, since
    every feasible group at ``q`` lies in the core."""
    d = distance(search.member_loc[m], search.venue_loc[q])
    return d <= search.query.t and any(v == m for _, v in search.by_distance[q])


def _in_range_completion(search, group, pool, q):
    """The cheapest way to grow ``group`` to ``p`` members at venue ``q``
    with members of ``pool`` in range of it (``_in_range``), by
    enumeration: the group's total distance to ``q`` plus its
    ``p - len(group)`` nearest in-range pool members (inf when there are
    too few)."""
    q_loc = search.venue_loc[q]
    dist = lambda m: distance(search.member_loc[m], q_loc)  # noqa: E731
    extras = sorted(dist(m) for m in pool if _in_range(search, m, q))
    slots = search.query.p - len(group)
    if len(extras) < slots:
        return math.inf
    return sum(dist(m) for m in group) + sum(extras[:slots])


def _first_in_range(search, members, q, count):
    """The first ``count`` (distance, member) pairs in range of ``q``
    (``_in_range``) among ``members``, by enumeration, in (distance, id)
    order."""
    q_loc = search.venue_loc[q]
    pairs = sorted((distance(search.member_loc[m], q_loc), m) for m in members)
    return [(d, m) for d, m in pairs if _in_range(search, m, q)][:count]


def _rebound_instances(mode):
    """Small random and tie-heavy grid instances with queries in ``mode``:
    the first with venues that reach only some members, the second with
    distances that tie."""
    for seed in range(150):
        graph, data, query = make_query_instance(
            9900 + seed, n_range=(6, 14), p_range=(2, 5), q_range=(2, 6)
        )
        yield graph, data, Query(query.p, query.k, query.t, query.venues, mode)
    rng = random.Random(f"rebound-grid-{mode.value}")
    for seed in range(150):
        graph, data = frame_counts._grid_instance(rng, 9700 + seed)
        for query in frame_counts._queries(rng, graph, data, mode):
            yield graph, data, query


@pytest.mark.parametrize("mode", list(FamiliarityMode), ids=lambda m: m.value)
@pytest.mark.parametrize("ordering", ["srdo", "apdo"])
def test_venue_completion_terms_are_sound_exact_after_a_refresh_and_never_looser(
    monkeypatch, ordering, mode
):
    # A frame's lists bound each venue's open slots. Checked against
    # enumeration over the calling frame's ``remaining``, read off the frame
    # at each call:
    # - every venue bound ``_child_sums`` applies, and every ball bound of
    #   the ball pass, is at most the cheapest in-range completion, and a
    #   venue the check drops cannot beat the incumbent;
    # - a re-bound cuts the lists to exactly the in-range members of
    #   ``remaining``, leaves no venue empty for the ball pass, keeps its
    #   candidates' order, and drops only venues and candidates with no
    #   completion below the incumbent: for a dropped candidate, none at
    #   any venue the frame held;
    # - each term is at least the former one: ``r`` times the entry pool's
    #   smallest in-range distance, or the smallest member-to-ball bound
    #   over ``remaining``.
    checked = {"venue": 0, "refresh": 0, "ball": 0}
    # Venues dropped, those of them left empty (radius prunes), candidates.
    dropped = {"venue": 0, "radius": 0, "candidate": 0}
    cls = multi_venue._MultiVenueSearch
    original_rebound = cls._rebound
    original_child_sums = cls._child_sums
    original_ball_pass = cls._ball_pass

    def rebound_checking(self, prefix, remaining, sums, lists):
        frame = sys._getframe(1).f_locals
        assert remaining == frame["remaining"] and set(remaining) == frame["remaining_set"]
        best, held, members = self.best_total, dict(sums), list(remaining)
        kept, cut = original_rebound(self, prefix, remaining, sums, lists)
        kept_set = set(kept)
        assert kept == [v for v in members if v in kept_set]
        for q in held:
            assert cut[q] == _first_in_range(self, members, q, len(members)), q
            checked["refresh"] += 1
        for q in held.keys() - sums.keys():
            assert _in_range_completion(self, prefix, members, q) >= best - 1e-9, q
            dropped["venue"] += 1
            dropped["radius"] += not cut[q]
        for q in sums:
            assert cut[q], q
        for v in set(members) - kept_set:
            others = [m for m in members if m != v]
            for q in held:
                if q in self.near[v]:
                    exact = _in_range_completion(self, [*prefix, v], others, q)
                    assert exact >= best - 1e-9, (v, q, exact, best)
            dropped["candidate"] += 1
        return kept, cut

    def child_sums_checking(self, u, child_size, sums, lists):
        child_sums = original_child_sums(self, u, child_size, sums, lists)
        frame = sys._getframe(1).f_locals
        group = [*frame["prefix"], u]
        slots = self.query.p - child_size
        for q in self.near[u].keys() & sums.keys():
            row = lists[q][:slots]
            bound = sums[q] + self.near[u][q] + sum(d for d, _ in row)
            if len(row) < slots:
                bound = math.inf
            exact = _in_range_completion(self, group, frame["remaining"], q)
            assert bound <= exact + 1e-9, (q, bound, exact)
            if q not in child_sums:
                assert exact >= self.best_total - 1e-9, (q, exact, self.best_total)
            d_min = min((d for d, _ in _first_in_range(self, frame["pool"], q, 1)), default=0.0)
            assert bound >= sums[q] + self.near[u][q] + slots * d_min - 1e-9, q
            checked["venue"] += 1
        return child_sums

    def ball_pass_checking(self, prefix, remaining, sums, lists):
        for q in sums:
            assert lists[q], q
            assert lists[q] == _first_in_range(self, remaining, q, len(remaining)), q
        for node in self.indexes.venues.nodes():
            live = [q for q in node.venue_ids if q in sums]
            if live:
                former = min(mindist_point_ball(self.member_loc[m], node.ball) for m in remaining)
                assert min(lists[q][0][0] for q in live) >= former - 1e-9
        live_venues = set(sums)
        first = len(self.audit.bounds)
        original_ball_pass(self, prefix, remaining, sums, lists)
        for rec in self.audit.bounds[first:]:
            assert set(rec.venue_ids) <= live_venues
            exact = min(_in_range_completion(self, prefix, remaining, q) for q in rec.venue_ids)
            assert rec.bound <= exact + 1e-9, (rec, exact)
            checked["ball"] += 1

    monkeypatch.setattr(cls, "_rebound", rebound_checking)
    monkeypatch.setattr(cls, "_child_sums", child_sums_checking)
    monkeypatch.setattr(cls, "_ball_pass", ball_pass_checking)
    # Without the venue-distance rule a re-bound drops no venue by its
    # bound, and the venues it leaves empty drop by the radius.
    configs = (PruneConfig(), PruneConfig().without("venue_distance"))
    for graph, data, query in _rebound_instances(mode):
        oracle = brute_force(query, graph, data)
        expected = round(oracle.total_distance, 9) if oracle.found else None
        for config in configs:
            sol = mags_solve(
                query, graph, data, ordering=ordering, config=config, audit=MagsAudit()
            )
            assert _total(sol) == expected, (query, config)
    assert checked["venue"] > 1000 and checked["refresh"] > 300, checked
    assert dropped["venue"] >= 100 and dropped["candidate"] >= 100, dropped
    assert dropped["radius"] >= 5, dropped
    if ordering == "apdo":
        assert checked["ball"] > 1000, checked


@pytest.mark.parametrize("ordering", ["srdo", "apdo"])
def test_per_vertex_joint_search_explores_every_state_it_generates(ordering):
    # Between re-bounds a frame's venues and incumbent stay as they were
    # when it last bounded its candidates, so some venue takes every child
    # it generates, and per-vertex frames run no average rule: with the
    # default rules no generated state goes unexplored.
    rng = random.Random(f"generated-explored-{ordering}")
    makers = (
        frame_counts._gnp_instance,
        frame_counts._power_law_instance,
        frame_counts._grid_instance,
    )
    explored = 0
    for seed in range(60):
        for make_instance in makers:
            graph, data = make_instance(rng, 6100 + seed)
            for query in frame_counts._queries(rng, graph, data, FamiliarityMode.PER_VERTEX):
                stats = SearchStats()
                mags_solve(query, graph, data, ordering=ordering, stats=stats)
                assert stats.generated_states == stats.explored_states, (seed, query)
                explored += stats.explored_states
    # Sparse graphs at k = 2: the greedy walk often finds no group, so the
    # root searches from an infinite incumbent, while srdo peels the cores
    # of some venues below p. Such a venue must not stay alive: its short
    # list would pass the root, whose pool holds its members, and leave
    # children no venue to take them.
    unseeded_with_dead_core = 0
    for seed in range(400):
        graph, data = random_instance(
            6300 + seed, rng.randint(8, 16), rng.randint(2, 4), rng.choice([0.1, 0.2, 0.3])
        )
        t = radius_for_quantile(graph, data, rng.choice([0.3, 0.5, 0.8]))
        venues = tuple(sorted(data.venue_locations))
        query = Query(rng.randint(4, 5), 2, t, venues, FamiliarityMode.PER_VERTEX)
        stats = SearchStats()
        mags_solve(query, graph, data, ordering=ordering, stats=stats)
        assert stats.generated_states == stats.explored_states, (seed, query)
        explored += stats.explored_states
        search = _srdo_search(graph, data, query)
        reached = sum(
            len(single_venue.candidate_order(query, graph, data, q, search.indexes)) >= query.p
            for q in venues
        )
        unseeded_with_dead_core += (
            search.best_total == math.inf and len(search.alive_venues) < reached
        )
    assert explored > 1000, explored
    assert unseeded_with_dead_core > 20, unseeded_with_dead_core


# --- solver agreement -------------------------------------------------------


def test_all_solvers_agree_with_oracle():
    for seed in range(60):
        graph, data, query = make_query_instance(4000 + seed)
        oracle = brute_force(query, graph, data)
        expected = None if not oracle.found else round(oracle.total_distance, 9)
        sols = {
            "ssp": ssp_solve(query, graph, data),
            "mags-srdo": mags_solve(query, graph, data, ordering="srdo"),
            "mags-apdo": mags_solve(query, graph, data, ordering="apdo"),
        }
        for name, sol in sols.items():
            if expected is None:
                assert sol is None, name
            else:
                assert sol is not None, name
                assert sol.total_distance == pytest.approx(expected, abs=1e-9), name
                assert is_feasible(sol.group, sol.venue, query, graph, data)


def test_average_mode_agreement():
    for seed in range(30):
        graph, data, query = make_query_instance(4600 + seed)
        query = Query(
            p=query.p, k=query.k, t=query.t, venues=query.venues,
            familiarity_mode=FamiliarityMode.AVERAGE,
        )
        oracle = brute_force(query, graph, data)
        for solver in (
            ssp_solve,
            lambda q, g, d: mags_solve(q, g, d, ordering="srdo"),
            lambda q, g, d: mags_solve(q, g, d, ordering="apdo"),
        ):
            sol = solver(query, graph, data)
            if oracle.found:
                assert sol is not None
                assert sol.total_distance == pytest.approx(oracle.total_distance, abs=1e-9)
            else:
                assert sol is None


def test_single_venue_mags_equals_ssgs():
    for seed in range(20):
        graph, data, query = make_query_instance(5200 + seed, q_range=(1, 1))
        a = ssgs_solve(query, graph, data)
        for ordering in ("srdo", "apdo"):
            b = mags_solve(query, graph, data, ordering=ordering)
            assert _total(a) == _total(b)


@pytest.mark.parametrize("mode", list(FamiliarityMode), ids=lambda m: m.value)
def test_one_venue_srdo_runs_the_single_venue_search(mode):
    # An srdo frame left with one venue runs the single-venue loop, and on a
    # one-venue query that is the root frame. Both engines run one rule set
    # per mode, so srdo's answers and every counter equal ssp's. The loop's
    # distance checks count under each engine's own rule name.
    explored = 0
    for seed in range(60):
        graph, data, query = make_query_instance(
            5400 + seed, n_range=(10, 20), p_range=(3, 6), q_range=(1, 1)
        )
        query = Query(query.p, query.k, query.t, query.venues, mode)
        records = []
        for solve in (ssp_solve, functools.partial(mags_solve, ordering="srdo")):
            stats = SearchStats()
            sol = solve(query, graph, data, stats=stats)
            answer = None if sol is None else (sol.group, sol.venue, repr(sol.total_distance))
            pruned = {
                "distance" if rule == "venue_distance" else rule: count
                for rule, count in stats.pruned.items()
            }
            records.append((answer, stats.explored_states, stats.generated_states, pruned))
        assert records[1] == records[0], seed
        explored += records[1][1]
    assert explored > 200, explored


@pytest.mark.parametrize("mode", list(FamiliarityMode), ids=lambda m: m.value)
@pytest.mark.parametrize(
    "make_instance",
    [frame_counts._gnp_instance, frame_counts._power_law_instance, frame_counts._grid_instance],
    ids=["gnp", "power-law", "grid"],
)
def test_a_seed_that_leaves_one_venue_hands_the_root_to_the_single_venue_search(
    monkeypatch, make_instance, mode
):
    # When srdo prepares one venue of several alive ones, its root runs that
    # venue's search from the root (``search_venue``), once, over the
    # venue's list: its candidate order, cut to its core where srdo peels.
    # It builds no pool, enters no joint frame, and still answers with the
    # optimum.
    cls = multi_venue._MultiVenueSearch
    original_search_venue = cls.search_venue
    original_frame = cls._frame
    calls, frames = [], []

    def searching(self, order, venue):
        calls.append((list(order), venue))
        return original_search_venue(self, order, venue)

    def framing(self, *args):
        frames.append(len(args[0]))
        return original_frame(self, *args)

    monkeypatch.setattr(cls, "search_venue", searching)
    monkeypatch.setattr(cls, "_frame", framing)
    handed = 0
    for graph, data, query in _seed_queries("root-hand-off", make_instance, mode, count=200):
        search = _srdo_search(graph, data, query)
        if len(search.prepared) != 1 or len(search.alive_venues) < 2:
            continue
        assert search.pool == [] and search.near == {} and search.degree_of == {}
        (q,) = search.prepared
        orders = {}
        for venue in query.venues:
            order = single_venue.candidate_order(query, graph, data, venue, search.indexes)
            if len(order) >= query.p:
                orders[venue] = order
        expected = orders[q]
        if _srdo_peels(query, PruneConfig(), orders):
            expected = _peeled_order(graph, query, expected)
        calls.clear()
        frames.clear()
        sol = mags_solve(query, graph, data, ordering="srdo")
        assert calls == [(expected, q)], query
        assert frames == [], query
        oracle = brute_force(query, graph, data)
        assert sol is not None and oracle.found, query
        assert sol.total_distance == pytest.approx(oracle.total_distance, abs=frame_counts.TOL)
        handed += 1
    assert handed > 20, handed


def test_p1_all_solvers_pick_closest_pair():
    graph = SocialGraph(range(5), [])
    rng = random.Random(99)
    members = {i: Location(rng.uniform(0, 10), rng.uniform(0, 10)) for i in range(5)}
    venues = {f"q{i}": Location(rng.uniform(0, 10), rng.uniform(0, 10)) for i in range(3)}
    data = SpatialDataset(members, venues)
    query = Query(p=1, k=0, t=50.0, venues=tuple(sorted(venues)))
    expected = min(
        (distance(members[m], venues[q]), m, q) for m in members for q in venues
    )
    for solver in (
        ssp_solve,
        lambda q, g, d: mags_solve(q, g, d, ordering="srdo"),
        lambda q, g, d: mags_solve(q, g, d, ordering="apdo"),
    ):
        sol = solver(query, graph, data)
        assert sol.total_distance == pytest.approx(expected[0], abs=1e-12)


# --- pruning behavior -------------------------------------------------------

# The rules each ordering checks: srdo reads no ball tree.
MAGS_RULES = {
    "apdo": (
        "venue_distance",
        "member_familiarity",
        "ball_distance",
    ),
    "srdo": ("venue_distance", "member_familiarity"),
}


def test_disabling_any_rule_preserves_optimum():
    for seed in range(25):
        graph, data, query = make_query_instance(6000 + seed, q_range=(2, 5))
        for ordering, rules in MAGS_RULES.items():
            base = mags_solve(query, graph, data, ordering=ordering)
            for rule in rules:
                sol = mags_solve(
                    query, graph, data, ordering=ordering, config=PruneConfig().without(rule)
                )
                assert _total(sol) == _total(base), (ordering, rule)


def test_enabling_rules_never_explores_more():
    for seed in range(25):
        graph, data, query = make_query_instance(6500 + seed, q_range=(2, 5))
        for ordering, rules in MAGS_RULES.items():
            on = SearchStats()
            mags_solve(query, graph, data, ordering=ordering, config=PruneConfig(), stats=on)
            for rule in rules:
                off = SearchStats()
                mags_solve(
                    query, graph, data, ordering=ordering,
                    config=PruneConfig().without(rule), stats=off,
                )
                assert on.explored_states <= off.explored_states, (ordering, rule)


def _pool_degree_calls(monkeypatch, ordering, mode, refuse=False):
    """Run 40 joint searches in ``mode`` and count the pool degree tables
    they build; with ``refuse``, building one fails the test."""
    calls = []

    def counted(pool, graph):
        assert not refuse, "the search built a pool degree table"
        calls.append(1)
        return pool_degrees(pool, graph)

    # The joint search builds its counts with ``_GroupSearch._pool_counts``.
    monkeypatch.setattr(single_venue, "pool_degrees", counted)
    explored = 0
    for seed in range(40):
        graph, data, query = make_query_instance(7000 + seed, q_range=(2, 5))
        query = Query(query.p, query.k, query.t, query.venues, mode)
        stats = SearchStats()
        mags_solve(query, graph, data, ordering=ordering, stats=stats)
        explored += stats.explored_states
    assert explored > 0
    return len(calls)


@pytest.mark.parametrize("ordering", ["srdo", "apdo"])
def test_per_vertex_frames_carry_no_pool_counts(monkeypatch, ordering):
    # No per-vertex rule reads pool counts, so no frame builds them.
    _pool_degree_calls(monkeypatch, ordering, FamiliarityMode.PER_VERTEX, refuse=True)


@pytest.mark.parametrize("ordering", ["srdo", "apdo"])
def test_average_frames_still_build_pool_counts(monkeypatch, ordering):
    # The average rule reads them; without this the test above could pass
    # on a search that never reaches ``pool_degrees`` at all.
    assert _pool_degree_calls(monkeypatch, ordering, FamiliarityMode.AVERAGE) > 0


def test_prune_counters_populated_somewhere():
    fired = set()
    for seed in range(40):
        graph, data, query = make_query_instance(7000 + seed, q_range=(2, 5))
        stats = SearchStats()
        mags_solve(query, graph, data, ordering="apdo", stats=stats)
        fired |= {rule for rule, count in stats.pruned.items() if count > 0}
    assert "venue_distance" in fired
    assert "member_familiarity" in fired


def test_many_venue_apdo_stays_small_and_agrees():
    # 400 members and 256 venues, all in the query, at a tight radius: the
    # per-venue completion terms let apdo's ball pass and venue checks
    # drop most venues early. Explored 206 states when the terms were
    # ``r`` times the pool minimum and the ball term a scan of the pool;
    # 69 with the first-``r`` sorted distances.
    graph, data = random_instance(0, 400, 256, edge_prob=0.3)
    t = radius_for_quantile(graph, data, 0.03)
    venues = tuple(sorted(data.venue_locations))
    query = Query(4, 2, t, venues, FamiliarityMode.AVERAGE)
    indexes = build_indexes(data)
    expected = _total(ssp_solve(query, graph, data, indexes))
    assert expected is not None
    assert _total(mags_solve(query, graph, data, indexes, ordering="srdo")) == expected
    stats = SearchStats()
    sol = mags_solve(query, graph, data, indexes, ordering="apdo", stats=stats)
    assert _total(sol) == expected
    assert stats.explored_states <= 80, stats.explored_states


# --- greedy seed --------------------------------------------------------------


def _unit_instance(rng, seed):
    """Every member one unit from every venue: every group of a venue ties
    with the same group at every other venue."""
    graph, _ = random_instance(seed, rng.randint(5, 12), 1, edge_prob=rng.choice([0.3, 0.5, 0.7]))
    return graph, unit_distance_dataset(graph.vertices, rng.randint(1, 4))


SEED_MAKERS = [
    frame_counts._gnp_instance,
    frame_counts._power_law_instance,
    _unit_instance,
    frame_counts._grid_instance,
]
SEED_INSTANCES = pytest.mark.parametrize(
    "make_instance", SEED_MAKERS, ids=["gnp", "power-law", "unit", "grid"]
)


def _seed_queries(label, make_instance, mode, count=60):
    """``count`` instances of ``make_instance``, each with ``frame_counts``'
    queries in ``mode``, drawn from ``label``."""
    rng = random.Random(f"{label}-{make_instance.__name__}-{mode.value}")
    for seed in range(count):
        graph, data = make_instance(rng, 7700 + seed)
        for query in frame_counts._queries(rng, graph, data, mode):
            yield graph, data, query


def _unseeded(monkeypatch):
    monkeypatch.setattr(multi_venue._MultiVenueSearch, "_greedy_seed", lambda self: None)


@SEED_INSTANCES
@pytest.mark.parametrize("mode, ordering", MODE_ORDERINGS)
def test_greedy_seed_is_feasible_and_never_below_the_optimum(make_instance, mode, ordering):
    # The seed's group is a feasible answer at its venue, so its total is
    # at least the optimum; the incumbent a search with more than one venue
    # of ``p`` graph vertices in range starts from lies just above that
    # total. The count is taken before any peel: a venue the walk peels
    # below ``p`` was still walked.
    seeded = 0
    for graph, data, query in _seed_queries("seed-feasible", make_instance, mode):
        search = _joint_search(graph, data, query, ordering)
        walked = sum(
            len(single_venue.candidate_order(query, graph, data, q, search.indexes)) >= query.p
            for q in query.venues
        )
        seed = search._greedy_seed()
        if seed is None or walked < 2:
            assert search.best_total == math.inf
        if seed is None:
            continue
        total, group, venue = seed
        assert is_feasible(group, venue, query, graph, data), (query, seed)
        assert total == pytest.approx(total_distance(group, venue, data), abs=frame_counts.TOL)
        if walked > 1:
            assert total < search.best_total <= math.nextafter(total * (1 + 2**-39), math.inf)
        oracle = brute_force(query, graph, data)
        assert total >= oracle.total_distance - frame_counts.TOL, (query, seed)
        seeded += 1
    assert seeded > 40, seeded


@SEED_INSTANCES
@pytest.mark.parametrize("mode, ordering", MODE_ORDERINGS)
def test_greedy_seed_changes_no_answer(monkeypatch, make_instance, mode, ordering):
    # The seeded incumbent lies above the optimum, so the search still finds
    # an optimum: the same group, venue and total, to the last bit, as from
    # an infinite incumbent. Only where two groups tie exactly may the
    # answer change: a lower incumbent leaves an srdo frame with one venue
    # sooner, and the single-venue loop it hands off to walks the venue's
    # own distance order, so it can meet the other group first. Only the
    # grid's integer distances tie.
    def answer(sol):
        return None if sol is None else (sol.group, sol.venue, repr(sol.total_distance))

    queries = list(_seed_queries("seed-answers", make_instance, mode))
    seeded = [answer(mags_solve(q, g, d, ordering=ordering)) for g, d, q in queries]
    _unseeded(monkeypatch)
    unseeded = [answer(mags_solve(q, g, d, ordering=ordering)) for g, d, q in queries]
    ties = 0
    for (graph, data, query), a, b in zip(queries, seeded, unseeded):
        if a != b:
            assert a is not None and b is not None, query
            assert float(a[2]) == pytest.approx(float(b[2]), abs=frame_counts.TOL), query
            assert is_feasible(a[0], a[1], query, graph, data), query
            assert is_feasible(b[0], b[1], query, graph, data), query
            ties += 1
    assert sum(a is not None for a in seeded) > 40
    assert ties <= (len(queries) // 20 if make_instance is frame_counts._grid_instance else 0)


@SEED_INSTANCES
@pytest.mark.parametrize("mode, ordering", MODE_ORDERINGS)
def test_a_finite_seed_never_ends_without_an_answer(monkeypatch, make_instance, mode, ordering):
    # The seed's group, or a closer one, is always left for the search.
    found = []
    original = multi_venue._MultiVenueSearch._greedy_seed

    def seeding(self):
        seed = original(self)
        found.append(seed is not None)
        return seed

    monkeypatch.setattr(multi_venue._MultiVenueSearch, "_greedy_seed", seeding)
    seeded = 0
    # Only queries with more than one alive venue are seeded, so this test
    # draws more instances than the others.
    for graph, data, query in _seed_queries("seed-kept", make_instance, mode, count=200):
        sol = mags_solve(query, graph, data, ordering=ordering)
        assert sol is not None or not any(found), query
        seeded += any(found)
        found.clear()
    assert seeded > 40, seeded


@pytest.mark.parametrize("mode, ordering", MODE_ORDERINGS)
def test_a_seeded_pool_keeps_the_unseeded_pool_order(monkeypatch, mode, ordering):
    # srdo prepares only the venues the seed leaves, but picks its reference
    # venue from the unpeeled orders of every venue with ``p`` in range:
    # its pool is the unseeded pool with members left out, in the same
    # order. A seeded srdo search that prepares one venue builds no pool
    # and is skipped. Few of the others prepare fewer venues than the
    # unseeded search, so srdo draws many more instances than apdo. apdo
    # prepares every alive venue.
    # On unit distances every venue has the same bound and the same core,
    # so none is left out.
    count = 2000 if ordering == "srdo" else 60
    queries = [
        (make_instance, *instance)
        for make_instance in SEED_MAKERS
        for instance in _seed_queries("seed-pool", make_instance, mode, count)
    ]
    searches = [_joint_search(g, d, q, ordering) for _, g, d, q in queries]
    seeded = [None if len(s.prepared) == 1 and s.static else s.pool for s in searches]
    _unseeded(monkeypatch)
    shrunk = dict.fromkeys(SEED_MAKERS, 0)
    for (make_instance, graph, data, query), pool in zip(queries, seeded):
        if pool is None:
            continue
        unseeded = _joint_search(graph, data, query, ordering).pool
        rest = iter(unseeded)
        assert all(v in rest for v in pool), query
        shrunk[make_instance] += len(pool) < len(unseeded)
    if ordering == "apdo":
        assert not any(shrunk.values()), shrunk
    else:
        assert shrunk.pop(_unit_instance) == 0
        assert min(shrunk.values()) > 5, shrunk


# --- pinned search trees ----------------------------------------------------


def _digest(records):
    return hashlib.sha256(repr(records).encode()).hexdigest()[:16]


def _search_record(seed, variant):
    # A variant is an ordering, optionally followed by " without <rule>".
    ordering, _, rule_off = variant.partition(" without ")
    config = PruneConfig().without(rule_off) if rule_off else PruneConfig()
    graph, data, query = make_query_instance(8500 + seed, q_range=(2, 5))
    stats, audit = SearchStats(), MagsAudit()
    sol = mags_solve(
        query, graph, data, ordering=ordering, config=config, stats=stats, audit=audit
    )
    answer = None if sol is None else (sol.group, sol.venue, round(sol.total_distance, 9))
    return (
        answer,
        (stats.explored_states, stats.generated_states),
        dict(sorted(stats.pruned.items())),
        (len(audit.selections), _digest(audit.selections)),
        (len(audit.bounds), _digest(audit.bounds)),
    )


# Answer, (explored, generated), prune counters, and the
# count and digest of the audited selections and bounds. Any change to the
# candidate selection or the ball-level bounds that alters the search tree
# shows up here.
PINNED_SEARCHES = {
    (0, "srdo"): (
        None,
        (23, 23),
        {"member_familiarity": 82, "venue_distance": 5},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (1, "srdo"): (None, (0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (2, "srdo"): (
        ((2, 3, 4, 9), "q1", 74.224006151),
        (4, 4),
        {"venue_distance": 4},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (3, "srdo"): (None, (0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (4, "srdo"): (
        ((1, 2, 3, 4), "q2", 76.678454048),
        (4, 4),
        {"venue_distance": 4},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (5, "srdo"): (
        ((2, 4, 6), "q0", 61.466951292),
        (3, 3),
        {"venue_distance": 3},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (6, "srdo"): (
        ((2, 5, 7), "q1", 53.458484028),
        (4, 4),
        {"venue_distance": 3},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (7, "srdo"): (None, (0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (8, "srdo"): (
        ((4, 6, 7, 9, 10), "q0", 139.787053891),
        (5, 5),
        {"venue_distance": 5},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (9, "srdo"): (None, (0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (10, "srdo"): (
        ((0, 1, 5), "q0", 41.560999576),
        (3, 3),
        {"venue_distance": 3},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (11, "srdo"): (
        ((2, 6, 10), "q1", 49.379992693),
        (4, 4),
        {"venue_distance": 2},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (12, "srdo"): (
        ((1, 5, 6, 9), "q1", 66.532390954),
        (4, 4),
        {"venue_distance": 4},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (13, "srdo"): (
        ((0, 1, 2, 5, 6), "q1", 159.804164319),
        (5, 5),
        {},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (14, "srdo"): (
        ((2, 3, 12), "q2", 43.801634625),
        (3, 3),
        {"venue_distance": 3},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (15, "srdo"): (
        ((2, 6, 8), "q0", 91.108967891),
        (3, 3),
        {"member_familiarity": 1, "venue_distance": 3},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (16, "srdo"): (None, (0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (17, "srdo"): (None, (0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (18, "srdo"): (
        ((1, 3, 13), "q2", 61.69316095),
        (3, 3),
        {"venue_distance": 3},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (19, "srdo"): (
        ((1, 4, 5, 6, 7), "q3", 115.976489005),
        (5, 5),
        {},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (0, "apdo"): (
        None,
        (23, 23),
        {"member_familiarity": 80, "venue_distance": 5},
        (23, "f90d63166dc9085f"),
        (0, "4f53cda18c2baa0c"),
    ),
    (1, "apdo"): (
        None,
        (3, 3),
        {"member_familiarity": 5, "venue_distance": 1},
        (3, "e5207ed84ddcb983"),
        (0, "4f53cda18c2baa0c"),
    ),
    (2, "apdo"): (
        ((2, 3, 4, 9), "q1", 74.224006151),
        (4, 4),
        {"venue_distance": 4},
        (3, "3549787bf07406e3"),
        (0, "4f53cda18c2baa0c"),
    ),
    (3, "apdo"): (None, (0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (4, "apdo"): (
        ((1, 2, 3, 4), "q2", 76.678454048),
        (4, 4),
        {"venue_distance": 1},
        (3, "c7d16897d2b3c06a"),
        (0, "4f53cda18c2baa0c"),
    ),
    (5, "apdo"): (
        ((2, 4, 6), "q0", 61.466951292),
        (3, 3),
        {"venue_distance": 2},
        (2, "594d42cc1f0d2468"),
        (0, "4f53cda18c2baa0c"),
    ),
    (6, "apdo"): (
        ((2, 5, 7), "q1", 53.458484028),
        (4, 4),
        {"venue_distance": 3},
        (2, "13feead6177c6bf0"),
        (4, "bb2b41f81ac9f428"),
    ),
    (7, "apdo"): (None, (0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (8, "apdo"): (
        ((4, 6, 7, 9, 10), "q0", 139.787053891),
        (5, 5),
        {"venue_distance": 2},
        (4, "48fc825ee1a2ad8b"),
        (0, "4f53cda18c2baa0c"),
    ),
    (9, "apdo"): (None, (0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (10, "apdo"): (
        ((0, 1, 5), "q0", 41.560999576),
        (3, 3),
        {"venue_distance": 2},
        (2, "5a606f5abfe4deeb"),
        (0, "4f53cda18c2baa0c"),
    ),
    (11, "apdo"): (
        ((2, 6, 10), "q1", 49.379992693),
        (4, 4),
        {"venue_distance": 3},
        (2, "9f10fdf3aa5cee45"),
        (6, "e7a3105e2d88c773"),
    ),
    (12, "apdo"): (
        ((1, 5, 6, 9), "q1", 66.532390954),
        (4, 4),
        {"venue_distance": 1},
        (3, "8bec9854da70db65"),
        (0, "4f53cda18c2baa0c"),
    ),
    (13, "apdo"): (
        ((0, 1, 2, 5, 6), "q1", 159.804164319),
        (5, 5),
        {},
        (4, "e352dd4fb3a7dd02"),
        (0, "4f53cda18c2baa0c"),
    ),
    (14, "apdo"): (
        ((2, 3, 12), "q2", 43.801634625),
        (3, 3),
        {"ball_distance": 2, "venue_distance": 1},
        (2, "110a6cc617b48a31"),
        (4, "0cbdcbcb1d2e3f98"),
    ),
    (15, "apdo"): (
        ((2, 6, 8), "q0", 91.108967891),
        (6, 6),
        {"ball_distance": 2, "venue_distance": 1, "venue_radius": 1},
        (4, "fe4687806c36ddb0"),
        (1, "28b4ab8a70ee9cbb"),
    ),
    (16, "apdo"): (None, (0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (17, "apdo"): (None, (0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (18, "apdo"): (
        ((1, 3, 13), "q2", 61.69316095),
        (6, 6),
        {"ball_distance": 2, "venue_distance": 1, "venue_radius": 2},
        (4, "2fb7cee492682668"),
        (1, "d0dd411d4c770cfa"),
    ),
    (19, "apdo"): (
        ((1, 4, 5, 6, 7), "q3", 115.976489005),
        (5, 5),
        {},
        (4, "eaecc5a95f39bb67"),
        (0, "4f53cda18c2baa0c"),
    ),
    (2, "srdo without venue_distance"): (
        ((2, 3, 4, 9), "q1", 74.224006151),
        (365, 365),
        {"venue_radius": 116},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (5, "srdo without venue_distance"): (
        ((2, 4, 6), "q0", 61.466951292),
        (960, 960),
        {"venue_radius": 24},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (8, "srdo without venue_distance"): (
        ((4, 6, 7, 9, 10), "q0", 139.787053891),
        (3343, 3343),
        {"member_familiarity": 56, "venue_radius": 198},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (12, "srdo without venue_distance"): (
        ((1, 5, 6, 9), "q1", 66.532390954),
        (824, 824),
        {},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (15, "srdo without venue_distance"): (
        ((2, 6, 8), "q0", 91.108967891),
        (10, 10),
        {"member_familiarity": 3},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
}


@pytest.mark.parametrize("seed, variant", sorted(PINNED_SEARCHES))
def test_search_tree_is_pinned(seed, variant):
    assert _search_record(seed, variant) == PINNED_SEARCHES[(seed, variant)]


@pytest.mark.parametrize("mode", list(FamiliarityMode), ids=lambda m: m.value)
def test_exact_tie_goes_to_the_first_venue_in_query_order(mode):
    # Every member is one unit from every venue, so every feasible group
    # ties at every venue. Each exact solver must then answer at the first
    # venue of the query's tuple, whatever the venues' ids.
    solvers = {
        "ssp": ssp_solve,
        "mags-srdo": lambda q, g, d: mags_solve(q, g, d, ordering="srdo"),
        "mags-apdo": lambda q, g, d: mags_solve(q, g, d, ordering="apdo"),
    }
    found = 0
    for seed in range(60):
        rng = random.Random(f"venue-tie-{mode.value}-{seed}")
        n = rng.randint(5, 10)
        graph, _ = random_instance(seed, n, 1, edge_prob=rng.choice([0.3, 0.5, 0.7]))
        data = unit_distance_dataset(graph.vertices, rng.randint(2, 5))
        venues = sorted(data.venue_locations)
        rng.shuffle(venues)
        p = rng.randint(2, min(4, n))
        query = Query(p, rng.randint(0, p - 1), 2.0, tuple(venues), mode)
        oracle = brute_force(query, graph, data)
        for name, solver in solvers.items():
            sol = solver(query, graph, data)
            where = f"seed {seed}, {name}, {query}"
            assert (sol is not None) == oracle.found, where
            if sol is not None:
                assert sol.venue == venues[0], where
                assert sol.total_distance == float(p), where
                found += 1
    assert found > 100, found
