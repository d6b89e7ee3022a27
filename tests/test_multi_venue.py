import ast
import functools
import hashlib
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
)

from rallypoint import multi_venue, single_venue
from rallypoint.balltree import mindist_point_ball
from rallypoint.generator import radius_for_quantile, random_instance
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
    # at equal scores, so the tie-breaks decide; every pop of a frame's pair
    # queue, the first and each one after a child returns, must be the scan
    # argmin.
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


def test_search_setup_matches_the_distances():
    # Alive venues, their orders, ``near`` (in each row's venue order) and
    # the pool in each ordering's search order, bit for bit, against a
    # reference built from the dataset's distances. srdo pools mix members
    # in range of the reference venue, whose distance the search reuses,
    # with members out of it, whose distance it computes.
    rng = random.Random(12)
    seen = {"at_t": 0, "non_vertex": 0, "dead": 0, "shared_spot": 0, "mixed_reference": 0}
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
        pool = set().union(*(in_range[q] for q in alive))
        near = {
            m: {q: data.member_venue_distance(m, q) for q in alive if m in in_range[q]}
            for m in pool
        }
        orders = {
            q: sorted((data.member_venue_distance(m, q), m) for m in in_range[q]) for q in alive
        }
        pools = {"apdo": sorted(pool), "srdo": []}
        if pool:
            degree = {m: graph.degree(m) for m in pool}
            _, q_ref, _ = srdo_seed(near, degree)
            keys = sorted((data.member_venue_distance(m, q_ref), -degree[m], m) for m in pool)
            pools["srdo"] = [m for _, _, m in keys]
            seen["mixed_reference"] += 0 < len(in_range[q_ref]) < len(pool)
        spots = [data.member_locations[m] for m in pool]
        seen["shared_spot"] += len(set(spots)) < len(spots)
        for q in query.venues:
            for m in data.member_locations:
                if data.member_venue_distance(m, q) == query.t and m in in_range[q]:
                    seen["at_t"] += 1
                if m not in graph and data.member_venue_distance(m, q) <= query.t:
                    seen["non_vertex"] += 1
            seen["dead"] += 0 < len(in_range[q]) < query.p
        for ordering in ("srdo", "apdo"):
            search = multi_venue._MultiVenueSearch(
                query,
                graph,
                data,
                build_indexes(data),
                PruneConfig(),
                SearchStats(),
                ordering=ordering,
            )
            assert search.alive_venues == alive
            assert search.pool == pools[ordering], ordering
            assert search.near == near
            assert all(list(search.near[m]) == list(row) for m, row in near.items())
            assert search.by_distance == orders
    assert min(seen.values()) > 20, seen


def _srdo_search(graph, data, query, config=None):
    return multi_venue._MultiVenueSearch(
        query,
        graph,
        data,
        build_indexes(data),
        config or PruneConfig(),
        SearchStats(),
        ordering="srdo",
    )


def test_srdo_reference_order_matches_its_definition():
    # The pool sorted by (distance to the seed's venue, -degree, id), with
    # the seed taken from the whole member-to-venue table. Integer grids put
    # members on shared spots, at equal distance from several venues and
    # with equal degrees, so the tie-breaks decide.
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
        if not search.alive_venues:
            assert search.pool == []
            continue
        _, q_ref, d_min = srdo_seed(search.near, search.degree_of)
        ref = data.venue_locations[q_ref]
        keys = sorted(
            (distance(data.member_locations[v], ref), -graph.degree(v), v) for v in search.near
        )
        assert search.pool == [v for _, _, v in keys]
        at_d_min = sum(d == d_min for row in search.near.values() for d in row.values())
        seen["seed_ties"] += at_d_min > 1
        seen["key_ties"] += sum(a[:2] == b[:2] for a, b in zip(keys, keys[1:]))
    assert min(seen.values()) > 50, seen


def _entry_by_walk(search, pool, pool_set, size, sums, nearest):
    """The entry filter as a walk of each venue's candidates in distance
    order up to the first pool member that fails the bound."""
    p = search.query.p
    best = search.best_total
    bound = search.config.venue_distance
    keep = set()
    for q, total in sums.items():
        row = nearest[q]
        for d, v in search.by_distance[q]:
            if v in pool_set:
                if bound and distance_prune(total + d, size + 1, p, row, best):
                    break
                keep.add(v)
    return [v for v in pool if v in keep]


def test_entry_filter_equals_the_walk_of_every_candidate():
    # Random non-leaf frames over random instances: a prefix of the pool,
    # the venues within its radius with their totals, a random entry pool,
    # and an incumbent that is infinite, finite, or exactly one candidate's
    # child bound; the venue-distance rule on and off.
    rng = random.Random(23)
    seen = {"inf": 0, "tie": 0, "off": 0, "short_row": 0, "dropped": 0}
    makers = [
        frame_counts._gnp_instance,
        frame_counts._power_law_instance,
        frame_counts._grid_instance,
    ]
    for trial in range(400):
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
            nearest = on._nearest(pool_set, size, sums)
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
                    expected = _entry_by_walk(search, pool, pool_set, size, sums, nearest)
                    got = search._entry_candidates(pool, pool_set, size, sums, nearest)
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
    # argument. At each entry it must equal the frame's pool, and the frame
    # must hand it back unchanged: the caller keeps using it.
    original = multi_venue._MultiVenueSearch._frame
    entered = []

    def guarded(self, prefix, prefix_set, prefix_edges, pool, sums, *rest):
        pool_set = rest[-1]
        assert isinstance(pool_set, set) and pool_set == set(pool), prefix
        before = frozenset(pool_set)
        original(self, prefix, prefix_set, prefix_edges, pool, sums, *rest)
        assert pool_set == before, prefix
        entered.append(len(prefix))

    monkeypatch.setattr(multi_venue._MultiVenueSearch, "_frame", guarded)
    label = f"pool-set-{mode.value}-{ordering}"
    for make_instance in (
        frame_counts._gnp_instance,
        frame_counts._power_law_instance,
        frame_counts._grid_instance,
    ):
        _mags_matches_oracle(label, make_instance, mode, 5700, ordering)
    assert sum(size > 0 for size in entered) > 100, len(entered)


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

            d_min = {
                q: min((dist(m, q) for m in frame["pool"] if dist(m, q) <= t), default=math.inf)
                for q in sums
            }
            for m in [u, *frame["remaining"]]:
                assert any(
                    dist(m, q) <= t
                    and not distance_prune(sums[q] + dist(m, q), size + 1, p, d_min[q], best)
                    for q in sums
                ), (m, best, sums)
            checked.append(1 + len(frame["remaining"]))
        return original_child_sums(self, u, *args)

    monkeypatch.setattr(multi_venue._MultiVenueSearch, "_child_sums", checking)
    label = f"static-bound-{make_instance.__name__}-{mode.value}"
    # Tight bounds leave few candidates in a frame, so this test draws more
    # instances than the others to keep its floor.
    _mags_matches_oracle(label, make_instance, mode, 5500, ordering, count=120)
    assert sum(checked) > 100, sum(checked)


def _in_range_completion(search, group, pool, q):
    """The cheapest way to grow ``group`` to ``p`` members at venue ``q``
    with members of ``pool`` within ``t`` of it, by enumeration: the
    group's total distance to ``q`` plus its ``p - len(group)`` nearest
    in-range pool members (inf when there are too few)."""
    q_loc = search.venue_loc[q]
    dist = lambda m: distance(search.member_loc[m], q_loc)  # noqa: E731
    extras = sorted(dist(m) for m in pool if dist(m) <= search.query.t)
    slots = search.query.p - len(group)
    if len(extras) < slots:
        return math.inf
    return sum(dist(m) for m in group) + sum(extras[:slots])


def _first_in_range(search, members, q, count):
    """The first ``count`` (distance, member) pairs within ``t`` of ``q``
    among ``members``, by enumeration, in (distance, id) order."""
    q_loc = search.venue_loc[q]
    pairs = sorted((distance(search.member_loc[m], q_loc), m) for m in members)
    return [(d, m) for d, m in pairs if d <= search.query.t][:count]


@pytest.mark.parametrize("mode", list(FamiliarityMode), ids=lambda m: m.value)
@pytest.mark.parametrize("ordering", ["srdo", "apdo"])
def test_venue_completion_terms_are_sound_exact_after_a_refresh_and_never_looser(
    monkeypatch, ordering, mode
):
    # A frame's ``nearest`` lists bound each venue's open slots. Checked
    # against enumeration over the calling frame's ``remaining``, read off
    # the frame at each call:
    # - every venue bound ``_child_sums`` applies, and every ball bound of
    #   the ball pass, is at most the cheapest in-range completion, and a
    #   venue the check drops cannot beat the incumbent;
    # - right after a refresh each list holds the first ``p - size``
    #   in-range members of ``remaining``, and none is empty;
    # - each term is at least the former one: ``r`` times the entry pool's
    #   smallest in-range distance, or the smallest member-to-ball bound
    #   over ``remaining``.
    checked = {"venue": 0, "refresh": 0, "ball": 0}
    cls = multi_venue._MultiVenueSearch
    original_nearest = cls._nearest
    original_child_sums = cls._child_sums
    original_ball_pass = cls._ball_pass

    def nearest_checking(self, members, size, sums):
        lists = original_nearest(self, members, size, sums)
        frame = sys._getframe(1).f_locals
        if frame.get("checked_at") is not None:
            assert members == set(frame["remaining"])
            for q in sums:
                assert lists[q] == _first_in_range(self, members, q, self.query.p - size), q
                checked["refresh"] += 1
        return lists

    def child_sums_checking(self, u, child_size, sums, nearest):
        child_sums = original_child_sums(self, u, child_size, sums, nearest)
        frame = sys._getframe(1).f_locals
        group = [*frame["prefix"], u]
        slots = self.query.p - child_size
        for q in self.near[u].keys() & sums.keys():
            row = nearest[q][:slots]
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

    def ball_pass_checking(self, prefix, remaining, sums, nearest):
        size = len(prefix)
        for q in sums:
            assert nearest[q], q
            assert nearest[q] == _first_in_range(self, remaining, q, self.query.p - size), q
        for node in self.indexes.venues.nodes():
            live = [q for q in node.venue_ids if q in sums]
            if live:
                former = min(mindist_point_ball(self.member_loc[m], node.ball) for m in remaining)
                assert min(nearest[q][0][0] for q in live) >= former - 1e-9
        live_venues = set(sums)
        first = len(self.audit.bounds)
        original_ball_pass(self, prefix, remaining, sums, nearest)
        for rec in self.audit.bounds[first:]:
            assert set(rec.venue_ids) <= live_venues
            exact = min(_in_range_completion(self, prefix, remaining, q) for q in rec.venue_ids)
            assert rec.bound <= exact + 1e-9, (rec, exact)
            checked["ball"] += 1

    monkeypatch.setattr(cls, "_nearest", nearest_checking)
    monkeypatch.setattr(cls, "_child_sums", child_sums_checking)
    monkeypatch.setattr(cls, "_ball_pass", ball_pass_checking)
    for seed in range(150):
        graph, data, query = make_query_instance(
            9900 + seed, n_range=(6, 14), p_range=(2, 5), q_range=(2, 6)
        )
        query = Query(query.p, query.k, query.t, query.venues, mode)
        oracle = brute_force(query, graph, data)
        sol = mags_solve(query, graph, data, ordering=ordering, audit=MagsAudit())
        assert _total(sol) == (round(oracle.total_distance, 9) if oracle.found else None), seed
    assert checked["venue"] > 1000 and checked["refresh"] > 300, checked
    if ordering == "apdo":
        assert checked["ball"] > 1000, checked


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
    # one-venue query that is the root frame. In average mode both searches
    # keep the same pool counts, so srdo generates and explores what ssp
    # does; per-vertex joint frames keep none, so only the answers match.
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
            records.append((answer, stats.explored_states, stats.generated_states))
        (ssp_answer, *ssp_counts), (srdo_answer, *srdo_counts) = records
        assert srdo_answer == ssp_answer, seed
        if mode is FamiliarityMode.AVERAGE:
            assert srdo_counts == ssp_counts, seed
        explored += srdo_counts[0]
    assert explored > 200, explored


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

    monkeypatch.setattr(multi_venue, "pool_degrees", counted)
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


def test_core_preprocess_preserves_optimum():
    for seed in range(20):
        graph, data, query = make_query_instance(7700 + seed, q_range=(2, 4))
        plain = mags_solve(query, graph, data, ordering="apdo")
        pre = mags_solve(query, graph, data, ordering="apdo", core_preprocess=True)
        assert _total(plain) == _total(pre)


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
        (76, 289),
        {"member_familiarity": 213, "venue_distance": 7, "venue_radius": 8},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (1, "srdo"): (
        None,
        (5, 7),
        {"member_familiarity": 2, "venue_radius": 1},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (2, "srdo"): (
        ((2, 3, 4, 9), "q1", 74.224006151),
        (4, 4),
        {"venue_distance": 5, "venue_radius": 3},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (3, "srdo"): (None, (0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (4, "srdo"): (
        ((1, 2, 3, 4), "q2", 76.678454048),
        (4, 4),
        {"venue_distance": 4, "venue_radius": 1},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (5, "srdo"): (
        ((2, 4, 6), "q0", 61.466951292),
        (3, 3),
        {"venue_distance": 5},
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
        {"venue_distance": 7},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (9, "srdo"): (None, (0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (10, "srdo"): (
        ((0, 1, 5), "q0", 41.560999576),
        (3, 3),
        {"venue_distance": 5},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (11, "srdo"): (
        ((2, 6, 10), "q1", 49.379992693),
        (9, 12),
        {"venue_distance": 7, "venue_radius": 6},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (12, "srdo"): (
        ((1, 5, 6, 9), "q1", 66.532390954),
        (5, 5),
        {"venue_distance": 5},
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
        (17, 26),
        {"member_familiarity": 8, "venue_distance": 3, "venue_radius": 10},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (16, "srdo"): (None, (0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (17, "srdo"): (None, (0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (18, "srdo"): (
        ((1, 3, 13), "q2", 61.69316095),
        (12, 14),
        {"venue_distance": 8, "venue_radius": 13},
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
        (81, 300),
        {"member_familiarity": 219, "venue_distance": 11, "venue_radius": 8},
        (300, "c87ed274d8a39b61"),
        (0, "4f53cda18c2baa0c"),
    ),
    (1, "apdo"): (
        None,
        (5, 7),
        {"member_familiarity": 2, "venue_radius": 1},
        (6, "edce94effcea0ad5"),
        (0, "4f53cda18c2baa0c"),
    ),
    (2, "apdo"): (
        ((2, 3, 4, 9), "q1", 74.224006151),
        (4, 4),
        {"ball_distance": 7, "venue_distance": 4, "venue_radius": 3},
        (3, "4cd22014eb1c5812"),
        (21, "1a54c3896623965b"),
    ),
    (3, "apdo"): (None, (0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (4, "apdo"): (
        ((1, 2, 3, 4), "q2", 76.678454048),
        (4, 4),
        {"ball_distance": 2, "venue_distance": 3, "venue_radius": 1},
        (3, "218dc8c9ca4086e3"),
        (10, "a97d2b3137beb11d"),
    ),
    (5, "apdo"): (
        ((2, 4, 6), "q0", 61.466951292),
        (3, 3),
        {"ball_distance": 4, "venue_distance": 4},
        (2, "d1e9b725e3835b12"),
        (8, "1a3c9a03e90a24db"),
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
        {"ball_distance": 7, "venue_distance": 5},
        (4, "096358441cb53ba8"),
        (20, "2206f6ddbb2618fa"),
    ),
    (9, "apdo"): (None, (0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (10, "apdo"): (
        ((0, 1, 5), "q0", 41.560999576),
        (3, 3),
        {"ball_distance": 3, "venue_distance": 5},
        (2, "e8f07e799d7074ac"),
        (10, "16942ae88af70236"),
    ),
    (11, "apdo"): (
        ((2, 6, 10), "q1", 49.379992693),
        (7, 7),
        {"ball_distance": 2, "venue_distance": 3, "venue_radius": 1},
        (4, "34981aade4a2b0c5"),
        (14, "de51292eb93b2e17"),
    ),
    (12, "apdo"): (
        ((1, 5, 6, 9), "q1", 66.532390954),
        (5, 5),
        {"ball_distance": 3, "venue_distance": 5},
        (3, "5ebab3400af26215"),
        (9, "3a851d2cb51e7569"),
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
        (11, 12),
        {"ball_distance": 4, "member_familiarity": 1, "venue_distance": 1, "venue_radius": 2},
        (6, "9aa147f33a9b060d"),
        (4, "91a4812a310c80c8"),
    ),
    (16, "apdo"): (None, (0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (17, "apdo"): (None, (0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (18, "apdo"): (
        ((1, 3, 13), "q2", 61.69316095),
        (6, 6),
        {"ball_distance": 4, "venue_distance": 1, "venue_radius": 4},
        (4, "168e5ae32ee8b591"),
        (5, "e3c4ca612218e7a9"),
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
        (3477, 3521),
        {"member_familiarity": 44, "venue_radius": 213},
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
        (25, 35),
        {"member_familiarity": 10, "venue_radius": 13},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
}


@pytest.mark.parametrize("seed, variant", sorted(PINNED_SEARCHES))
def test_search_tree_is_pinned(seed, variant):
    assert _search_record(seed, variant) == PINNED_SEARCHES[(seed, variant)]
