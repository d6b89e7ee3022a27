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
    ssgs_solve,
    ssp_solve,
)

from rallypoint import multi_venue, single_venue
from rallypoint.model import PRUNE_VENUE_RADIUS

from conftest import make_query_instance


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

    monkeypatch.setattr(multi_venue, "distance", no_distance)
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
    # complete, so every candidate is admitted. Seed (a, q1), order a, b, d,
    # c. Once the prefix holds a or b only q1 is live, so d and c are
    # generated but reach no live venue; likewise q1 is dropped after d.
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
    # Root: a, b, d, c generated (c has no partner left). Under a: b, d, c;
    # under b: d, c; under d: c.
    assert stats.generated_states == 9
    # Root children a, b (leaf-less frames) and d, plus leaves (a, b), (d, c).
    assert stats.explored_states == 5
    # q2 out of radius for a and b, q1 for d at the root; the dead candidates
    # d and c under a and under b each miss the one live venue.
    assert stats.pruned == {PRUNE_VENUE_RADIUS: 7}


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


def test_srdo_work_does_not_depend_on_the_hash_seed():
    here = Path(__file__).resolve().parent
    code = HASH_SEED_CHILD.format(src=str(here.parent / "src"), tests=str(here))

    def calls(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        return int(out.stdout.split()[-1])

    first = calls(0)
    assert first > 0
    assert calls(1) == first


def test_apdo_reference_switches(srdo_instance):
    graph, data, query = srdo_instance
    audit = MagsAudit()
    sol = mags_solve(query, graph, data, ordering="apdo", audit=audit)
    picks = [(s.member, s.venue) for s in audit.selections[:3]]
    assert picks == [("d", "q4"), ("a", "q3"), ("b", "q3")]
    assert sol.group == ("a", "b", "d") and sol.venue == "q3"


def test_apdo_selection_equals_scan_argmin():
    for seed in range(25):
        graph, data, query = make_query_instance(3100 + seed, q_range=(2, 5))
        audit = MagsAudit()
        mags_solve(query, graph, data, ordering="apdo", audit=audit)
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

MAGS_RULES = (
    "venue_distance",
    "member_familiarity",
    "pool_familiarity",
    "outer_triangle",
    "inner_triangle",
    "ball_distance",
)


def test_disabling_any_rule_preserves_optimum():
    for seed in range(25):
        graph, data, query = make_query_instance(6000 + seed, q_range=(2, 5))
        base = mags_solve(query, graph, data, ordering="apdo")
        for rule in MAGS_RULES:
            sol = mags_solve(
                query, graph, data, ordering="apdo", config=PruneConfig().without(rule)
            )
            assert _total(sol) == _total(base), rule


def test_enabling_rules_never_explores_more():
    for seed in range(25):
        graph, data, query = make_query_instance(6500 + seed, q_range=(2, 5))
        on = SearchStats()
        mags_solve(query, graph, data, ordering="apdo", config=PruneConfig(), stats=on)
        for rule in MAGS_RULES:
            off = SearchStats()
            mags_solve(
                query, graph, data, ordering="apdo",
                config=PruneConfig().without(rule), stats=off,
            )
            assert on.explored_states <= off.explored_states, rule


def test_prune_counters_populated_somewhere():
    fired = set()
    for seed in range(40):
        graph, data, query = make_query_instance(7000 + seed, q_range=(2, 5))
        stats = SearchStats()
        mags_solve(query, graph, data, ordering="apdo", stats=stats)
        fired |= {rule for rule, count in stats.pruned.items() if count > 0}
    assert "venue_distance" in fired
    assert "member_familiarity" in fired


def test_core_preprocess_preserves_optimum():
    for seed in range(20):
        graph, data, query = make_query_instance(7700 + seed, q_range=(2, 4))
        plain = mags_solve(query, graph, data, ordering="apdo")
        pre = mags_solve(query, graph, data, ordering="apdo", core_preprocess=True)
        assert _total(plain) == _total(pre)


# --- pinned search trees ----------------------------------------------------


def _digest(records):
    return hashlib.sha256(repr(records).encode()).hexdigest()[:16]


def _search_record(seed, ordering):
    graph, data, query = make_query_instance(8500 + seed, q_range=(2, 5))
    stats, audit = SearchStats(), MagsAudit()
    sol = mags_solve(query, graph, data, ordering=ordering, stats=stats, audit=audit)
    answer = None if sol is None else (sol.group, sol.venue, round(sol.total_distance, 9))
    return (
        answer,
        (stats.explored_states, stats.generated_states, stats.theta_escalations),
        dict(sorted(stats.pruned.items())),
        (len(audit.selections), _digest(audit.selections)),
        (len(audit.bounds), _digest(audit.bounds)),
    )


# Answer, (explored, generated, theta escalations), prune counters, and the
# count and digest of the audited selections and bounds. Any change to the
# candidate selection or the ball-level bounds that alters the search tree
# shows up here.
PINNED_SEARCHES = {
    (0, "srdo"): (
        None,
        (100, 570, 203),
        {"member_familiarity": 462, "pool_familiarity": 8, "venue_radius": 79},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (1, "srdo"): (
        None,
        (1, 4, 2),
        {"member_familiarity": 2, "pool_familiarity": 1},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (2, "srdo"): (
        ((2, 3, 4, 9), "q1", 74.224006151),
        (22, 35, 0),
        {"venue_distance": 62, "venue_radius": 28},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (3, "srdo"): (None, (0, 0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (4, "srdo"): (
        ((1, 2, 3, 4), "q2", 76.678454048),
        (8, 10, 0),
        {"venue_distance": 9, "venue_radius": 1},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (5, "srdo"): (
        ((2, 4, 6), "q0", 61.466951292),
        (11, 25, 0),
        {"venue_distance": 61, "venue_radius": 7},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (6, "srdo"): (
        ((2, 5, 7), "q1", 53.458484028),
        (7, 12, 0),
        {"member_familiarity": 1, "venue_distance": 8},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (7, "srdo"): (None, (0, 0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (8, "srdo"): (
        ((4, 6, 7, 9, 10), "q0", 139.787053891),
        (41, 104, 0),
        {"venue_distance": 178, "venue_radius": 21},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (9, "srdo"): (None, (0, 0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (10, "srdo"): (
        ((0, 1, 5), "q0", 41.560999576),
        (8, 15, 0),
        {"venue_distance": 32, "venue_radius": 3},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (11, "srdo"): (
        ((2, 6, 10), "q1", 49.379992693),
        (11, 19, 0),
        {"member_familiarity": 2, "venue_distance": 7, "venue_radius": 9},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (12, "srdo"): (
        ((1, 5, 6, 9), "q1", 66.532390954),
        (14, 32, 0),
        {"venue_distance": 49},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (13, "srdo"): (
        ((0, 1, 2, 5, 6), "q1", 159.804164319),
        (5, 5, 0),
        {},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (14, "srdo"): (
        ((2, 3, 12), "q2", 43.801634625),
        (6, 9, 0),
        {"venue_distance": 7},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (15, "srdo"): (
        ((2, 6, 8), "q0", 91.108967891),
        (15, 50, 7),
        {"member_familiarity": 15, "venue_distance": 6, "venue_radius": 33},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (16, "srdo"): (None, (0, 0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (17, "srdo"): (None, (0, 0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (18, "srdo"): (
        ((1, 3, 13), "q2", 61.69316095),
        (20, 92, 2),
        {"member_familiarity": 2, "venue_distance": 13, "venue_radius": 83},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (19, "srdo"): (
        ((1, 4, 5, 6, 7), "q3", 115.976489005),
        (5, 5, 0),
        {},
        (0, "4f53cda18c2baa0c"),
        (0, "4f53cda18c2baa0c"),
    ),
    (0, "apdo"): (
        None,
        (102, 581, 202),
        {"member_familiarity": 469, "pool_familiarity": 10, "venue_radius": 81},
        (1927, "a59f674a9931c893"),
        (9150, "57781adce8b864e4"),
    ),
    (1, "apdo"): (
        None,
        (1, 4, 2),
        {"member_familiarity": 2, "pool_familiarity": 1},
        (12, "eb117390dcba51c5"),
        (36, "f68d7ed138cd8303"),
    ),
    (2, "apdo"): (
        ((2, 3, 4, 9), "q1", 74.224006151),
        (10, 13, 0),
        {"ball_distance": 4, "outer_triangle": 8, "venue_distance": 17, "venue_radius": 8},
        (13, "75bbcdc7a95f5da8"),
        (148, "07af7c3e574d729c"),
    ),
    (3, "apdo"): (None, (0, 0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (4, "apdo"): (
        ((1, 2, 3, 4), "q2", 76.678454048),
        (6, 9, 0),
        {"ball_distance": 3, "outer_triangle": 1, "venue_distance": 4, "venue_radius": 1},
        (9, "2c378392a4205ca3"),
        (48, "2ac10600acdbf339"),
    ),
    (5, "apdo"): (
        ((2, 4, 6), "q0", 61.466951292),
        (5, 7, 0),
        {"ball_distance": 1, "outer_triangle": 5, "venue_distance": 6, "venue_radius": 1},
        (7, "756af3fbf95bb3fd"),
        (32, "17ef50b1aa8ab5df"),
    ),
    (6, "apdo"): (
        ((2, 5, 7), "q1", 53.458484028),
        (5, 9, 0),
        {"ball_distance": 3, "member_familiarity": 1, "venue_distance": 5},
        (9, "dadfb063d62c6c64"),
        (24, "8f295df71023c02a"),
    ),
    (7, "apdo"): (None, (0, 0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (8, "apdo"): (
        ((4, 6, 7, 9, 10), "q0", 139.787053891),
        (17, 35, 0),
        {"ball_distance": 3, "inner_triangle": 3, "outer_triangle": 11, "venue_distance": 30, "venue_radius": 1},
        (35, "da0cab3813e80c16"),
        (243, "44bafe46a9609aea"),
    ),
    (9, "apdo"): (None, (0, 0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (10, "apdo"): (
        ((0, 1, 5), "q0", 41.560999576),
        (6, 8, 0),
        {"outer_triangle": 6, "venue_distance": 6},
        (8, "36194d23b709d546"),
        (51, "00457bb6735a3588"),
    ),
    (11, "apdo"): (
        ((2, 6, 10), "q1", 49.379992693),
        (10, 15, 1),
        {"ball_distance": 3, "member_familiarity": 1, "outer_triangle": 2, "venue_distance": 8, "venue_radius": 1},
        (15, "2fd37f6ec2cb3134"),
        (96, "75da4fc0dbc8db16"),
    ),
    (12, "apdo"): (
        ((1, 5, 6, 9), "q1", 66.532390954),
        (10, 15, 0),
        {"ball_distance": 2, "inner_triangle": 1, "outer_triangle": 4, "venue_distance": 12},
        (15, "b42c1b6faa06a756"),
        (55, "e5a318bad391ea7a"),
    ),
    (13, "apdo"): (
        ((0, 1, 2, 5, 6), "q1", 159.804164319),
        (5, 5, 0),
        {},
        (5, "a9d8d3a0663a16d9"),
        (24, "a45d2162283269c3"),
    ),
    (14, "apdo"): (
        ((2, 3, 12), "q2", 43.801634625),
        (3, 5, 0),
        {"ball_distance": 2, "venue_distance": 3},
        (5, "994b6ba3d9168d95"),
        (18, "09f4f4ead75f8a23"),
    ),
    (15, "apdo"): (
        ((2, 6, 8), "q0", 91.108967891),
        (6, 15, 6),
        {"ball_distance": 2, "member_familiarity": 7, "outer_triangle": 2, "venue_distance": 3, "venue_radius": 2},
        (22, "23b2fe0dcc70365f"),
        (86, "53bb037b48f2b6c1"),
    ),
    (16, "apdo"): (None, (0, 0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (17, "apdo"): (None, (0, 0, 0), {}, (0, "4f53cda18c2baa0c"), (0, "4f53cda18c2baa0c")),
    (18, "apdo"): (
        ((1, 3, 13), "q2", 61.69316095),
        (6, 9, 2),
        {"ball_distance": 1, "member_familiarity": 1, "outer_triangle": 3, "venue_distance": 3, "venue_radius": 4},
        (9, "db122fd18e024a84"),
        (77, "c2b6843f7819368a"),
    ),
    (19, "apdo"): (
        ((1, 4, 5, 6, 7), "q3", 115.976489005),
        (5, 5, 0),
        {},
        (5, "488d13b84d44f117"),
        (32, "f7bdbffa5a7ef441"),
    ),
}


@pytest.mark.parametrize("seed, ordering", sorted(PINNED_SEARCHES))
def test_search_tree_is_pinned(seed, ordering):
    assert _search_record(seed, ordering) == PINNED_SEARCHES[(seed, ordering)]
