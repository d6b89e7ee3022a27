import math

import pytest

from rallypoint.generator import random_instance


@pytest.mark.parametrize("exponent", [1, 1.0, 0.5, -2.0, math.nan])
def test_power_exponent_not_above_one_is_rejected(exponent):
    with pytest.raises(ValueError, match="power_exponent"):
        random_instance(0, 10, 1, power_exponent=exponent)


@pytest.mark.parametrize("prob", [1.5, -1.0, -1e-9, math.nan])
def test_edge_prob_outside_unit_interval_is_rejected(prob):
    with pytest.raises(ValueError, match="edge_prob"):
        random_instance(0, 10, 1, edge_prob=prob)


@pytest.mark.parametrize("box", [-1.0, -1e-9, math.nan, math.inf])
def test_box_negative_or_not_finite_is_rejected(box):
    with pytest.raises(ValueError, match="box"):
        random_instance(0, 10, 1, box=box)


def test_zero_box_puts_every_location_at_the_origin():
    _, data = random_instance(0, 10, 2, box=0.0)
    points = [*data.member_locations.values(), *data.venue_locations.values()]
    assert {(loc.x, loc.y) for loc in points} == {(0.0, 0.0)}


def test_boundary_and_none_parameters_are_accepted():
    empty, _ = random_instance(0, 10, 1, edge_prob=0.0)
    assert empty.edge_count() == 0
    complete, _ = random_instance(0, 10, 1, edge_prob=1.0)
    assert complete.edge_count() == 10 * 9 // 2
    default, _ = random_instance(0, 10, 1, edge_prob=None)
    assert default.edge_count() == random_instance(0, 10, 1)[0].edge_count()
    random_instance(0, 10, 1, edge_prob=None, power_exponent=None)


def test_power_exponent_just_above_one_caps_degrees():
    # Such an exponent draws degrees far beyond any float; they are capped.
    graph, _ = random_instance(0, 50, 1, power_exponent=1.001)
    assert graph.edge_count() > 0
    assert max(graph.degree(v) for v in graph.vertices) <= 49
