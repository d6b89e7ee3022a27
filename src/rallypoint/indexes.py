"""Bundle of the spatial indexes shared by the solvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .balltree import Balltree, build_balltree
from .model import SpatialDataset
from .rtree import Rtree, build_rtree


@dataclass(frozen=True)
class Indexes:
    members: Rtree
    venues: Optional[Balltree]


def build_indexes(data: SpatialDataset) -> Indexes:
    venues = build_balltree(data.venue_locations) if data.venue_locations else None
    return Indexes(members=build_rtree(data.member_locations), venues=venues)
