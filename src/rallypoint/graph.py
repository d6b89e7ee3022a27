"""Graph preprocessing: core decomposition and threshold-graph structure."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from .model import MemberId, SocialGraph


@dataclass(frozen=True)
class DegreePartition:
    """Vertices grouped by degree, classes ordered by strictly ascending degree."""

    classes: Tuple[FrozenSet[MemberId], ...]
    class_degrees: Tuple[int, ...]


def core_decompose(graph: SocialGraph, p: int, k: int) -> SocialGraph:
    """Maximal subgraph in which every vertex keeps at least ``p - k - 1`` neighbors.

    Peels deficient vertices with a queue seeded in ascending-id order; the
    result is independent of peel order. Runs in O(|E|).
    """
    if not (0 <= k <= p - 1):
        raise ValueError(f"need 0 <= k <= p-1, got k={k}, p={p}")
    threshold = p - k - 1
    if threshold <= 0:
        return graph

    degrees: Dict[MemberId, int] = {v: graph.degree(v) for v in graph.vertices}
    alive = set(graph.vertices)
    queue: List[MemberId] = [v for v in graph.vertices if degrees[v] < threshold]
    queued = set(queue)
    while queue:
        v = queue.pop()
        if v not in alive:
            continue
        alive.discard(v)
        for u in graph.neighbors(v):
            if u in alive:
                degrees[u] -= 1
                if degrees[u] < threshold and u not in queued:
                    queue.append(u)
                    queued.add(u)
    return graph.induced_subgraph(alive)


def degree_partition(graph: SocialGraph) -> DegreePartition:
    """Group vertices by degree; every class is non-empty."""
    by_degree: Dict[int, set] = {}
    for v in graph.vertices:
        by_degree.setdefault(graph.degree(v), set()).add(v)
    degrees = sorted(by_degree)
    return DegreePartition(
        classes=tuple(frozenset(by_degree[d]) for d in degrees),
        class_degrees=tuple(degrees),
    )


def _check_classes(graph: SocialGraph) -> List[FrozenSet[MemberId]]:
    # Adjacency in a threshold graph is characterized against a partition whose
    # zeroth class is the (possibly empty) set of isolated vertices.
    partition = degree_partition(graph)
    classes = list(partition.classes)
    if not classes or partition.class_degrees[0] > 0:
        classes.insert(0, frozenset())
    return classes


def is_threshold_graph(graph: SocialGraph) -> bool:
    """True iff adjacency is fully determined by degree-class indices.

    With classes D_0..D_m (D_0 reserved for degree-0 vertices, possibly empty),
    distinct u in D_i and v in D_j must be adjacent exactly when i + j > m.
    Complete and edgeless graphs pass; regular non-complete graphs fail.
    """
    if graph.vertex_count <= 1:
        return True
    classes = _check_classes(graph)
    m = len(classes) - 1
    index: Dict[MemberId, int] = {}
    for i, cls in enumerate(classes):
        for v in cls:
            index[v] = i
    vertices = graph.vertices
    for a in range(len(vertices)):
        u = vertices[a]
        i = index[u]
        neighbors = graph.neighbors(u)
        for b in range(a + 1, len(vertices)):
            v = vertices[b]
            required = i + index[v] > m
            if (v in neighbors) != required:
                return False
    return True


def surviving_top_classes(graph: SocialGraph, core: SocialGraph) -> bool:
    """Whether the core's vertex set equals a union of the top degree classes.

    For threshold graphs, core decomposition removes whole low-degree classes;
    the survivors are exactly the classes from the lowest surviving one upward.
    """
    partition = degree_partition(graph)
    survivors = set(core.vertices)
    if not survivors:
        return True
    lowest = min(i for i, cls in enumerate(partition.classes) if cls & survivors)
    expected = set()
    for cls in partition.classes[lowest:]:
        expected |= cls
    return survivors == expected
