"""The one BFS spanning forest, shared by the automorphism search and the cycle basis.

The digests pin what the forest decides on graphs whose half-edge ids are
shuffled, where scanning a vertex's edges in another order (say, by
half-edge id) would pick other tree edges or another visiting order.
"""

import hashlib

import pytest

from orientkit import CorpusSpec, enumerate_automorphisms, enumerate_graphs, parse_graph
from orientkit.graphs import spanning_forest
from orientkit.orientation import cycle_basis

@pytest.fixture(scope="module")
def graphs(relabelled_shapes):
    """The relabelled benchmark shapes, then every graph of
    ``CorpusSpec(4, connected_only=False)``."""
    return relabelled_shapes + list(enumerate_graphs(CorpusSpec(4, connected_only=False)))


def digest(values) -> str:
    h = hashlib.sha256()
    for value in values:
        h.update(repr(value).encode() + b"\n")
    return h.hexdigest()


def test_cycle_bases_are_pinned(graphs):
    assert len(graphs) == 457
    assert (digest(cycle_basis(g) for g in graphs)
            == "adbdfb60059c42b06411f0ce38f3086a59b1711e1adef97d64f643dea5132f88")


def test_automorphism_lists_are_pinned(graphs):
    assert (digest([a.perm for a in enumerate_automorphisms(g)] for g in graphs)
            == "3601e6e1e8ddd13e78a9e8f3dde6523ace34e01603becb14e44116affba7c121")


def test_forest_invariants(graphs):
    for g in graphs:
        order, via = spanning_forest(g)
        components = g.connected_components()
        assert sorted(order) == list(range(len(g.vertices)))
        assert [v for v in order if via[v] < 0] == [min(c) for c in components]
        tree = [e for e in via if e >= 0]
        assert len(set(tree)) == len(tree) == len(g.vertices) - len(components)
        position = {v: i for i, v in enumerate(order)}
        for v, e in enumerate(via):
            if e >= 0:  # a non-loop edge from v to a vertex visited before v
                ends = {g.vertex_of[h] for h in g.edges[e]}
                assert v in ends and len(ends) == 2
                assert position[(ends - {v}).pop()] < position[v]


def test_edges_are_scanned_in_edge_id_order():
    # At vertex 1 half-edge 2 (edge 1) comes before half-edge 3 (edge 0).
    g = parse_graph("halfedges=4; edges=(0 3)(1 2); vertices={0 1}{2 3}")
    assert spanning_forest(g) == ([0, 1], [-1, 0])
