import dataclasses
import gc
import itertools
import math
import random

import pytest

from orientkit import automorphisms, perms
from orientkit.automorphisms import (
    Automorphism,
    as_automorphism,
    enumerate_automorphisms,
    induced_actions,
    is_automorphism,
    strong_generators,
    vertex_quotient,
)
from orientkit.corpus import CorpusSpec, enumerate_graphs
from orientkit.graphs import (
    GraphError,
    NotAnAutomorphism,
    canonical_graph,
    orbit_contraction,
    parse_graph,
    validate,
)
from orientkit.limits import SizeLimitExceeded
from orientkit.orientation import fixes_every_vertex, theta_k, theta_s

from conftest import (
    complete_graph,
    flower,
    graph_from_vertex_pairs,
    random_images,
    relabel,
    relabelled_copy,
)


def automorphisms_bruteforce(g):
    """Oracle: filter all half-edge permutations through the definition."""
    return {
        p
        for p in itertools.permutations(range(g.half_edge_count))
        if is_automorphism(g, p)
    }


def test_is_automorphism_examples(loop, single_edge, triangle):
    assert is_automorphism(loop, (1, 0))
    assert is_automorphism(single_edge, (1, 0))
    assert not is_automorphism(triangle, (1, 0, 2, 3, 4, 5))
    with pytest.raises(ValueError):
        is_automorphism(triangle, (1, 0))


def test_an_automorphism_is_its_image_list(loop, single_edge):
    # The graph travels alongside, so equality and hashing read the image list
    # alone, and a listed automorphism carries no instance dict.
    a, b = as_automorphism(loop, (1, 0)), as_automorphism(single_edge, (1, 0))
    assert a == b == Automorphism((1, 0))
    assert hash(a) == hash(b)
    assert [f.name for f in dataclasses.fields(Automorphism)] == ["perm"]
    assert not hasattr(a, "__dict__")


def test_enumerate_counts_match_bruteforce(loop, double_edge, triangle):
    for g, expected in ((loop, 2), (double_edge, 4), (triangle, 6)):
        auts = enumerate_automorphisms(g)
        assert len(auts) == expected
        assert {a.perm for a in auts} == automorphisms_bruteforce(g)


def test_enumeration_is_sorted_and_deduplicated(corpus3):
    for g, auts in corpus3:
        perms_list = [a.perm for a in auts]
        assert perms_list == sorted(set(perms_list))
        assert perms.identity(g.half_edge_count) in perms_list


def test_search_order_does_not_depend_on_labels(corpus4):
    # The search follows the graph, not the ids: under a relabelling it
    # must still return the whole group, conjugated, sorted, once each.
    rng = random.Random(4)
    for g, auts in corpus4:
        for trial in range(3):
            images = list(range(g.half_edge_count))
            rng.shuffle(images)
            h = relabel(g, images)
            found = [a.perm for a in enumerate_automorphisms(h)]
            assert found == sorted(set(found))
            conjugates = []
            for a in auts:
                q = [0] * len(images)
                for x, y in enumerate(a.perm):
                    q[images[x]] = images[y]
                conjugates.append(tuple(q))
            assert found == sorted(conjugates)
            # One brute-force check per graph pins the other two through
            # the conjugates.
            if trial == 0 and h.half_edge_count <= 8:
                assert set(found) == automorphisms_bruteforce(h)


def test_group_axioms_on_corpus(corpus3):
    for g, auts in corpus3:
        group = {a.perm for a in auts}
        assert perms.identity(g.half_edge_count) in group
        for p in group:
            assert perms.inverse(p) in group
        for p in group:
            for q in group:
                assert perms.compose(p, q) in group


def test_induced_actions_examples(loop, double_edge, triangle):
    rho = as_automorphism(triangle, (2, 3, 4, 5, 0, 1))
    acts = induced_actions(triangle, rho)
    assert acts.edge_perm == (1, 2, 0)
    assert acts.vertex_perm == (1, 2, 0)

    swap = as_automorphism(loop, (1, 0))
    acts = induced_actions(loop, swap)
    assert acts.edge_perm == (0,)
    assert acts.vertex_perm == (0,)

    half_flip = as_automorphism(double_edge, (1, 0, 3, 2))
    acts = induced_actions(double_edge, half_flip)
    assert acts.edge_perm == (0, 1)
    assert acts.vertex_perm == (1, 0)


def test_induced_actions_commute_with_composition(corpus3):
    for g, auts in corpus3:
        table = {a.perm: induced_actions(g, a) for a in auts}
        for a in auts:
            for b in auts:
                combined = table[perms.compose(a.perm, b.perm)]
                assert combined.edge_perm == perms.compose(
                    table[a.perm].edge_perm, table[b.perm].edge_perm
                )
                assert combined.vertex_perm == perms.compose(
                    table[a.perm].vertex_perm, table[b.perm].vertex_perm
                )


def test_cycle_data_examples(loop, triangle):
    def cycle_data(g, a):
        acts = induced_actions(g, a)
        return tuple(perms.cycle_lengths(p) for p in (a.perm, acts.edge_perm, acts.vertex_perm))

    rho = as_automorphism(triangle, (2, 3, 4, 5, 0, 1))
    half_edges, edges, vertices = cycle_data(triangle, rho)
    assert half_edges == [3, 3]
    assert edges == [3]
    assert vertices == [3]

    ident = as_automorphism(triangle, perms.identity(6))
    half_edges, edges, vertices = cycle_data(triangle, ident)
    assert half_edges == [1] * 6
    assert edges == [1] * 3
    assert vertices == [1] * 3

    swap = as_automorphism(loop, (1, 0))
    assert cycle_data(loop, swap) == ([2], [1], [1])


def test_odd_power_normalize_stays_in_group(corpus3):
    for g, auts in corpus3:
        for a in auts:
            _, q = perms.odd_power_normalize(a.perm)
            assert is_automorphism(g, q)


def test_as_automorphism_rejects(triangle):
    with pytest.raises(NotAnAutomorphism):
        as_automorphism(triangle, (1, 0, 2, 3, 4, 5))


def test_bool_images_are_not_an_automorphism(loop):
    # True == 1 and False == 0, but an image list of bools is not a permutation.
    with pytest.raises(NotAnAutomorphism, match="must be an integer, got True"):
        as_automorphism(loop, (True, False))


def test_float_images_are_graph_errors(loop):
    for check in (is_automorphism, as_automorphism,
                  lambda g, p: orbit_contraction(g, p, 0)):
        with pytest.raises(GraphError, match="must be an integer, got 1.0"):
            check(loop, [1.0, 0.0])


def test_wrong_length_images_are_graph_errors(loop):
    for check in (is_automorphism, as_automorphism):
        with pytest.raises(GraphError, match="domain mismatch: permutation on 3 points"):
            check(loop, (0, 1, 2))


def test_automorphism_check_requires_a_bijection():
    # (0, 1, 0, 1) is not a permutation, yet it sends every edge block into
    # an edge block and every vertex block into a vertex block.
    two_loops = parse_graph("halfedges=4; edges=(0 1)(2 3); vertices={0 1}{2 3}")
    not_a_bijection = (0, 1, 0, 1)
    assert not is_automorphism(two_loops, not_a_bijection)
    with pytest.raises(NotAnAutomorphism):
        as_automorphism(two_loops, not_a_bijection)
    with pytest.raises(NotAnAutomorphism):
        orbit_contraction(two_loops, not_a_bijection, 0)
    assert not is_automorphism(two_loops, (0, 1, 2, 4))
    with pytest.raises(NotAnAutomorphism):
        is_automorphism(two_loops, (0, 1, 2))


def test_size_cap_and_override():
    k5 = complete_graph(5)  # 20 half-edges
    with pytest.raises(SizeLimitExceeded):
        enumerate_automorphisms(k5)
    auts = enumerate_automorphisms(k5, max_half_edges=20)
    assert len(auts) == 120  # S_5 lifts uniquely to half-edges

    k4 = complete_graph(4)
    assert len(enumerate_automorphisms(k4)) == 24


def test_flower_group_order():
    # k loops on one vertex: swap halves independently, permute loops.
    assert len(enumerate_automorphisms(flower(2))) == 8
    assert len(enumerate_automorphisms(flower(3))) == 48


def test_empty_graph_group():
    auts = enumerate_automorphisms(validate(0, [], []))
    assert [a.perm for a in auts] == [()]


def test_search_leaves_no_reference_cycle(triangle):
    # A cycle would keep the search state alive until a full collection.
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        enumerate_automorphisms(triangle)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def image_lists(g):
    return [a.perm for a in enumerate_automorphisms(g)]


def first_moved(p):
    return next(i for i, x in enumerate(p) if x != i)


def test_strong_generators_examples(loop, triangle):
    assert strong_generators(image_lists(validate(0, [], []))) == []
    assert strong_generators(image_lists(loop)) == [(1, 0)]
    # The triangle's group acts regularly on its six half-edges: the
    # stabilizer of 0 is trivial, so every element but the identity is kept.
    group = image_lists(triangle)
    assert strong_generators(group) == group[1:]
    # Two loops: 0 goes anywhere, and the stabilizer of 0 and 1 swaps 2, 3.
    # Generators come in list order, so the swap (0, 1, 3, 2) is first.
    group = image_lists(flower(2))
    gens = strong_generators(group)
    assert [(first_moved(p), p[first_moved(p)]) for p in gens] == [
        (2, 3), (0, 1), (0, 2), (0, 3)
    ]
    for p in gens:
        h = first_moved(p)
        assert p == next(q for q in group if q[:h] == p[:h] and q[h] == p[h])


def closure(identity, gens):
    """Oracle: every product of generators, by breadth-first search."""
    group = {identity}
    frontier = [identity]
    while frontier:
        fresh = {perms.compose(p, s) for p in frontier for s in gens} - group
        group |= fresh
        frontier = list(fresh)
    return group


def assert_conjugates_generate(g, kernel_gens, lifts):
    """The two facts the sweep relies on, checked against the enumerated group:
    the conjugates of the kernel generators generate K, the elements that fix
    every vertex, and the conjugates of both lists generate Aut(g)."""
    auts = enumerate_automorphisms(g)
    group = [a.perm for a in auts]

    def normal_closure(gens):
        return closure(group[0], list({perms.compose(perms.compose(x, s), perms.inverse(x))
                                       for x in group for s in gens}))

    kernel = {a.perm for a in auts if fixes_every_vertex(g, a)}
    assert normal_closure([a.perm for a in kernel_gens]) == kernel
    assert normal_closure([a.perm for a in kernel_gens + lifts]) == set(group)


@pytest.mark.parametrize("allow_loops", [True, False])
@pytest.mark.parametrize("connected_only", [True, False])
def test_strong_generators_generate_the_group(allow_loops, connected_only):
    for g in enumerate_graphs(CorpusSpec(5, allow_loops, connected_only)):
        group = image_lists(g)
        gens = strong_generators(group)
        assert set(gens) <= set(group)
        assert closure(perms.identity(g.half_edge_count), gens) == set(group)


def test_vertex_quotient_examples(loop, single_edge, double_edge, triangle):
    def gens(g):
        _, kernel_gens, lifts = vertex_quotient(g)
        return [a.perm for a in kernel_gens], [a.perm for a in lifts]

    assert vertex_quotient(validate(0, [], [])) == (1, [], [])
    assert gens(loop) == ([(1, 0)], [])
    assert gens(single_edge) == ([], [(1, 0)])
    # Two parallel edges: K swaps them, and the lift swaps the two vertices.
    assert vertex_quotient(double_edge)[0] == 4
    assert gens(double_edge) == ([(2, 3, 0, 1)], [(1, 0, 3, 2)])
    # Three loops: a flip of the first loop and a swap of the first two,
    # whose conjugates give every other swap; one vertex, so no lifts.
    assert vertex_quotient(flower(3))[0] == 48
    assert gens(flower(3)) == ([(1, 0, 2, 3, 4, 5), (2, 3, 0, 1, 4, 5)], [])
    # The triangle has a trivial kernel and Aut(M) = S_3.
    assert vertex_quotient(triangle)[0] == 6
    assert gens(triangle)[0] == []
    # The order comes in closed form, but the cap still holds.
    with pytest.raises(SizeLimitExceeded):
        vertex_quotient(flower(8))
    order, kernel_gens, _ = vertex_quotient(flower(8), max_half_edges=16)
    assert order == 2 ** 8 * 40320
    assert len(kernel_gens) == 2


@pytest.mark.parametrize("spec", [
    CorpusSpec(5),
    CorpusSpec(5, allow_loops=False),
    CorpusSpec(4, connected_only=False),
], ids=["e5", "e5-no-loops", "e4-disconnected"])
def test_vertex_quotient_matches_the_enumerated_group(spec):
    # |K| * |Aut(M)| is the group order; kernel generators fix every
    # vertex, lifts do not, and at |E| <= 4 the products of their
    # conjugates are exactly K and the enumerated group.
    for g in enumerate_graphs(spec):
        order, kernel_gens, lifts = vertex_quotient(g)
        group = image_lists(g)
        assert order == len(group)
        assert all(is_automorphism(g, a.perm) for a in kernel_gens + lifts)
        assert all(fixes_every_vertex(g, a) for a in kernel_gens)
        assert not any(fixes_every_vertex(g, a) for a in lifts)
        if len(g.edges) <= 4:
            assert_conjugates_generate(g, kernel_gens, lifts)


def star(n):
    return graph_from_vertex_pairs([(0, i) for i in range(1, n + 1)], n + 1)


def dipole(m):
    """m parallel edges between two vertices."""
    return graph_from_vertex_pairs([(0, 1)] * m, 2)


TWIN_RICH = (
    [(f"star{n}", star(n), 2 if n == 1 else math.factorial(n)) for n in range(1, 9)]
    + [("K4", complete_graph(4), 24),
       ("K2,3", graph_from_vertex_pairs([(i, j) for i in range(2) for j in range(2, 5)], 5), 12)]
    + [(f"dipole{m}", dipole(m), 2 * math.factorial(m)) for m in range(1, 8)]
    + [(f"flower{k}", flower(k), 2 ** k * math.factorial(k)) for k in range(1, 8)]
)


@pytest.mark.parametrize("g, order", [case[1:] for case in TWIN_RICH],
                         ids=[case[0] for case in TWIN_RICH])
def test_vertex_quotient_on_twin_rich_shapes(g, order):
    got, kernel_gens, lifts = vertex_quotient(g, max_half_edges=16)
    assert got == order
    assert all(is_automorphism(g, a.perm) for a in kernel_gens + lifts)
    assert all(fixes_every_vertex(g, a) for a in kernel_gens)
    assert not any(fixes_every_vertex(g, a) for a in lifts)
    if len(g.edges) <= 4:
        assert_conjugates_generate(g, kernel_gens, lifts)


def test_vertex_quotient_does_not_list_the_leaves_symmetric_group(monkeypatch):
    # The eight leaves of K_{1,8} are one twin class: its collapsed skeleton
    # is a single edge, not a star with 8! automorphisms.
    listed = []

    def counting(g, max_half_edges=None):
        found = enumerate_automorphisms(g, max_half_edges)
        listed.append(len(found))
        return found

    monkeypatch.setattr(automorphisms, "enumerate_automorphisms", counting)
    for value in vars(automorphisms).values():  # every search runs afresh, under the wrapper
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    assert vertex_quotient(star(8), max_half_edges=16)[0] == 40320
    assert sum(listed) <= 2


def shape(pairs, n, times=1, loops=False):
    """The multigraph on vertices 0..n-1 with each of ``pairs`` ``times`` times,
    and with a loop at every vertex if ``loops``."""
    return graph_from_vertex_pairs(pairs * times + [(v, v) for v in range(n) if loops], n)


def cycle(n, times=1, loops=False):
    return shape([(i, (i + 1) % n) for i in range(n)], n, times, loops)


def cube(times=1, loops=False):
    return shape([(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b], 8, times, loops)


def petersen():
    pairs = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    return shape(pairs + [(5 + i, 5 + (i + 2) % 5) for i in range(5)], 10)


def prism(n):
    """C_n x K2: two n-cycles, vertex i of one joined to vertex i of the other."""
    rim = [(i, (i + 1) % n) for i in range(n)]
    return shape(rim + [(n + u, n + v) for u, v in rim] + [(i, n + i) for i in range(n)], 2 * n)


def moebius_ladder(k):
    """The 2k-cycle with k rungs, each joining opposite vertices; k = 3 is K3,3."""
    return shape([(i, (i + 1) % (2 * k)) for i in range(2 * k)] + [(i, i + k) for i in range(k)],
                 2 * k)


# Vertex-transitive graphs, twin-free but for the 3- and 4-cycles, so the
# class actions do the work; the same with every edge doubled, which adds a
# swap per bundle to the kernel; and with a loop at every vertex, which adds
# a flip per vertex.
# The orders in closed form: dihedral 2n; 48 for the cube, the 4-prism;
# 120 = |S_5| for Petersen; 4n for the other prisms; 72 for K3,3 and 4k for
# the other Moebius ladders; a factor 2 per doubled edge or loop.
SYMMETRIC = (
    [(f"C{n}", cycle(n), 2 * n) for n in range(3, 13)]
    + [("Q3", cube(), 48), ("Petersen", petersen(), 120)]
    + [(f"prism{n}", prism(n), 4 * n) for n in (3, 5, 6)]
    + [(f"moebius{k}", moebius_ladder(k), 72 if k == 3 else 4 * k) for k in (3, 4, 5)]
    + [(f"C{n}x2", cycle(n, 2), 2 * n * 2 ** n) for n in range(3, 8)]
    + [("Q3x2", cube(2), 48 * 2 ** 12)]
    + [(f"C{n}+loops", cycle(n, loops=True), 2 * n * 2 ** n) for n in range(3, 8)]
    + [("Q3+loops", cube(loops=True), 48 * 2 ** 8)]
)


@pytest.mark.parametrize("g, order", [case[1:] for case in SYMMETRIC],
                         ids=[case[0] for case in SYMMETRIC])
def test_vertex_quotient_on_symmetric_shapes(g, order, monkeypatch):
    cap = g.half_edge_count
    monkeypatch.setenv("ORIENTKIT_MAX_HALFEDGES", str(cap))
    got, kernel_gens, lifts = vertex_quotient(g)
    assert got == order
    if cap <= 30:  # above that, as for Q3x2's 196,608 elements, the closed form alone
        assert len(enumerate_automorphisms(g)) == order
    kept = kernel_gens + lifts
    assert all(is_automorphism(g, a.perm) for a in kept)
    assert all(fixes_every_vertex(g, a) for a in kernel_gens)
    assert not any(fixes_every_vertex(g, a) for a in lifts)
    if order <= 48:
        assert_conjugates_generate(g, kernel_gens, lifts)
    # Connected, so the theorem: theta_k and theta_s agree.
    assert all(theta_k(g, a) == theta_s(g, a) for a in kept)
    rng = random.Random(cap)
    canonical = canonical_graph(g)
    for _ in range(2):
        copy, _ = relabelled_copy(g, [], random_images(cap, rng))
        assert canonical_graph(copy) == canonical
