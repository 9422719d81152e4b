import importlib.util
import random
from math import lcm
from pathlib import Path

import pytest

from orientkit import CorpusSpec, enumerate_automorphisms, enumerate_graphs, parse_graph, validate
from orientkit import perms
from orientkit.automorphisms import Automorphism, as_automorphism
from orientkit.graphs import Graph, spanning_forest
from orientkit.limits import check_half_edges
from orientkit.perms import Perm

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="session")
def loop():
    return parse_graph("halfedges=2; edges=(0 1); vertices={0 1}")


@pytest.fixture(scope="session")
def single_edge():
    return parse_graph("halfedges=2; edges=(0 1); vertices={0}{1}")


@pytest.fixture(scope="session")
def triangle():
    return parse_graph("halfedges=6; edges=(0 1)(2 3)(4 5); vertices={5 0}{1 2}{3 4}")


@pytest.fixture(scope="session")
def double_edge():
    return parse_graph("halfedges=4; edges=(0 1)(2 3); vertices={0 2}{1 3}")


def is_loop(g, e):
    """True iff both half-edges of edge e lie in one vertex block."""
    a, b = g.edges[e]
    return g.vertex_of[a] == g.vertex_of[b]


def odd_power_normalize(p):
    """Least odd N such that every cycle length of p**N is a power of two.

    N is the lcm of the odd parts of the cycle lengths of p; returns
    (N, p**N).
    """
    n = 1
    for length in perms.cycle_lengths(p):
        while length % 2 == 0:
            length //= 2
        n = lcm(n, length)
    return n, perms.power(p, n)


def search_automorphisms(g: Graph, max_half_edges: int | None = None) -> list[Automorphism]:
    """Oracle: the full group Aut(g), in lexicographic order of the image lists,
    found without the vertex quotient that ``enumerate_automorphisms`` reads.

    Backtracking over half-edge images: a candidate must sit in a vertex
    block compatible with the partial map and share the (vertex valence,
    vertex loop count, on-a-loop) signature of its preimage. Half-edges are
    assigned vertex by vertex in the visiting order of
    ``graphs.spanning_forest``, the one traversal shared with the cycle
    basis, each followed by its partner; so past a component's root every
    vertex's image is forced by an edge already mapped. The automorphisms
    are then sorted. Raises ``SizeLimitExceeded`` above the half-edge cap.
    """
    check_half_edges(g.half_edge_count, max_half_edges)
    n = g.half_edge_count
    partner = g.partner
    vertex_of = g.vertex_of
    nv = len(g.vertices)
    vsig = [(len(g.vertices[v]), g.multiplicity[v][v] // 2) for v in range(nv)]
    hsig = [(vsig[vertex_of[h]], vertex_of[h] == vertex_of[partner[h]]) for h in range(n)]

    # Each vertex's half-edges in ascending order, each followed by its
    # partner; a half-edge met again as a partner is not assigned twice.
    order = list(dict.fromkeys(
        x for v in spanning_forest(g)[0] for h in g.vertices[v] for x in (h, partner[h])))

    img = [-1] * n
    used = [False] * n
    vimg = [-1] * nv
    vtaken = [False] * nv
    found: list[Perm] = []

    def extend(i: int) -> None:
        if i == n:
            found.append(tuple(img))
            return
        h = order[i]
        hv = vertex_of[h]
        p = partner[h]
        if img[p] >= 0:
            cands: tuple[int, ...] | range = (partner[img[p]],)
        elif vimg[hv] >= 0:
            cands = g.vertices[vimg[hv]]
        else:
            cands = range(n)
        for x in cands:
            if used[x] or hsig[x] != hsig[h]:
                continue
            xv = vertex_of[x]
            if vimg[hv] >= 0:
                if xv != vimg[hv]:
                    continue
            elif vtaken[xv]:
                continue
            img[h] = x
            used[x] = True
            fresh = vimg[hv] < 0
            if fresh:
                vimg[hv] = xv
                vtaken[xv] = True
            extend(i + 1)
            if fresh:
                vimg[hv] = -1
                vtaken[xv] = False
            img[h] = -1
            used[x] = False

    extend(0)
    # extend reaches itself through its closure; dropping the name breaks
    # that cycle, so the search state is freed now, not at a full collection.
    del extend
    # The search order follows the edges, not the ids, so the image lists
    # arrive unsorted; callers and witnesses rely on lexicographic order.
    found.sort()
    return [Automorphism(p) for p in found]


def graph_from_vertex_pairs(pairs, num_vertices):
    """Build a half-edge graph from a multigraph edge list; (u, u) is a loop."""
    edges = [(2 * i, 2 * i + 1) for i in range(len(pairs))]
    blocks = [[] for _ in range(num_vertices)]
    for i, (u, v) in enumerate(pairs):
        blocks[u].append(2 * i)
        blocks[v].append(2 * i + 1)
    return validate(2 * len(pairs), edges, blocks)


def complete_graph(m):
    pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
    return graph_from_vertex_pairs(pairs, m)


def flower(k):
    """k loops on a single vertex."""
    return graph_from_vertex_pairs([(0, 0)] * k, 1)


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


def relabel(g, images):
    """Apply a half-edge bijection and renormalize."""
    edges = [(images[a], images[b]) for a, b in g.edges]
    blocks = [[images[h] for h in block] for block in g.vertices]
    return validate(g.half_edge_count, edges, blocks)


def conjugate(perm, images):
    """A permutation of g's half-edges moved onto ``relabel(g, images)``:
    images[h] goes to images[perm[h]]."""
    out = [0] * len(perm)
    for h, x in enumerate(perm):
        out[images[h]] = images[x]
    return tuple(out)


def relabelled_copy(g, auts, images):
    """``relabel(g, images)`` with each of ``auts`` conjugated onto it. The
    copy's default arrows and spanning forest are other choices on g: a
    relabelling can put any vertex at the root and flip any arrow."""
    h = relabel(g, images)
    return h, [as_automorphism(h, conjugate(a.perm, images)) for a in auts]


def closure(identity, gens):
    """Oracle: every product of generators, by breadth-first search."""
    group = {identity}
    frontier = [identity]
    while frontier:
        fresh = {perms.compose(p, s) for p in frontier for s in gens} - group
        group |= fresh
        frontier = list(fresh)
    return group


def first_per_moved_pair(group):
    """Generators of a whole permutation group listed in lexicographic order:
    for each (first moved point, its image) pair that occurs, the first
    element with that pair. The identity moves nothing and is not kept."""
    firsts = {}
    for p in group:
        h = next((i for i, x in enumerate(p) if x != i), None)
        if h is not None:
            firsts.setdefault((h, p[h]), p)
    return list(firsts.values())


def random_images(n, rng):
    images = list(range(n))
    rng.shuffle(images)
    return images


@pytest.fixture(scope="session")
def relabelled_shapes():
    """The theta-sym and orient-oracle benchmark shapes relabelled under three
    fixed seeds by the benchmark's own text builder (its module is only read)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = []
    for seed in (1, 2, 3):
        rng = random.Random(f"forest/{seed}")
        for shape in (*workloads.theta_sym_shapes(), *workloads.ORIENT_SHAPES):
            out.append(parse_graph(workloads.multigraph_text(rng, workloads.shape_pairs(shape))))
    return out


@pytest.fixture(scope="session")
def corpus3():
    """Connected corpus with loops at |E| <= 3, with automorphism groups."""
    return [(g, enumerate_automorphisms(g)) for g in enumerate_graphs(CorpusSpec(3))]


@pytest.fixture(scope="session")
def corpus4():
    """Connected corpus with loops at |E| <= 4, with automorphism groups."""
    return [(g, enumerate_automorphisms(g)) for g in enumerate_graphs(CorpusSpec(4))]


@pytest.fixture(scope="session")
def corpus5():
    """Connected corpus with loops at |E| <= 5, with automorphism groups."""
    return [(g, enumerate_automorphisms(g)) for g in enumerate_graphs(CorpusSpec(5))]
