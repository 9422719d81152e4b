"""Automorphism groups of half-edge graphs and their induced actions."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import factorial, prod
from operator import itemgetter

from . import perms
from .graphs import (Graph, NotAnAutomorphism, is_automorphism, paired_graph, spanning_forest,
                     twin_classes)
from .limits import check_half_edges
from .perms import Perm


@dataclass(frozen=True, slots=True)
class Automorphism:
    """A half-edge permutation preserving both partitions of its graph, which
    travels alongside: every function that takes an automorphism takes the graph too."""

    perm: Perm


@dataclass(frozen=True)
class InducedActions:
    """The edge and vertex permutations induced by one automorphism."""

    edge_perm: Perm
    vertex_perm: Perm


def as_automorphism(g: Graph, p: Perm) -> Automorphism:
    """Wrap a raw permutation, raising ``NotAnAutomorphism`` if it fails the check."""
    if not is_automorphism(g, p):
        raise NotAnAutomorphism(f"{perms.format_perm(p)} does not preserve the partitions")
    return Automorphism(tuple(p))


def enumerate_automorphisms(g: Graph, max_half_edges: int | None = None) -> list[Automorphism]:
    """The full group Aut(g), in lexicographic order of the image lists.

    Every automorphism is lift(sigma) after k for exactly one sigma in
    Aut(M), the ``_vertex_actions`` of g, and one k in the kernel K (see
    ``vertex_quotient``). K flips any set of loops and then sends each
    bundle's edges to one another in any order. The 2^l flips of l loops
    are kept as index maps; the permutations are generated afresh for each
    sigma and never kept. Raises ``SizeLimitExceeded`` above the half-edge cap.
    """
    check_half_edges(g.half_edge_count, max_half_edges)
    n = g.half_edge_count
    if not n:  # the empty graph; itemgetter needs an index
        return [Automorphism(())]
    bundles = _bundles(g)
    vertex_of = g.vertex_of
    flips = [tuple(range(n))]
    for a, b in g.edges:  # a < b, as in every normalized edge
        if vertex_of[a] == vertex_of[b]:
            flips += [f[:a] + (f[b],) + f[a + 1:b] + (f[a],) + f[b + 1:] for f in flips]
    flips = [itemgetter(*f) for f in flips]
    moving = [edges for edges in bundles.values() if len(edges) > 1]
    found: list[Perm] = []
    for sigma in _vertex_actions(g):
        lift = _lift(bundles, sigma, n)
        found += (flip(p) for p in _permuted(moving, lift, list(lift)) for flip in flips)
    found.sort()
    return [Automorphism(p) for p in found]


def _permuted(moving: list[list[tuple[int, int]]], lift: Perm, img: list[int]):
    """The image lists of ``lift`` after each way to send the edges of each
    bundle in ``moving`` to one another, as tuples; ``img`` is overwritten."""
    if not moving:
        yield tuple(img)
        return
    edges = moving[0]
    for p in permutations(edges):
        for (a, b), (c, d) in zip(edges, p):
            img[a], img[b] = lift[c], lift[d]
        yield from _permuted(moving[1:], lift, img)


def induced_actions(g: Graph, a: Automorphism) -> InducedActions:
    """The permutations of edge ids and vertex ids induced by ``a``, each read
    off the image of the block's first half-edge."""
    p = a.perm
    return InducedActions(
        edge_perm=tuple(g.edge_of[p[h]] for h, _ in g.edges),
        vertex_perm=tuple(g.vertex_of[p[block[0]]] for block in g.vertices),
    )


def vertex_quotient(
    g: Graph, max_half_edges: int | None = None
) -> tuple[int, list[Automorphism], list[Automorphism]]:
    """(|Aut(g)|, kernel generators, lifts), without listing Aut(g).

    Let M be ``g.multiplicity``, a loop adding 2 on the diagonal.
    The vertex action maps Aut(g) into Aut(M), the vertex permutations
    that preserve M; its kernel K holds the automorphisms that fix every
    vertex. The map is onto: sigma in Aut(M) lifts to the automorphism
    that sends the i-th edge, in id order, of the bundle between u and v
    to the i-th edge of the bundle between sigma(u) and sigma(v), each
    half-edge to the one at the image of its vertex, and the i-th loop at
    u to the i-th loop at sigma(u) with its half-edges in order. So
    |Aut(g)| = |K| * |Aut(M)|. The kernel generators' conjugates generate K,
    and with the lifts' Aut(g); a theta, a homomorphism into an abelian group,
    is constant on conjugacy classes, so the two lists decide it.

    K permutes the edges of each bundle and may flip loops, independently
    per bundle: on the l loops at a vertex it is the hyperoctahedral group
    of order 2^l * l!, and on m parallel edges the symmetric group of
    order m!. It is generated by a flip of the first loop at each looped
    vertex and by swaps of adjacent loops and of adjacent parallel edges;
    K conjugates a bundle's first swap to every other, so only it is kept.

    Aut(M) is read off the ``twin_classes`` of M. Any permutation within
    each class keeps M, and every sigma in Aut(M) maps classes onto
    classes; so Aut(M) is the product of the classes' symmetric groups,
    extended by the class actions: the permutations of classes that keep
    class size, loop count, the multiplicity inside a class and the
    multiplicity between two classes. Each class action spreads to the
    sigma that maps the i-th member of a class to the i-th member of its
    image, so |Aut(M)| = prod |A|! * |class actions|. Every sigma in Aut(M)
    is a spread times a permutation within classes, so Aut(M) is generated
    by swaps of adjacent members of a class and the spreads of the class
    actions other than the identity. Permuting a class conjugates its first
    swap to every other, and the lift is a homomorphism, so only that swap
    is kept. The class actions are automorphisms of the
    collapsed skeleton: one vertex per class, one edge per pair of classes
    joined by an edge, and a loop on each class with loops or edges inside
    it. Its automorphisms are listed once per end list and their vertex
    actions filtered by those invariants.

    Raises ``SizeLimitExceeded`` if g is above the half-edge cap.
    """
    check_half_edges(g.half_edge_count, max_half_edges)
    nv = len(g.vertices)
    bundles = _bundles(g)
    mult = g.multiplicity
    classes = twin_classes(mult)
    k = len(classes)
    # q[i][j]: the multiplicity between the first vertex of class i and the
    # last of class j; inside a class of one it is twice the loop count.
    q = [[mult[a[0]][b[-1]] for b in classes] for a in classes]
    size_loops = [(len(a), mult[a[0]][a[0]]) for a in classes]
    # The collapsed skeleton's half-edge h sits at class ends[h]: an edge per
    # pair of joined classes, a loop per class with loops or edges inside.
    ends = tuple(x for i in range(k) for j in range(i, k)
                 if q[i][j] or (i == j and size_loops[i][1]) for x in (i, j))
    class_actions = [tau for tau in _skeleton_actions(ends) if all(
        size_loops[t] == size_loops[i] and all(q[t][tau[j]] == q[i][j] for j in range(k))
        for i, t in enumerate(tau))]

    def sending(pairs) -> Perm:  # the vertex permutation taking u to v for each (u, v)
        sigma = list(range(nv))
        for u, v in pairs:
            sigma[u] = v
        return tuple(sigma)

    aut_m_order = prod(factorial(len(a)) for a in classes) * len(class_actions)
    aut_m_gens = [sending([(a[0], a[1]), (a[1], a[0])]) for a in classes if len(a) > 1]
    aut_m_gens += (sending(x for a, t in zip(classes, tau) for x in zip(a, classes[t]))
                   for tau in class_actions[1:])  # the spreads; the identity comes first

    def swap(pairs) -> Automorphism:
        img = list(range(g.half_edge_count))
        for x, y in pairs:
            img[x], img[y] = y, x
        return Automorphism(tuple(img))

    kernel_order = 1
    kernel_gens = []
    for (u, v), edges in bundles.items():
        for i in range(1, len(edges) + 1):
            kernel_order *= 2 * i if u == v else i
        if u == v:
            kernel_gens.append(swap([edges[0]]))
        kernel_gens += (swap(zip(e, f)) for e, f in zip(edges[:1], edges[1:2]))
    lifts = [Automorphism(_lift(bundles, s, g.half_edge_count)) for s in aut_m_gens]
    return kernel_order * aut_m_order, kernel_gens, lifts


def _bundles(g: Graph) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """Bundle (u, v), u <= v: the edges between u and v in id order, each as
    (half-edge at u, half-edge at v); a loop keeps its half-edge order."""
    bundles: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for a, b in g.edges:
        u, v = g.vertex_of[a], g.vertex_of[b]
        bundles.setdefault((u, v) if u <= v else (v, u), []).append((a, b) if u <= v else (b, a))
    return bundles


def _lift(bundles: dict[tuple[int, int], list[tuple[int, int]]], sigma: Perm, n: int) -> Perm:
    """The image list of sigma's lift to the n half-edges (see ``vertex_quotient``)."""
    img = [0] * n
    for (u, v), edges in bundles.items():
        su, sv = sigma[u], sigma[v]
        for (a, b), (c, d) in zip(edges, bundles[(su, sv) if su <= sv else (sv, su)]):
            img[a], img[b] = (c, d) if su <= sv else (d, c)
    return tuple(img)


def _vertex_actions(g: Graph) -> list[Perm]:
    """Aut(M) for M = ``g.multiplicity``: each vertex permutation sigma with
    M[sigma(u)][sigma(v)] == M[u][v] for all u, v. Backtracking places the
    vertices in ``graphs.spanning_forest`` order, each image matching the
    vertex's valence, loops and multiplicity to every vertex placed before."""
    mult = g.multiplicity
    order = spanning_forest(g)[0]
    key = [(len(block), mult[v][v]) for v, block in enumerate(g.vertices)]
    steps = [(w, [x for x, k in enumerate(key) if k == key[w]], [mult[w][u] for u in order[:i]])
             for i, w in enumerate(order)]
    found: list[Perm] = []
    _place(mult, steps, [], [-1] * len(mult), found)
    return found


def _place(mult, steps: list, images: list[int], sigma: list[int], found: list[Perm]) -> None:
    # Place the vertex of steps[len(images)], the vertices before it sent to
    # ``images``; each completed sigma is appended to ``found``.
    if len(images) == len(steps):
        found.append(tuple(sigma))
        return
    w, candidates, row = steps[len(images)]
    for x in candidates:
        if x not in images and [mult[x][s] for s in images] == row:
            sigma[w] = x
            images.append(x)
            _place(mult, steps, images, sigma, found)
            images.pop()


@lru_cache(maxsize=1024)
def _skeleton_actions(ends: tuple[int, ...]) -> tuple[Perm, ...]:
    """The vertex actions of Aut(paired_graph(ends)) on the labels 0..k-1 of
    ``ends``, each of which occurs, in lexicographic order.

    Collapsed skeletons recur across a corpus, so each is searched once.
    The skeleton is no larger than the graph that passed the cap, so its
    own size is its cap.
    """
    at = [ends.index(w) for w in range(len(set(ends)))]  # the first half-edge at each label
    return tuple(sorted({tuple(ends[a.perm[h]] for h in at)
                         for a in enumerate_automorphisms(paired_graph(ends), len(ends))}))
