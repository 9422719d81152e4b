"""Automorphism groups of half-edge graphs and their induced actions."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod

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
    vsig = [(len(g.vertices[v]), g.loop_count(v)) for v in range(nv)]
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


def induced_actions(g: Graph, a: Automorphism) -> InducedActions:
    """The permutations of edge ids and vertex ids induced by ``a``, each read
    off the image of the block's first half-edge."""
    p = a.perm
    return InducedActions(
        edge_perm=tuple(g.edge_of[p[h]] for h, _ in g.edges),
        vertex_perm=tuple(g.vertex_of[p[block[0]]] for block in g.vertices),
    )


def strong_generators(group: list[Perm]) -> list[Perm]:
    """Coset representatives of the stabilizer chain with base 0, 1, 2, ...

    ``group`` is a whole permutation group in lexicographic order, as
    ``enumerate_automorphisms`` returns the image lists of Aut(g) and
    ``vertex_quotient`` the class actions of Aut(M). For each pair (h, x)
    that occurs as (first moved point, its image), the first element with
    that pair is kept; the identity moves nothing and is not kept.

    Let G_h be the elements that fix 0..h-1. An element outside G_h first
    moves some j < h, and to a point above j, since 0..j-1 are already
    images; so it sorts after every element of G_h, and G_h is a prefix
    of ``group`` with the identity first. The kept elements with first
    moved point h map h onto every point of its G_h-orbit other than h
    itself, one element per coset of G_{h+1} in G_h; with the identity
    for the coset G_{h+1}, they form a transversal. Every element of the
    group is a product of one transversal element per level (Seress,
    *Permutation Group Algorithms*, ch. 4), so the kept elements
    generate the group.
    """
    firsts: dict[tuple[int, int], Perm] = {}
    for p in group:
        h = next((i for i, x in enumerate(p) if x != i), None)
        if h is not None:
            firsts.setdefault((h, p[h]), p)
    return list(firsts.values())


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
    image, so |Aut(M)| = prod |A|! * |class actions|, and Aut(M) is
    generated by swaps of adjacent members of a class and the spreads of
    the class actions' ``strong_generators``. Permuting a class conjugates
    its first swap to every other, and the lift is a homomorphism, so only
    that swap is kept. The class actions are automorphisms of the
    collapsed skeleton: one vertex per class, one edge per pair of classes
    joined by an edge, and a loop on each class with loops or edges inside
    it. Its automorphisms are listed once per end list and their vertex
    actions filtered by those invariants.

    Raises ``SizeLimitExceeded`` if g is above the half-edge cap.
    """
    check_half_edges(g.half_edge_count, max_half_edges)
    vertex_of = g.vertex_of
    nv = len(g.vertices)

    def bundle(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u <= v else (v, u)

    # Bundle (u, v), u <= v, holds its edges in id order, each as
    # (half-edge at u, half-edge at v); a loop keeps its half-edge order.
    bundles: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for a, b in g.edges:
        u, v = vertex_of[a], vertex_of[b]
        bundles.setdefault(bundle(u, v), []).append((a, b) if u <= v else (b, a))

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
                   for tau in strong_generators(class_actions))  # the spreads

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

    def lift(sigma: Perm) -> Automorphism:
        img = [0] * g.half_edge_count
        for (u, v), edges in bundles.items():
            su, sv = sigma[u], sigma[v]
            for (a, b), (c, d) in zip(edges, bundles[bundle(su, sv)]):
                img[a], img[b] = (c, d) if su <= sv else (d, c)
        return Automorphism(tuple(img))

    return kernel_order * aut_m_order, kernel_gens, [lift(s) for s in aut_m_gens]


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
