"""Automorphism groups of half-edge graphs and their induced actions."""

from __future__ import annotations

from dataclasses import dataclass

from . import perms
from .graphs import Graph, NotAnAutomorphism, is_automorphism, paired_graph, spanning_forest
from .limits import check_half_edges
from .perms import Perm


@dataclass(frozen=True)
class Automorphism:
    """A half-edge permutation preserving both partitions of its graph."""

    graph: Graph
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
    return Automorphism(g, tuple(p))


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
    return [Automorphism(g, p) for p in found]


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
    ``vertex_quotient`` the vertex actions of Aut(M). For each pair (h, x)
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
    |Aut(g)| = |K| * |Aut(M)|, and the generators of K together with the
    lifts of generators of Aut(M) generate Aut(g).

    K permutes the edges of each bundle and may flip loops, independently
    per bundle: on the l loops at a vertex it is the hyperoctahedral group
    of order 2^l * l!, and on m parallel edges the symmetric group of
    order m!. It is generated by a flip of the first loop at each looped
    vertex and by swaps of adjacent loops and of adjacent parallel edges.

    Aut(M) is read off the skeleton, g with one edge per bundle on the
    same vertices. A skeleton automorphism maps bundles onto bundles, so
    its vertex action keeps the zero entries of M zero; the actions that
    also keep every multiplicity are in Aut(M). Conversely each sigma in
    Aut(M) maps bundles onto bundles, and the skeleton's edges map as
    above to a skeleton automorphism with vertex action sigma. So the
    filtered actions are exactly Aut(M). The lifts are those of the
    ``strong_generators`` of Aut(M) in lexicographic order.

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

    # Skeleton edge i stands for the i-th bundle: half-edge 2i at its u,
    # 2i + 1 at its v; ends[h] is the vertex of g that half-edge h sits at,
    # and at[w] the first skeleton half-edge at w.
    ends = [w for key in bundles for w in key]
    skeleton = paired_graph(ends)
    at = [ends.index(w) for w in range(nv)]
    mult = g.multiplicity

    def preserves_mult(sigma: Perm) -> bool:
        return all(mult[sigma[u]][sigma[v]] == mult[u][v] for u, v in bundles)

    actions = {tuple(ends[a.perm[h]] for h in at)
               for a in enumerate_automorphisms(skeleton, max_half_edges)}
    aut_m = sorted(sigma for sigma in actions if preserves_mult(sigma))

    def swap(pairs) -> Automorphism:
        img = list(range(g.half_edge_count))
        for x, y in pairs:
            img[x], img[y] = y, x
        return Automorphism(g, tuple(img))

    kernel_order = 1
    kernel_gens = []
    for (u, v), edges in bundles.items():
        for i in range(1, len(edges) + 1):
            kernel_order *= 2 * i if u == v else i
        if u == v:
            kernel_gens.append(swap([edges[0]]))
        kernel_gens += (swap(zip(e, f)) for e, f in zip(edges, edges[1:]))

    def lift(sigma: Perm) -> Automorphism:
        img = [0] * g.half_edge_count
        for (u, v), edges in bundles.items():
            su, sv = sigma[u], sigma[v]
            for (a, b), (c, d) in zip(edges, bundles[bundle(su, sv)]):
                img[a], img[b] = (c, d) if su <= sv else (d, c)
        return Automorphism(g, tuple(img))

    return kernel_order * len(aut_m), kernel_gens, [lift(s) for s in strong_generators(aut_m)]
