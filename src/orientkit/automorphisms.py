"""Automorphism groups of half-edge graphs and their induced actions."""

from __future__ import annotations

from dataclasses import dataclass

from . import perms
from .graphs import (
    Graph,
    NotAnAutomorphism,
    induced_edge_perm,
    induced_vertex_perm,
    preserves_partitions,
    spanning_forest,
)
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


def is_automorphism(g: Graph, p: Perm) -> bool:
    """True iff p is a bijection that preserves the edge and vertex partitions blockwise."""
    if len(p) != g.half_edge_count:
        raise ValueError(f"domain mismatch: permutation on {len(p)} points, graph has "
                         f"{g.half_edge_count} half-edges")
    return preserves_partitions(g, p)


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
    """The permutations of edge ids and vertex ids induced by ``a``."""
    return InducedActions(
        edge_perm=induced_edge_perm(g, a.perm),
        vertex_perm=induced_vertex_perm(g, a.perm),
    )


def strong_generators(auts: list[Automorphism]) -> list[Automorphism]:
    """Coset representatives of the stabilizer chain with base 0, 1, 2, ...

    ``auts`` is a whole group in lexicographic order of the image lists,
    as ``enumerate_automorphisms`` returns it. For each pair (h, x) that
    occurs as (first moved half-edge, its image), the first element with
    that pair is kept; the identity moves nothing and is not kept.

    Let G_h be the elements that fix 0..h-1. An element outside G_h first
    moves some j < h, and to a point above j, since 0..j-1 are already
    images; so it sorts after every element of G_h, and G_h is a prefix
    of ``auts`` with the identity first. The kept elements with first
    moved point h map h onto every point of its G_h-orbit other than h
    itself, one element per coset of G_{h+1} in G_h; with the identity
    for the coset G_{h+1}, they form a transversal. Every element of the
    group is a product of one transversal element per level (Seress,
    *Permutation Group Algorithms*, ch. 4), so the kept elements
    generate the group.
    """
    firsts: dict[tuple[int, int], Automorphism] = {}
    for a in auts:
        h = next((i for i, x in enumerate(a.perm) if x != i), None)
        if h is not None:
            firsts.setdefault((h, a.perm[h]), a)
    return list(firsts.values())
