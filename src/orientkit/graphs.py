"""Half-edge graphs: validation, structural queries, contraction, isomorphism, text I/O.

A graph is a finite set of half-edges 0..2n-1 together with two partitions
of that set: the edges (blocks of exactly two half-edges) and the vertices
(non-empty blocks). Loops and parallel edges are legal; isolated vertices
are not representable, since every vertex block holds at least one
half-edge. Graphs are immutable after validation and every operation here
is a pure function, so values can be shared freely across workers.

Normal form: ids within a block ascending, blocks ordered by their smallest
id. ``validate`` re-sorts arbitrary input into this form; parsing composes
the grammar with ``validate``, so ``parse_graph(format_graph(g)) == g`` for
any normalized ``g``.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from . import perms
from .limits import MAX_DIGITS, check_half_edges
from .perms import Perm


class GraphError(ValueError):
    """Base class for malformed graph descriptions."""


class OddHalfEdgeCountError(GraphError):
    pass


class BadEdgeArityError(GraphError):
    pass


class OverlapError(GraphError):
    pass


class CoverageError(GraphError):
    pass


class EmptyVertexError(GraphError):
    pass


class NotAnAutomorphism(GraphError):
    """The permutation does not preserve the edge and vertex partitions."""


class GraphSyntaxError(GraphError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Graph:
    """Normalized half-edge graph. Build via ``validate`` or ``parse_graph``."""

    edges: tuple[tuple[int, int], ...]
    vertices: tuple[tuple[int, ...], ...]

    @property
    def half_edge_count(self) -> int:
        return 2 * len(self.edges)

    @cached_property
    def partner(self) -> tuple[int, ...]:
        """partner[h] is the other half-edge of h's edge."""
        out = [0] * self.half_edge_count
        for a, b in self.edges:
            out[a] = b
            out[b] = a
        return tuple(out)

    @cached_property
    def edge_of(self) -> tuple[int, ...]:
        out = [0] * self.half_edge_count
        for e, (a, b) in enumerate(self.edges):
            out[a] = e
            out[b] = e
        return tuple(out)

    @cached_property
    def vertex_of(self) -> tuple[int, ...]:
        out = [0] * self.half_edge_count
        for v, block in enumerate(self.vertices):
            for h in block:
                out[h] = v
        return tuple(out)

    def is_loop(self, e: int) -> bool:
        """True iff both half-edges of edge e lie in one vertex block."""
        a, b = self.edges[e]
        return self.vertex_of[a] == self.vertex_of[b]

    def loop_count(self, v: int) -> int:
        block = set(self.vertices[v])
        return sum(1 for a, b in self.edges if a in block and b in block)

    def connected_components(self) -> tuple[tuple[int, ...], ...]:
        """Partition of vertex ids into components, ordered by minimal id."""
        root = merge_classes(
            len(self.vertices), ((self.vertex_of[a], self.vertex_of[b]) for a, b in self.edges)
        )
        groups: dict[int, list[int]] = {}
        for v, r in enumerate(root):
            groups.setdefault(r, []).append(v)
        return tuple(tuple(members) for members in groups.values())

    def first_betti(self) -> int:
        """Rank of the cycle space: |E| - |V| + number of components."""
        return len(self.edges) - len(self.vertices) + len(self.connected_components())

    def is_connected(self) -> bool:
        return len(self.connected_components()) == 1


def merge_classes(n: int, links: Iterable[tuple[int, int]]) -> list[int]:
    """Union-find over 0..n-1: the smallest member of each element's class.

    The classes are those of the equivalence generated by ``links``. Roots
    are always the smaller id, so callers can order classes by their root.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in links:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    return [find(x) for x in range(n)]


_MAX_IDS_SHOWN = 8


def _integer(value, what: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise GraphError(f"{what} must be an integer, got {value!r}") from None


def validate(
    half_edge_count: int,
    edges: Iterable[Iterable[int]],
    vertices: Iterable[Iterable[int]],
) -> Graph:
    """Check a raw description and return the normalized Graph.

    The edge blocks must partition 0..half_edge_count-1 into pairs and the
    vertex blocks into non-empty sets. Raises a ``GraphError`` subclass
    naming the first defect found, and ``GraphError`` itself for a count or
    id that is not an integer (one ``operator.index`` rejects).
    """
    count = _integer(half_edge_count, "half-edge count")
    if count < 0 or count % 2:
        raise OddHalfEdgeCountError(f"half-edge count must be even and >= 0, got {count}")

    def check_partition(blocks: list[tuple[int, ...]], kind: str) -> None:
        owner = [False] * count
        for block in blocks:
            for h in block:
                if not 0 <= h < count:
                    raise CoverageError(f"{kind} block uses half-edge {h} outside 0..{count - 1}")
                if owner[h]:
                    raise OverlapError(f"half-edge {h} appears in two {kind} blocks")
                owner[h] = True
        missing = [h for h in range(count) if not owner[h]]
        if missing:
            shown = missing[:_MAX_IDS_SHOWN]
            more = f" and {len(missing) - len(shown)} more" if len(missing) > len(shown) else ""
            raise CoverageError(f"half-edges {shown}{more} missing from the {kind} partition")

    edge_blocks = []
    for raw in edges:
        block = tuple(_integer(h, "half-edge id") for h in raw)
        if len(block) != 2 or block[0] == block[1]:
            raise BadEdgeArityError(f"edge block must hold two distinct half-edges, got {block}")
        edge_blocks.append(block)
    # Checked before anything is sized by count, so a huge declared count
    # costs nothing.
    if count != 2 * len(edge_blocks):
        raise CoverageError(f"half-edge count {count} is not twice the edge count {len(edge_blocks)}")
    check_partition(edge_blocks, "edge")

    vertex_blocks = []
    for raw in vertices:
        block = tuple(_integer(h, "half-edge id") for h in raw)
        if not block:
            raise EmptyVertexError("vertex block is empty")
        vertex_blocks.append(block)
    check_partition(vertex_blocks, "vertex")

    norm_edges = tuple(sorted((min(a, b), max(a, b)) for a, b in edge_blocks))
    norm_vertices = tuple(sorted(tuple(sorted(block)) for block in vertex_blocks))
    return Graph(edges=norm_edges, vertices=norm_vertices)


# --- text format ---------------------------------------------------------
#
# graph    := "halfedges=" INT ";" "edges=" pair* ";" "vertices=" set*
# pair     := "(" INT INT ")"
# set      := "{" INT+ "}"
#
# Whitespace-insensitive. The starred repetitions admit the empty graph
# "halfedges=0; edges=; vertices=".


_SPACE = re.compile(r"\s*")  # \s matches exactly the characters str.isspace accepts
_INTEGER = re.compile(r"\s*([0-9]*)")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> GraphSyntaxError:
        line = self.text.count("\n", 0, self.pos) + 1
        column = self.pos - (self.text.rfind("\n", 0, self.pos) + 1) + 1
        return GraphSyntaxError(message, line, column)

    def skip_ws(self) -> None:
        self.pos = _SPACE.match(self.text, self.pos).end()

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def accept(self, ch: str) -> bool:
        """Consume ``ch`` if it comes next (after whitespace)."""
        self.skip_ws()
        if not self.text.startswith(ch, self.pos):
            return False
        self.pos += len(ch)
        return True

    def take(self, literal: str) -> None:
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise self.error(f"expected {literal!r}")
        self.pos += len(literal)

    def integer(self) -> int:
        match = _INTEGER.match(self.text, self.pos)
        self.pos = match.start(1)
        digits = match.group(1)
        if not digits:
            raise self.error("expected an integer")
        if len(digits) > MAX_DIGITS:
            self.pos += MAX_DIGITS
            raise self.error(f"integer longer than {MAX_DIGITS} digits")
        self.pos = match.end()
        return int(digits)


def parse_graph(text: str) -> Graph:
    """Parse the text grammar and return the normalized Graph.

    Syntax problems raise ``GraphSyntaxError`` with line/column; structural
    problems raise the corresponding ``validate`` error.
    """
    sc = _Scanner(text)
    sc.take("halfedges")
    sc.take("=")
    count = sc.integer()
    sc.take(";")
    sc.take("edges")
    sc.take("=")
    edges = []
    while sc.accept("("):
        a = sc.integer()
        b = sc.integer()
        sc.take(")")
        edges.append((a, b))
    sc.take(";")
    sc.take("vertices")
    sc.take("=")
    vertices = []
    while sc.accept("{"):
        ids = [sc.integer()]
        while not sc.accept("}"):
            ids.append(sc.integer())
        vertices.append(tuple(ids))
    if not sc.at_end():
        raise sc.error("unexpected trailing input")
    return validate(count, edges, vertices)


def format_graph(g: Graph) -> str:
    edges = "".join(f"({a} {b})" for a, b in g.edges)
    vertices = "".join("{" + " ".join(str(h) for h in block) + "}" for block in g.vertices)
    return f"halfedges={g.half_edge_count}; edges={edges}; vertices={vertices}"


# --- induced actions (shared partition plumbing) --------------------------


def preserves_partitions(g: Graph, p: Perm) -> bool:
    """True iff p is an automorphism of g.

    That is, p is a bijection of the half-edges 0..n-1 that maps edge
    blocks to edge blocks and vertex blocks to vertex blocks.
    """
    if sorted(p) != list(range(g.half_edge_count)):
        return False
    partner = g.partner
    for h in range(len(p)):
        if p[partner[h]] != partner[p[h]]:
            return False
    vertex_of = g.vertex_of
    for block in g.vertices:
        w = vertex_of[p[block[0]]]
        if len(g.vertices[w]) != len(block):
            return False
        if any(vertex_of[p[h]] != w for h in block[1:]):
            return False
    return True


def induced_edge_perm(g: Graph, p: Perm) -> Perm:
    """Edge permutation induced by an automorphism's half-edge permutation."""
    return tuple(g.edge_of[p[a]] for a, _ in g.edges)


def induced_vertex_perm(g: Graph, p: Perm) -> Perm:
    return tuple(g.vertex_of[p[block[0]]] for block in g.vertices)


# --- contraction ----------------------------------------------------------


@dataclass(frozen=True)
class OrbitContraction:
    """Result of contracting one edge orbit of an automorphism.

    ``dropped_parity`` is the sign of the permutation the automorphism
    induces on the merged vertex classes that emptied out and were dropped.
    Dropping keeps the contracted graph valid, but that parity is part of
    the vertex-sign bookkeeping across a contraction, so it is reported
    rather than lost.
    """

    graph: Graph
    induced: Perm
    remap: dict[int, int]
    dropped_parity: int


def orbit_contraction(g: Graph, phi: Perm, e: int) -> OrbitContraction:
    """Contract the whole orbit of edge e under the automorphism phi.

    All orbit edges are removed at once; endpoint vertices of non-loop orbit
    edges are merged along the generated equivalence, emptied blocks are
    dropped, and the automorphism induced on the survivors is returned with
    the re-index map, which keeps the survivors in id order. Under the
    identity this contracts the single edge e: a loop is deleted, a
    non-loop merges its endpoints. Raises ``NotAnAutomorphism`` if phi does
    not preserve the partitions, and ``GraphError`` if e is out of range.
    """
    if not preserves_partitions(g, phi):
        raise NotAnAutomorphism("the given permutation is not an automorphism of the graph")
    if not 0 <= e < len(g.edges):
        raise GraphError(f"edge id {e} out of range")
    edge_perm = induced_edge_perm(g, phi)
    orbit = [e]
    while (f := edge_perm[orbit[-1]]) != e:
        orbit.append(f)
    vertex_of = g.vertex_of
    root = merge_classes(
        len(g.vertices), ((vertex_of[a], vertex_of[b]) for a, b in (g.edges[f] for f in orbit))
    )
    removed = {h for f in orbit for h in g.edges[f]}
    survivors = [h for h in range(g.half_edge_count) if h not in removed]
    remap = {h: i for i, h in enumerate(survivors)}
    blocks: dict[int, list[int]] = {}
    for h, i in remap.items():
        blocks.setdefault(root[vertex_of[h]], []).append(i)
    contracted = validate(
        len(survivors), [(remap[a], remap[b]) for a, b in g.edges if a in remap], blocks.values()
    )

    # phi permutes the merge classes; record its parity on the ones that die.
    sigma = induced_vertex_perm(g, phi)
    dropped = [r for r, r_root in enumerate(root) if r == r_root and r not in blocks]
    index = {r: i for i, r in enumerate(dropped)}
    dropped_perm = tuple(index[root[sigma[r]]] for r in dropped)
    induced = tuple(remap[phi[h]] for h in survivors)
    return OrbitContraction(contracted, induced, remap, perms.sign(dropped_perm))


# --- canonical form -------------------------------------------------------


def canonical_graph(g: Graph, max_half_edges: int | None = None) -> Graph:
    """Canonical representative of g's isomorphism class.

    Exhaustive backtracking over vertex orderings, minimizing the sequence
    of per-vertex rows ((valence, loop count), adjacency to the already
    placed prefix); ties are explored, so the outcome is invariant under any
    relabeling. Intended for desk-scale graphs: raises ``SizeLimitExceeded``
    above the configured half-edge cap.
    """
    check_half_edges(g.half_edge_count, max_half_edges)
    nv = len(g.vertices)
    if nv == 0:
        return g
    loops = [0] * nv
    mult = [[0] * nv for _ in range(nv)]
    for a, b in g.edges:
        u, v = g.vertex_of[a], g.vertex_of[b]
        if u == v:
            loops[u] += 1
        else:
            mult[u][v] += 1
            mult[v][u] += 1
    sig = [(len(g.vertices[v]), loops[v]) for v in range(nv)]

    order: list[int] = []
    cur: list[tuple] = []
    used = [False] * nv
    best_rows: list[tuple] | None = None
    best_order: list[int] | None = None

    def search(pos: int, state: int) -> None:
        # state 0: current prefix equals the best prefix; -1: strictly below it.
        nonlocal best_rows, best_order
        if pos == nv:
            if state < 0:
                best_rows = list(cur)
                best_order = list(order)
            return
        cands = sorted(
            ((sig[v], tuple(mult[v][u] for u in order)), v)
            for v in range(nv)
            if not used[v]
        )
        for row, v in cands:
            child = state
            if state == 0:
                assert best_rows is not None
                if row > best_rows[pos]:
                    break
                if row < best_rows[pos]:
                    child = -1
            used[v] = True
            order.append(v)
            cur.append(row)
            search(pos + 1, child)
            used[v] = False
            order.pop()
            cur.pop()
            if child < 0:
                state = 0

    search(0, -1)
    assert best_order is not None

    pos_of = {v: i for i, v in enumerate(best_order)}
    pairs = sorted(
        tuple(sorted((pos_of[g.vertex_of[a]], pos_of[g.vertex_of[b]]))) for a, b in g.edges
    )
    blocks: list[list[int]] = [[] for _ in range(nv)]
    for i, (u, v) in enumerate(pairs):
        blocks[u].append(2 * i)
        blocks[v].append(2 * i + 1)
    return validate(g.half_edge_count, [(2 * i, 2 * i + 1) for i in range(len(pairs))], blocks)


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: equal iff the graphs are isomorphic."""
    return format_graph(canonical_graph(g)).encode("ascii")


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    return canonical_form(g1) == canonical_form(g2)
