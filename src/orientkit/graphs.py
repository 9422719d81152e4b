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

import re
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Hashable, Iterable, Sequence

from . import perms
from .limits import MAX_DIGITS, check_half_edges, integer
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
    """Normalized half-edge graph. Build via ``validate`` or ``parse_graph``, or,
    for the edge-paired form E = {(2i, 2i + 1)}, via ``paired_graph`` or
    ``with_paired_edge``."""

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

    @cached_property
    def multiplicity(self) -> tuple[tuple[int, ...], ...]:
        """M[u][v]: the edges between vertices u and v; a loop adds 2 on the diagonal."""
        out = [[0] * len(self.vertices) for _ in self.vertices]
        for a, b in self.edges:
            out[self.vertex_of[a]][self.vertex_of[b]] += 1
            out[self.vertex_of[b]][self.vertex_of[a]] += 1
        return tuple(map(tuple, out))

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


def spanning_forest(g: Graph) -> tuple[list[int], list[int]]:
    """The BFS spanning forest: (order, via), the vertices in visiting order
    and, by vertex, the edge to its parent (-1 at a root).

    Components are entered in ascending vertex id, so each is rooted at its
    lowest vertex. Each vertex's edges are scanned in edge-id order, loops
    skipped.
    """
    vertex_of, edge_of, partner = g.vertex_of, g.edge_of, g.partner
    order: list[int] = []
    via = [-1] * len(g.vertices)
    seen = [False] * len(g.vertices)
    head = 0  # order doubles as the queue; order[head:] is still to be scanned
    for root in range(len(g.vertices)):
        if not seen[root]:
            seen[root] = True
            order.append(root)
        while head < len(order):
            for h in sorted(g.vertices[order[head]], key=edge_of.__getitem__):
                w = vertex_of[partner[h]]
                if not seen[w]:  # a loop leads back to its own vertex, already seen
                    seen[w] = True
                    via[w] = edge_of[h]
                    order.append(w)
            head += 1
    return order, via


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


@cache
def _paired_edges(count: int) -> tuple[tuple[int, int], ...]:
    # One tuple per edge count, shared by every edge-paired graph of that size, so a
    # corpus holds one copy per level rather than one per class.
    return tuple((h, h + 1) for h in range(0, 2 * count, 2))


def paired_graph(ends: Sequence[Hashable]) -> Graph:
    """The graph with edges (h, h + 1), h even, whose half-edge h lies at vertex ``ends[h]``.

    The labels in ``ends`` only group the half-edges, into ascending blocks
    ordered by first id: the normal form. ``ends`` must have even length;
    outside input goes through ``validate``.
    """
    blocks: dict[Hashable, list[int]] = {}
    for h, w in enumerate(ends):
        blocks.setdefault(w, []).append(h)  # a block is created at its least id
    return Graph(edges=_paired_edges(len(ends) // 2), vertices=tuple(map(tuple, blocks.values())))


def with_paired_edge(g: Graph, u: int, v: int) -> Graph:
    """Edge-paired g plus the edge (2m, 2m + 1), m = |E|, from vertex u to vertex v, u <= v.

    Ids from len(g.vertices) up stand for new vertices, numbered in order.
    The new ids exceed every old one, so appending them to u's and v's
    blocks, or opening a block for a new vertex, keeps the normal form; the
    result is ``paired_graph(g.vertex_of + (u, v))``. Its ``multiplicity``
    is g's with that edge added, not counted again.
    """
    h = 2 * len(g.edges)
    n = len(g.vertices)
    vertices = g.vertices
    for w, x in ((u, h), (v, h + 1)):
        if w < len(vertices):
            vertices = vertices[:w] + (vertices[w] + (x,),) + vertices[w + 1:]
        else:
            vertices += ((x,),)
    grow = (0,) * (len(vertices) - n)
    mult = [row + grow for row in g.multiplicity] + [(0,) * len(vertices)] * len(grow)
    for a, b in ((u, v), (v, u)):  # a loop adds 2 on the diagonal
        row = mult[a]
        mult[a] = row[:b] + (row[b] + 1,) + row[b + 1:]
    child = Graph(edges=_paired_edges(h // 2 + 1), vertices=vertices)
    vars(child)["multiplicity"] = tuple(mult)
    return child


def validate(
    half_edge_count: int,
    edges: Iterable[Iterable[int]],
    vertices: Iterable[Iterable[int]],
) -> Graph:
    """Check a raw description and return the normalized Graph.

    The edge blocks must partition 0..half_edge_count-1 into pairs and the
    vertex blocks into non-empty sets. Raises a ``GraphError`` subclass
    naming the first defect found, and ``GraphError`` itself for a count or
    id that ``limits.integer`` refuses (a bool included) or a block that is
    not iterable.
    """
    try:
        count = integer(half_edge_count)
        edge_blocks = [tuple(map(integer, raw)) for raw in edges]
        vertex_blocks = [tuple(map(integer, raw)) for raw in vertices]
    except TypeError as err:
        raise GraphError(f"half-edge count and ids: {err}") from None
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

    for block in edge_blocks:
        if len(block) != 2 or block[0] == block[1]:
            raise BadEdgeArityError(f"edge block must hold two distinct half-edges, got {block}")
    # Checked before anything is sized by count, so a huge declared count
    # costs nothing.
    if count != 2 * len(edge_blocks):
        raise CoverageError(f"half-edge count {count} is not twice the edge count {len(edge_blocks)}")
    check_partition(edge_blocks, "edge")

    if not all(vertex_blocks):
        raise EmptyVertexError("vertex block is empty")
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


# --- automorphisms --------------------------------------------------------


def is_automorphism(g: Graph, p: Perm) -> bool:
    """True iff p is an automorphism of g.

    That is, p is a bijection of the half-edges 0..n-1 that maps edge
    blocks to edge blocks and vertex blocks to vertex blocks. Raises
    ``NotAnAutomorphism`` for a wrong length or for an image that
    ``limits.integer`` refuses (a bool included).
    """
    if len(p) != g.half_edge_count:
        raise NotAnAutomorphism(f"domain mismatch: permutation on {len(p)} points, graph has "
                                f"{g.half_edge_count} half-edges")
    try:
        p = perms.check_perm(p)
    except TypeError as err:
        raise NotAnAutomorphism(f"an image {err}") from None
    except ValueError:
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
    non-loop merges its endpoints. Raises ``NotAnAutomorphism`` if phi is
    not an automorphism, and ``GraphError`` if e is not an integer (a bool
    included) or is out of range.
    """
    if not is_automorphism(g, phi):
        raise NotAnAutomorphism("the given permutation is not an automorphism of the graph")
    try:
        e = integer(e)
    except TypeError as err:
        raise GraphError(f"edge id {err}") from None
    if not 0 <= e < len(g.edges):
        raise GraphError(f"edge id {e} out of range")
    vertex_of, edge_of = g.vertex_of, g.edge_of
    orbit = [e]
    while (f := edge_of[phi[g.edges[orbit[-1]][0]]]) != e:
        orbit.append(f)
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
    dropped = [r for r, r_root in enumerate(root) if r == r_root and r not in blocks]
    index = {r: i for i, r in enumerate(dropped)}
    dropped_perm = tuple(index[root[vertex_of[phi[g.vertices[r][0]]]]] for r in dropped)
    induced = tuple(remap[phi[h]] for h in survivors)
    return OrbitContraction(contracted, induced, remap, perms.sign(dropped_perm))


# --- canonical form -------------------------------------------------------


def twin_classes(mult: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The classes of the twin relation on the vertices of the multiplicity
    matrix ``mult``, each ascending, ordered by their least member.

    u and v are twins iff swapping them keeps every entry of M: equal loop
    counts and equal multiplicity to every other vertex. That is an
    equivalence, since if (u v) and (v w) keep M, so does their conjugate
    (u w) = (u v)(v w)(u v); so v joins the first class whose least member
    u is its twin, M[u][u] == M[v][v] and the rows equal off columns u, v.
    Within a class every pair has one multiplicity, and between two classes
    every pair has one.
    """
    classes: list[list[int]] = []
    for v, rv in enumerate(mult):
        for members in classes:
            u = members[0]
            ru = mult[u]
            if (ru[u] == rv[v] and ru[:u] == rv[:u] and ru[u + 1:v] == rv[u + 1:v]
                    and ru[v + 1:] == rv[v + 1:]):
                members.append(v)
                break
        else:
            classes.append([v])
    return [tuple(members) for members in classes]


def _least(mult: tuple[tuple[int, ...], ...], twins: list[int], rows: dict[int, tuple]) -> tuple:
    # The least row sequence placing rows' vertices after the prefix; v waits for twins[v].
    seq: list[tuple] = []
    while rows:
        seq.append(low := min(rows.values()))
        places = [{u: r + (mult[u][v],) for u, r in rows.items() if u != v}
                  for v in rows if rows[v] == low and twins[v] not in rows]
        if len(places) > 1:
            return tuple(seq) + min(_least(mult, twins, placed) for placed in places)
        rows = places[0]
    return tuple(seq)


def canonical_graph(g: Graph, max_half_edges: int | None = None) -> Graph:
    """Canonical representative of g's isomorphism class.

    Places the vertices one at a time and finds the least sequence of rows, a
    vertex's row being (valence, loop count, multiplicity to each placed vertex
    in placing order). Rows at one level depend only on the placed prefix, so
    only candidates with the least row are tried, branching only where two or
    more remain, and only the least unplaced one of each of the
    ``twin_classes``: swapping two twins keeps every multiplicity and the
    placed prefix, so both reach the same sequence. The graph is read off the
    sequence, so it is invariant under relabeling: position v's row holds its
    loops at index 1 and its multiplicity to position u < v at index 2 + u, and
    edges (h, h + 1) go in lexicographic order of their end positions, so
    ``paired_graph`` builds it. Raises ``SizeLimitExceeded`` above the cap.
    """
    check_half_edges(g.half_edge_count, max_half_edges)
    nv = len(g.vertices)
    mult = g.multiplicity
    twins = [-1] * nv  # twins[v]: the previous member of v's twin class, else -1
    for members in twin_classes(mult):
        for u, v in zip(members, members[1:]):
            twins[v] = u
    seq = _least(mult, twins, {v: (len(g.vertices[v]), mult[v][v] // 2) for v in range(nv)})
    return paired_graph([x for u in range(nv) for v in range(u, nv)  # half-edge h at ends[h]
                         for _ in range(seq[u][1] if u == v else seq[v][2 + u]) for x in (u, v)])
