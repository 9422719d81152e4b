"""Small-graph corpus enumeration, the theta-agreement sweep, report output.

The corpus is generated level by level: the classes with e edges come from
the canonical representatives with e-1 edges by adding one edge in every
possible place, then are deduplicated by canonical form. This is complete
because every connected graph with at least two edges has a non-bridge
edge or a pendant edge, and deleting it (with the pendant vertex, if any)
leaves a connected graph with one edge fewer. Emission order is the byte
order of the canonical forms, so two runs with the same spec produce
identical reports.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Iterator

from .automorphisms import Automorphism, enumerate_automorphisms, vertex_quotient
from .graphs import Graph, canonical_graph, format_graph, twin_classes, with_paired_edge
from .limits import check_half_edges, half_edge_cap, nonnegative
from .orientation import ThetaFn, Verdict, orientability, theta_k, theta_s


class ReportWriteError(RuntimeError):
    pass


@dataclass(frozen=True)
class CorpusSpec:
    max_edges: int
    allow_loops: bool = True
    connected_only: bool = True
    max_half_edges: int | None = None

    def __post_init__(self) -> None:
        """Raises ValueError unless max_edges, and max_half_edges when set, are integers >= 0
        and allow_loops and connected_only are bools."""
        for name in ("allow_loops", "connected_only"):
            if not isinstance(value := getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {value!r}")
        object.__setattr__(self, "max_edges", nonnegative(self.max_edges, "max_edges"))
        if self.max_half_edges is not None:
            object.__setattr__(self, "max_half_edges", half_edge_cap(self.max_half_edges))


@dataclass(frozen=True)
class SweepRow:
    """One report row, its field names the report's keys and, in order, its CSV columns.
    v, e and b1 count vertices, edges and independent cycles; aut is |Aut(g)|."""

    canon: str
    v: int
    e: int
    b1: int
    aut: int
    orientable_k: bool
    orientable_s: bool
    agree: bool


@dataclass(frozen=True)
class Violation:
    canon: str
    perm: tuple[int, ...]
    theta_k: int
    theta_s: int


@dataclass(frozen=True)
class SweepReport:
    spec: CorpusSpec
    rows: tuple[SweepRow, ...]
    violations: tuple[Violation, ...]

    @property
    def totals(self) -> dict:
        auts = sum(row.aut for row in self.rows)
        return {"graphs": len(self.rows), "automorphisms": auts, "violations": len(self.violations)}


def _one_edge_more(g: Graph, spec: CorpusSpec) -> Iterator[Graph]:
    """Graphs made from g by adding one edge with the next two half-edge ids,
    one for each place up to a swap of twins in g.

    g must be edge-paired, its edges (2i, 2i + 1), as canonical graphs and
    the empty graph are; so is every result, grown from g by
    ``with_paired_edge`` with g's multiplicity carried over. The new edge
    runs between vertices u <= v, where ids n and n+1 (n the vertex count)
    stand for new vertices. Swapping twins is an automorphism of g, so a
    loop, a pendant edge or an edge between ``twin_classes`` starts only at
    a class's least member, and an edge inside a class joins its least two.
    """
    n = len(g.vertices)
    classes = twin_classes(g.multiplicity)
    least = [members[0] for members in classes]
    ends = [(u, v) for i, u in enumerate(least) for v in least[i:] + [n]]
    ends += [members[:2] for members in classes if len(members) > 1]
    if not n or not spec.connected_only:
        ends += [(n, n), (n, n + 1)]
    for u, v in ends:
        if u != v or spec.allow_loops:
            yield with_paired_edge(g, u, v)


def enumerate_graphs(spec: CorpusSpec) -> Iterator[Graph]:
    """All isomorphism classes with at most ``spec.max_edges`` edges.

    Level e is built from the canonical representatives of level e-1 by
    ``_one_edge_more``: a loop at a vertex (when loops are allowed), an edge
    between two distinct vertices (parallel edges included), a pendant edge
    to a new vertex, and, when the graph is empty or disconnected graphs are
    wanted, a new component that is a single edge or a single loop.

    Completeness: take a graph with e >= 1 edges. If a component is a
    single edge or a single loop, deleting it gives a graph of level e-1.
    Otherwise pick a component with at least two edges. It has a non-bridge
    edge or a pendant edge: if every edge is a bridge the component is a
    tree, and a tree with an edge has a leaf. Deleting that edge, and the
    pendant vertex if there is one, leaves the component connected. The
    result is in level e-1, is loopless if the graph was, and is connected
    if the graph was, and adding the deleted edge back is one of the moves
    above up to swaps of twins, automorphisms of the smaller graph that
    give isomorphic children. Every level is deduplicated by canonical form.

    Each class is emitted once, as its canonical representative, in byte
    order of the canonical forms. The empty graph belongs to the corpus
    only when ``connected_only`` is off (connectedness requires a vertex).
    No reference to a class is kept once it is emitted, so a caller that
    drops it frees it and whatever it caches.
    """
    cap = half_edge_cap(spec.max_half_edges)  # read once, not once per child
    check_half_edges(2 * spec.max_edges, cap)
    level = {Graph(edges=(), vertices=())}
    seen = set() if spec.connected_only else set(level)
    for _ in range(spec.max_edges):
        level = {canonical_graph(h, cap) for g in level for h in _one_edge_more(g, spec)}
        seen |= level
    classes = sorted(seen, key=format_graph, reverse=True)
    del seen, level
    while classes:
        yield classes.pop()


def sweep_theorem(
    spec: CorpusSpec,
    theta_k_fn: ThetaFn = theta_k,
    theta_s_fn: ThetaFn = theta_s,
) -> SweepReport:
    """Decide, for every corpus graph, whether theta_k and theta_s agree on
    Aut(g) and whether each is orientable, and record every automorphism
    on which they disagree. Each theta is any ``ThetaFn``.

    Each graph is decided by one ``orientability`` call per theta, both on
    one list: by default the kernel generators and lifts of
    ``vertex_quotient``, whose conjugates generate Aut(g). This module's
    ``theta_k`` and ``theta_s`` are homomorphisms Aut(g) -> {+1, -1}, one
    value per conjugacy class, so they agree on Aut(g) iff they agree on
    those, and each verdict on them is the verdict on Aut(g). Nothing here
    assumes that the two thetas agree, and the Euler-characteristic
    identity, which would make them agree by construction, is not used.

    A graph whose generators disagree is decided again on every
    automorphism, listed once by ``enumerate_automorphisms``, so its
    violations are listed in full. Injected thetas are always decided
    that way: they need not be homomorphisms (tests doctor a sign
    convention and confirm that the sweep detects it).
    """
    on_generators = theta_k_fn is theta_k and theta_s_fn is theta_s
    thetas = (theta_k_fn, theta_s_fn)
    rows = []
    violations: list[Violation] = []
    for g in enumerate_graphs(spec):
        canon = format_graph(g)
        order, kernel_gens, lifts = vertex_quotient(g, spec.max_half_edges)
        verdict = _decide(g, kernel_gens + lifts, thetas) if on_generators else None
        if verdict is None or verdict[2]:  # a generator disagrees: list every violation
            verdict = _decide(g, enumerate_automorphisms(g, spec.max_half_edges), thetas)
        orientable_k, orientable_s, disagreements = verdict
        violations += (Violation(canon, a.perm, tk, ts) for a, tk, ts in disagreements)
        rows.append(SweepRow(canon=canon, v=len(g.vertices), e=len(g.edges), b1=g.first_betti(),
                             aut=order, orientable_k=orientable_k, orientable_s=orientable_s,
                             agree=not disagreements))
    return SweepReport(spec, tuple(rows), tuple(violations))


def _decide(
    g: Graph, auts: list[Automorphism], thetas: tuple[ThetaFn, ThetaFn]
) -> tuple[bool, bool, list[tuple[Automorphism, int, int]]]:
    """(orientable_k, orientable_s, disagreements): the ``orientability`` of
    g on ``auts`` under theta_k and theta_s, and (a, theta_k, theta_s) for
    each a in ``auts``, in order, on which the two differ."""
    k, s = (orientability(g, theta, auts) for theta in thetas)
    disagreements = [(a, tk, ts) for (a, tk), (_, ts)
                     in zip(k.per_automorphism_theta, s.per_automorphism_theta) if tk != ts]
    return k.verdict is Verdict.ORIENTABLE, s.verdict is Verdict.ORIENTABLE, disagreements


def _by_field(obj) -> dict:
    """A dataclass's values by field name, shallow (``asdict`` deep-copies every value)."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


_JSON = json.JSONEncoder(indent=2, sort_keys=True, default=_by_field)


def _csv_chunks(report: SweepReport) -> Iterator[str]:
    # writerow returns what its file's write returns: here, the line itself.
    writer = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
    yield writer.writerow(field.name for field in fields(SweepRow))
    for row in report.rows:
        yield writer.writerow(str(x).lower() if isinstance(x, bool) else x
                              for x in _by_field(row).values())


def report_chunks(report: SweepReport, fmt: str) -> Iterator[str]:
    """The report in ``fmt``, "json" or "csv", as ASCII text in small chunks: sorted keys,
    fixed bool formatting, LF endings. The JSON is ``json.dumps(report, indent=2,
    sort_keys=True)`` and a newline, each dataclass as a dict of its fields and ``totals``
    added; json's encoder walks the rows and violations lazily. The CSV has one line per
    chunk. Any other fmt raises ValueError at once."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown report format {fmt!r}")
    if fmt == "csv":
        return _csv_chunks(report)
    return itertools.chain(_JSON.iterencode(_by_field(report) | {"totals": report.totals}), "\n")


def render_report(report: SweepReport, fmt: str) -> bytes:
    """The whole report in one piece: the joined ``report_chunks``, ASCII-encoded."""
    return "".join(report_chunks(report, fmt)).encode("ascii")


def write_report(report: SweepReport, path: str, fmt: str = "json") -> None:
    chunks = report_chunks(report, fmt)
    try:
        with open(path, "w", encoding="ascii", newline="") as handle:
            handle.writelines(chunks)
    except OSError as err:
        raise ReportWriteError(f"cannot write report to {path}: {err}") from err
