"""The four workloads: seeded inputs, the operations the library runs, and
the check on every answer.

A workload writes its inputs once (``write``), reads them back
(``load``), and yields one callable per operation (``ops``) for each pass
over the inputs. An operation returns True for a checked, correct answer
and False for a wrong one; an exception or a nonzero exit code also
counts as a failure. The library is reached through module attributes at
call time, so the tracer's wrappers see every call.

Why the inputs are what they are, and why the seed drives labels rather
than which graphs are drawn, is recorded in README.md beside this file.
"""

from __future__ import annotations

import collections
import hashlib
import io
import itertools
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import orientkit
import orientkit.cli

HERE = Path(__file__).resolve().parent

# Reports of ``orientkit verify --max-edges E --format json``, pinned at the
# commit that defined this benchmark: sha256, classes, automorphisms.
SWEEP_EXPECTED = {
    3: ("45771d543bb90c73f5141e5afff427214b4084095ad6c3919fcb506728f328bc", 17, 122),
    5: ("cd0035866740eeffaa95930de03bbb84b42a91ce67a5de1139c3631b7b0dfc86", 142, 6706),
}

# Graphs on 5-7 vertices for the orbit oracle, as vertex pairs ("00" is a
# loop). The oracle costs |Aut| * |V|! per call, so the list spans that
# product from 10^2 to 10^5 (the 7-cycle is the largest) and is dense in
# the middle, where the median op lies; eight of the graphs are
# non-orientable.
ORIENT_SHAPES = (
    "01 02 12 13 34", "01 02 03 12 14", "01 02 03 04 04 13", "01 02 12 23 24 24",
    "01 01 11 12 13 14 34", "01 04 12 13 14 23", "01 03 03 04 04 04 12",
    "00 00 01 04 12 23 23", "01 12 13 14", "01 02 03 05 13 14 24", "01 12 14 23 45",
    "01 02 04 05 13 24 25", "01 03 12 14 23 35", "00 01 03 04 12 45",
    "01 04 12 13 25 25 25", "01 02 04 13 15", "01 02 03 03 03 34 45",
    "01 02 05 06 14 16 23", "01 02 14 23 45 56", "01 03 05 12 14 45 46",
    "01 12 13 14 33 45 56", "01 02 03 16 25 34", "01 06 12 23 34 45 56",
    "01 02 02 04 14 23 33", "01 03 04 12 23 24", "01 04 12 13 34 44 44",
    "00 01 02 04 23 23 23", "01 02 13 14 35", "01 02 05 13 34", "01 12 13 14 14 35 45",
    "01 03 04 11 12 35 35", "01 12 23 24 25", "01 12 13 13 14 14 45",
)

ANY_CALLS = ("automorphisms.induced_actions", "orientation.theta_k", "orientation.theta_s",
             "orientation.cycle_basis", "perms.sign")


def shape_pairs(shape: str) -> list[tuple[int, int]]:
    return [(int(t[0]), int(t[1])) for t in shape.split()]


def shape_vertices(pairs) -> int:
    return 1 + max(max(p) for p in pairs)


def aut_order(pairs) -> int:
    """|Aut| of a multigraph's half-edge graph, counted independently of
    the library: vertex permutations that keep every multiplicity, times
    the ways to permute parallel edges and to flip and permute loops."""
    nv = shape_vertices(pairs)
    mult = collections.Counter(tuple(sorted(p)) for p in pairs)
    count = sum(
        all(mult.get(tuple(sorted((s[u], s[v]))), 0) == m for (u, v), m in mult.items())
        for s in itertools.permutations(range(nv))
    )
    for (u, v), m in mult.items():
        count *= math.factorial(m) * (2**m if u == v else 1)
    return count


def graph_text(rng: random.Random, edges, vertices) -> str:
    """Text form of a graph with its edges and vertex blocks in shuffled
    order; the parser normalizes them."""
    edges = list(edges)
    blocks = [list(b) for b in vertices]
    rng.shuffle(edges)
    rng.shuffle(blocks)
    for b in blocks:
        rng.shuffle(b)
    count = 2 * len(edges)
    return (f"halfedges={count}; edges=" + "".join(f"({a} {b})" for a, b in edges)
            + "; vertices=" + "".join("{" + " ".join(map(str, b)) + "}" for b in blocks))


def multigraph_text(rng: random.Random, pairs) -> str:
    """The multigraph on the given vertex pairs with shuffled half-edge ids."""
    ids = list(range(2 * len(pairs)))
    rng.shuffle(ids)
    blocks = [[] for _ in range(shape_vertices(pairs))]
    edges = []
    for i, (u, v) in enumerate(pairs):
        a, b = ids[2 * i], ids[2 * i + 1]
        blocks[u].append(a)
        blocks[v].append(b)
        edges.append((a, b))
    return graph_text(rng, edges, blocks)


def _write_jsonl(path: Path, records) -> None:
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records), encoding="ascii")


def _read_jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text(encoding="ascii").splitlines()]


# --- verify-e5 ------------------------------------------------------------


class VerifySweep:
    """``orientkit verify --max-edges E``: one whole sweep per operation.

    The corpus is exhaustive, so the seed has nothing to draw."""

    expected_calls = ("cli.cli_main", "corpus.sweep_theorem", "corpus.enumerate_graphs",
                      "corpus.render", "graphs.canonical_graph", "automorphisms.enumerate",
                      *ANY_CALLS)

    def __init__(self, name: str = "verify-e5", max_edges: int = 5):
        self.name = name
        self.max_edges = max_edges
        self.expected = SWEEP_EXPECTED[max_edges]

    def write(self, seed: int, workdir: Path) -> None:
        pass

    def load(self, workdir: Path):
        return workdir / "report.json"

    def ops(self, out: Path):
        yield partial(_verify_op, out, self.max_edges, self.expected)


def _verify_op(out: Path, max_edges: int, expected) -> bool:
    digest, classes, auts = expected
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        rc = orientkit.cli.cli_main(["verify", "--max-edges", str(max_edges), "--out", str(out)])
    data = out.read_bytes()
    totals = json.loads(data)["totals"]
    return (rc == 0 and hashlib.sha256(data).hexdigest() == digest
            and totals == {"graphs": classes, "automorphisms": auts, "violations": 0})


# --- theta-sym ------------------------------------------------------------


def theta_sym_shapes() -> list[str]:
    return (HERE / "theta_sym_shapes.txt").read_text(encoding="ascii").splitlines()


class ThetaSym:
    """Both orientations of every automorphism of multigraphs with 6-7
    edges on 2-4 vertices, with the seed relabeling half-edges and order."""

    name = "theta-sym"
    expected_calls = ("graphs.parse_graph", "orientation.orientability",
                      "automorphisms.enumerate", *ANY_CALLS)

    def write(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"theta-sym/{seed}")
        shapes = theta_sym_shapes()
        rng.shuffle(shapes)
        _write_jsonl(workdir / "theta-sym.jsonl", (
            {"aut": aut_order(shape_pairs(s)), "graph": multigraph_text(rng, shape_pairs(s))}
            for s in shapes))

    def load(self, workdir: Path):
        return _read_jsonl(workdir / "theta-sym.jsonl")

    def ops(self, records):
        for r in records:
            yield partial(_theta_sym_op, r["graph"], r["aut"])


def _theta_sym_op(text: str, aut: int) -> bool:
    g = orientkit.parse_graph(text)
    k = orientkit.orientability(g, orientkit.ThetaHom.KONTSEVICH)
    s = orientkit.orientability(g, orientkit.ThetaHom.SHOIKHET)
    pk, ps = k.per_automorphism_theta, s.per_automorphism_theta
    return (len(pk) == len(ps) == aut and k.verdict == s.verdict
            and all(a.perm == b.perm and x == y for (a, x), (b, y) in zip(pk, ps)))


# --- orient-oracle --------------------------------------------------------


class OrientOracle:
    """``orientkit orient FILE --theta k|s --bruteforce`` per graph file."""

    name = "orient-oracle"
    expected_calls = ("cli.cli_main", "graphs.parse_graph", "orientation.orientability",
                      "orientation.or_orbits_bruteforce", "automorphisms.enumerate", *ANY_CALLS)

    def write(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"orient-oracle/{seed}")
        shapes = list(ORIENT_SHAPES)
        rng.shuffle(shapes)
        for i, s in enumerate(shapes):
            (workdir / f"orient-{i:02d}.graph").write_text(
                multigraph_text(rng, shape_pairs(s)) + "\n", encoding="ascii")

    def load(self, workdir: Path):
        return sorted(workdir.glob("orient-*.graph"))

    def ops(self, files):
        for path in files:
            verdicts: list[str] = []
            for flag in ("k", "s"):
                yield partial(_orient_op, path, flag, verdicts)


def _orient_op(path: Path, flag: str, verdicts: list) -> bool:
    """The verdict must hold iff the sign flip acts freely on the oracle's
    orbits, and the k and s verdicts of one graph must agree."""
    out = io.StringIO()
    with redirect_stdout(out):
        rc = orientkit.cli.cli_main(["orient", str(path), "--theta", flag, "--bruteforce"])
    fields = dict(tok.split("=", 1) for tok in out.getvalue().split() if "=" in tok)
    verdict = fields.get("verdict")
    verdicts.append(verdict)
    return (rc == 0 and verdict in ("ORIENTABLE", "NON_ORIENTABLE")
            and (verdict == "ORIENTABLE") == (fields.get("z2_free") == "true")
            and verdict == verdicts[0])


# --- families-n4 ----------------------------------------------------------


class FamiliesN4:
    """``eq1_check`` for every family instance with n <= 4 and every power
    of psi, on a seeded edge, with the seed relabeling half-edges."""

    name = "families-n4"
    max_n = 4
    expected_calls = ("graphs.parse_graph", "families.eq1_check", "graphs.orbit_contraction",
                      "perms.power", *ANY_CALLS)

    def write(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"families-n4/{seed}")
        records = []
        for inst in orientkit.family_instances(self.max_n):
            g, p = inst.graph, inst.params
            r = list(range(g.half_edge_count))
            rng.shuffle(r)
            psi = [0] * len(r)
            for h, image in enumerate(inst.psi.perm):
                psi[r[h]] = r[image]
            ne = len(g.edges)
            records.append({
                "graph": graph_text(rng, [(r[a], r[b]) for a, b in g.edges],
                                    [[r[h] for h in block] for block in g.vertices]),
                "psi": psi,
                "family": p.family.value, "n": p.n, "c": p.c, "m": p.m,
                "checks": [[k, rng.randrange(ne)] for k in range(1, ne + 1)],
            })
        _write_jsonl(workdir / "families.jsonl", records)

    def load(self, workdir: Path):
        return _read_jsonl(workdir / "families.jsonl")

    def ops(self, records):
        for rec in records:
            state: dict = {}
            for i, (k, e) in enumerate(rec["checks"]):
                yield partial(_family_op, rec, k, e, state, i == 0)


def _family_op(rec: dict, k: int, e: int, state: dict, first: bool) -> bool:
    """The first check of an instance also parses it and runs
    ``verify_family``, which must report no failures."""
    ok = True
    if first:
        g = orientkit.parse_graph(rec["graph"])
        psi = orientkit.as_automorphism(g, tuple(rec["psi"]))
        params = orientkit.FamilyParams(orientkit.Family(rec["family"]), rec["n"], rec["c"], rec["m"])
        state["g"], state["psi"] = g, psi
        ok = not orientkit.verify_family(orientkit.FamilyInstance(g, psi, params))
    g, psi = state["g"], state["psi"]
    phi = orientkit.as_automorphism(g, orientkit.perms.power(psi.perm, k))
    return orientkit.eq1_check(g, phi, e).equal and ok


WORKLOADS = {w.name: w for w in (VerifySweep(), ThetaSym(), OrientOracle(), FamiliesN4())}
