import hashlib
import itertools
import math
from fractions import Fraction
from math import prod

import pytest

from orientkit import corpus, limits, perms
from orientkit.automorphisms import (
    Automorphism,
    enumerate_automorphisms,
    induced_actions,
    strong_generators,
    vertex_quotient,
)
from orientkit.corpus import (
    CorpusSpec,
    ReportWriteError,
    enumerate_graphs,
    render_report,
    report_to_dict,
    sweep_theorem,
    write_report,
)
from orientkit.graphs import Graph, canonical_graph, format_graph, paired_graph, parse_graph, validate
from orientkit.orientation import (
    ThetaHom,
    Verdict,
    default_arrows,
    epsilon_map,
    or_orbits_bruteforce,
    orientability,
    theta_k,
    theta_s,
)

from test_graphs import iso_exists_bruteforce

# Classes of connected graphs (loops allowed) per edge count. The values for
# one and two edges are audited by hand: {loop, single edge} and {two loops
# on a vertex, loop plus pendant edge, double edge, two-edge path}. Larger
# counts are frozen from a run of the enumerator as regression values.
CONNECTED_CLASS_COUNTS = {1: 2, 2: 4, 3: 11, 4: 30}

# Classes per edge count from the literature, not from either enumerator:
# connected multigraphs with loops (OEIS A007719) and without (A076864).
PUBLISHED_CLASS_COUNTS = {
    True: [2, 4, 11, 30, 95, 328, 1211, 4779],
    False: [1, 2, 5, 12, 33, 103, 333],
}

# The set-partition oracle walks Bell(2|E|) partitions: |E| <= 4 takes about
# a second, |E| = 5 about a minute, so the cross-check stops at 4.
ORACLE_MAX_EDGES = 4


def set_partitions(n):
    """All partitions of 0..n-1 into non-empty blocks.

    Blocks come out in first-occurrence order with members ascending, which
    is already the graph normal form.
    """
    if n == 0:
        yield ()
        return
    blocks = []

    def place(i):
        if i == n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from place(i + 1)
            b.pop()
        blocks.append([i])
        yield from place(i + 1)
        blocks.pop()

    yield from place(0)


def oracle_classes(spec):
    """Slow reference corpus: every vertex partition of the half-edges of the
    standard matching {(0,1), (2,3), ...}, filtered and deduplicated."""
    seen = {}
    for ne in range(spec.max_edges + 1):
        edges = tuple((2 * i, 2 * i + 1) for i in range(ne))
        for blocks in set_partitions(2 * ne):
            g = Graph(edges=edges, vertices=blocks)
            if not spec.allow_loops and any(g.is_loop(e) for e in range(ne)):
                continue
            if spec.connected_only and not g.is_connected():
                continue
            rep = canonical_graph(g, spec.max_half_edges)
            seen.setdefault(format_graph(rep).encode("ascii"), rep)
    return [seen[key] for key in sorted(seen)]


def test_one_edge_corpus_is_loop_and_single_edge(loop, single_edge):
    graphs = list(enumerate_graphs(CorpusSpec(1)))
    forms = {canonical_graph(g) for g in graphs}
    assert forms == {canonical_graph(loop), canonical_graph(single_edge)}


def test_one_edge_corpus_without_loops(single_edge):
    graphs = list(enumerate_graphs(CorpusSpec(1, allow_loops=False)))
    assert [canonical_graph(g) for g in graphs] == [canonical_graph(single_edge)]


def test_zero_edges():
    assert list(enumerate_graphs(CorpusSpec(0))) == []
    graphs = list(enumerate_graphs(CorpusSpec(0, connected_only=False)))
    assert len(graphs) == 1
    assert graphs[0].half_edge_count == 0


class _Two:
    def __index__(self):
        return 2


@pytest.mark.parametrize("kwargs", [
    {"max_edges": True},
    {"max_edges": 2.5},
    {"max_edges": "2"},
    {"max_edges": -1},
    {"max_edges": 2, "max_half_edges": -1},
    {"max_edges": 2, "max_half_edges": True},
    {"max_edges": 2, "max_half_edges": 4.0},
], ids=["bool", "float", "str", "negative", "negative-cap", "bool-cap", "float-cap"])
def test_corpus_spec_rejects_what_is_not_a_count(kwargs):
    with pytest.raises(ValueError, match="must be an integer >= 0"):
        CorpusSpec(**kwargs)


@pytest.mark.parametrize("field", ["allow_loops", "connected_only"])
@pytest.mark.parametrize("value", ["no", 0, 1, None])
def test_corpus_spec_flags_must_be_bools(field, value):
    # Read by truthiness, "no" would keep the loops and be written into the report as given.
    with pytest.raises(ValueError, match=f"{field} must be a bool, got {value!r}"):
        CorpusSpec(1, **{field: value})


@pytest.mark.parametrize("override", [-1, True, 2.5])
def test_half_edge_cap_override_must_be_a_count(override):
    with pytest.raises(ValueError, match="max_half_edges must be an integer >= 0"):
        limits.half_edge_cap(override)


def test_corpus_spec_reads_sizes_as_integers():
    spec = CorpusSpec(_Two(), max_half_edges=_Two())
    assert (spec.max_edges, spec.max_half_edges) == (2, 2)
    assert type(spec.max_edges) is int and type(spec.max_half_edges) is int
    # The report holds the int, which json can write.
    assert b'"max_edges": 2,' in render_report(sweep_theorem(CorpusSpec(_Two())), "json")


def test_class_counts_frozen():
    counts = {}
    for g in enumerate_graphs(CorpusSpec(4)):
        counts[len(g.edges)] = counts.get(len(g.edges), 0) + 1
    assert counts == CONNECTED_CLASS_COUNTS


@pytest.mark.parametrize("allow_loops", [True, False])
@pytest.mark.parametrize("connected_only", [True, False])
def test_augmentation_matches_set_partition_oracle(allow_loops, connected_only):
    spec = CorpusSpec(ORACLE_MAX_EDGES, allow_loops=allow_loops, connected_only=connected_only)
    assert list(enumerate_graphs(spec)) == oracle_classes(spec)


def every_edge_more(g, spec):
    """The unpruned moves: an edge (u, v) for every u <= v <= n with u < n, n
    standing for a new vertex, and the new-component moves (n, n) and (n, n + 1)."""
    n = len(g.vertices)
    ends = [(u, v) for u in range(n) for v in range(u, n + 1)]
    if not n or not spec.connected_only:
        ends += [(n, n), (n, n + 1)]
    return [paired_graph(g.vertex_of + (u, v)) for u, v in ends if u != v or spec.allow_loops]


@pytest.mark.parametrize("spec", [
    CorpusSpec(5),
    CorpusSpec(5, allow_loops=False),
    CorpusSpec(4, connected_only=False),
    CorpusSpec(4, allow_loops=False, connected_only=False),
], ids=["e5", "e5-no-loops", "e4-disconnected", "e4-disconnected-no-loops"])
def test_twin_pruned_moves_reach_every_child_class(spec):
    # Every parent that the corpus extends: the empty graph and each class below the top level.
    parents = [Graph(edges=(), vertices=())]
    parents += (g for g in enumerate_graphs(spec) if len(g.edges) < spec.max_edges)
    for g in parents:
        pruned = list(corpus._one_edge_more(g, spec))
        oracle = every_edge_more(g, spec)
        assert len(pruned) <= len(oracle) and set(pruned) <= set(oracle)
        assert {canonical_graph(h) for h in pruned} == {canonical_graph(h) for h in oracle}
        for h in pruned:
            assert h == validate(h.half_edge_count, h.edges, h.vertices)


def test_twin_pruning_cuts_the_corpus_canonicalizations(monkeypatch):
    # The unpruned moves make 433 canonicalizations at |E| <= 5, the pruned ones 340.
    calls = []

    def counted(*args):
        calls.append(args)
        return canonical_graph(*args)

    monkeypatch.setattr(corpus, "canonical_graph", counted)
    spec = CorpusSpec(5)
    graphs = list(enumerate_graphs(spec))
    assert len(calls) <= 340
    level = {Graph(edges=(), vertices=())}
    unpruned = set()
    for _ in range(spec.max_edges):
        level = {canonical_graph(h) for g in level for h in every_edge_more(g, spec)}
        unpruned |= level
    assert len(graphs) == 142
    assert graphs == sorted(unpruned, key=format_graph)


def test_class_counts_match_published_series():
    for allow_loops, expected in PUBLISHED_CLASS_COUNTS.items():
        n = len(expected)
        counts = [0] * n
        for g in enumerate_graphs(CorpusSpec(n, allow_loops=allow_loops, max_half_edges=2 * n)):
            counts[len(g.edges) - 1] += 1
        assert counts == expected


# Connected multigraphs with loops at |E| = 9 and 10, from the count oracle
# below; no enumeration has been checked against them in the test suite.
POLYA_CONNECTED_TERMS_9_10 = (19_902, 86_682)


def cycle_types(n, largest=None):
    """The partitions of n, each as a list of cycle lengths."""
    if n == 0:
        yield []
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in cycle_types(n - k, k):
            yield [k, *rest]


def multigraph_counts(max_edges, allow_loops):
    """Oracle without enumeration: the number of multigraphs with e edges
    and no isolated vertex, for e = 0..max_edges, by Burnside's lemma over
    S_v with v = 2 * max_edges (Harary & Palmer, Graphical Enumeration,
    ch. 4). A vertex permutation of cycle type c is taken with weight
    1 / prod k^m_k m_k!; it permutes the slots (vertex pairs, and loops
    when allowed) in cycles, and a slot cycle of length L contributes
    1 / (1 - x^L) to the fixed multigraphs. A graph with e edges has at
    most 2e vertices, so the isolated padding counts each one once."""
    total = [Fraction(0)] * (max_edges + 1)
    for cycles in cycle_types(2 * max_edges):
        weight = Fraction(1)
        for k in set(cycles):
            m = cycles.count(k)
            weight /= k ** m * math.factorial(m)
        slots = []
        for i, a in enumerate(cycles):
            # Pairs inside one a-cycle: (a - 1) // 2 cycles of length a and,
            # for even a, the a / 2 opposite pairs in one cycle.
            slots += [a] * ((a - 1) // 2)
            if a % 2 == 0:
                slots.append(a // 2)
            if allow_loops:
                slots.append(a)
            for b in cycles[i + 1:]:
                slots += [math.lcm(a, b)] * math.gcd(a, b)
        series = [1] + [0] * max_edges
        for length in slots:
            for e in range(length, max_edges + 1):
                series[e] += series[e - length]
        for e, fixed in enumerate(series):
            total[e] += weight * fixed
    assert all(t.denominator == 1 for t in total)
    return [int(t) for t in total]


def connected_counts(counts):
    """The inverse Euler transform: connected counts c_1..c_n from the
    counts a_0 = 1, a_1..a_n of all graphs, 1 + sum a_n x^n = prod (1 - x^n)^-c_n."""
    n = len(counts) - 1
    moments = [0] * (n + 1)  # sum of d * c_d over the divisors d of k
    out = [0] * (n + 1)
    for k in range(1, n + 1):
        moments[k] = k * counts[k] - sum(moments[j] * counts[k - j] for j in range(1, k))
        rest = moments[k] - sum(d * out[d] for d in range(1, k) if k % d == 0)
        assert rest % k == 0
        out[k] = rest // k
    return out[1:]


def test_count_oracle_matches_published_series_and_pinned_terms():
    with_loops = connected_counts(multigraph_counts(10, True))
    assert with_loops == PUBLISHED_CLASS_COUNTS[True] + list(POLYA_CONNECTED_TERMS_9_10)
    without = PUBLISHED_CLASS_COUNTS[False]
    assert connected_counts(multigraph_counts(len(without), False)) == without


@pytest.mark.parametrize("allow_loops", [True, False])
def test_count_oracle_matches_disconnected_corpus(allow_loops):
    # The connected counts are checked against enumeration through the
    # published series above; these levels count every graph, the empty
    # one at 0 edges included.
    counts = [0] * 6
    for g in enumerate_graphs(CorpusSpec(5, allow_loops=allow_loops, connected_only=False)):
        counts[len(g.edges)] += 1
    assert counts == multigraph_counts(5, allow_loops)


# Connected classes on which theta_s is +1 on all of Aut(g), per edge count
# 1..7, from the signed count below; the sweep side is checked against them.
# The terms at 8..10 are pinned for sweeps that tier-1 does not run.
SIGNED_CONNECTED_COUNTS = [1, 0, 3, 5, 15, 53, 169]
SIGNED_CONNECTED_TERMS_8_10 = [610, 2353, 9397]


def _times_power(series, v, e, k, odd):
    """``series[v][e]``, the coefficients of y^v x^e, times (1 + t)^k if
    ``odd``, else (1 - t)^-k, with t = y^v x^e; truncated to its own degrees."""
    rows, cols = len(series), len(series[0])
    out = [row[:] for row in series]
    for j in range(1, min((rows - 1) // v, (cols - 1) // e) + 1):
        coeff = math.comb(k, j) if odd else math.comb(k + j - 1, j)
        for vv in range(j * v, rows):
            for ee in range(j * e, cols):
                out[vv][ee] += coeff * series[vv - j * v][ee - j * e]
    return out


def signed_vertex_counts(max_edges, max_vertices):
    """O_v for v = 0..max_vertices, as a list of coefficients of x^e for
    e = 0..max_edges: the number of loopless classes with e edges on exactly
    v vertices, none of them isolated, on which theta_s is +1 on every
    automorphism. Without enumeration and without theta_k.

    A loop flip fixes every vertex and theta_s is -1 on it, so loops drop
    out. On v labelled vertices, sum over cycle types of sigma in S_v the
    weight sign(sigma) / z, times a factor per orbit of vertex pairs: an
    orbit of length L whose pairs come back as they were gives
    1 / (1 - x^L); one that sigma^L reverses, the l / 2 opposite pairs of a
    cycle of even length l, gives 1 / (1 + x^L), since each of its m
    parallel edges comes back reversed and theta_s picks up (-1)^m. That
    is S_v, the classes on exactly v vertices, isolated ones allowed. Two
    isolated vertices swap with theta_s -1, so O_v = S_v - O_(v-1) counts
    the classes without isolated vertices. Willwacher & Zivkovic count graph
    complex bases this way (Adv. Math. 2015)."""
    n = max_edges
    classes = []  # O_v as a series in x
    for v in range(max_vertices + 1):
        total = [Fraction(0)] * (n + 1)
        for cycles in cycle_types(v):
            weight = Fraction((-1) ** (v - len(cycles)))
            for k in set(cycles):
                m = cycles.count(k)
                weight /= k ** m * math.factorial(m)
            plain, reversing = [], []
            for i, a in enumerate(cycles):
                plain += [a] * ((a - 1) // 2)
                if a % 2 == 0:
                    reversing.append(a // 2)
                for b in cycles[i + 1:]:
                    plain += [math.lcm(a, b)] * math.gcd(a, b)
            series = [1] + [0] * n
            for length in plain:
                for e in range(length, n + 1):
                    series[e] += series[e - length]
            for length in reversing:
                for e in range(length, n + 1):
                    series[e] -= series[e - length]
            for e, fixed in enumerate(series):
                total[e] += weight * fixed
        assert all(t.denominator == 1 for t in total)
        counts = [int(t) for t in total]  # S_v
        if classes:
            counts = [c - below for c, below in zip(counts, classes[-1])]
        classes.append(counts)
    return classes


def signed_connected_counts(max_edges):
    """Oracle for the sweep's agreement column: the number of connected
    loopless classes with e edges, e = 1..max_edges, on which theta_s is +1
    on every automorphism.

    Swapping two identical components on c vertices has theta_s (-1)^c, so
    sum O_v y^v x^e = prod over odd v of (1 + y^v x^e)^c(v, e) times
    prod over even v of (1 - y^v x^e)^-c(v, e), with O_v from
    ``signed_vertex_counts``, solved level by level for the connected
    counts c(v, e)."""
    n = max_edges
    nv = n + 1  # a connected graph with n edges has at most n + 1 vertices
    classes = signed_vertex_counts(n, nv)
    # Every component has an edge, so the product's terms at level e come from
    # c(v, e) alone, plus products of components with fewer edges.
    product = [[int(v == e == 0) for e in range(n + 1)] for v in range(nv + 1)]
    out = []
    for e in range(1, n + 1):
        level = [classes[v][e] - product[v][e] for v in range(nv + 1)]
        assert min(level) >= 0
        for v, count in enumerate(level):
            if count:
                product = _times_power(product, v, e, count, v % 2 == 1)
        out.append(sum(level))
    return out


def test_signed_count_oracle_matches_the_sweep():
    # The sweep side: classes of CorpusSpec(7) on which theta_k, and
    # separately theta_s, is +1 on generators of Aut(g). Loops count there too,
    # and drop out by themselves.
    assert signed_connected_counts(10) == SIGNED_CONNECTED_COUNTS + SIGNED_CONNECTED_TERMS_8_10
    k_side = [0] * len(SIGNED_CONNECTED_COUNTS)
    s_side = [0] * len(SIGNED_CONNECTED_COUNTS)
    for g in enumerate_graphs(CorpusSpec(len(SIGNED_CONNECTED_COUNTS))):
        _, kernel_gens, lifts = vertex_quotient(g)
        gens = kernel_gens + lifts
        k_side[len(g.edges) - 1] += all(theta_k(g, a) == 1 for a in gens)
        s_side[len(g.edges) - 1] += all(theta_s(g, a) == 1 for a in gens)
    assert k_side == SIGNED_CONNECTED_COUNTS
    assert s_side == SIGNED_CONNECTED_COUNTS


def test_signed_count_oracle_matches_the_disconnected_sweep():
    # A graph with e edges and no isolated vertex has at most 2e vertices, so
    # O_v summed over v <= 2e counts the classes of CorpusSpec(6,
    # connected_only=False) with e edges, the empty one at 0 included, on
    # which theta_s is +1 on every automorphism. Summing only to v <= e + 1
    # misses disjoint edges: it gives 0 at e = 2 and 8 at e = 4.
    n = 6
    classes = signed_vertex_counts(n, 2 * n)
    oracle = [sum(classes[v][e] for v in range(2 * e + 1)) for e in range(n + 1)]
    assert oracle == [1, 1, 1, 4, 9, 24, 81]
    s_side = [0] * (n + 1)
    for g in enumerate_graphs(CorpusSpec(n, connected_only=False, max_half_edges=2 * n)):
        _, kernel_gens, lifts = vertex_quotient(g, 2 * n)
        s_side[len(g.edges)] += all(theta_s(g, a) == 1 for a in kernel_gens + lifts)
    assert s_side == oracle


def test_emitted_graphs_are_canonical_and_sorted():
    graphs = list(enumerate_graphs(CorpusSpec(3)))
    forms = [format_graph(canonical_graph(g)).encode("ascii") for g in graphs]
    assert forms == sorted(forms)
    assert [format_graph(g).encode("ascii") for g in graphs] == forms


def test_dedup_soundness_pairwise(corpus3):
    graphs = [g for g, _ in corpus3]
    small = [g for g in graphs if g.half_edge_count <= 4]
    for g1, g2 in itertools.combinations(small, 2):
        assert not iso_exists_bruteforce(g1, g2)
    # at three edges, spot-check distinctness through a cheap invariant split
    forms = {canonical_graph(g) for g in graphs}
    assert len(forms) == len(graphs)


def test_sweep_small_corpus_has_no_violations():
    report = sweep_theorem(CorpusSpec(1))
    assert report.totals["graphs"] == 2
    assert report.violations == ()

    report = sweep_theorem(CorpusSpec(2))
    assert report.violations == ()
    assert report.totals == {"graphs": 6, "automorphisms": 20, "violations": 0}
    assert all(row.agree for row in report.rows)


def test_sweep_rows_flag_loops_as_non_orientable():
    # Loop flips and swaps of parallel edges or of loops at one vertex generate
    # the kernel of the vertex action; both thetas are -1 on a flip and +1 on a
    # swap. So both verdicts read "no loop", and only the agree column carries
    # the theorem.
    for spec, rows in ((CorpusSpec(5), 142), (CorpusSpec(4, connected_only=False), 112)):
        report = sweep_theorem(spec)
        assert len(report.rows) == rows
        loopless = []
        for row in report.rows:
            g = parse_graph(row.canon)
            loopless.append(not any(g.is_loop(e) for e in range(len(g.edges))))
            assert row.orientable_k == row.orientable_s == loopless[-1]
        assert set(loopless) == {True, False}


@pytest.mark.parametrize("allow_loops", [True, False])
def test_sweep_verdicts_match_orientability_and_oracle(allow_loops):
    report = sweep_theorem(CorpusSpec(3, allow_loops=allow_loops))
    verdicts = set()
    for row in report.rows:
        g = parse_graph(row.canon)
        for theta, orientable in (
            (ThetaHom.KONTSEVICH, row.orientable_k),
            (ThetaHom.SHOIKHET, row.orientable_s),
        ):
            assert orientable == (orientability(g, theta).verdict is Verdict.ORIENTABLE)
            _, z2_free, _ = or_orbits_bruteforce(g, theta)
            assert orientable == z2_free
            verdicts.add(orientable)
    # Every loopless graph with at most 3 edges is orientable.
    assert verdicts == ({True, False} if allow_loops else {True})


def test_sweep_determinism():
    spec = CorpusSpec(3)
    first = sweep_theorem(spec)
    second = sweep_theorem(spec)
    assert report_to_dict(first) == report_to_dict(second)
    assert render_report(first, "json") == render_report(second, "json")
    assert render_report(first, "csv") == render_report(second, "csv")


def test_report_bytes_are_pinned():
    # The digest `orientkit verify --max-edges 3` has always printed.
    rendered = render_report(sweep_theorem(CorpusSpec(3)), "json")
    assert hashlib.sha256(rendered).hexdigest() == (
        "45771d543bb90c73f5141e5afff427214b4084095ad6c3919fcb506728f328bc"
    )


def test_report_bytes_are_pinned_with_disconnected_graphs():
    # The digest `orientkit verify --max-edges 4 --no-connected-only` has
    # always printed. Disconnected graphs disagree, so this pins the
    # decision on every automorphism: 112 graphs, 800 violations.
    report = sweep_theorem(CorpusSpec(4, connected_only=False))
    assert report.totals == {"graphs": 112, "automorphisms": 3025, "violations": 800}
    assert hashlib.sha256(render_report(report, "json")).hexdigest() == (
        "c6b5360423e3056e2fea210014fdfd9f3a9ae44ae7ec5b627c853bf645306a96"
    )
    assert hashlib.sha256(render_report(report, "csv")).hexdigest() == (
        "67a117226aa067d77375e582e7df73e33dce177a919b4747a5109e23ef521f94"
    )


def test_report_bytes_are_pinned_at_six_edges():
    # The digest `orientkit verify --max-edges 6` has always printed.
    rendered = render_report(sweep_theorem(CorpusSpec(6)), "json")
    assert hashlib.sha256(rendered).hexdigest() == (
        "d5bdec9d424609d4a21a1034d879693407bf3c53df8899ce05f259f1e9eca465"
    )


@pytest.mark.parametrize("spec", [
    CorpusSpec(4, connected_only=False),
    CorpusSpec(4, allow_loops=False, connected_only=False),
], ids=["loops", "no-loops"])
def test_thetas_are_homomorphisms_on_generators(spec):
    # The premise of deciding the sweep on generators: theta(a o s) =
    # theta(a) theta(s) for every automorphism a and generator s, both the
    # strong generators of Aut(g) and the kernel generators and lifts of
    # vertex_quotient (each checked once). Disconnected graphs are
    # included, where the two thetas disagree.
    for g in enumerate_graphs(spec):
        auts = enumerate_automorphisms(g)
        _, kernel_gens, lifts = vertex_quotient(g)
        gens = {p: Automorphism(p) for p in strong_generators([a.perm for a in auts])}
        gens.update((s.perm, s) for s in kernel_gens + lifts)
        for theta in (theta_k, theta_s):
            value = {a.perm: theta(g, a) for a in auts}
            for s in gens.values():
                for a in auts:
                    product = Automorphism(perms.compose(a.perm, s.perm))
                    assert theta(g, product) == value[a.perm] * value[s.perm]


def literal_sweep(spec):
    """The sweep with every automorphism evaluated: injected thetas are
    never taken to be homomorphisms."""
    return sweep_theorem(spec, lambda g, a: theta_k(g, a), lambda g, a: theta_s(g, a))


@pytest.mark.parametrize("spec, digests", [
    (CorpusSpec(5), {"json": "cd0035866740eeffaa95930de03bbb84b42a91ce67a5de1139c3631b7b0dfc86",
                     "csv": "fd74591e5e35d46cfa37f5ef7bd5f9a15c91d940d89b277729f5d419e56f57f5"}),
    (CorpusSpec(5, allow_loops=False),
     {"json": "e880eae153b85b1753bea770cb1047d8d3fe69b93749ce44f8552276b9177a8d"}),
    (CorpusSpec(6, allow_loops=False),
     {"json": "ed6ec523cf06dc4dd9ba616617674ef125383b7339e23dace820c8c8751599f7"}),
    (CorpusSpec(5, connected_only=False),
     {"json": "48af2b2a65291723c1495d1b15394e0e7f4ec85c7002a76e3d013d298d7a8904"}),
], ids=["e5", "e5-no-loops", "e6-no-loops", "e5-disconnected"])
def test_sweep_on_generators_matches_literal_sweep(spec, digests):
    fast = sweep_theorem(spec)
    literal = literal_sweep(spec)
    for fmt in ("json", "csv"):
        assert render_report(fast, fmt) == render_report(literal, fmt)
    for fmt, digest in digests.items():
        assert hashlib.sha256(render_report(fast, fmt)).hexdigest() == digest
    if not spec.connected_only:
        # Disconnected graphs disagree, so the fallback lists violations.
        assert len(fast.violations) > 1000


def test_connected_sweep_decides_on_generators(monkeypatch):
    decide = corpus._decide
    calls = []

    def on_generators_only(g, tested, *args):
        auts = enumerate_automorphisms(g)
        assert len(tested) < len(auts), "whole automorphism group decided on a connected graph"
        calls.append(g)
        return decide(g, tested, *args)

    monkeypatch.setattr(corpus, "_decide", on_generators_only)
    assert sweep_theorem(CorpusSpec(5)).totals == {
        "graphs": 142, "automorphisms": 6706, "violations": 0}
    assert len(calls) == 142


def test_doctored_theta_is_caught():
    def theta_s_eps_flipped(g, a):
        eps = epsilon_map(g, default_arrows(g), a)
        sigma = induced_actions(g, a).vertex_perm
        return perms.sign(sigma) * prod(-x for x in eps)

    report = sweep_theorem(CorpusSpec(3), theta_s_fn=theta_s_eps_flipped)
    assert len(report.violations) >= 1
    assert report.totals["violations"] == len(report.violations)
    assert any(not row.agree for row in report.rows)


def test_write_report_is_bit_stable(tmp_path):
    report = sweep_theorem(CorpusSpec(2))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_report(report, str(a), "json")
    write_report(report, str(b), "json")
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()
    assert a.read_bytes().endswith(b"}\n")


def test_write_empty_report(tmp_path):
    report = sweep_theorem(CorpusSpec(0))
    assert report.rows == ()
    for fmt, name in (("json", "empty.json"), ("csv", "empty.csv")):
        path = tmp_path / name
        write_report(report, str(path), fmt)
        write_report(report, str(tmp_path / ("again_" + name)), fmt)
        assert path.read_bytes() == (tmp_path / ("again_" + name)).read_bytes()
    payload = report_to_dict(report)
    assert payload["totals"] == {"graphs": 0, "automorphisms": 0, "violations": 0}


def test_write_report_csv_layout(tmp_path):
    report = sweep_theorem(CorpusSpec(1))
    path = tmp_path / "report.csv"
    write_report(report, str(path), "csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "canon,v,e,b1,aut,orientable_k,orientable_s,agree"
    assert len(lines) == 1 + len(report.rows)
    assert all(line.endswith(("true", "false")) for line in lines[1:])


def test_write_report_surfaces_path_on_error(tmp_path):
    report = sweep_theorem(CorpusSpec(1))
    bad = tmp_path / "missing" / "out.json"
    with pytest.raises(ReportWriteError, match="missing"):
        write_report(report, str(bad), "json")


def test_render_rejects_unknown_format():
    report = sweep_theorem(CorpusSpec(1))
    with pytest.raises(ValueError):
        render_report(report, "xml")


def test_json_schema_keys():
    payload = report_to_dict(sweep_theorem(CorpusSpec(1)))
    assert set(payload) == {"spec", "rows", "violations", "totals"}
    assert set(payload["spec"]) == {"max_edges", "allow_loops", "connected_only", "max_half_edges"}
    for row in payload["rows"]:
        assert set(row) == {"canon", "v", "e", "b1", "aut", "orientable_k", "orientable_s", "agree"}
    assert set(payload["totals"]) == {"graphs", "automorphisms", "violations"}
