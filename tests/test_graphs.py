import gc
import hashlib
import itertools
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from orientkit import graphs as gr
from orientkit import perms
from orientkit.automorphisms import as_automorphism, induced_actions
from orientkit.corpus import CorpusSpec, enumerate_graphs
from orientkit.families import family_instances
from orientkit.graphs import (
    BadEdgeArityError,
    CoverageError,
    EmptyVertexError,
    GraphSyntaxError,
    NotAnAutomorphism,
    OddHalfEdgeCountError,
    OverlapError,
)
from orientkit.limits import CapSettingError, SizeLimitExceeded

from conftest import complete_graph, flower, graph_from_vertex_pairs, is_loop, relabel


def iso_exists_bruteforce(g1, g2):
    """Independent isomorphism oracle: try every half-edge bijection."""
    if g1.half_edge_count != g2.half_edge_count:
        return False
    edge_set = {frozenset(e) for e in g2.edges}
    vertex_set = {frozenset(v) for v in g2.vertices}
    for p in itertools.permutations(range(g1.half_edge_count)):
        if all(frozenset((p[a], p[b])) in edge_set for a, b in g1.edges) and all(
            frozenset(p[h] for h in block) in vertex_set for block in g1.vertices
        ):
            return True
    return False


class TestValidate:
    def test_minimal_examples(self, loop, single_edge):
        assert gr.validate(2, [(0, 1)], [(0, 1)]) == loop
        assert gr.validate(2, [(0, 1)], [(0,), (1,)]) == single_edge

    def test_normalization_resorts_blocks(self):
        g = gr.validate(4, [(3, 2), (1, 0)], [(3, 0), (2, 1)])
        assert g.edges == ((0, 1), (2, 3))
        assert g.vertices == ((0, 3), (1, 2))

    def test_error_cases(self):
        with pytest.raises(OddHalfEdgeCountError):
            gr.validate(3, [(0, 1)], [(0, 1, 2)])
        with pytest.raises(OddHalfEdgeCountError):
            gr.validate(-2, [], [])
        with pytest.raises(OverlapError):
            gr.validate(4, [(0, 1), (1, 2)], [(0, 1, 2, 3)])
        with pytest.raises(CoverageError):
            gr.validate(4, [(0, 1)], [(0, 1, 2, 3)])
        with pytest.raises(CoverageError):
            gr.validate(2, [(0, 5)], [(0, 1)])
        with pytest.raises(BadEdgeArityError):
            gr.validate(2, [(0, 0)], [(0, 1)])
        with pytest.raises(EmptyVertexError):
            gr.validate(2, [(0, 1)], [(), (0, 1)])

    def test_huge_declared_count_fails_fast(self):
        start = time.perf_counter()
        with pytest.raises(CoverageError, match="twice the edge count"):
            gr.parse_graph("halfedges=20000000; edges=(0 1); vertices={0 1}")
        assert time.perf_counter() - start < 0.5

    def test_missing_ids_are_truncated_in_the_message(self):
        with pytest.raises(CoverageError) as err:
            gr.validate(40, [(h, h + 1) for h in range(0, 40, 2)], [(0,)])
        assert str(err.value) == (
            "half-edges [1, 2, 3, 4, 5, 6, 7, 8] and 31 more missing from the vertex partition"
        )

    def test_non_integer_ids_and_counts_are_graph_errors(self):
        for args in ((2.9, [(0, 1.7)], [(0.2, 1)]), (2.0, [(0, 1)], [(0, 1)]),
                     ("2", [(0, 1)], [(0, 1)]), (2, [(0, 1.0)], [(0, 1)]),
                     (2, [(0, 1)], [(0, "1")]), (None, [], [])):
            with pytest.raises(gr.GraphError, match="must be an integer"):
                gr.validate(*args)

    def test_bool_ids_and_counts_are_graph_errors(self):
        # limits.integer refuses bools, though True == 1 and False == 0.
        for args in ((2, [(False, True)], [(False, True)]), (False, [], [])):
            with pytest.raises(gr.GraphError, match="must be an integer, got (False|True)"):
                gr.validate(*args)

    @given(st.integers(0, 4).flatmap(lambda e: st.tuples(
        st.sampled_from([2 * e, 2.0 * e, 2 * e + 0.5]),
        st.lists(st.lists(st.sampled_from([0, 1, 2.0, 1.5, "1"]), min_size=2, max_size=2),
                 max_size=e),
        st.lists(st.lists(st.sampled_from([0, 1, 2, 0.0, 3.5]), max_size=3), max_size=3))))
    def test_validate_never_truncates(self, raw):
        count, edges, vertices = raw
        try:
            g = gr.validate(count, edges, vertices)
        except gr.GraphError:
            return
        ids = [count, *(h for block in edges + vertices for h in block)]
        assert all(type(x) is int for x in ids)
        assert g.half_edge_count == count

    def test_empty_graph(self):
        g = gr.validate(0, [], [])
        assert g.half_edge_count == 0
        assert g.connected_components() == ()
        assert g.first_betti() == 0


class TestTextFormat:
    def test_parse_examples(self, loop, triangle):
        assert gr.parse_graph("halfedges=2; edges=(0 1); vertices={0 1}") == loop
        parsed = gr.parse_graph("halfedges=6; edges=(0 1)(2 3)(4 5); vertices={5 0}{1 2}{3 4}")
        assert parsed == triangle
        with pytest.raises(OddHalfEdgeCountError):
            gr.parse_graph("halfedges=3; edges=(0 1); vertices={0 1 2}")

    def test_whitespace_insensitive(self, loop):
        assert gr.parse_graph("  halfedges = 2 ;\n edges = ( 0 1 ) ;\n vertices = { 0 1 }") == loop

    def test_syntax_error_carries_position(self):
        with pytest.raises(GraphSyntaxError) as err:
            gr.parse_graph("halfedges=2; edges=(0 1; vertices={0 1}")
        assert err.value.line == 1
        assert err.value.column > 0
        with pytest.raises(GraphSyntaxError) as err:
            gr.parse_graph("halfedges=2;\nedges=(0 x);\nvertices={0 1}")
        assert err.value.line == 2

    def test_roundtrips(self, triangle, loop):
        for g in (triangle, loop, gr.validate(0, [], [])):
            assert gr.parse_graph(gr.format_graph(g)) == g
        assert gr.format_graph(gr.validate(0, [], [])) == "halfedges=0; edges=; vertices="

    def test_integers_are_ascii_digits_only(self):
        for text in ("halfedges=\u0662; edges=(0 1); vertices={0 1}",  # Arabic-Indic 2
                     "halfedges=\u00b2; edges=; vertices="):  # superscript 2
            with pytest.raises(GraphSyntaxError, match="expected an integer"):
                gr.parse_graph(text)

    def test_long_integer_fails_fast(self):
        start = time.perf_counter()
        for digits in (19, 5000, 10**6):
            with pytest.raises(GraphSyntaxError, match="longer than 18 digits"):
                gr.parse_graph("halfedges=" + "9" * digits + "; edges=; vertices=")
        assert time.perf_counter() - start < 0.5
        assert gr.parse_graph("halfedges=" + "0" * 18 + "; edges=; vertices=").edges == ()

    def test_format_then_parse_normalizes(self):
        text = "halfedges=4; edges=(3 2)(1 0); vertices={3 0}{2 1}"
        g = gr.parse_graph(text)
        assert gr.format_graph(g) == "halfedges=4; edges=(0 1)(2 3); vertices={0 3}{1 2}"


@st.composite
def raw_graphs(draw):
    """A random valid pairing and vertex partition, as unnormalized blocks."""
    count = 2 * draw(st.integers(0, 6))
    ids = draw(st.permutations(range(count)))
    edges = [ids[i : i + 2] for i in range(0, count, 2)]
    order = draw(st.permutations(range(count)))
    cuts = sorted(draw(st.sets(st.integers(1, count - 1)))) if count else []
    bounds = [0, *cuts, count] if count else []
    vertices = [order[a:b] for a, b in zip(bounds, bounds[1:])]
    return count, edges, draw(st.permutations(vertices))


def raw_text(count, edges, vertices, sep=""):
    pairs = sep.join(f"({a} {b})" for a, b in edges)
    blocks = sep.join("{" + " ".join(map(str, block)) + "}" for block in vertices)
    return f"halfedges={count};{sep}edges={pairs};{sep}vertices={blocks}"


@given(raw_graphs(), st.sampled_from(["", " ", "\n", " \t "]))
def test_parse_format_roundtrip_property(raw, sep):
    g = gr.validate(*raw)
    assert gr.parse_graph(raw_text(*raw, sep)) == g
    assert gr.parse_graph(gr.format_graph(g)) == g
    assert gr.format_graph(gr.parse_graph(gr.format_graph(g))) == gr.format_graph(g)


_TOKENS = ("halfedges", "edges", "vertices", "=", ";", "(", ")", "{", "}", " ", "\n",
           "0", "1", "2", "3", "17", "-1", "x", "\u00b2", "\u0662", "9" * 30)


@given(st.one_of(st.text(), st.lists(st.sampled_from(_TOKENS)).map("".join)))
@example("halfedges=\u00b2; edges=; vertices=")
@example("halfedges=" + "9" * 5000 + "; edges=; vertices=")
def test_arbitrary_text_parses_or_raises_graph_error(text):
    try:
        g = gr.parse_graph(text)
    except gr.GraphError:
        return
    assert isinstance(g, gr.Graph)


_VALID = ("halfedges=4; edges=(0 1)(2 3); vertices={0 2}{1 3}",
          "halfedges=2;\nedges=(0 1);\nvertices={0 1}\n")
_FILLERS = (" ", "\n", "\t", "(", ")", "{", "}", "(0 1)", "{0}")


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_VALID), st.sampled_from(_FILLERS), st.integers(0, 60))
@example(_VALID[0], "(0 1)", _VALID[0].index("("))  # 200,000 more edges
@example(_VALID[0], "{0}", _VALID[0].index("{"))  # 333,333 more vertices
@example(_VALID[0], "{0}", len(_VALID[0]))
@example(_VALID[1], " ", _VALID[1].index("1"))
def test_long_hostile_input_fails_fast(base, filler, at):
    # 10^6 characters of one filler anywhere in a valid graph: linear-time
    # parsing either accepts the text or raises a GraphError, quickly.
    at = min(at, len(base))
    text = base[:at] + filler * (10**6 // len(filler)) + base[at:]
    start = time.perf_counter()
    try:
        gr.parse_graph(text)
    except gr.GraphError:
        pass
    assert time.perf_counter() - start < 2.0


class TestQueries:
    def test_is_loop(self, loop, single_edge, triangle):
        assert is_loop(loop, 0)
        assert not is_loop(single_edge, 0)
        assert not any(is_loop(triangle, e) for e in range(3))
        with pytest.raises(IndexError):
            is_loop(loop, 1)

    def test_components(self, triangle):
        assert triangle.connected_components() == ((0, 1, 2),)
        disjoint = gr.validate(4, [(0, 1), (2, 3)], [(0, 1), (2,), (3,)])
        assert disjoint.connected_components() == ((0,), (1, 2))

    def test_first_betti(self, loop, single_edge, triangle):
        assert triangle.first_betti() == 1
        assert loop.first_betti() == 1
        assert single_edge.first_betti() == 0


class TestContraction:
    def test_loop_contraction_deletes(self, loop):
        result = gr.orbit_contraction(loop, perms.identity(2), 0)
        assert result.graph == gr.validate(0, [], [])
        assert result.remap == {}

    def test_triangle_edge_contracts_to_double_edge(self, triangle, double_edge):
        result = gr.orbit_contraction(triangle, perms.identity(6), 0)
        assert gr.canonical_graph(result.graph) == gr.canonical_graph(double_edge)
        assert result.remap == {2: 0, 3: 1, 4: 2, 5: 3}

    def test_double_edge_contracts_to_loop(self, double_edge, loop):
        result = gr.orbit_contraction(double_edge, perms.identity(4), 0)
        assert result.graph == loop

    def test_counting_invariants(self, corpus3):
        for g, _ in corpus3:
            for e in range(len(g.edges)):
                contracted = gr.orbit_contraction(g, perms.identity(g.half_edge_count), e).graph
                assert len(contracted.edges) == len(g.edges) - 1
                if is_loop(g, e):
                    assert contracted.first_betti() == g.first_betti() - 1
                else:
                    assert contracted.first_betti() == g.first_betti()
                    a, b = g.edges[e]
                    endpoints = set(g.vertices[g.vertex_of[a]]) | set(g.vertices[g.vertex_of[b]])
                    merged_empties = endpoints == {a, b}
                    drop = 2 if merged_empties else 1
                    assert len(contracted.vertices) == len(g.vertices) - drop

    def test_orbit_contraction_examples(self, triangle, loop, double_edge):
        rho = (2, 3, 4, 5, 0, 1)
        result = gr.orbit_contraction(triangle, rho, 0)
        assert result.graph == gr.validate(0, [], [])
        assert result.induced == ()

        result = gr.orbit_contraction(loop, (1, 0), 0)
        assert result.graph == gr.validate(0, [], [])
        assert result.induced == ()

        result = gr.orbit_contraction(double_edge, (2, 3, 0, 1), 0)
        assert result.graph == gr.validate(0, [], [])
        assert result.induced == ()

    def test_orbit_contraction_single_fixed_edge(self, triangle):
        # A reflection fixes edge 1; its orbit contraction is a plain contraction.
        refl = (5, 4, 3, 2, 1, 0)
        result = gr.orbit_contraction(triangle, refl, 1)
        plain = gr.orbit_contraction(triangle, perms.identity(6), 1).graph
        assert result.graph == plain
        assert gr.is_automorphism(result.graph, result.induced)

    def test_orbit_contraction_induced_is_automorphism(self, corpus3):
        for g, auts in corpus3:
            for a in auts:
                for e in range(len(g.edges)):
                    result = gr.orbit_contraction(g, a.perm, e)
                    assert gr.is_automorphism(result.graph, result.induced)

    def test_edge_id_out_of_range_is_a_graph_error(self, triangle):
        for e in (-1, 3):
            with pytest.raises(gr.GraphError, match=f"edge id {e} out of range"):
                gr.orbit_contraction(triangle, perms.identity(6), e)
            with pytest.raises(gr.GraphError, match=f"edge id {e} out of range"):
                gr.orbit_contraction(triangle, tuple(range(6)), e)

    def test_bool_edge_id_is_a_graph_error(self, triangle):
        with pytest.raises(gr.GraphError, match="edge id must be an integer, got True"):
            gr.orbit_contraction(triangle, perms.identity(6), True)

    def test_orbit_contraction_rejects_non_automorphism(self, triangle):
        with pytest.raises(NotAnAutomorphism):
            gr.orbit_contraction(triangle, (1, 0, 2, 3, 4, 5), 0)

    def test_orbit_contraction_equals_edge_by_edge(self, corpus3):
        # Contracting a whole orbit at once must equal contracting its
        # edges one at a time under the identity, each later edge followed
        # through the composed re-index map.
        cases = [(g, a.perm) for g, auts in corpus3 for a in auts]
        for inst in family_instances(3):
            for k in range(1, 2**inst.params.n + 1):
                cases.append((inst.graph, perms.power(inst.psi.perm, k)))
        multi_edge_with_survivors = 0
        for g, phi in cases:
            edge_perm = induced_actions(g, as_automorphism(g, phi)).edge_perm
            for e in range(len(g.edges)):
                orbit = [e]
                while edge_perm[orbit[-1]] != e:
                    orbit.append(edge_perm[orbit[-1]])
                current = g
                remap = {h: h for h in range(g.half_edge_count)}
                for f in orbit:
                    a, b = g.edges[f]
                    step = gr.orbit_contraction(
                        current,
                        perms.identity(current.half_edge_count),
                        current.edges.index((remap[a], remap[b])),
                    )
                    remap = {h: step.remap[i] for h, i in remap.items() if i in step.remap}
                    current = step.graph
                result = gr.orbit_contraction(g, phi, e)
                assert result.graph == current
                assert result.remap == remap
                if len(orbit) > 1 and result.graph.edges:
                    multi_edge_with_survivors += 1
        assert multi_edge_with_survivors > 0


def random_cubic(n, seed):
    """A simple cubic graph on n vertices from the seeded pairing model."""
    rng = random.Random(seed)
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = {tuple(sorted(points[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(pairs) == 3 * n // 2 and all(u != v for u, v in pairs):
            return graph_from_vertex_pairs(sorted(pairs), n)


def named_graphs():
    """Petersen, the cube, K_{3,3}, K_5, the 12-cycle and two random cubic
    graphs: many tied rows, and more half-edges than the default cap."""
    return [
        graph_from_vertex_pairs(
            [(i, i + 5) for i in range(5)] + [(i, (i + 1) % 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)], 10),
        graph_from_vertex_pairs(
            [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b], 8),
        graph_from_vertex_pairs([(i, 3 + j) for i in range(3) for j in range(3)], 6),
        complete_graph(5),
        graph_from_vertex_pairs([(i, (i + 1) % 12) for i in range(12)], 12),
        random_cubic(10, "cubic/10"),
        random_cubic(12, "cubic/12"),
    ]


@pytest.mark.parametrize("spec", [
    CorpusSpec(5),
    CorpusSpec(5, allow_loops=False),
    CorpusSpec(4, connected_only=False),
], ids=["e5", "e5-no-loops", "e4-disconnected"])
def test_twin_classes_match_their_definition(spec):
    # u and v share a class iff swapping them keeps every entry of M. Each
    # corpus graph is also checked on a relabelled copy, whose classes need
    # not be runs of consecutive ids.
    rng = random.Random(f"twins/{spec}")
    for g in enumerate_graphs(spec):
        for h in (g, relabel(g, rng.sample(range(g.half_edge_count), g.half_edge_count))):
            mult = h.multiplicity
            nv = len(mult)
            classes = gr.twin_classes(mult)
            assert sorted(v for members in classes for v in members) == list(range(nv))
            assert all(list(members) == sorted(members) for members in classes)
            assert [members[0] for members in classes] == sorted(members[0] for members in classes)
            class_of = {v: i for i, members in enumerate(classes) for v in members}
            for u, v in itertools.combinations(range(nv), 2):
                swap = list(range(nv))
                swap[u], swap[v] = v, u
                keeps = all(mult[swap[x]][swap[y]] == mult[x][y]
                            for x in range(nv) for y in range(nv))
                assert (class_of[u] == class_of[v]) == keeps


class TestCanonicalForm:
    def test_relabeling_invariance(self, triangle, corpus3):
        rng = random.Random(411)
        for g, _ in corpus3:
            reference = gr.canonical_graph(g)
            ids = list(range(g.half_edge_count))
            for _ in range(100):
                rng.shuffle(ids)
                assert gr.canonical_graph(relabel(g, tuple(ids))) == reference

    def test_loop_vs_single_edge(self, loop, single_edge):
        assert gr.canonical_graph(loop) != gr.canonical_graph(single_edge)

    def test_double_edge_labelings_match_bruteforce(self, double_edge):
        other = gr.validate(4, [(0, 2), (1, 3)], [(0, 1), (2, 3)])
        assert iso_exists_bruteforce(double_edge, other)
        assert gr.canonical_graph(double_edge) == gr.canonical_graph(other)

    def test_agrees_with_bruteforce_on_two_edge_graphs(self):
        graphs = list(enumerate_graphs(CorpusSpec(2, connected_only=False)))
        for g1 in graphs:
            for g2 in graphs:
                assert (gr.canonical_graph(g1) == gr.canonical_graph(g2)) == iso_exists_bruteforce(g1, g2)

    def test_canonical_graph_is_fixed_point(self, corpus3):
        for g, _ in corpus3:
            rep = gr.canonical_graph(g)
            assert gr.canonical_graph(rep) == rep

    def test_built_graphs_are_normalized_with_their_multiplicity(self, relabelled_shapes):
        # canonical_graph builds its graph without validate, and the corpus keeps those graphs.
        # _one_edge_more grows its children from each corpus graph without validate, and
        # carries the parent's multiplicity over instead of counting it again.
        from orientkit.corpus import _one_edge_more

        graphs = [gr.canonical_graph(g, g.half_edge_count) for g in relabelled_shapes]
        for spec in (CorpusSpec(5), CorpusSpec(4, connected_only=False),
                     CorpusSpec(5, allow_loops=False)):
            graphs += enumerate_graphs(spec)
        for spec in (CorpusSpec(5), CorpusSpec(5, allow_loops=False),
                     CorpusSpec(3, connected_only=False)):
            graphs += (h for g in enumerate_graphs(spec) for h in _one_edge_more(g, spec))
        shared = {}  # every edge-paired graph with m edges holds the same edges tuple
        for g in graphs:
            assert shared.setdefault(len(g.edges), g.edges) is g.edges
            assert g == gr.validate(g.half_edge_count, g.edges, g.vertices)
            blocks = [set(block) for block in g.vertices]
            assert g.multiplicity == tuple(tuple(
                sum((a in bu and b in bv) + (b in bu and a in bv) for a, b in g.edges)
                for bv in blocks) for bu in blocks)
            assert [g.multiplicity[v][v] // 2 for v in range(len(blocks))] == [
                sum(1 for a, b in g.edges if a in block and b in block) for block in blocks]

    def test_canonical_forms_are_pinned(self, relabelled_shapes):
        # Pins the labelling itself, so that a faster search must reach the same minimum.
        rng = random.Random(1414)
        graphs = list(relabelled_shapes)
        for g in named_graphs():
            ids = list(range(g.half_edge_count))
            rng.shuffle(ids)
            graphs += [g, relabel(g, ids)]
        forms = [gr.format_graph(gr.canonical_graph(g, g.half_edge_count)) for g in graphs]
        assert forms[-14::2] == forms[-13::2]  # each named graph and its relabelled copy
        assert (hashlib.sha256("\n".join(forms).encode()).hexdigest()
                == "8426435112d8fe9e1211361a8040751221a492f8c8eaa9e9411ca4931d1d7825")

    def test_canonical_graph_leaves_no_reference_cycle(self, triangle):
        # A cycle would keep the search state alive until a full collection.
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            gr.canonical_graph(triangle)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_identical_components_stay_cheap(self):
        # Seven disjoint edges, 14 half-edges inside the default cap: seven twin pairs
        # whose rows all tie, each pair also tied with every other.
        g = gr.validate(14, [(h, h + 1) for h in range(0, 14, 2)], [(h,) for h in range(14)])
        start = time.perf_counter()
        form = gr.format_graph(gr.canonical_graph(g))
        assert time.perf_counter() - start < 2.0
        assert form == ("halfedges=14; edges=(0 1)(2 3)(4 5)(6 7)(8 9)(10 11)(12 13); "
                        "vertices={0}{1}{2}{3}{4}{5}{6}{7}{8}{9}{10}{11}{12}{13}")
        ids = list(range(14))
        random.Random(15).shuffle(ids)
        assert gr.format_graph(gr.canonical_graph(relabel(g, ids))) == form

    def test_size_limit(self):
        big = flower(8)  # 16 half-edges, over the default cap of 14
        with pytest.raises(SizeLimitExceeded):
            gr.canonical_graph(big)
        assert gr.canonical_graph(big, max_half_edges=16).half_edge_count == 16

    @pytest.mark.parametrize("setting", ["\u0661\u0664", "1_4", " 14"])
    def test_cap_setting_takes_ascii_digits_only(self, monkeypatch, setting):
        # int() reads all three as 14; the graph grammar accepts none of them.
        monkeypatch.setenv("ORIENTKIT_MAX_HALFEDGES", setting)
        with pytest.raises(CapSettingError, match="must be an integer >= 0"):
            gr.canonical_graph(flower(1))

    def test_env_override(self, monkeypatch):
        big = flower(8)
        monkeypatch.setenv("ORIENTKIT_MAX_HALFEDGES", "16")
        assert gr.canonical_graph(big).half_edge_count == 16
        monkeypatch.setenv("ORIENTKIT_MAX_HALFEDGES", "10")
        with pytest.raises(SizeLimitExceeded):
            gr.canonical_graph(flower(6))


def test_cap_setting_must_be_an_integer(monkeypatch):
    from orientkit.limits import CapSettingError

    monkeypatch.setenv("ORIENTKIT_MAX_HALFEDGES", "abc")
    with pytest.raises(CapSettingError, match="ORIENTKIT_MAX_HALFEDGES"):
        gr.canonical_graph(flower(1))


@pytest.mark.parametrize("setting", ["-5", "-1"])
def test_cap_setting_must_not_be_negative(monkeypatch, setting):
    from orientkit.limits import CapSettingError

    monkeypatch.setenv("ORIENTKIT_MAX_HALFEDGES", setting)
    with pytest.raises(CapSettingError, match="ORIENTKIT_MAX_HALFEDGES must be an integer >= 0"):
        gr.canonical_graph(flower(1))


def test_helper_builders():
    k4 = complete_graph(4)
    assert len(k4.edges) == 6
    assert len(k4.vertices) == 4
    assert all(not is_loop(k4, e) for e in range(6))
    f3 = flower(3)
    assert len(f3.vertices) == 1
    assert all(is_loop(f3, e) for e in range(3))
    path = graph_from_vertex_pairs([(0, 1), (1, 2)], 3)
    assert path.first_betti() == 0
