import dataclasses
import itertools
from math import prod

import pytest

import orientkit.families
import orientkit.graphs
from orientkit import perms
from orientkit.automorphisms import (
    Automorphism,
    as_automorphism,
    enumerate_automorphisms,
    induced_actions,
)
from orientkit.corpus import CorpusSpec, enumerate_graphs, sweep_theorem
from orientkit.families import (
    Family,
    FamilyInstance,
    FamilyParams,
    build_family,
    eq1_check,
    family_instances,
    proof_case_values,
    verify_family,
)
from orientkit.graphs import canonical_graph, format_graph
from orientkit.limits import MAX_FAMILY_N, SizeLimitExceeded
from orientkit.orientation import default_arrows, epsilon_map, theta_k, theta_s

from conftest import is_loop


class TestFamilyI:
    def test_smallest_is_the_loop(self, loop):
        inst = build_family(FamilyParams(Family.I, 0, 0))
        assert inst.graph == loop
        assert inst.psi.perm == (1, 0)

    def test_one_vertex_two_loops(self):
        inst = build_family(FamilyParams(Family.I, 1, 0))
        assert len(inst.graph.vertices) == 1
        assert len(inst.graph.edges) == 2
        assert all(is_loop(inst.graph, e) for e in range(2))
        assert perms.cycle_lengths(inst.psi.perm) == [4]

    def test_two_vertices_two_loops_each(self):
        inst = build_family(FamilyParams(Family.I, 2, 1))
        assert len(inst.graph.vertices) == 2
        assert all(is_loop(inst.graph, e) for e in range(4))
        assert all(inst.graph.multiplicity[v][v] // 2 == 2 for v in range(2))

    def test_half_edge_transitive(self):
        for n in range(4):
            for c in range(n + 1):
                inst = build_family(FamilyParams(Family.I, n, c))
                assert perms.cycle_lengths(inst.psi.perm) == [inst.graph.half_edge_count]

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            build_family(FamilyParams(Family.I, 1, 2))
        with pytest.raises(ValueError):
            build_family(FamilyParams(Family.I, -1, 0))
        with pytest.raises(ValueError):
            build_family(FamilyParams(Family.I, 2, 0, 1))


class TestFamilyII:
    def test_smallest_is_the_double_edge(self, double_edge):
        inst = build_family(FamilyParams(Family.II, 1, 0, 0))
        assert canonical_graph(inst.graph) == canonical_graph(double_edge)
        assert induced_actions(inst.graph, inst.psi).edge_perm == (1, 0)

    def test_path_shape(self):
        inst = build_family(FamilyParams(Family.II, 1, 0, 1))
        sizes = sorted(len(b) for b in inst.graph.vertices)
        assert sizes == [1, 1, 2]
        assert inst.graph.first_betti() == 0

    def test_mixed_parameters(self):
        inst = build_family(FamilyParams(Family.II, 2, 1, 1))
        assert len(inst.graph.edges) == 4
        sizes = sorted(len(b) for b in inst.graph.vertices)
        assert sizes == [1, 1, 1, 1, 2, 2]
        assert not any(is_loop(inst.graph, e) for e in range(4))

    def test_loop_free_always(self):
        for n in range(4):
            for c in range(n + 1):
                for m in range(n - c + 1):
                    inst = build_family(FamilyParams(Family.II, n, c, m))
                    assert not any(is_loop(inst.graph, e) for e in range(2**n))

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            build_family(FamilyParams(Family.II, 1, 1, 1))


class TestFamilyIII:
    def test_two_loops_one_vertex(self):
        inst = build_family(FamilyParams(Family.III, 1, 0, 0))
        assert len(inst.graph.vertices) == 1
        assert all(is_loop(inst.graph, e) for e in range(2))
        # contrast with family I at the same size: psi splits into two 2-cycles
        assert perms.cycle_lengths(inst.psi.perm) == [2, 2]
        edge_perm = induced_actions(inst.graph, inst.psi).edge_perm
        assert perms.power(edge_perm, 2) == perms.identity(2)

    def test_four_cycle(self):
        inst = build_family(FamilyParams(Family.III, 2, 0, 2))
        g = inst.graph
        assert len(g.vertices) == 4
        assert len(g.edges) == 4
        assert not any(is_loop(g, e) for e in range(4))
        assert g.first_betti() == 1
        assert perms.cycle_lengths(induced_actions(g, inst.psi).vertex_perm) == [4]

    def test_one_loop_per_vertex(self):
        inst = build_family(FamilyParams(Family.III, 1, 1, 0))
        assert len(inst.graph.vertices) == 2
        assert all(inst.graph.multiplicity[v][v] // 2 == 1 for v in range(2))

    def test_loopy_iff_m_zero(self):
        for n in range(1, 4):
            for c in range(n + 1):
                for m in range(n - c + 1):
                    inst = build_family(FamilyParams(Family.III, n, c, m))
                    has_loops = any(is_loop(inst.graph, e) for e in range(2**n))
                    assert has_loops == (m == 0)

    def test_two_half_edge_orbit_classes_when_loopy(self):
        for n in range(1, 4):
            for c in range(n + 1):
                inst = build_family(FamilyParams(Family.III, n, c, 0))
                assert len(perms.cycles(inst.psi.perm)) == 2


def test_unknown_family_is_rejected():
    with pytest.raises(ValueError):
        build_family(FamilyParams("IV", 1))


@pytest.mark.parametrize("params", [
    FamilyParams(Family.I, 1.5),
    FamilyParams(Family.I, True),
    FamilyParams(Family.II, 2, False),
    FamilyParams(Family.III, 2, 0, "1"),
    FamilyParams(Family.III, None),
], ids=["float", "bool-n", "bool-c", "str-m", "none"])
def test_non_integer_parameters_are_rejected(params):
    with pytest.raises(ValueError, match="must be integers"):
        build_family(params)


def test_parameters_are_read_as_integers():
    class Index:
        def __index__(self):
            return 2

    inst = build_family(FamilyParams(Family.III, Index(), 0, Index()))
    assert inst.params == FamilyParams(Family.III, 2, 0, 2)
    assert type(inst.params.n) is int


def test_family_n_is_bounded_before_building():
    # 2**(10**17) is never computed: the bound is checked first.
    with pytest.raises(SizeLimitExceeded, match=f"n <= {MAX_FAMILY_N}, got n={10**17}$"):
        build_family(FamilyParams(Family.III, 10**17))
    assert build_family(FamilyParams(Family.III, MAX_FAMILY_N)).graph.half_edge_count == 2**13
    instances = family_instances(MAX_FAMILY_N + 1)
    with pytest.raises(SizeLimitExceeded):
        next(instances)


def test_family_value_builds_its_member():
    inst = build_family(FamilyParams("II", 1, 0, 0))
    assert inst == build_family(FamilyParams(Family.II, 1, 0, 0))
    assert inst.params.family is Family.II


def test_family_instances_read_values_as_members():
    by_value = list(family_instances(2, ("I",)))
    assert by_value == list(family_instances(2, (Family.I,)))
    assert all(inst.params.family is Family.I for inst in by_value)


def test_verify_family_passes_exhaustively():
    for inst in family_instances(4):
        assert verify_family(inst) == []


def test_verify_family_catches_non_transitive(triangle):
    bogus = FamilyInstance(
        triangle,
        Automorphism(perms.identity(6)),
        FamilyParams(Family.I, 1, 0),
    )
    failures = verify_family(bogus)
    assert any("cycle" in msg for msg in failures)


class TestEq1:
    def test_two_loop_instance(self):
        inst = build_family(FamilyParams(Family.III, 1, 0, 0))
        result = eq1_check(inst.graph, inst.psi, 0)
        assert result.equal
        assert (result.lhs, result.rhs) == (1, 1)

    def test_identity_automorphism(self, triangle):
        ident = as_automorphism(triangle, perms.identity(6))
        result = eq1_check(triangle, ident, 0)
        assert result.equal
        assert result.lhs == result.rhs == 1

    def test_triangle_rotation(self, triangle):
        rho = as_automorphism(triangle, (2, 3, 4, 5, 0, 1))
        result = eq1_check(triangle, rho, 0)
        assert result.equal

    def test_all_small_instances_all_powers(self):
        for inst in family_instances(2):
            g = inst.graph
            for k in range(1, 2**inst.params.n + 1):
                phi = as_automorphism(g, perms.power(inst.psi.perm, k))
                for e in range(len(g.edges)):
                    assert eq1_check(g, phi, e).equal


def corpus_triples(spec):
    """(g, a, e) for every graph g of ``spec``, automorphism a of g and edge e of g."""
    for g in enumerate_graphs(spec):
        for a in enumerate_automorphisms(g):
            for e in range(len(g.edges)):
                yield g, a, e


def contraction_chain(g, perm):
    """Contract the orbit of edge 0 until no edge is left, and multiply the
    dropped parities; no theta is evaluated."""
    product = 1
    while g.edges:
        step = orientkit.graphs.orbit_contraction(g, perm, 0)
        g, perm, product = step.graph, step.induced, product * step.dropped_parity
    return product


def chain_violations(spec):
    """(canon, perm) for each automorphism of a graph of ``spec`` whose chain is -1."""
    return {(format_graph(g), a.perm) for g in enumerate_graphs(spec)
            for a in enumerate_automorphisms(g) if contraction_chain(g, a.perm) == -1}


DISCONNECTED_E4 = CorpusSpec(4, connected_only=False)


class TestContractionOracle:
    """The paper's contraction method as a second oracle on the corpus: eq1 on
    every (graph, automorphism, edge) triple, and the chain of contractions,
    which needs no theta, against the sweep's violations. On a connected graph
    a class drops only at the last step, as one class with parity +1, so there
    the chain says +1 by construction and eq1 carries the check."""

    @pytest.mark.parametrize("spec, count", [(CorpusSpec(4), 3054), (DISCONNECTED_E4, 11718)],
                             ids=["e4", "e4-disconnected"])
    def test_eq1_holds_on_every_corpus_triple(self, spec, count):
        equal = [eq1_check(g, a, e).equal for g, a, e in corpus_triples(spec)]
        assert len(equal) == count
        assert all(equal)

    def test_chain_is_minus_one_on_exactly_the_violations(self):
        violations = {(v.canon, v.perm) for v in sweep_theorem(DISCONNECTED_E4).violations}
        assert len(violations) == 800
        assert chain_violations(DISCONNECTED_E4) == violations

    def test_eq1_catches_one_flipped_epsilon(self, monkeypatch):
        def theta_s_first_flipped(g, a):  # the epsilon of edge 0 negated
            eps = epsilon_map(g, default_arrows(g), a)
            return perms.sign(induced_actions(g, a).vertex_perm) * prod(eps) * (-1 if eps else 1)

        monkeypatch.setattr(orientkit.families, "theta_s", theta_s_first_flipped)
        assert not all(eq1_check(g, a, e).equal for g, a, e in corpus_triples(CorpusSpec(4)))

    def test_both_checks_catch_a_lost_parity(self, monkeypatch):
        real = orientkit.graphs.orbit_contraction

        def parity_lost(g, phi, e):
            return dataclasses.replace(real(g, phi, e), dropped_parity=1)

        monkeypatch.setattr(orientkit.graphs, "orbit_contraction", parity_lost)
        monkeypatch.setattr(orientkit.families, "orbit_contraction", parity_lost)
        assert chain_violations(DISCONNECTED_E4) == set()
        assert not all(eq1_check(g, a, e).equal for g, a, e in corpus_triples(DISCONNECTED_E4))


class TestProofCaseValues:
    def test_reported_signs(self):
        for n in (1, 2, 3):
            values = proof_case_values(n)
            assert values.sign_pi == -1
            assert values.det_sign_a == -1
            assert values.eps_product == 1
            assert values.sigma_ratio == 1

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            proof_case_values(0)

    def test_theta_contrast_between_families(self):
        # Same underlying graph, different psi: the single 4-cycle of family I
        # evaluates to -1, the split shift of family III to +1.
        one = build_family(FamilyParams(Family.I, 1, 0))
        three = build_family(FamilyParams(Family.III, 1, 0, 0))
        assert one.graph == three.graph
        assert theta_k(one.graph, one.psi) == theta_s(one.graph, one.psi) == -1
        assert theta_k(three.graph, three.psi) == theta_s(three.graph, three.psi) == 1


def test_instance_counts_by_n():
    by_n = {}
    for inst in family_instances(3):
        by_n.setdefault(inst.params.n, []).append(inst)
    # I has n+1 choices of c; II and III have (n+1)(n+2)/2 choices of (c, m).
    assert len(by_n[0]) == 1 + 1 + 1
    assert len(by_n[1]) == 2 + 3 + 3
    assert len(by_n[2]) == 3 + 6 + 6
    assert len(by_n[3]) == 4 + 10 + 10


def _pair_classes(n):
    """(classes, graphs): classes maps each (canon, psi), g a corpus graph with 2**n edges
    and psi an automorphism whose edge action is one 2**n-cycle, to its class up to
    conjugation in Aut(g) and odd powers of psi, keyed (canon, least psi in the class);
    graphs maps canon to g."""
    classes, graphs = {}, {}
    for g in enumerate_graphs(CorpusSpec(2**n, connected_only=False)):
        if len(g.edges) != 2**n:
            continue
        canon = format_graph(g)
        graphs[canon] = g
        auts = [a.perm for a in enumerate_automorphisms(g)]
        for psi in auts:
            edge_perm = induced_actions(g, Automorphism(psi)).edge_perm
            if perms.cycle_lengths(edge_perm) != [2**n] or (canon, psi) in classes:
                continue
            # psi**(2**n) fixes every edge, so the order of psi divides 2**(n+1).
            orbit = {perms.compose(perms.compose(a, perms.power(psi, k)), perms.inverse(a))
                     for a in auts for k in range(1, 2 ** (n + 1), 2)}
            classes.update(dict.fromkeys(((canon, p) for p in orbit), (canon, min(orbit))))
    return classes, graphs


def _isomorphism(g1, g2):
    """A half-edge bijection carrying g1 onto g2, by brute force over the maps that carry
    edges to edges."""
    vertex_set = {frozenset(block) for block in g2.vertices}
    for targets in itertools.permutations(g2.edges):
        for flips in itertools.product((False, True), repeat=len(targets)):
            img = [0] * g1.half_edge_count
            for (a, b), (c, d), flip in zip(g1.edges, targets, flips):
                img[a], img[b] = (d, c) if flip else (c, d)
            if all(frozenset(img[h] for h in block) in vertex_set for block in g1.vertices):
                return tuple(img)
    raise AssertionError("not isomorphic")


@pytest.mark.parametrize("n, counts, left_over", [
    (0, (4, 3, 4, 3), ("halfedges=2; edges=(0 1); vertices={0}{1}", (1, 0), 1, 1)),
    (1, (9, 8, 5, 5), ("halfedges=4; edges=(0 1)(2 3); vertices={0}{1}{2}{3}", (2, 3, 1, 0), -1, 1)),
    (2, (16, 15, 7, 7), ("halfedges=8; edges=(0 1)(2 3)(4 5)(6 7); vertices={0}{1}{2}{3}{4}{5}{6}{7}",
                         (2, 3, 4, 5, 6, 7, 1, 0), -1, 1)),
])
def test_families_against_the_corpus(n, counts, left_over):
    # counts: (pair classes, classes hit by a family, connected classes, connected ones hit);
    # left_over: the one class no family hits, as (canon, psi, theta_k, theta_s).
    classes, graphs = _pair_classes(n)
    hit = set()
    for inst in family_instances(n):
        if inst.params.n == n:
            rep = canonical_graph(inst.graph)
            f = _isomorphism(inst.graph, rep)
            hit.add(classes[format_graph(rep),
                            perms.compose(perms.compose(f, inst.psi.perm), perms.inverse(f))])
    keys = set(classes.values())
    connected = {key for key in keys if graphs[key[0]].is_connected()}
    assert (len(keys), len(hit), len(connected), len(connected & hit)) == counts
    [(canon, psi)] = keys - hit
    a = as_automorphism(graphs[canon], psi)
    assert (canon, psi, theta_k(graphs[canon], a), theta_s(graphs[canon], a)) == left_over
