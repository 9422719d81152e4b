import pytest

from orientkit import perms
from orientkit.automorphisms import Automorphism, as_automorphism, induced_actions
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
from orientkit.graphs import is_isomorphic
from orientkit.limits import MAX_FAMILY_N, SizeLimitExceeded
from orientkit.orientation import theta_k, theta_s


class TestFamilyI:
    def test_smallest_is_the_loop(self, loop):
        inst = build_family(FamilyParams(Family.I, 0, 0))
        assert inst.graph == loop
        assert inst.psi.perm == (1, 0)

    def test_one_vertex_two_loops(self):
        inst = build_family(FamilyParams(Family.I, 1, 0))
        assert len(inst.graph.vertices) == 1
        assert len(inst.graph.edges) == 2
        assert all(inst.graph.is_loop(e) for e in range(2))
        assert perms.cycle_lengths(inst.psi.perm) == [4]

    def test_two_vertices_two_loops_each(self):
        inst = build_family(FamilyParams(Family.I, 2, 1))
        assert len(inst.graph.vertices) == 2
        assert all(inst.graph.is_loop(e) for e in range(4))
        assert all(inst.graph.loop_count(v) == 2 for v in range(2))

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
        assert is_isomorphic(inst.graph, double_edge)
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
        assert not any(inst.graph.is_loop(e) for e in range(4))

    def test_loop_free_always(self):
        for n in range(4):
            for c in range(n + 1):
                for m in range(n - c + 1):
                    inst = build_family(FamilyParams(Family.II, n, c, m))
                    assert not any(inst.graph.is_loop(e) for e in range(2**n))

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            build_family(FamilyParams(Family.II, 1, 1, 1))


class TestFamilyIII:
    def test_two_loops_one_vertex(self):
        inst = build_family(FamilyParams(Family.III, 1, 0, 0))
        assert len(inst.graph.vertices) == 1
        assert all(inst.graph.is_loop(e) for e in range(2))
        # contrast with family I at the same size: psi splits into two 2-cycles
        assert perms.cycle_lengths(inst.psi.perm) == [2, 2]
        edge_perm = induced_actions(inst.graph, inst.psi).edge_perm
        assert perms.power(edge_perm, 2) == perms.identity(2)

    def test_four_cycle(self):
        inst = build_family(FamilyParams(Family.III, 2, 0, 2))
        g = inst.graph
        assert len(g.vertices) == 4
        assert len(g.edges) == 4
        assert not any(g.is_loop(e) for e in range(4))
        assert g.first_betti() == 1
        assert perms.cycle_lengths(induced_actions(g, inst.psi).vertex_perm) == [4]

    def test_one_loop_per_vertex(self):
        inst = build_family(FamilyParams(Family.III, 1, 1, 0))
        assert len(inst.graph.vertices) == 2
        assert all(inst.graph.loop_count(v) == 1 for v in range(2))

    def test_loopy_iff_m_zero(self):
        for n in range(1, 4):
            for c in range(n + 1):
                for m in range(n - c + 1):
                    inst = build_family(FamilyParams(Family.III, n, c, m))
                    has_loops = any(inst.graph.is_loop(e) for e in range(2**n))
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
        Automorphism(triangle, perms.identity(6)),
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
