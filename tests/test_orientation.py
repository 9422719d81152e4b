import hashlib
import itertools
import random
from fractions import Fraction
from math import factorial, prod

import pytest

import orientkit.orientation
from orientkit import CorpusSpec, enumerate_graphs, perms
from orientkit.automorphisms import (
    as_automorphism,
    enumerate_automorphisms,
    induced_actions,
    vertex_quotient,
)
from orientkit.cli import cli_main
from orientkit.graphs import format_graph, merge_classes, spanning_forest, validate
from orientkit.orientation import (
    SingularBasisError,
    ThetaHom,
    Verdict,
    cycle_basis,
    default_arrows,
    det_sign,
    epsilon_map,
    fixes_every_vertex,
    induced_cycle_matrix,
    or_orbits_bruteforce,
    orientability,
    random_arrows,
    theta_k,
    theta_parity,
    theta_s,
)

from conftest import (
    complete_graph,
    flower,
    graph_from_vertex_pairs,
    random_images,
    relabel,
    relabelled_copy,
)


def det_bruteforce(matrix):
    """Independent determinant oracle: signed permutation expansion."""
    n = len(matrix)
    total = 0
    for p in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j]
        )
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= matrix[i][p[i]]
        total += term
    return total


def signed_edge_matrix(g, arrows, a):
    """Literal |E| x |E| signed permutation matrix of the edge action.

    Entry [image edge, source edge] is the arrow-agreement sign at the
    image; its determinant equals sign(edge action) times the product of
    the epsilon signs.
    """
    ne = len(g.edges)
    eps = epsilon_map(g, arrows, a)
    rows = [[0] * ne for _ in range(ne)]
    for f in range(ne):
        image = g.edge_of[a.perm[arrows[f]]]  # the edge that f's arrow tail moves onto
        rows[image][f] = eps[image]
    return rows


def or_orbits_union_find(g, theta):
    """Literal orbit oracle: one union-find link from every (tau, eps) pair
    to its image under every automorphism, |Aut| * 2 * |V|! links in all."""
    nv = len(g.vertices)
    actions = [
        (perms.inverse(induced_actions(g, a).vertex_perm), theta(g, a))
        for a in enumerate_automorphisms(g)
    ]
    taus = list(itertools.permutations(range(1, nv + 1)))
    pairs = [(tau, eps) for tau in taus for eps in (1, -1)]
    index = {pair: i for i, pair in enumerate(pairs)}
    root = merge_classes(
        len(pairs),
        (
            (index[(tau, eps)], index[(tuple([tau[v] for v in inv]), value * eps)])
            for inv, value in actions
            for tau, eps in pairs
        ),
    )
    orbits = {}
    for r, pair in zip(root, pairs):
        orbits.setdefault(r, []).append(pair)
    orbit_list = tuple(tuple(sorted(members)) for _, members in sorted(orbits.items()))
    z2_free = True
    for members in orbit_list:
        member_set = set(members)
        if any((tau, -eps) in member_set for tau, eps in members):
            z2_free = False
            break
    return len(orbit_list), z2_free, orbit_list


def matmul(x, y):
    return [[sum(x[i][t] * y[t][j] for t in range(len(y))) for j in range(len(y[0]))]
            for i in range(len(x))]


def incidence_boundary(g, arrows, column):
    """Net flow of a cycle column at each vertex; must vanish everywhere."""
    flow = [0] * len(g.vertices)
    for e, coeff in enumerate(column):
        tail = arrows[e]
        head = g.partner[tail]
        flow[g.vertex_of[tail]] -= coeff
        flow[g.vertex_of[head]] += coeff
    return flow


def column_rank(matrix):
    rows = [[Fraction(x) for x in row] for row in matrix]
    cols = len(rows[0]) if rows else 0
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class TestArrowsAndEpsilon:
    def test_default_arrows(self, loop, triangle):
        assert default_arrows(loop) == (0,)
        assert default_arrows(triangle) == (0, 2, 4)
        assert default_arrows(validate(0, [], [])) == ()

    def test_epsilon_examples(self, loop, triangle):
        rho = as_automorphism(triangle, (2, 3, 4, 5, 0, 1))
        assert epsilon_map(triangle, default_arrows(triangle), rho) == (1, 1, 1)
        refl = as_automorphism(triangle, (5, 4, 3, 2, 1, 0))
        assert epsilon_map(triangle, default_arrows(triangle), refl) == (-1, -1, -1)
        swap = as_automorphism(loop, (1, 0))
        assert epsilon_map(loop, default_arrows(loop), swap) == (-1,)
        ident = as_automorphism(triangle, perms.identity(6))
        assert epsilon_map(triangle, default_arrows(triangle), ident) == (1, 1, 1)

    @pytest.mark.parametrize("arrows", [(1, 1, 1), (0, 2, 0), (0, 2, 4, 1), (0, 2), (0, 2, 99)])
    def test_malformed_arrows_are_rejected(self, triangle, arrows):
        # Tails off their edge, too many and too few: otherwise a wrong sign,
        # an IndexError or a silent answer.
        for a in enumerate_automorphisms(triangle):
            for call in (lambda: theta_s(triangle, a, arrows),
                         lambda: epsilon_map(triangle, arrows, a)):
                with pytest.raises(ValueError, match="one half-edge of each edge"):
                    call()

    def test_ids_that_are_not_integers_are_rejected(self, double_edge):
        # 0.0 == 0 and True == 1, but neither is an id: otherwise a TypeError from
        # indexing, or a sign computed from bools.
        g = double_edge
        a = as_automorphism(g, (1, 0, 3, 2))
        for arrows in ((0.0, 2.0), (False, 2)):
            for call in (lambda: theta_s(g, a, arrows), lambda: epsilon_map(g, arrows, a)):
                with pytest.raises(ValueError, match="integer ids"):
                    call()


class TestThetaS:
    def test_examples(self, loop, triangle, double_edge):
        assert theta_s(loop, as_automorphism(loop, (1, 0))) == -1
        assert theta_s(triangle, as_automorphism(triangle, (5, 4, 3, 2, 1, 0))) == 1
        assert theta_s(double_edge, as_automorphism(double_edge, (1, 0, 3, 2))) == -1

    def test_arrangement_invariance_exhaustive(self, corpus3):
        for g, auts in corpus3:
            for a in auts:
                reference = theta_s(g, a)
                for tails in itertools.product(*g.edges):
                    assert theta_s(g, a, tails) == reference


class TestCycleBasis:
    def test_shapes_and_values(self, loop, single_edge, triangle, double_edge):
        assert cycle_basis(single_edge) == ((),)
        assert cycle_basis(loop) == ((1,),)
        assert cycle_basis(triangle) == ((1,), (1,), (1,))
        assert cycle_basis(double_edge) == ((-1,), (1,))

    def test_basis_is_cached_once_per_graph(self):
        # theta_k on all 3840 automorphisms of the 5-loop flower builds one basis.
        cycle_basis.cache_clear()
        orientability(flower(5), ThetaHom.KONTSEVICH)
        info = cycle_basis.cache_info()
        assert (info.misses, info.hits) == (1, 3839)

    def test_nontree_rows_are_unit_vectors(self):
        # Row nontree[j] of the basis is e_j, so cycle coordinates can be read off
        # those rows. Relabelled copies root the forest and point the arrows otherwise.
        rng = random.Random(1717)
        graphs = [*enumerate_graphs(CorpusSpec(6)),
                  *enumerate_graphs(CorpusSpec(5, connected_only=False))]
        cases = 0
        for base in graphs:
            for g in (base, *(relabel(base, random_images(base.half_edge_count, rng))
                              for _ in range(3))):
                via = spanning_forest(g)[1]
                nontree = sorted(set(range(len(g.edges))).difference(via))
                basis = cycle_basis(g)
                for j, e in enumerate(nontree):
                    assert basis[e] == tuple(int(i == j) for i in range(len(nontree)))
                cases += 1
        assert cases == 3424

    def test_columns_are_cycles_of_full_rank(self, corpus3):
        rng = random.Random(1718)
        for base, _ in corpus3:
            for g in (base, *(relabel(base, random_images(base.half_edge_count, rng))
                              for _ in range(5))):
                basis = cycle_basis(g)
                k = len(basis[0]) if basis else 0
                assert k == g.first_betti()
                for j in range(k):
                    column = [basis[i][j] for i in range(len(g.edges))]
                    assert incidence_boundary(g, default_arrows(g), column) == [0] * len(g.vertices)
                if k:
                    assert column_rank(basis) == k


class TestInducedCycleMatrix:
    def test_examples(self, triangle, double_edge):
        ident = as_automorphism(triangle, perms.identity(6))
        assert induced_cycle_matrix(triangle, ident) == ((1,),)
        refl = as_automorphism(triangle, (5, 4, 3, 2, 1, 0))
        assert induced_cycle_matrix(triangle, refl) == ((-1,),)
        edge_swap = as_automorphism(double_edge, (2, 3, 0, 1))
        assert induced_cycle_matrix(double_edge, edge_swap) == ((-1,),)

    def test_identity_gives_identity_matrix(self, corpus3):
        for g, _ in corpus3:
            ident = as_automorphism(g, perms.identity(g.half_edge_count))
            k = g.first_betti()
            expected = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
            assert induced_cycle_matrix(g, ident) == expected

    def test_moves_basis_like_signed_edge_matrix(self, corpus3):
        # basis has full column rank, so basis @ X == S @ basis pins X.
        rng = random.Random(5)
        for base, base_auts in corpus3:
            if not base.first_betti():
                continue
            copies = [(base, base_auts)] + [
                relabelled_copy(base, base_auts, random_images(base.half_edge_count, rng))
                for _ in range(5)]
            for g, auts in copies:
                basis = cycle_basis(g)
                for a in auts:
                    x = induced_cycle_matrix(g, a)
                    s = signed_edge_matrix(g, default_arrows(g), a)
                    assert matmul(basis, x) == matmul(s, basis)

    def test_always_unimodular(self, corpus3):
        for g, auts in corpus3:
            for a in auts:
                assert det_sign(induced_cycle_matrix(g, a)) in (-1, 1)


class TestDetSign:
    def test_small_cases(self):
        assert det_sign(()) == 1
        assert det_sign(((-1,),)) == -1
        assert det_sign(((1, 0), (0, 1))) == 1
        assert det_sign(((0, 1), (1, 0))) == -1
        assert det_sign(((2, 4), (1, 2))) == 0

    def test_cyclic_permutation_matrices(self):
        for n in range(1, 7):
            m = [[1 if i == (j + 1) % n else 0 for j in range(n)] for i in range(n)]
            expected = 1 if (n - 1) % 2 == 0 else -1
            assert det_sign(m) == expected
            assert det_bruteforce(m) == expected

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            det_sign([[0.5]])
        with pytest.raises(TypeError):
            det_sign([[1, 0], [0, Fraction(1, 2)]])
        with pytest.raises(TypeError, match="must be an integer, got True"):
            det_sign([[True]])

    def test_against_bruteforce_random(self):
        rng = random.Random(1707)
        for _ in range(200):
            n = rng.randrange(0, 5)
            m = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
            d = det_bruteforce(m)
            assert det_sign(m) == (0 if d == 0 else (1 if d > 0 else -1))


class TestThetaK:
    def test_examples(self, loop, triangle):
        assert theta_k(loop, as_automorphism(loop, (1, 0))) == -1
        assert theta_k(triangle, as_automorphism(triangle, (5, 4, 3, 2, 1, 0))) == 1
        assert theta_k(triangle, as_automorphism(triangle, (2, 3, 4, 5, 0, 1))) == 1

    def test_spanning_forest_invariance_exhaustive(self, corpus3):
        # For every vertex order, a relabelled copy whose vertex ids come in that
        # order, so its forest enters g's components at order[0] onwards.
        for g, auts in corpus3:
            reference = [theta_k(g, a) for a in auts]
            for order in itertools.permutations(range(len(g.vertices))):
                images = [0] * g.half_edge_count
                ids = itertools.count()
                for v in order:
                    for x in g.vertices[v]:
                        images[x] = next(ids)
                h, moved = relabelled_copy(g, auts, images)
                assert h.vertices == tuple(
                    tuple(sorted(images[x] for x in g.vertices[v])) for v in order)
                assert [theta_k(h, b) for b in moved] == reference

    def test_arrangement_invariance(self, corpus3):
        # A relabelled copy whose default arrows are random arrows of g.
        rng = random.Random(99)
        for g, auts in corpus3:
            reference = [theta_k(g, a) for a in auts]
            for _ in range(20):
                arrows = random_arrows(g, rng)
                images = [0] * g.half_edge_count
                for e, (tail, (x, y)) in enumerate(zip(arrows, g.edges)):
                    images[tail], images[x + y - tail] = 2 * e, 2 * e + 1
                h, moved = relabelled_copy(g, auts, images)
                assert default_arrows(h) == tuple(images[t] for t in arrows)
                assert [theta_k(h, b) for b in moved] == reference


@pytest.mark.parametrize("spec, count, digest", [
    (CorpusSpec(4, connected_only=False), 3025,
     "7c405931f1784c2ff21dcab86a3abc4685b05c76fc8689cd134aad2339a787d1"),
    (CorpusSpec(5), 6706, "54bc02b6d57954ee87b30aa7304b7ae129ef97e61c5dc1f22b62f21987f1c4fb"),
], ids=["e4-disconnected", "e5"])
def test_every_theta_value_is_pinned(spec, count, digest):
    # The reports pin only rows and violations; this pins the sign each theta
    # gives on every automorphism, one line "canon perm theta_k theta_s" each,
    # so a faster theta_k must keep every value, not just the verdicts.
    lines = [f"{format_graph(g)} {perms.format_perm(a.perm)} {theta_k(g, a)} {theta_s(g, a)}\n"
             for g in enumerate_graphs(spec) for a in enumerate_automorphisms(g)]
    assert len(lines) == count
    assert hashlib.sha256("".join(lines).encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("basis, message", [
    (((1,), (0,), (0,)), "image cycle falls outside the cycle space"),
    (((0,), (0,), (0,)), "cycle basis lost column rank"),
])
def test_broken_cycle_basis_is_an_internal_error(triangle, monkeypatch, basis, message):
    rotation = as_automorphism(triangle, (2, 3, 4, 5, 0, 1))
    monkeypatch.setattr(orientkit.orientation, "cycle_basis", lambda g: basis)
    with pytest.raises(SingularBasisError, match=message):
        induced_cycle_matrix(triangle, rotation)
    with pytest.raises(SingularBasisError, match=message):
        theta_k(triangle, rotation)


def test_theta_parity_examples(triangle):
    k4 = complete_graph(4)
    transposition = next(
        a
        for a in enumerate_automorphisms(k4)
        if perms.cycle_lengths(induced_actions(k4, a).vertex_perm) == [1, 1, 2]
    )
    assert theta_parity(k4, transposition) == -1
    assert theta_parity(k4, as_automorphism(k4, perms.identity(12))) == 1
    assert theta_parity(triangle, as_automorphism(triangle, (2, 3, 4, 5, 0, 1))) == 1


def test_each_evaluation_reads_the_induced_actions_once(corpus3, monkeypatch):
    # Every sign reads the automorphism's edge and vertex actions from one
    # induced_actions call; the kernel test stops at the first moved vertex.
    calls = []
    real = orientkit.orientation.induced_actions

    def counting(g, a):
        calls.append(a)
        return real(g, a)

    monkeypatch.setattr(orientkit.orientation, "induced_actions", counting)
    for g, auts in corpus3:
        arrows = default_arrows(g)
        for a in auts:
            for evaluate in (lambda: theta_k(g, a), lambda: theta_s(g, a),
                             lambda: theta_parity(g, a), lambda: induced_cycle_matrix(g, a),
                             lambda: epsilon_map(g, arrows, a)):
                calls.clear()
                evaluate()
                assert calls == [a]
            calls.clear()
            fixes_every_vertex(g, a)
            assert calls == []


def test_homomorphism_laws(corpus3):
    for g, auts in corpus3:
        for theta in ThetaHom:
            table = {a.perm: theta(g, a) for a in auts}
            for a in auts:
                for b in auts:
                    combined = perms.compose(a.perm, b.perm)
                    assert table[combined] == table[a.perm] * table[b.perm]


class TestOrientability:
    def test_loop_non_orientable_both_ways(self, loop):
        for theta in (ThetaHom.SHOIKHET, ThetaHom.KONTSEVICH):
            report = orientability(loop, theta)
            assert report.verdict is Verdict.NON_ORIENTABLE
            assert report.witness is not None
            assert report.witness.perm == (1, 0)
            sigma = induced_actions(loop, report.witness).vertex_perm
            assert sigma == perms.identity(1)

    def test_triangle_orientable(self, triangle):
        report = orientability(triangle, ThetaHom.KONTSEVICH)
        assert report.verdict is Verdict.ORIENTABLE
        assert report.witness is None
        assert len(report.per_automorphism_theta) == 6

    def test_simplex_skeleton_orientable(self):
        report = orientability(complete_graph(4), ThetaHom.VERTEX_PARITY)
        assert report.verdict is Verdict.ORIENTABLE

    def test_witness_is_first_vertex_fixing_minus_one(self):
        # The witness, found independently: the first automorphism in
        # enumeration order with theta -1 whose vertex action is the identity.
        witnesses = 0
        for g in enumerate_graphs(CorpusSpec(4, connected_only=False)):
            identity = perms.identity(len(g.vertices))
            for theta in ThetaHom:
                expected = next(
                    (a for a in enumerate_automorphisms(g)
                     if theta(g, a) == -1
                     and induced_actions(g, a).vertex_perm == identity),
                    None)
                report = orientability(g, theta)
                assert report.witness == expected
                assert report.verdict is (
                    Verdict.ORIENTABLE if expected is None else Verdict.NON_ORIENTABLE)
                witnesses += expected is not None
        assert witnesses > 100

    @pytest.mark.parametrize("spec", [CorpusSpec(5), CorpusSpec(4, connected_only=False)],
                             ids=["e5", "e4-disconnected"])
    def test_generators_give_the_verdict_on_the_group(self, spec):
        # The sweep decides on vertex_quotient's kernel generators and
        # lifts; every homomorphism, VERTEX_PARITY included, must give
        # the verdict there that it gives on the whole group. A plain
        # function is a theta as much as a ThetaHom member is.
        verdicts = set()
        for g in enumerate_graphs(spec):
            _, kernel_gens, lifts = vertex_quotient(g)
            on_group = {theta: orientability(g, theta) for theta in ThetaHom}
            for theta, report in on_group.items():
                assert orientability(g, theta, kernel_gens + lifts).verdict is report.verdict
                verdicts.add((theta, report.verdict))
            plain = orientability(g, lambda g, a: theta_k(g, a))
            assert (plain.per_automorphism_theta
                    == on_group[ThetaHom.KONTSEVICH].per_automorphism_theta)
        assert {v for theta, v in verdicts if theta is ThetaHom.KONTSEVICH} == set(Verdict)


class TestOrOrbits:
    def test_examples(self, loop, single_edge):
        count, free, _ = or_orbits_bruteforce(complete_graph(4), ThetaHom.VERTEX_PARITY)
        assert (count, free) == (2, True)
        count, free, _ = or_orbits_bruteforce(loop, ThetaHom.SHOIKHET)
        assert (count, free) == (1, False)
        count, free, _ = or_orbits_bruteforce(single_edge, ThetaHom.SHOIKHET)
        assert (count, free) == (2, True)

    def test_explicit_auts_match_the_default(self, corpus3):
        for g, auts in corpus3:
            for theta in ThetaHom:
                assert or_orbits_bruteforce(g, theta, auts) == or_orbits_bruteforce(g, theta)

    def test_matches_fast_criterion(self, corpus3):
        for g, _ in corpus3:
            for theta in ThetaHom:
                _, free, _ = or_orbits_bruteforce(g, theta)
                verdict = orientability(g, theta).verdict
                assert free == (verdict is Verdict.ORIENTABLE)

    def test_matches_union_find_oracle(self):
        # Every class with at most 4 edges, loops and disconnected graphs
        # included, except where the literal oracle's |Aut| * 2 * |V|! links
        # pass 2 * 10^5: four disjoint edges (15.5M links per theta) and one
        # 7-vertex graph (0.97M).
        skipped = 0
        for g in enumerate_graphs(CorpusSpec(4, connected_only=False)):
            if len(enumerate_automorphisms(g)) * factorial(len(g.vertices)) > 10**5:
                skipped += 1
                continue
            for theta in ThetaHom:
                assert or_orbits_bruteforce(g, theta) == or_orbits_union_find(g, theta)
        assert skipped == 2

    @pytest.mark.parametrize("shape", ["01 06 12 23 34 45 56", "01 02 03 03 03 34 45"])
    def test_matches_union_find_oracle_when_relabelled(self, shape):
        pairs = [(int(t[0]), int(t[1])) for t in shape.split()]
        base = graph_from_vertex_pairs(pairs, 1 + max(map(max, pairs)))
        rng = random.Random(shape)
        for _ in range(3):
            images = list(range(base.half_edge_count))
            rng.shuffle(images)
            g = relabel(base, images)
            for theta in ThetaHom:
                assert or_orbits_bruteforce(g, theta) == or_orbits_union_find(g, theta)

    def test_pinned_on_the_benchmark_shapes(self, relabelled_shapes):
        # The orient-oracle shapes, 5-7 vertices each, under three relabellings:
        # larger than the union-find oracle is run on, so their whole output
        # is pinned instead, one repr per graph and theta.
        graphs = [g for g in relabelled_shapes if len(g.vertices) >= 5]
        assert len(graphs) == 99
        text = "".join(repr(or_orbits_bruteforce(g, theta)) + "\n"
                       for g in graphs for theta in ThetaHom)
        assert (hashlib.sha256(text.encode("ascii")).hexdigest()
                == "4032cce017874f6e58cc9b54d48c5e0833a8394223bb0086890c2ce07e5590f2")

    def test_explicit_auts_keep_the_pinned_output(self, relabelled_shapes):
        # The same text with Aut(g) handed to the oracle as a list.
        graphs = [g for g in relabelled_shapes if len(g.vertices) >= 5]
        lists = {g: enumerate_automorphisms(g) for g in graphs}
        text = "".join(repr(or_orbits_bruteforce(g, theta, lists[g])) + "\n"
                       for g in graphs for theta in ThetaHom)
        assert (hashlib.sha256(text.encode("ascii")).hexdigest()
                == "4032cce017874f6e58cc9b54d48c5e0833a8394223bb0086890c2ce07e5590f2")

    @pytest.mark.parametrize("dropped", range(6))
    def test_actions_that_are_not_a_group_raise(self, triangle, monkeypatch, tmp_path, dropped):
        def without_one(g, max_half_edges=None):
            auts = enumerate_automorphisms(g, max_half_edges)
            return auts[:dropped] + auts[dropped + 1 :]

        monkeypatch.setattr(orientkit.orientation, "enumerate_automorphisms", without_one)
        with pytest.raises(RuntimeError, match="do not form a group"):
            or_orbits_bruteforce(triangle, ThetaHom.KONTSEVICH)
        path = tmp_path / "triangle.graph"
        path.write_text("halfedges=6; edges=(0 1)(2 3)(4 5); vertices={5 0}{1 2}{3 4}\n")
        with pytest.raises(RuntimeError, match="do not form a group"):
            cli_main(["orient", str(path), "--bruteforce"])

    @pytest.mark.parametrize("dropped", range(6))
    def test_a_list_short_of_the_group_raises(self, triangle, dropped):
        auts = enumerate_automorphisms(triangle)
        with pytest.raises(RuntimeError, match="do not form a group"):
            or_orbits_bruteforce(triangle, ThetaHom.KONTSEVICH, auts[:dropped] + auts[dropped + 1 :])

    def test_a_theta_that_is_minus_one_on_the_identity_raises(self, triangle):
        # Every vertex action then comes with one sign, as a group's would,
        # but (identity, +1) is missing: the orbits would not hold their first pairs.
        with pytest.raises(RuntimeError, match="do not form a group"):
            or_orbits_bruteforce(triangle, lambda g, a: -theta_k(g, a))

    def test_actions_that_leave_a_pair_in_no_orbit_raise(self, monkeypatch):
        # An edge and a loop, without the automorphism that swaps the edge's
        # ends and flips the loop. The first orbit then holds its first pair's
        # flip but not every member's, so a (tau, -1) whose (tau, +1) is in it
        # falls in no orbit; only the closing count catches that.
        g = validate(4, [(0, 1), (2, 3)], [(0,), (1,), (2, 3)])
        auts = enumerate_automorphisms(g)
        assert auts[3].perm == (1, 0, 3, 2)
        monkeypatch.setattr(orientkit.orientation, "enumerate_automorphisms",
                            lambda g: auts[:3])
        with pytest.raises(RuntimeError, match="do not form a group"):
            or_orbits_bruteforce(g, ThetaHom.KONTSEVICH)

    def test_size_guard(self):
        from orientkit.limits import SizeLimitExceeded

        wide = validate(
            18,
            [(2 * i, 2 * i + 1) for i in range(9)],
            [(h,) for h in range(18)],
        )
        with pytest.raises(SizeLimitExceeded):
            or_orbits_bruteforce(wide, ThetaHom.VERTEX_PARITY)


def test_signed_edge_matrix_identity(corpus3):
    for g, auts in corpus3:
        arrows = default_arrows(g)
        for a in auts:
            matrix = signed_edge_matrix(g, arrows, a)
            pi = induced_actions(g, a).edge_perm
            expected = perms.sign(pi) * prod(epsilon_map(g, arrows, a))
            assert det_sign(matrix) == expected
            if len(g.edges) <= 4:
                d = det_bruteforce(matrix)
                assert (0 if d == 0 else (1 if d > 0 else -1)) == expected


def test_empty_graph_thetas():
    empty = validate(0, [], [])
    ident = as_automorphism(empty, ())
    assert theta_k(empty, ident) == 1
    assert theta_s(empty, ident) == 1
    assert theta_parity(empty, ident) == 1


def test_theta_agreement_needs_connectedness():
    # Two disjoint edges swapped: one edge transposition (odd) against two
    # vertex transpositions (even), with trivial cycle space and epsilons.
    # The agreement theorem is a statement about connected graphs only.
    two_edges = validate(4, [(0, 1), (2, 3)], [(0,), (1,), (2,), (3,)])
    swap = as_automorphism(two_edges, (2, 3, 0, 1))
    assert theta_k(two_edges, swap) == -1
    assert theta_s(two_edges, swap) == 1
