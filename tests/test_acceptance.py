"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.

The corpus bounds and tolerances are fixed here; every comparison is on
exact values in {+1, -1}, so all checks are zero-tolerance.
"""

import hashlib
import random
from math import prod

from orientkit import perms
from orientkit.automorphisms import as_automorphism, induced_actions
from orientkit.corpus import CorpusSpec, render_report, sweep_theorem
from orientkit.families import family_instances, proof_case_values, eq1_check
from orientkit.orientation import (
    ThetaHom,
    Verdict,
    default_arrows,
    det_sign,
    epsilon_map,
    induced_cycle_matrix,
    or_orbits_bruteforce,
    orientability,
    random_arrows,
    theta_k,
    theta_s,
)

from conftest import (complete_graph, is_loop, odd_power_normalize, random_images, relabelled_copy,
                      search_automorphisms)
from test_orientation import det_bruteforce, signed_edge_matrix

SEED = 20260810


def _check(criterion: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, criterion


def test_criterion_1_theta_agreement_sweep():
    report = sweep_theorem(CorpusSpec(5))
    digest = hashlib.sha256(render_report(report, "json")).hexdigest()
    ok = (
        report.violations == ()
        and report.totals["graphs"] > 0
        and all(row.agree for row in report.rows)
        and digest == "cd0035866740eeffaa95930de03bbb84b42a91ce67a5de1139c3631b7b0dfc86"
    )
    _check(
        "1 theta_k == theta_s for every automorphism of every connected "
        f"graph with |E| <= 5 ({report.totals['graphs']} graphs, "
        f"{report.totals['automorphisms']} automorphisms), report bytes as pinned",
        ok,
    )


def test_criterion_2_loop_graphs_non_orientable(corpus5):
    checked = 0
    ok = True
    for g, _ in corpus5:
        if not any(is_loop(g, e) for e in range(len(g.edges))):
            continue
        checked += 1
        for theta in (ThetaHom.KONTSEVICH, ThetaHom.SHOIKHET):
            report = orientability(g, theta)
            witness_ok = (
                report.verdict is Verdict.NON_ORIENTABLE
                and report.witness is not None
                and induced_actions(g, report.witness).vertex_perm
                == perms.identity(len(g.vertices))
                and theta(g, report.witness) == -1
            )
            ok = ok and witness_ok
    _check(
        f"2 every loop-bearing graph with |E| <= 5 is non-orientable under "
        f"theta_k and theta_s with an identity-sigma witness ({checked} graphs)",
        ok and checked > 0,
    )


def test_criterion_3_simplex_skeletons(monkeypatch):
    monkeypatch.setenv("ORIENTKIT_MAX_HALFEDGES", "20")  # K_5 has 20 half-edges
    ok = True
    for m in (3, 4, 5):
        g = complete_graph(m)
        report = orientability(g, ThetaHom.VERTEX_PARITY)
        count, _, _ = or_orbits_bruteforce(g, ThetaHom.VERTEX_PARITY)
        ok = ok and report.verdict is Verdict.ORIENTABLE and count == 2
    _check("3 complete graphs K_3, K_4, K_5 under vertex parity: orientable "
           "with exactly 2 orbit classes", ok)


def test_criterion_4_arrangement_and_forest_invariance(corpus5):
    # theta_k takes no choice: a relabelled copy, with each automorphism
    # conjugated onto it, has other default arrows and another forest root.
    rng = random.Random(SEED)
    ok = True
    graphs = [(g, auts) for g, auts in corpus5 if len(g.edges) <= 4]
    for g, auts in graphs:
        arrangements = [random_arrows(g, rng) for _ in range(100)]
        for a in auts:
            ref_s = theta_s(g, a)
            ok = ok and all(theta_s(g, a, arrows) == ref_s for arrows in arrangements)
        ref_k = [theta_k(g, a) for a in auts]
        for _ in range(100):
            h, moved = relabelled_copy(g, auts, random_images(g.half_edge_count, rng))
            ok = ok and [theta_k(h, b) for b in moved] == ref_k
    _check(
        "4 theta_s constant over 100 random arrow arrangements and theta_k "
        f"constant over 100 random relabellings, |E| <= 4 ({len(graphs)} graphs)",
        ok,
    )


def test_criterion_5_homomorphism_and_odd_power_laws(corpus5):
    ok = True
    graphs = [(g, auts) for g, auts in corpus5 if len(g.edges) <= 4]
    for g, auts in graphs:
        for theta in ThetaHom:
            table = {a.perm: theta(g, a) for a in auts}
            for p, value_p in table.items():
                for q, value_q in table.items():
                    ok = ok and table[perms.compose(p, q)] == value_p * value_q
                for n in (3, 5, 7):
                    ok = ok and table[perms.power(p, n)] == value_p
        for a in auts:
            _, normalized = odd_power_normalize(a.perm)
            ok = ok and all(
                length & (length - 1) == 0 for length in perms.cycle_lengths(normalized)
            )
    _check(
        "5 all three thetas multiplicative, stable under odd powers, and "
        "odd-power normalization reaches 2-power cycle type, |E| <= 4",
        ok,
    )


def test_criterion_6_proof_case_signs():
    ok = all(
        (v.sign_pi, v.det_sign_a, v.eps_product, v.sigma_ratio) == (-1, -1, 1, 1)
        for v in (proof_case_values(n) for n in (1, 2, 3, 4))
    )
    _check("6 transitive loop family (c=0, m=0), n = 1..4: sign ingredients "
           "are (-1, -1, +1, +1)", ok)


def test_criterion_7_contraction_identity_on_families():
    ok = True
    total = 0
    for inst in family_instances(3):
        g = inst.graph
        for k in range(1, 2**inst.params.n + 1):
            phi = as_automorphism(g, perms.power(inst.psi.perm, k))
            for e in range(len(g.edges)):
                total += 1
                ok = ok and eq1_check(g, phi, e).equal
    _check(
        f"7 contraction ratio identity holds on every family instance with "
        f"n <= 3, every edge, every power of psi ({total} checks)",
        ok,
    )


def test_criterion_8_orbit_oracle_equivalence(corpus5):
    ok = True
    checked = 0
    for g, _ in corpus5:
        if len(g.vertices) > 6:
            continue
        checked += 1
        auts = search_automorphisms(g)  # the oracle's group, not the listing's
        for theta in ThetaHom:
            _, z2_free, _ = or_orbits_bruteforce(g, theta, auts)
            verdict = orientability(g, theta).verdict
            ok = ok and z2_free == (verdict is Verdict.ORIENTABLE)
    _check(
        f"8 brute-force orbit freeness matches the fast orientability "
        f"criterion for all three thetas, |V| <= 6 ({checked} graphs)",
        ok,
    )


def test_criterion_9_signed_matrix_cross_check(corpus5):
    ok = True
    for g, auts in corpus5:
        arrows = default_arrows(g)
        for a in auts:
            matrix = signed_edge_matrix(g, arrows, a)
            pi = induced_actions(g, a).edge_perm
            expected = perms.sign(pi) * prod(epsilon_map(g, arrows, a))
            ok = ok and det_sign(matrix) == expected
            if len(g.edges) <= 4:
                d = det_bruteforce(matrix)
                ok = ok and (0 if d == 0 else (1 if d > 0 else -1)) == expected
    _check(
        "9 det of the signed edge matrix equals sign(edge action) times the "
        "epsilon product, |E| <= 5 (cofactor oracle at |E| <= 4)",
        ok,
    )


def test_criterion_10_mutation_sensitivity():
    def theta_s_eps_flipped(g, a):
        sigma = induced_actions(g, a).vertex_perm
        return perms.sign(sigma) * prod(-x for x in epsilon_map(g, default_arrows(g), a))

    def theta_k_pi_flipped(g, a):
        pi = induced_actions(g, a).edge_perm
        return -perms.sign(pi) * det_sign(induced_cycle_matrix(g, a))

    def theta_k_det_flipped(g, a):
        pi = induced_actions(g, a).edge_perm
        return perms.sign(pi) * -det_sign(induced_cycle_matrix(g, a))

    spec = CorpusSpec(3)
    mutants = [
        ("eps flipped", sweep_theorem(spec, theta_s_fn=theta_s_eps_flipped)),
        ("sign(pi) flipped", sweep_theorem(spec, theta_k_fn=theta_k_pi_flipped)),
        ("det_sign flipped", sweep_theorem(spec, theta_k_fn=theta_k_det_flipped)),
    ]
    ok = all(len(report.violations) >= 1 for _, report in mutants)
    _check(
        "10 flipping any one sign convention (eps, sign(pi), det_sign) "
        "breaks the |E| <= 3 sweep",
        ok,
    )
