"""Constructors for the classified edge-transitive pairs (graph, psi).

Each family builds a graph on 2**n edges together with a distinguished
automorphism psi whose cyclic group permutes the edges in a single cycle.
Parameters: n fixes the edge count, c the 2**c-fold vertex symmetry, m a
sub-period of the vertex pattern (families II and III only, c + m <= n).

Normalized integer encodings replace double indexing: family I lives on
ids t in Z_{2^(n+1)} with psi(t) = t + 1; families II and III use two rails
a_t = t and b_t = 2**n + t joined by the edges {a_t, b_t}, with psi
shifting both rails by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import prod

from . import perms
from .automorphisms import Automorphism, as_automorphism, induced_actions, is_automorphism
from .graphs import Graph, orbit_contraction, validate
from .orientation import (
    default_arrows,
    det_sign,
    epsilon_map,
    induced_cycle_matrix,
    theta_k,
    theta_s,
)
from .perms import Perm


class Family(str, Enum):
    I = "I"
    II = "II"
    III = "III"


@dataclass(frozen=True)
class FamilyParams:
    family: Family
    n: int
    c: int = 0
    m: int = 0


@dataclass(frozen=True)
class FamilyInstance:
    graph: Graph
    psi: Automorphism
    params: FamilyParams


@dataclass(frozen=True)
class Eq1Result:
    lhs: int
    rhs: int
    equal: bool


@dataclass(frozen=True)
class ProofCaseValues:
    sign_pi: int
    det_sign_a: int
    eps_product: int
    sigma_ratio: int


def _check_range(name: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def build_family_I(n: int, c: int) -> FamilyInstance:
    """All-loop family: 2**n loops spread over 2**c vertices, psi a single
    cycle on all 2**(n+1) half-edges."""
    _check_range("n", n)
    _check_range("c", c)
    if c > n:
        raise ValueError(f"family I needs c <= n, got c={c}, n={n}")
    size = 2 ** (n + 1)
    half = 2**n
    edges = [(t, t + half) for t in range(half)]
    vertices = [[t for t in range(size) if t % 2**c == j] for j in range(2**c)]
    g = validate(size, edges, vertices)
    psi = tuple((t + 1) % size for t in range(size))
    return FamilyInstance(g, as_automorphism(g, psi), FamilyParams(Family.I, n, c))


def _two_rail(n: int) -> tuple[int, list[tuple[int, int]], Perm]:
    half = 2**n
    edges = [(t, half + t) for t in range(half)]
    psi = tuple((t + 1) % half for t in range(half)) + tuple(
        half + (t + 1) % half for t in range(half)
    )
    return half, edges, psi


def build_family_II(n: int, c: int, m: int) -> FamilyInstance:
    """Loop-free family with two vertex orbit classes of different periods:
    a-rail vertices repeat mod 2**c, b-rail vertices mod 2**(c+m)."""
    _check_range("n", n)
    _check_range("c", c)
    _check_range("m", m)
    if c + m > n:
        raise ValueError(f"family II needs c + m <= n, got c={c}, m={m}, n={n}")
    half, edges, psi = _two_rail(n)
    vertices = [[t for t in range(half) if t % 2**c == j] for j in range(2**c)]
    vertices += [
        [half + t for t in range(half) if t % 2 ** (c + m) == r] for r in range(2 ** (c + m))
    ]
    g = validate(2 * half, edges, vertices)
    return FamilyInstance(g, as_automorphism(g, psi), FamilyParams(Family.II, n, c, m))


def build_family_III(n: int, c: int, m: int) -> FamilyInstance:
    """Single vertex orbit joining the two rails with an offset of 2**c:
    all loops when m = 0, circulant-like cycles when m > 0."""
    _check_range("n", n)
    _check_range("c", c)
    _check_range("m", m)
    if c + m > n:
        raise ValueError(f"family III needs c + m <= n, got c={c}, m={m}, n={n}")
    half, edges, psi = _two_rail(n)
    period = 2 ** (c + m)
    vertices = [
        [t for t in range(half) if t % period == r]
        + [half + t for t in range(half) if t % period == (r - 2**c) % period]
        for r in range(period)
    ]
    g = validate(2 * half, edges, vertices)
    return FamilyInstance(g, as_automorphism(g, psi), FamilyParams(Family.III, n, c, m))


def build_family(params: FamilyParams) -> FamilyInstance:
    if params.family is Family.I:
        return build_family_I(params.n, params.c)
    if params.family is Family.II:
        return build_family_II(params.n, params.c, params.m)
    return build_family_III(params.n, params.c, params.m)


def family_instances(max_n: int, families: tuple[Family, ...] = tuple(Family)):
    """All legal instances with n <= max_n, in deterministic order."""
    for n in range(max_n + 1):
        for family in families:
            for c in range(n + 1):
                for m in range(1 if family is Family.I else n - c + 1):
                    yield build_family(FamilyParams(family, n, c, m))


def verify_family(inst: FamilyInstance) -> list[str]:
    """Postcondition checks for a constructed instance; returns failures.

    Checks: psi is an automorphism, its cyclic group is transitive on the
    edges with cycle length 2**n, and every half-edge and vertex cycle
    length is a power of two.
    """
    failures = []
    g = inst.graph
    n = inst.params.n
    if not perms.is_perm(inst.psi.perm) or len(inst.psi.perm) != g.half_edge_count:
        failures.append("psi is not a permutation of the half-edges")
        return failures
    if not is_automorphism(g, inst.psi.perm):
        failures.append("psi is not an automorphism")
        return failures
    acts = induced_actions(g, inst.psi)
    edge_cycles = perms.cycle_lengths(acts.edge_perm)
    if edge_cycles != [2**n]:
        failures.append(f"edge action is not a single 2**{n}-cycle: {edge_cycles}")
    for label, p in (("half-edge", inst.psi.perm), ("vertex", acts.vertex_perm)):
        bad = [length for length in perms.cycle_lengths(p) if length & (length - 1)]
        if bad:
            failures.append(f"{label} cycle lengths {bad} are not powers of two")
    return failures


def eq1_check(g: Graph, phi: Automorphism, e: int) -> Eq1Result:
    """Contract the full phi-orbit of edge e and compare the two theta
    ratios across the contraction (a ratio in {+1,-1} is a product).

    Vertex blocks emptied by the contraction are dropped from the smaller
    graph, but the parity of phi's action on them still belongs to the
    vertex-sign side of the ratio, so it multiplies the rhs.
    """
    result = orbit_contraction(g, phi.perm, e)
    phi2 = as_automorphism(result.graph, result.induced)
    lhs = theta_k(g, phi) * theta_k(result.graph, phi2)
    rhs = theta_s(g, phi) * theta_s(result.graph, phi2) * result.dropped_parity
    return Eq1Result(lhs, rhs, lhs == rhs)


def proof_case_values(n: int) -> ProofCaseValues:
    """The four sign ingredients on family III(n, c=0, m=0) with arrows
    pointing from the a-rail to the b-rail: 2**n loops on one vertex,
    psi rotating the loops in a single cycle.

    For every n >= 1 the values are (-1, -1, +1, +1).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    inst = build_family_III(n, 0, 0)
    g = inst.graph
    arrows = default_arrows(g)  # tails are the a-rail ids by construction
    acts = induced_actions(g, inst.psi)
    return ProofCaseValues(
        sign_pi=perms.sign(acts.edge_perm),
        det_sign_a=det_sign(induced_cycle_matrix(g, arrows, inst.psi)),
        eps_product=prod(epsilon_map(g, arrows, inst.psi)),
        sigma_ratio=perms.sign(acts.vertex_perm),
    )
