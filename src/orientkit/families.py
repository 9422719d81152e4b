"""The classified edge-transitive pairs (graph, psi), built by ``build_family``.

Each family builds a graph on 2**n edges together with a distinguished
automorphism psi whose cyclic group permutes the edges in a single cycle.
Parameters: n fixes the edge count, c the 2**c-fold vertex symmetry, m a
sub-period of the vertex pattern. They must satisfy c >= 0, m >= 0 and
c + m <= n, and family I takes m = 0.

Normalized integer encodings replace double indexing: every family uses two
rails a_t = t and b_t = 2**n + t joined by the edges {a_t, b_t}. In family I
psi(t) = t + 1 on all of Z_{2^(n+1)}, so it carries the a-rail into the
b-rail; in families II and III psi shifts each rail by one.

The families do not hold every pair (g, psi) on 2**n edges whose psi moves
the edges in one cycle. Up to isomorphism, conjugation in Aut(g) and odd
powers of psi, one such pair per n <= 2 is in no family: at n = 0 the
bridge with psi swapping its ends (theta_k = theta_s = +1), and at n = 1
and 2 the 2**n disjoint bridges rotated with one flip (theta_k = -1,
theta_s = +1). ``tests/test_families.py`` checks this against the corpus.
PAPER.md holds only the paper's opening, so whether the paper leaves these
pairs out on purpose is still open.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import prod

from . import perms
from .automorphisms import Automorphism, as_automorphism, induced_actions, is_automorphism
from .graphs import Graph, orbit_contraction, validate
from .limits import MAX_FAMILY_N, SizeLimitExceeded, integer
from .orientation import (
    default_arrows,
    det_sign,
    epsilon_map,
    induced_cycle_matrix,
    theta_k,
    theta_s,
)


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


def build_family(params: FamilyParams) -> FamilyInstance:
    """Build the instance of ``params``, with its family read through ``Family``.

    Every family has the edges {t, 2**n + t}; only psi and the vertex of
    each half-edge depend on the family:

    - I: 2**n loops spread over 2**c vertices, psi a single cycle on all
      2**(n+1) half-edges;
    - II: loop-free, a-rail vertices repeating mod 2**c and b-rail vertices
      mod 2**(c+m);
    - III: one vertex orbit joining the rails with an offset of 2**c, all
      loops when m = 0 and circulant-like cycles when m > 0.

    Raises ``ValueError`` for an unknown family, for n, c or m that is
    not an integer (a bool included) and for parameters outside the rules
    of the module docstring, and ``SizeLimitExceeded`` for n above
    ``MAX_FAMILY_N``.
    """
    family = Family(params.family)
    try:
        n, c, m = (integer(x) for x in (params.n, params.c, params.m))
    except TypeError:
        raise ValueError(f"family parameters must be integers, got n={params.n!r}, "
                         f"c={params.c!r}, m={params.m!r}") from None
    if min(c, m) < 0 or c + m > n or (family is Family.I and m):
        rule = "0 <= c <= n and m = 0" if family is Family.I else "c, m >= 0 and c + m <= n"
        raise ValueError(f"family {family.value} needs {rule}, got n={n}, c={c}, m={m}")
    _check_n(n)
    half = 2**n
    size = 2 * half
    period = 2 ** (c + m)
    if family is Family.I:
        psi = tuple((h + 1) % size for h in range(size))
        labels = [h % 2**c for h in range(size)]
    else:
        psi = tuple(h - h % half + (h + 1) % half for h in range(size))
        # period divides 2**n, so b_t = 2**n + t has the residue of t.
        if family is Family.II:
            labels = [h % 2**c if h < half else 2**c + h % period for h in range(size)]
        else:
            labels = [(h if h < half else h + 2**c) % period for h in range(size)]
    vertices: list[list[int]] = [[] for _ in range(max(labels) + 1)]
    for h, label in enumerate(labels):
        vertices[label].append(h)
    g = validate(size, [(t, half + t) for t in range(half)], vertices)
    return FamilyInstance(g, as_automorphism(g, psi), FamilyParams(family, n, c, m))


def _check_n(n: int) -> None:
    if n > MAX_FAMILY_N:
        raise SizeLimitExceeded(f"family instances are limited to n <= {MAX_FAMILY_N}, got n={n}")


def family_instances(max_n: int, families: tuple[Family | str, ...] = tuple(Family)):
    """All legal instances with n <= max_n, in deterministic order. Raises
    ``SizeLimitExceeded`` before the first instance if max_n is above
    ``MAX_FAMILY_N``."""
    _check_n(max_n)
    families = tuple(map(Family, families))
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
    inst = build_family(FamilyParams(Family.III, n))
    g = inst.graph
    arrows = default_arrows(g)  # tails are the a-rail ids by construction
    acts = induced_actions(g, inst.psi)
    return ProofCaseValues(
        sign_pi=perms.sign(acts.edge_perm),
        det_sign_a=det_sign(induced_cycle_matrix(g, inst.psi)),
        eps_product=prod(epsilon_map(g, arrows, inst.psi)),
        sigma_ratio=perms.sign(acts.vertex_perm),
    )
