"""Orientation homomorphisms Aut(g) -> {+1,-1} and orientability verdicts.

Three homomorphisms are provided:

* Kontsevich: sign of the induced edge permutation times the sign of the
  determinant of the induced map on the cycle space.
* Shoikhet: sign of the induced vertex permutation times the product over
  edges of arrow-agreement signs.
* vertex parity: sign of the induced vertex permutation alone.

All linear algebra is exact (Python integers and fractions); floating
point is never used, since a sign is the entire answer. theta_k and its
cycle basis depend on the graph alone: the basis uses the default arrows
and the default spanning forest, and their choice does not change the
sign. The tests check that on relabelled copies, since a relabelling can
put any vertex at the root and flip any arrow. Only theta_s and
``epsilon_map`` take an arrow arrangement. theta_k's determinant sign is
memoized on the pair (cycle basis, signed edge action), both tuples of
ints, which the corpus repeats across classes; ``induced_cycle_matrix``
solves afresh.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from operator import itemgetter
from typing import Callable

from .automorphisms import Automorphism, enumerate_automorphisms, induced_actions
from .graphs import Graph, spanning_forest
from .limits import SizeLimitExceeded, integer
from . import perms
from .perms import Perm

Arrows = tuple[int, ...]  # tails by edge id; the arrow on e runs tail -> partner
IntMatrix = tuple[tuple[int, ...], ...]
ThetaFn = Callable[[Graph, Automorphism], int]


class SingularBasisError(RuntimeError):
    """Cycle basis failed to span an image cycle; indicates an internal bug."""


class ThetaHom(Enum):
    """One of the supported orientation homomorphisms; each member is a ``ThetaFn``."""

    KONTSEVICH = "k"
    SHOIKHET = "s"
    VERTEX_PARITY = "parity"

    def __call__(self, g: Graph, a: Automorphism) -> int:
        # Read as module globals on every call, so patching theta_k and the rest takes effect.
        if self is ThetaHom.KONTSEVICH:
            return theta_k(g, a)
        if self is ThetaHom.SHOIKHET:
            return theta_s(g, a)
        return theta_parity(g, a)


class Verdict(Enum):
    ORIENTABLE = "orientable"
    NON_ORIENTABLE = "non-orientable"


@dataclass(frozen=True)
class OrientationReport:
    verdict: Verdict
    witness: Automorphism | None
    per_automorphism_theta: tuple[tuple[Automorphism, int], ...]


def default_arrows(g: Graph) -> Arrows:
    """One arrow per edge, tail at the smaller half-edge id."""
    return tuple(a for a, _ in g.edges)


def random_arrows(g: Graph, rng) -> Arrows:
    return tuple(pair[rng.randrange(2)] for pair in g.edges)


def _check_arrows(g: Graph, arrows: Arrows) -> None:
    """ValueError unless ``arrows`` holds one half-edge of each edge, by edge id,
    each an integer by ``limits.integer`` (so neither a float nor a bool)."""
    try:
        tails = [integer(t) for t in arrows]
    except TypeError as err:
        raise ValueError(f"arrows hold integer ids: {err}") from None
    if len(tails) != len(g.edges) or any(t not in e for t, e in zip(tails, g.edges)):
        raise ValueError(f"arrows must hold one half-edge of each edge, by edge id: {arrows!r}")


def _arrow_signs(arrows: Arrows, perm: Perm, pi: Perm) -> list[int]:
    # By edge id: the arrow on edge f moves onto edge pi[f], pi being perm's
    # edge action, and meets the arrow there: matching tails +1, opposite -1.
    eps = [0] * len(pi)
    for f, e in enumerate(pi):
        eps[e] = 1 if perm[arrows[f]] == arrows[e] else -1
    return eps


def epsilon_map(g: Graph, arrows: Arrows, a: Automorphism) -> tuple[int, ...]:
    """Arrow-agreement signs by edge id: the arrow carried over from the preimage
    edge against the arrow already there. Raises ValueError unless ``arrows``
    holds one half-edge of each edge, in edge-id order."""
    _check_arrows(g, arrows)
    return tuple(_arrow_signs(arrows, a.perm, induced_actions(g, a).edge_perm))


def theta_s(g: Graph, a: Automorphism, arrows: Arrows | None = None) -> int:
    """Shoikhet homomorphism: sign(vertex action) * product of epsilon signs."""
    if arrows is None:
        arrows = default_arrows(g)  # valid by construction
    else:
        _check_arrows(g, arrows)
    acts = induced_actions(g, a)
    return perms.sign(acts.vertex_perm) * prod(_arrow_signs(arrows, a.perm, acts.edge_perm))


def theta_parity(g: Graph, a: Automorphism) -> int:
    """Parity of the induced vertex permutation."""
    return perms.sign(induced_actions(g, a).vertex_perm)


@lru_cache(maxsize=1024)
def cycle_basis(g: Graph) -> IntMatrix:
    """Fundamental-cycle matrix: |E| rows, one column per non-tree edge.

    The arrows are ``default_arrows(g)`` and the forest is
    ``graphs.spanning_forest(g)``, rooted at the lowest vertex id of each
    component: the one traversal shared with the automorphism search. So
    the basis is a function of the graph, cached on it. Each non-tree edge
    contributes the cycle that follows its arrow tail-to-head and returns
    through the forest, with entries in {-1, 0, +1}. Only that cycle's
    forest path uses other edges, so row ``nontree[j]`` is the unit vector
    e_j, ``nontree`` being the ascending ids of the edges outside the
    forest. Other arrows or another root give another basis but the same
    theta_k; the tests check that on relabelled copies of the graph.
    """
    ne = len(g.edges)
    vertex_of, partner = g.vertex_of, g.partner
    arrows = default_arrows(g)
    via = spanning_forest(g)[1]

    def add_path(col: list[int], v: int, sign_up: int) -> None:
        # Walk v up to its root; sign_up applies to steps taken child->parent.
        while (e := via[v]) >= 0:
            t = arrows[e]
            up = vertex_of[t] == v  # arrow points child -> parent
            col[e] += sign_up if up else -sign_up
            v = vertex_of[partner[t]] if up else vertex_of[t]

    columns = []
    for e in sorted(set(range(ne)).difference(via)):  # the non-tree edges
        col = [0] * ne
        col[e] = 1
        t = arrows[e]
        # Both walks share the path above the common ancestor, where they cancel.
        add_path(col, vertex_of[partner[t]], 1)
        add_path(col, vertex_of[t], -1)
        columns.append(col)
    return tuple(tuple(columns[j][i] for j in range(len(columns))) for i in range(ne))


def _solve_exact(basis: IntMatrix, image: IntMatrix, k: int) -> IntMatrix:
    """Solve basis @ X = image for the k x k integer matrix X, exactly."""
    m = len(basis)
    aug = [
        [Fraction(basis[i][j]) for j in range(k)] + [Fraction(image[i][j]) for j in range(k)]
        for i in range(m)
    ]
    row = 0
    for col in range(k):
        piv = next((r for r in range(row, m) if aug[r][col]), None)
        if piv is None:
            raise SingularBasisError("cycle basis lost column rank")
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row])]
        row += 1
    for r in range(k, m):
        if any(aug[r][k:]):
            raise SingularBasisError("image cycle falls outside the cycle space")
    out = []
    for i in range(k):
        row_vals = []
        for j in range(k):
            x = aug[i][k + j]
            if x.denominator != 1:
                raise SingularBasisError(f"non-integer basis coefficient {x}")
            row_vals.append(int(x))
        out.append(tuple(row_vals))
    return tuple(out)


def _edge_moves(g: Graph, perm: Perm, pi: Perm) -> tuple[int, ...]:
    # perm's edge action pi as a signed permutation: edge f moves onto edge
    # pi[f] with the arrow-agreement sign there, written (pi[f] + 1) * sign.
    eps = _arrow_signs(default_arrows(g), perm, pi)
    return tuple((e + 1) * eps[e] for e in pi)


def _cycle_action(basis: IntMatrix, moves: tuple[int, ...]) -> IntMatrix:
    # The matrix of the signed edge action ``moves`` on the cycle space, in
    # ``basis``: each basis row moves as a whole, signed on the way.
    k = len(basis[0]) if basis else 0
    if k == 0:
        return ()
    image: list[tuple[int, ...]] = [()] * len(basis)
    for row, m in zip(basis, moves):
        image[abs(m) - 1] = row if m > 0 else tuple(-x for x in row)
    return _solve_exact(basis, tuple(image), k)


@lru_cache(maxsize=1024)
def _cycle_sign(basis: IntMatrix, moves: tuple[int, ...]) -> int:
    """``det_sign(_cycle_action(basis, moves))``, memoized: the corpus repeats
    (cycle basis, signed edge action) pairs across classes. The key holds
    tuples only, never a ``Graph``, so the memo keeps no class alive."""
    return det_sign(_cycle_action(basis, moves))


def induced_cycle_matrix(g: Graph, a: Automorphism) -> IntMatrix:
    """Matrix of the automorphism's action on the cycle space, in the
    basis ``cycle_basis(g)``. Always integral with determinant +-1."""
    return _cycle_action(cycle_basis(g), _edge_moves(g, a.perm, induced_actions(g, a).edge_perm))


def det_sign(matrix) -> int:
    """Exact sign of the determinant via fraction-free elimination.

    Accepts any square nested sequence of integers, and raises ``TypeError``
    for any other entry, a bool included; the 0 x 0 matrix has determinant +1.
    """
    a = [[x if type(x) is int else integer(x) for x in row] for row in matrix]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    swaps = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            swaps = -swaps
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return swaps * (0 if d == 0 else (1 if d > 0 else -1))


def theta_k(g: Graph, a: Automorphism) -> int:
    """Kontsevich homomorphism: sign(edge action) * sign(det of cycle action),
    the latter in the basis ``cycle_basis(g)``, read from ``_cycle_sign``."""
    pi = induced_actions(g, a).edge_perm
    return perms.sign(pi) * _cycle_sign(cycle_basis(g), _edge_moves(g, a.perm, pi))


# --- orientability --------------------------------------------------------


def fixes_every_vertex(g: Graph, a: Automorphism) -> bool:
    """True iff ``a`` is in the kernel of the vertex action. A graph is
    non-orientable under a theta iff theta is -1 on some such automorphism.
    An automorphism maps each vertex block onto a whole block, so each
    block's first half-edge decides it, up to the first moved vertex."""
    p, vertex_of = a.perm, g.vertex_of
    return all(vertex_of[p[block[0]]] == v for v, block in enumerate(g.vertices))


def orientability(
    g: Graph, theta: ThetaFn, auts: list[Automorphism] | None = None
) -> OrientationReport:
    """Orientability verdict for ``theta``, evaluated once on each of ``auts``
    (default: Aut(g), from ``enumerate_automorphisms``).

    g is non-orientable iff theta is -1 on some automorphism that
    ``fixes_every_vertex``; the witness is the first such element of
    ``auts``. For a homomorphism theta, elements whose conjugates generate
    the kernel of the vertex action, plus any automorphisms that move a
    vertex, such as the ``vertex_quotient`` lists, give the verdict on Aut(g).
    ``or_orbits_bruteforce`` is the independent slow oracle.
    """
    if auts is None:
        auts = enumerate_automorphisms(g)
    values = tuple((a, theta(g, a)) for a in auts)
    witness = next((a for a, value in values if value == -1 and fixes_every_vertex(g, a)), None)
    verdict = Verdict.NON_ORIENTABLE if witness is not None else Verdict.ORIENTABLE
    return OrientationReport(verdict, witness, values)


def or_orbits_bruteforce(
    g: Graph, theta: ThetaFn, auts: list[Automorphism] | None = None
) -> tuple[int, bool, tuple[tuple[tuple[Perm, int], ...], ...]]:
    """Orbits of (vertex enumeration, sign) pairs under the twisted action.

    Enumerates every pair (tau, eps) with tau a bijection from vertex ids to
    1..|V| and eps in {+1,-1}; an automorphism acts by relabeling tau along its
    vertex action and multiplying eps by its theta value. Returns the orbit
    count, whether the global sign flip acts freely on orbits, and the orbits
    themselves, each sorted, ordered by their first pair in (tau in
    ``itertools.permutations`` order, then eps = +1 before -1). The slow oracle
    for ``orientability``: theta is any ``ThetaFn``, evaluated once on each of
    ``auts``, a group (default: ``enumerate_automorphisms(g)``).

    The distinct (inverse vertex action, theta value) pairs act as the group
    does, and freely on taus: each image of tau occurs once if the flip moves
    the orbit of (tau, +1), else twice, once with each sign. The flip commutes
    with every action, so in the first case the orbit of (tau, -1) is the sorted
    orbit with every sign flipped. An orbit pair costs one image per action and
    one sort: |V|! images in all, or 2 * |V|! when the flip fixes orbits. Raises
    ``RuntimeError`` unless (identity, +1) is an action, no orbit meets an
    earlier one, and each orbit's images are all distinct or each there once
    with each sign: a guard against a broken list, not a full group check.
    """
    nv = len(g.vertices)
    if nv > 8:
        raise SizeLimitExceeded(f"brute-force orbit search limited to 8 vertices, got {nv}")
    if auts is None:
        auts = enumerate_automorphisms(g)
    actions = dict.fromkeys(
        (perms.inverse(induced_actions(g, a).vertex_perm), theta(g, a)) for a in auts
    )
    # With the action on taus free, this is each orbit holding its first pair.
    if (perms.identity(nv), 1) not in actions:
        raise RuntimeError("automorphism actions do not form a group")
    # Relabeling tau along sigma sends sigma[v] to tau[v], so w to
    # tau[sigma^-1(w)]. itemgetter returns a bare item for one index, but
    # below two vertices every vertex action is the identity.
    movers = [itemgetter(*inv) if nv > 1 else tuple for inv, _ in actions]
    values = [value for _, value in actions]

    covered: set[Perm] = set()  # the taus whose pairs with both signs lie in listed orbits
    orbits: list[tuple[tuple[Perm, int], ...]] = []
    z2_free = True
    for tau in itertools.permutations(range(1, nv + 1)):
        if tau in covered:
            continue
        images = [move(tau) for move in movers]
        orbit = tuple(sorted(zip(images, values)))
        before = len(covered)
        covered.update(images)
        new = len(covered) - before
        if new == len(images):
            # Images distinct: the orbit of (tau, -1), next in order, is this one flipped.
            orbits += orbit, tuple([(t, -e) for t, e in orbit])
        elif 2 * new == len(images) == 2 * len(set(images)):
            # Each image twice, once with each sign: the flip fixes this orbit.
            orbits.append(orbit)
            z2_free = False
        else:
            raise RuntimeError("automorphism actions do not form a group")
    if len(covered) != factorial(nv):
        raise RuntimeError("automorphism actions do not form a group")
    return len(orbits), z2_free, tuple(orbits)
