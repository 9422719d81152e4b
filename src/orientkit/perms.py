"""Permutations of 0..k-1 as image tuples: sign, cycles, group algebra.

The same representation serves half-edge, edge and vertex actions; the
empty permutation ``()`` is legal (sign +1) because contraction can empty
a graph.
"""

from __future__ import annotations

from typing import Iterable

from .limits import excerpt, integer, parse_int

Perm = tuple[int, ...]


def identity(k: int) -> Perm:
    return tuple(range(k))


def is_perm(images: Iterable[int]) -> bool:
    seq = list(images)
    return sorted(seq) == list(range(len(seq)))


def check_perm(images: Iterable[int]) -> Perm:
    """The images as a Perm, each read by ``limits.integer`` (TypeError, a bool
    included); ValueError unless they permute 0..k-1."""
    p = tuple(map(integer, images))
    if not is_perm(p):
        raise ValueError(f"not a permutation of 0..{len(p) - 1}: {excerpt(format_perm(p))}")
    return p


def compose(p: Perm, q: Perm) -> Perm:
    """compose(p, q)(i) = p(q(i))."""
    if len(p) != len(q):
        raise ValueError(f"domain mismatch: {len(p)} vs {len(q)}")
    return tuple(p[j] for j in q)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def power(p: Perm, n: int) -> Perm:
    """p**n for n >= 0, by repeated squaring."""
    if n < 0:
        raise ValueError("negative power")
    acc = identity(len(p))
    base = p
    while n:
        if n & 1:
            acc = compose(base, acc)
        base = compose(base, base)
        n >>= 1
    return acc


def cycles(p: Perm) -> list[list[int]]:
    """Cycle decomposition, fixed points included, ordered by smallest member."""
    seen = [False] * len(p)
    out: list[list[int]] = []
    for i in range(len(p)):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append(cyc)
    return out


def cycle_lengths(p: Perm) -> list[int]:
    """Sorted multiset of cycle lengths; fixed points count as length 1."""
    return sorted(len(c) for c in cycles(p))


def sign(p: Perm) -> int:
    """(-1) ** (k - number of cycles); +1 for the empty permutation."""
    return -1 if (len(p) - len(cycles(p))) % 2 else 1


def format_perm(p: Perm) -> str:
    """Image-list form used in CLI output and reports, e.g. "[1,0,2]"."""
    return "[" + ",".join(str(i) for i in p) + "]"


def parse_perm(text: str) -> Perm:
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"expected a bracketed image list, got {excerpt(text)}")
    body = s[1:-1].strip()
    if not body:
        return ()
    return check_perm(parse_int(tok.strip()) for tok in body.split(","))
