"""L-equivalence: the sorted-Lehmer-code fibration of the symmetric group.

Two permutations are L-adjacent when one can be written w1·a·w2·c·w3·b·w4 and
the other w1·b·w2·a·w3·c·w4 with a < b < c, every letter of w2 greater than b,
and every letter of w3 and w4 either smaller than b or greater than c.
L-equivalence is the transitive closure; its classes are exactly the fibers of
the sorted Lehmer code, so there are Catalan(n) of them, each containing one
132-avoiding (maximal) and one 213-avoiding (minimal) permutation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import comb

from .codes import Code, lehmer_code, lehmer_decode, sorted_code
from .permutations import (
    Perm,
    check_permutation,
    iter_permutations,
    standardize,
)

__all__ = [
    'LClass',
    'l_adjacent',
    'l_moves',
    'l_class',
    'l_classes',
    'class_max',
    'class_min',
    'avoids_pattern',
    'catalan',
]


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


@dataclass(frozen=True)
class LClass:
    """One L-equivalence class: its sorted members, shared sorted Lehmer code,
    and extremal representatives."""

    members: tuple[Perm, ...]
    key: Code
    max_member: Perm
    min_member: Perm

    def __len__(self) -> int:
        return len(self.members)


def l_moves(u: Perm) -> set[Perm]:
    """All permutations L-adjacent to ``u`` (both exchange orientations)."""
    n = len(u)
    out: set[Perm] = set()
    for p1 in range(n):
        for p2 in range(p1 + 1, n):
            for p3 in range(p2 + 1, n):
                x, y, z = u[p1], u[p2], u[p3]
                # u carries (a, c, b) at these positions; v gets (b, a, c).
                if x < z < y:
                    a, b, c = x, z, y
                    if _sides_ok(u, p1, p2, p3, b, c):
                        v = list(u)
                        v[p1], v[p2], v[p3] = b, a, c
                        out.add(tuple(v))
                # u carries (b, a, c); v gets (a, c, b).
                elif y < x < z:
                    a, b, c = y, x, z
                    if _sides_ok(u, p1, p2, p3, b, c):
                        v = list(u)
                        v[p1], v[p2], v[p3] = a, c, b
                        out.add(tuple(v))
    return out


def _sides_ok(u: Perm, p1: int, p2: int, p3: int, b: int, c: int) -> bool:
    if any(t <= b for t in u[p1 + 1:p2]):
        return False
    tail = u[p2 + 1:p3] + u[p3 + 1:]
    return all(t < b or t > c for t in tail)


def l_adjacent(u: Perm, v: Perm) -> bool:
    """Whether ``u`` and ``v`` differ by one three-letter exchange.

    >>> l_adjacent((7, 3, 8, 6, 9, 4, 1, 5, 2), (7, 5, 8, 6, 3, 4, 1, 9, 2))
    True
    >>> l_adjacent((3, 1, 4, 5, 2), (3, 2, 4, 1, 5))
    True
    """
    if len(u) != len(v):
        raise ValueError('sizes differ')
    return v in l_moves(u)


def l_class(p: Perm) -> LClass:
    """The L-equivalence class of ``p`` by breadth-first closure.

    >>> cls = l_class((3, 1, 4, 5, 2))
    >>> [''.join(map(str, q)) for q in cls.members]  # doctest: +NORMALIZE_WHITESPACE
    ['13542', '14352', '21543', '23514', '24153', '24315', '31452',
     '32154', '32415']
    """
    p = check_permutation(p)
    seen = {p}
    frontier = [p]
    while frontier:
        nxt = []
        for u in frontier:
            for v in l_moves(u):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    members = tuple(sorted(seen))
    return LClass(
        members=members,
        key=sorted_code(lehmer_code(p)),
        max_member=class_max(p),
        min_member=class_min(p),
    )


def l_classes(n: int) -> list[LClass]:
    """Partition of S_n into L-classes, sorted by minimal member; there are
    Catalan(n) of them.  S_n is walked in lexicographic order, so each class
    is met first at its minimal member."""
    classified: set[Perm] = set()
    classes = []
    for p in iter_permutations(n):
        if p not in classified:
            cls = l_class(p)
            classes.append(cls)
            classified.update(cls.members)
    return classes


def class_max(p: Perm) -> Perm:
    """The greatest member of the class: decode the nonincreasing
    rearrangement of the Lehmer code.  Avoids the pattern 132.

    >>> ''.join(map(str, class_max((6, 8, 2, 5, 4, 7, 1, 9, 3))))
    '764352819'
    """
    code = tuple(sorted(lehmer_code(p), reverse=True))
    return lehmer_decode(code)


def class_min(p: Perm) -> Perm:
    """The least member of the class: rearrange the Lehmer code multiset from
    right to left, placing at each position the largest unused value that
    keeps the code sub-diagonal.  Avoids the pattern 213.

    >>> ''.join(map(str, class_min((6, 8, 2, 5, 4, 7, 1, 9, 3))))
    '139857642'
    """
    n = len(p)
    unused = sorted(lehmer_code(p))
    slots = [0] * n
    for i in range(n, 0, -1):
        pick = bisect_right(unused, n - i) - 1
        if pick < 0:
            raise RuntimeError(
                f'greedy construction failed at position {i} for code multiset '
                f'{unused}; input was not a genuine Lehmer code multiset'
            )
        slots[i - 1] = unused.pop(pick)
    return lehmer_decode(tuple(slots))


def avoids_pattern(p: Perm, pattern: Perm) -> bool:
    """Whether no subsequence of ``p`` standardizes to ``pattern`` (cubic scan
    for the length-3 patterns used here).

    >>> avoids_pattern((3, 2, 4, 1, 5), (1, 3, 2))
    True
    >>> avoids_pattern((3, 1, 4, 5, 2), (1, 3, 2))
    False
    """
    if len(pattern) != 3:
        raise ValueError('only length-3 patterns are supported')
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if standardize((p[i], p[j], p[k])) == pattern:
                    return False
    return True
