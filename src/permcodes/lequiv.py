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
from itertools import combinations
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


class LClass:
    """One L-equivalence class: its sorted members, shared sorted Lehmer code,
    and extremal representatives."""

    def __init__(self, members: tuple[Perm, ...], key: Code) -> None:
        self.members = members
        self.key = key
        self.max_member, self.min_member = members[-1], members[0]

    def __len__(self) -> int:
        return len(self.members)


def l_moves(u: Perm) -> set[Perm]:
    """All permutations L-adjacent to ``u`` (both exchange orientations)."""
    out: set[Perm] = set()
    for p1, p2, p3 in combinations(range(len(u)), 3):
        x, y, z = u[p1], u[p2], u[p3]
        if x < z < y:  # u carries (a, c, b); v gets (b, a, c)
            b, c, moved = z, y, (z, x, y)
        elif y < x < z:  # u carries (b, a, c); v gets (a, c, b)
            b, c, moved = x, z, (y, z, x)
        else:
            continue
        if (all(t > b for t in u[p1 + 1:p2])
                and all(t < b or t > c for t in u[p2 + 1:p3] + u[p3 + 1:])):
            v = list(u)
            v[p1], v[p2], v[p3] = moved
            out.add(tuple(v))
    return out


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
    """The L-equivalence class of ``p``: its closure under ``l_moves``.

    >>> cls = l_class((3, 1, 4, 5, 2))
    >>> [''.join(map(str, q)) for q in cls.members]  # doctest: +NORMALIZE_WHITESPACE
    ['13542', '14352', '21543', '23514', '24153', '24315', '31452',
     '32154', '32415']
    """
    p = check_permutation(p)
    seen, stack = {p}, [p]
    while stack:
        new = l_moves(stack.pop()) - seen
        seen |= new
        stack += new
    return LClass(tuple(sorted(seen)), sorted_code(lehmer_code(p)))


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
    code = tuple(sorted(lehmer_code(check_permutation(p)), reverse=True))
    return lehmer_decode(code)


def class_min(p: Perm) -> Perm:
    """The least member of the class: rearrange the Lehmer code multiset from
    right to left, placing at each position the largest unused value that
    keeps the code sub-diagonal.  Avoids the pattern 213.

    >>> ''.join(map(str, class_min((6, 8, 2, 5, 4, 7, 1, 9, 3))))
    '139857642'
    """
    n = len(p)
    unused = sorted(lehmer_code(check_permutation(p)))
    slots = [0] * n
    for i in range(n, 0, -1):
        slots[i - 1] = unused.pop(bisect_right(unused, n - i) - 1)
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
    return all(standardize(t) != pattern for t in combinations(p, 3))
