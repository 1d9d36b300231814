"""The four permutation codes and the τ framework for shuffle-compatible codes.

A code of size n is sub-diagonal: 0 ≤ c_i ≤ n−i, so the last entry is always
0.  Each of the Lehmer, inverse, major and saillance codes is a bijection from
S_n onto the set of sub-diagonal sequences.

For a code compatible with the shuffle, inserting letter 1 into β at slot i
prepends a single new entry to the code of β; the permutation τ(β) of
{0, ..., n} records that new entry as a function of i.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from operator import gt
from typing import Callable, NamedTuple

from .permutations import (
    Perm,
    Word,
    des,
    insert_one_at,
    inverse,
    iter_permutations,
    standardize,
)

__all__ = [
    'Code',
    'TauPerm',
    'is_subdiagonal',
    'check_code',
    'sorted_code',
    'lehmer_code',
    'lehmer_decode',
    'inv_code',
    'inv_decode',
    'maj_code',
    'maj_decode',
    's_code',
    's_decode',
    'tau_s',
    'tau_i',
    'tau_m',
    'CodeFamily',
    'SCODE',
    'INVCODE',
    'MAJCODE',
    'LEHMER',
    'FAMILIES',
    'generic_encode',
    'generic_decode',
    'AcceptabilityResult',
    'is_acceptable',
    'parse_code',
    'format_code',
]

Code = tuple[int, ...]
#: Permutation of {0, ..., n}, stored as a tuple indexed by 0..n.
TauPerm = tuple[int, ...]


def is_subdiagonal(c: Code) -> bool:
    """Whether 0 ≤ c_i ≤ n−i for all i (1-based i).

    >>> is_subdiagonal((2, 0, 1, 1, 0))
    True
    >>> is_subdiagonal((0, 3, 0, 0))
    False
    """
    n = len(c)
    return all(0 <= c[i] <= n - i - 1 for i in range(n))


def check_code(c: Code) -> Code:
    c = tuple(c)
    if not is_subdiagonal(c):
        raise ValueError(f'not a sub-diagonal code: {c}')
    return c


def sorted_code(c: Code) -> Code:
    """Nondecreasing rearrangement.

    >>> sorted_code((0, 3, 2, 1, 0, 0))
    (0, 0, 0, 1, 2, 3)
    """
    return tuple(sorted(c))


def lehmer_code(p: Perm) -> Code:
    """c_i = number of j > i with p(j) < p(i).

    One right-to-left pass: c_i is the rank of p(i) among the sorted letters
    already seen.

    >>> ''.join(map(str, lehmer_code((5, 3, 1, 9, 6, 2, 4, 8, 7))))
    '420520010'
    """
    seen: list[int] = []
    out = []
    for v in reversed(p):
        k = bisect_left(seen, v)
        out.append(k)
        seen.insert(k, v)
    out.reverse()
    return tuple(out)


def lehmer_decode(c: Code) -> Perm:
    """Inverse of ``lehmer_code``: pick the (c_i+1)-st smallest unused value.

    >>> lehmer_decode((4, 2, 0, 5, 2, 0, 0, 1, 0))
    (5, 3, 1, 9, 6, 2, 4, 8, 7)
    """
    check_code(c)
    available = list(range(1, len(c) + 1))
    return tuple(available.pop(ci) for ci in c)


def inv_code(p: Perm) -> Code:
    """Inverse code: entry i counts the values greater than i to the left of
    i.  Equals the Lehmer code of the inverse permutation.

    One left-to-right pass: of the j letters before position j, all but the
    ones smaller than p(j) count towards the entry of p(j).

    >>> ''.join(map(str, inv_code((4, 1, 2, 3))))
    '1110'
    """
    seen: list[int] = []
    out = [0] * len(p)
    for j, v in enumerate(p):
        k = bisect_left(seen, v)
        out[v - 1] = j - k
        seen.insert(k, v)
    return tuple(out)


def inv_decode(c: Code) -> Perm:
    """Inverse of ``inv_code``."""
    return inverse(lehmer_decode(c))


def maj_code(p: Perm) -> Code:
    """Major code: c_i = maj of the word keeping letters ≥ i, minus maj of the
    word keeping letters ≥ i+1.

    One pass deletes the letters 1, 2, ... in turn from a word w and keeps
    its descent bits d[j] = w[j] > w[j+1].  Deleting the least letter, at
    slot k, drops the descent just before it (at position k, when k > 0),
    moves every later descent one position left, and makes w[k−1], w[k+1]
    adjacent: a descent at position k again unless they form a rise.

    >>> ''.join(map(str, maj_code((9, 3, 5, 7, 2, 1, 4, 6, 8))))
    '501012010'
    """
    w = list(p)
    d = list(map(gt, w, w[1:]))
    out = []
    for i in range(1, len(w) + 1):
        k = w.index(i)
        c = d[k + 1:].count(True)
        del w[k]
        if k == 0:
            del d[:1]
        elif k == len(w):
            c += k
            del d[k - 1]
        else:
            rise = w[k - 1] < w[k]
            if rise:
                c += k
            d[k - 1] = not rise
            del d[k]
        out.append(c)
    return tuple(out)


def maj_decode(c: Code) -> Perm:
    """Inverse of ``maj_code``, τ_M read backwards: start from the letter n
    and insert n−1, ..., 1 in turn.  When the word has d descents, letter i
    goes into the (d − c_i)-th descent slot if c_i < d, and otherwise into
    rise slot number c_i − d, counted from 0, where slot 0 and the slot
    after the last letter are rises.

    >>> maj_decode((5, 0, 1, 0, 1, 2, 0, 1, 0))
    (9, 3, 5, 7, 2, 1, 4, 6, 8)
    >>> maj_decode(())
    ()
    """
    check_code(c)
    n = len(c)
    if n == 0:
        return ()
    word = [n]
    for i in range(n - 1, 0, -1):
        descents = list(compress(range(1, len(word)), map(gt, word, word[1:])))
        a = c[i - 1]
        if a < len(descents):
            slot = descents[-1 - a]
        else:
            slot = a - len(descents)
            for t in descents:  # step over the descent slots up to the rise
                if t > slot:
                    break
                slot += 1
        word.insert(slot, i)
    return tuple(word)


def s_code(p: Perm) -> Code:
    """Saillance code: a_i counts the letters ≥ r, where r is the rightmost
    letter to the left of the position of value i that exceeds i (a_i = 0 when
    no such letter exists).

    One left-to-right pass: r is the top of a stack of the letters seen so
    far that no later letter exceeds, once the ones below i are popped.

    >>> ''.join(map(str, s_code((4, 3, 1, 2, 5))))
    '33200'
    >>> ''.join(map(str, s_code((1, 5, 4, 2, 3))))
    '02210'
    """
    n = len(p)
    stack: list[int] = []
    out = [0] * n
    for v in p:
        while stack and stack[-1] < v:
            stack.pop()
        if stack:
            out[v - 1] = n + 1 - stack[-1]
        stack.append(v)
    return tuple(out)


def s_decode(c: Code) -> Perm:
    """Inverse of ``s_code``: start from the letter n and insert n−1, ..., 1 in
    turn, letter i going immediately after letter n+1−a_i (first if a_i = 0).

    >>> s_decode((3, 3, 2, 0, 0))
    (4, 3, 1, 2, 5)
    >>> s_decode((1, 1, 1, 0))
    (4, 1, 2, 3)
    """
    check_code(c)
    n = len(c)
    if n == 0:
        return ()
    word = [n]
    for i in range(n - 1, 0, -1):
        a = c[i - 1]
        if a == 0:
            word.insert(0, i)
        else:
            word.insert(word.index(n + 1 - a) + 1, i)
    return tuple(word)


def tau_s(b: Perm) -> TauPerm:
    """τ_S(β)(0) = 0 and τ_S(β)(i) = n+1−β(i).

    >>> ''.join(map(str, tau_s((9, 4, 1, 6, 2, 5, 7, 3, 8))))
    '0169485372'
    """
    n = len(b)
    return (0,) + tuple(n + 1 - v for v in b)


def tau_i(b: Perm) -> TauPerm:
    """τ_I(β) is the identity of {0, ..., n}, independent of β."""
    return tuple(range(len(b) + 1))


def tau_m(b: Perm) -> TauPerm:
    """τ_M(β)(i) = des(β) − j when i is the j-th descent of β, and
    des(β) + j − 1 when i is the j-th rise; positions 0 and n count as rises.

    >>> ''.join(map(str, tau_m((9, 4, 1, 6, 2, 5, 7, 3, 8))))
    '4325167089'
    >>> ''.join(map(str, tau_m((7, 2, 4, 5, 1, 8, 3, 6))))
    '324516078'
    """
    n = len(b)
    d = des(b)
    out = []
    descents_seen = 0
    rises_seen = 0
    for i in range(n + 1):
        if 0 < i < n and b[i - 1] > b[i]:
            descents_seen += 1
            out.append(d - descents_seen)
        else:
            rises_seen += 1
            out.append(d + rises_seen - 1)
    return tuple(out)


@dataclass(frozen=True)
class CodeFamily:
    """A code bundled with its τ map and decoder.

    The τ map says how the code is compatible with the shuffle:
    code(insert_one_at(β, i)) = (τ(β)(i),) + code(β).  It is ``None`` for a
    code without that property.
    """

    name: str
    encode: Callable[[Perm], Code]
    tau: Callable[[Perm], TauPerm] | None
    decode: Callable[[Code], Perm]


SCODE = CodeFamily('scode', s_code, tau_s, s_decode)
INVCODE = CodeFamily('invcode', inv_code, tau_i, inv_decode)
MAJCODE = CodeFamily('majcode', maj_code, tau_m, maj_decode)
LEHMER = CodeFamily('lehmer', lehmer_code, None, lehmer_decode)

#: The τ-compatible families, by name.
FAMILIES: dict[str, CodeFamily] = {f.name: f for f in (SCODE, INVCODE, MAJCODE)}


def generic_encode(family: CodeFamily, p: Perm) -> Code:
    """Encode through the τ recursion alone: strip the letter 1, standardize
    the rest to β, and prepend τ(β)(slot of the stripped letter).

    Agrees with ``family.encode`` for the three built-in families.

    >>> generic_encode(SCODE, (4, 3, 1, 2, 5))
    (3, 3, 2, 0, 0)
    """
    if len(p) == 0:
        return ()
    i = p.index(1)
    beta = standardize(p[:i] + p[i + 1:])
    return (family.tau(beta)[i],) + generic_encode(family, beta)


def generic_decode(family: CodeFamily, c: Code) -> Perm:
    """Invert the τ recursion: find the slot i with τ(β)(i) = c_1 and insert.

    τ(β) is a bijection of {0, ..., n}, so exactly one slot matches.

    >>> generic_decode(MAJCODE, (5, 0, 1, 0, 1, 2, 0, 1, 0))
    (9, 3, 5, 7, 2, 1, 4, 6, 8)
    """
    check_code(c)
    if len(c) == 0:
        return ()
    beta = generic_decode(family, c[1:])
    i = family.tau(beta).index(c[0])
    return insert_one_at(beta, i)


class AcceptabilityResult(NamedTuple):
    ok: bool
    #: On failure, the lexicographically least (β, k) whose τ prefix sets
    #: disagree after inserting 1 at slot k.
    witness: tuple[Perm, int] | None

    def __bool__(self) -> bool:
        return self.ok


def is_acceptable(family: CodeFamily, n: int) -> AcceptabilityResult:
    """Check the acceptable-code condition up to size ``n``: for every β of
    size m < n and every slot k, the sets {τ(β')(i) : i ≤ k} and
    {τ(β)(i) : i ≤ k} agree, where β' = insert_one_at(β, k).

    >>> is_acceptable(INVCODE, 4).ok
    True
    """
    for m in range(n):
        for beta in iter_permutations(m):
            tau_beta = family.tau(beta)
            for k in range(m + 1):
                tau_prime = family.tau(insert_one_at(beta, k))
                if set(tau_prime[:k + 1]) != set(tau_beta[:k + 1]):
                    return AcceptabilityResult(False, (beta, k))
    return AcceptabilityResult(True, None)


def parse_code(text: str) -> Code:
    """Parse a code: digit string (n ≤ 10) or comma-separated entries.

    >>> parse_code('420520010')
    (4, 2, 0, 5, 2, 0, 0, 1, 0)
    """
    text = text.strip()
    if ',' in text:
        entries = [int(tok) for tok in text.split(',')]
    else:
        entries = [int(ch) for ch in text]
    return check_code(entries)


def format_code(c: Code) -> str:
    """Digit string for n ≤ 10 (all entries are then single digits),
    comma-separated beyond.

    >>> format_code((4, 2, 0, 5, 2, 0, 0, 1, 0))
    '420520010'
    """
    if len(c) <= 10:
        return ''.join(map(str, c))
    return ','.join(map(str, c))
