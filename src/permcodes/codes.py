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
from operator import le
from typing import Callable

from .permutations import (
    Perm,
    insert_one_at,
    iter_permutations,
    parse_integers,
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
    'acceptability_witness',
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
    >>> is_subdiagonal((0, -1))
    False
    """
    return all(map(le, c, range(len(c) - 1, -1, -1))) and (not c or min(c) >= 0)


def _bad_code(c: Code) -> ValueError:
    return ValueError(f'not a sub-diagonal code: {tuple(c)}')


def check_code(c: Code) -> Code:
    """``c`` as a tuple, or the ``ValueError`` for a code that is not
    sub-diagonal.  The four decoders raise the same error from inside their
    own loops, where a bad entry makes a lookup or an insert fail, so they
    read a good code once and do not call this.
    """
    c = tuple(c)
    if not is_subdiagonal(c):
        raise _bad_code(c)
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

    An entry above n−i pops past the end of the unused values, and a
    negative one, which ``list.pop`` would take, is refused before any pick.

    >>> lehmer_decode((4, 2, 0, 5, 2, 0, 0, 1, 0))
    (5, 3, 1, 9, 6, 2, 4, 8, 7)
    """
    if c and min(c) < 0:
        raise _bad_code(c)
    available = list(range(1, len(c) + 1))
    try:
        return tuple(map(available.pop, c))
    except IndexError:
        raise _bad_code(c) from None


def inv_code(p: Perm) -> Code:
    """Inverse code: entry i counts the values greater than i to the left of
    i.  Equals the Lehmer code of the inverse permutation.

    One left-to-right pass keeps the letters seen so far as the bits of one
    int: the entry of p(j) is the number of bits set above bit p(j).

    >>> ''.join(map(str, inv_code((4, 1, 2, 3))))
    '1110'
    """
    seen = 0
    out = [0] * len(p)
    for v in p:
        out[v - 1] = (seen >> v).bit_count()
        seen |= 1 << v
    return tuple(out)


def inv_decode(c: Code) -> Perm:
    """Inverse of ``inv_code``: insert n, n−1, ..., 1 in turn, letter i at
    index c_i of the word so far, which then holds only letters greater than
    i, so exactly c_i of them stand to its left.

    ``list.insert`` clamps an index out of range, so each entry is checked
    against 0..n−i as it is read.

    >>> inv_decode((1, 1, 1, 0))
    (4, 1, 2, 3)
    """
    n = len(c)
    word: list[int] = []
    for i in range(n, 0, -1):
        a = c[i - 1]
        if not 0 <= a <= n - i:
            raise _bad_code(c)
        word.insert(a, i)
    return tuple(word)


def maj_code(p: Perm) -> Code:
    """Major code: c_i = maj of the word keeping letters ≥ i, minus maj of the
    word keeping letters ≥ i+1.

    τ_M read forward: one pass places the letters n, n−1, ..., 1 in turn,
    each at its position q, and keeps two sets of positions as the bits of
    one int each: ``alive``, the positions placed so far, and ``desc``, those
    among them that start a descent.  The new least letter starts no
    descent.  It moves each descent after q one place right, which adds one
    per such descent to maj.  The last live position before q becomes a
    descent if it was not one, which adds its rank among the live positions.
    No letter is compared, and no list is searched or cut.

    >>> ''.join(map(str, maj_code((9, 3, 5, 7, 2, 1, 4, 6, 8))))
    '501012010'
    """
    where = [0] * len(p)
    for j, v in enumerate(p):
        where[v - 1] = j
    alive = desc = 0
    out = []
    for q in reversed(where):
        low = alive & ((1 << q) - 1)
        c = (desc >> q).bit_count()
        if low:
            top = 1 << (low.bit_length() - 1)
            if not desc & top:
                c += low.bit_count()
                desc |= top
        alive |= 1 << q
        out.append(c)
    out.reverse()
    return tuple(out)


def maj_decode(c: Code) -> Perm:
    """Inverse of ``maj_code``, τ_M read backwards: insert n, n−1, ..., 1 in
    turn into the empty word.  When the word has d descents, letter i goes
    into the (d − c_i)-th descent slot if c_i < d, and otherwise into rise
    slot number c_i − d, counted from 0, where slot 0 and the slot after the
    last letter are rises.

    Each slot is named by the letter on its right, and the slot after the
    last letter by 0; ``descs`` and ``rises`` hold the names of the descent
    and rise slots in word order.  The empty word has the one slot 0, a
    rise.  Inserting the new least letter i at position s splits slot s in
    two: the slot before i, named i, is a descent unless s = 0, and the slot
    after i keeps the old name and is a rise.

    A negative entry asks for a slot past the end of ``descs``, and one above
    n−i for a slot past the end of ``rises``.

    >>> maj_decode((5, 0, 1, 0, 1, 2, 0, 1, 0))
    (9, 3, 5, 7, 2, 1, 4, 6, 8)
    >>> maj_decode(())
    ()
    """
    word: list[int] = []
    descs: list[int] = []
    rises = [0]
    try:
        for i in range(len(c), 0, -1):
            a = c[i - 1]
            d = len(descs)
            if a < d:
                j = d - 1 - a
                x = descs[j]
                s = word.index(x)
                descs[j] = i
                rises.insert(s - j, x)
            else:
                r = a - d
                x = rises[r]
                s = word.index(x) if x else len(word)
                if s:
                    descs.insert(s - r, i)
                else:
                    rises.insert(0, i)
            word.insert(s, i)
    except IndexError:
        raise _bad_code(c) from None
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
    """Inverse of ``s_code``: insert n, n−1, ..., 1 in turn into the empty
    word, letter i going immediately after letter n+1−a_i, or first if
    a_i = 0.  The last entry a_n is 0, so n goes in first.

    An entry a_i outside 0..n−i names a letter that the word, holding
    exactly i+1, ..., n, does not have.

    >>> s_decode((3, 3, 2, 0, 0))
    (4, 3, 1, 2, 5)
    >>> s_decode((1, 1, 1, 0))
    (4, 1, 2, 3)
    """
    n = len(c)
    word: list[int] = []
    try:
        for i in range(n, 0, -1):
            a = c[i - 1]
            if a == 0:
                word.insert(0, i)
            else:
                word.insert(word.index(n + 1 - a) + 1, i)
    except ValueError:
        raise _bad_code(c) from None
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
    descents = [0 < i < n and b[i - 1] > b[i] for i in range(n + 1)]
    d = sum(descents)
    out = []
    seen = 0
    for i, descent in enumerate(descents):
        seen += descent
        out.append(d - seen if descent else d + i - seen)
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


def acceptability_witness(family: CodeFamily, n: int) -> tuple[Perm, int] | None:
    """The first (β, k), by size m < n, then β in lexicographic order, then
    slot k, at which the sets {τ(β')(i) : i ≤ k} and {τ(β)(i) : i ≤ k}
    differ, where β' = insert_one_at(β, k); ``None`` when the family is
    acceptable up to size ``n``.

    >>> acceptability_witness(INVCODE, 4) is None
    True
    """
    for m in range(n):
        for beta in iter_permutations(m):
            tau_beta = family.tau(beta)
            for k in range(m + 1):
                tau_prime = family.tau(insert_one_at(beta, k))
                if set(tau_prime[:k + 1]) != set(tau_beta[:k + 1]):
                    return beta, k
    return None


def parse_code(text: str) -> Code:
    """Parse a code in a form ``parse_integers`` reads: a digit string
    (n ≤ 10) or comma-separated entries.

    >>> parse_code('420520010')
    (4, 2, 0, 5, 2, 0, 0, 1, 0)
    """
    return check_code(parse_integers(text, 'code'))


def format_code(c: Code) -> str:
    """Digit string for n ≤ 10 (all entries are then single digits),
    comma-separated beyond.

    >>> format_code((4, 2, 0, 5, 2, 0, 0, 1, 0))
    '420520010'
    """
    if len(c) <= 10:
        return ''.join(map(str, c))
    return ','.join(map(str, c))
