"""Permutations, words, compositions, and descent machinery.

Permutations are tuples of 1-based values in one-line notation: the tuple
``(3, 1, 4, 5, 2)`` is the permutation sending 1 to 3, 2 to 1, and so on.
The empty tuple is the identity of size 0.  Compositions are tuples of
positive parts; words are tuples of non-negative letters.
"""

from __future__ import annotations

import itertools
import operator
from functools import cache
from typing import Iterable, Iterator, Sequence

__all__ = [
    'Perm',
    'Word',
    'Composition',
    'check_permutation',
    'check_composition',
    'inverse',
    'iter_permutations',
    'descent_composition',
    'des',
    'maj',
    'inv',
    'standardize',
    'evaluation',
    'shifted_word',
    'insert_one_at',
    'coarser_compositions',
    'compositions_of',
    'descent_class',
    'inverse_descent_class',
    'identity_block_shuffle',
    'parse_integers',
    'parse_permutation',
    'format_permutation',
    'parse_composition',
    'format_composition',
]

Perm = tuple[int, ...]
Word = tuple[int, ...]
Composition = tuple[int, ...]

def check_permutation(word: Iterable[int]) -> Perm:
    """Return ``word`` as a permutation tuple, or raise ValueError."""
    p = tuple(word)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f'not a permutation of 1..{len(p)}: {p}')
    return p


def inverse(p: Perm) -> Perm:
    """The inverse permutation.

    >>> inverse((4, 3, 1, 2, 5))
    (3, 4, 2, 1, 5)
    >>> inverse((3, 1, 2))
    (2, 3, 1)
    """
    q = [0] * len(p)
    for i, v in enumerate(p):
        q[v - 1] = i + 1
    return tuple(q)


def check_composition(parts: Iterable[int]) -> Composition:
    """Return ``parts`` as a composition tuple, or raise ValueError."""
    comp = tuple(parts)
    if any(part < 1 for part in comp):
        raise ValueError(f'composition parts must be positive: {comp}')
    return comp


def iter_permutations(n: int) -> Iterator[Perm]:
    """All permutations of size ``n`` in lexicographic order."""
    if n < 0:
        raise ValueError(f'negative size {n}')
    return itertools.permutations(range(1, n + 1))


def descent_composition(p: Perm) -> Composition:
    """The lengths of the maximal rising runs of p: the composition of n
    whose proper partial sums are the descents of p.

    >>> descent_composition((1, 5, 4, 3, 2, 6))
    (2, 1, 1, 2)
    >>> descent_composition(())
    ()
    """
    parts = [1] if p else []
    for descends in map(operator.gt, p, p[1:]):
        if descends:
            parts.append(1)
        else:
            parts[-1] += 1
    return tuple(parts)


def des(p: Perm) -> int:
    """Number of descents."""
    return sum(map(operator.gt, p, p[1:]))


def maj(p: Perm) -> int:
    """Major index: the sum of the descent positions.

    >>> maj((9, 3, 5, 7, 2, 1, 4, 6, 8))
    10
    """
    return sum(itertools.compress(itertools.count(1), map(operator.gt, p, p[1:])))


def inv(p: Perm) -> int:
    """Inversion number: pairs i < j with p(i) > p(j).

    >>> inv((5, 3, 1, 9, 6, 2, 4, 8, 7))
    14
    """
    return sum(itertools.starmap(operator.gt, itertools.combinations(p, 2)))


def standardize(w: Sequence[int]) -> Perm:
    """The pattern of ``w``: j-th smallest letter becomes j, ties broken left
    to right.

    >>> standardize((3, 1, 4, 1, 5))
    (3, 1, 4, 2, 5)
    """
    return inverse(sorted(range(1, len(w) + 1), key=lambda i: (w[i - 1], i)))


def evaluation(w: Word) -> tuple[int, ...]:
    """Occurrence counts of each letter of the alphabet {0, ..., n} in the
    word ``w`` of size n, so the result has n+1 entries; a letter outside
    that alphabet raises ``ValueError``.

    >>> evaluation((4, 5, 1, 4, 3, 2, 5, 1, 8, 1, 2))
    (0, 3, 2, 1, 2, 2, 0, 0, 1, 0, 0, 0)
    >>> evaluation((0, 0, 0))
    (3, 0, 0, 0)
    """
    size = len(w) + 1
    counts = [0] * size
    for letter in w:
        if not 0 <= letter < size:
            raise ValueError(f'letter {letter} outside alphabet of size {size}')
        counts[letter] += 1
    return tuple(counts)


def shifted_word(w: Word, k: int) -> Word:
    """``w`` with every letter increased by ``k``."""
    return tuple(x + k for x in w)


def insert_one_at(b: Perm, i: int) -> Perm:
    """The element of the shifted shuffle 1 ⧢ b whose letter 1 sits after
    exactly ``i`` letters.

    >>> insert_one_at((2, 1), 1)
    (3, 1, 2)
    >>> insert_one_at((7, 2, 4, 5, 1, 8, 3, 6), 5)
    (8, 3, 5, 6, 2, 1, 9, 4, 7)
    """
    if not 0 <= i <= len(b):
        raise ValueError(f'insertion slot {i} out of range 0..{len(b)}')
    shifted = shifted_word(b, 1)
    return shifted[:i] + (1,) + shifted[i:]


def coarser_compositions(comp: Composition) -> list[Composition]:
    """All compositions coarser than ``comp``: those whose cuts, the proper
    partial sums, are cuts of ``comp``; in descending lexicographic order.

    Built from the last part: each coarsening of the parts after ``part``
    either adds ``part`` to its first part or takes it as a new first part.
    The merged ones have the larger first part, so they come first and the
    list stays in descending order.

    >>> coarser_compositions((2, 1))
    [(3,), (2, 1)]
    """
    out = [()]
    for part in reversed(comp):
        out = [(part + c[0], *c[1:]) for c in out if c] + [(part, *c) for c in out]
    return out


def compositions_of(n: int) -> list[Composition]:
    """All 2^(n-1) compositions of ``n`` in descending lexicographic order.

    >>> compositions_of(3)
    [(3,), (2, 1), (1, 2), (1, 1, 1)]
    """
    if n < 0:
        raise ValueError(f'negative size {n}')
    return coarser_compositions((1,) * n)


@cache
def _merge_getters(k: int, m: int) -> tuple[tuple[operator.itemgetter, ...],
                                             tuple[int, ...], tuple[int, ...]]:
    """One ``itemgetter`` per interleaving of a k-letter word u with an
    m-letter word v, which reads the interleaving off u + v; the constant of
    each, the inversions it adds when every letter of v exceeds every
    letter of u; and the group ends.  If v takes the slots
    p_0 < … < p_(m−1), v's letter j has k − (p_j − j) letters of u after
    it, so the constant is m·k + m(m − 1)/2 − Σ p_j.  Group j holds those
    with j letters of u before v's first letter (all k when m = 0), in
    lexicographic order of the positions v takes; the getters and
    constants list the groups in turn, and ``ends[j]`` counts groups 0..j.
    A word of one letter is read by a slice, as a one-index ``itemgetter``
    returns a letter.  Each table is built once and kept, hence tuples.

    >>> getters, constants, ends = _merge_getters(2, 1)
    >>> [g('ab' + 'c') for g in getters], constants, ends
    ([('c', 'a', 'b'), ('a', 'c', 'b'), ('a', 'b', 'c')], (2, 1, 0), (1, 2, 3))
    """
    n = k + m
    getters: list[operator.itemgetter] = []
    constants: list[int] = []
    sizes = [0] * (k + 1)
    base = m * k + m * (m - 1) // 2
    for slots in itertools.combinations(range(n), m):
        # v's letters go in from the left, each at its final slot
        order = list(range(k))
        for j, slot in enumerate(slots):
            order.insert(slot, k + j)
        getters.append(
            operator.itemgetter(*order) if n > 1 else operator.itemgetter(slice(None)))
        constants.append(base - sum(slots))
        sizes[slots[0] if m else k] += 1
    return tuple(getters), tuple(constants), tuple(itertools.accumulate(sizes))


def _inverse_descent_walk(comp: Composition) -> tuple[list[Perm], list[int]]:
    """The words of ``inverse_descent_class(comp)``, in its order, and the
    inversion number of each: a word's count is its parent's plus the
    constant of the getter that read it.

    >>> _inverse_descent_walk((2, 1))
    ([(3, 1, 2), (1, 3, 2)], [2, 1])
    """
    if not check_composition(comp):
        return [()], [0]
    k = comp[0]
    words, counts = [tuple(range(1, k + 1))], [0]
    for m in comp[1:]:
        run = tuple(range(k + 1, k + m + 1))
        getters, constants, ends = _merge_getters(k, m)
        out: list[Perm] = []
        out_counts: list[int] = []
        for w, count in zip(words, counts):
            word = w + run
            # groups 0..j, the merges that put the run's first letter
            # before the letter k at index j of w
            end = ends[w.index(k)]
            out += [getter(word) for getter in getters[:end]]
            out_counts += map(count.__add__, constants[:end])
        words, counts = out, out_counts
        k += m
    return words, counts


def inverse_descent_class(comp: Composition) -> list[Perm]:
    """The inverses of the permutations with descent composition ``comp``,
    each once: the shuffles of the runs (1..i_1), (i_1+1..i_1+i_2), ... in
    which each run's first letter comes before the previous run's last, as
    σ rises inside each block and descends at a cut s exactly when s + 1
    comes before s in σ⁻¹.

    Built one run at a time, unsorted: each word of the runs so far, in
    turn, is followed by its merges with the next run that keep that
    descent, in lexicographic order of the positions the run takes, each
    read by one ``_merge_getters`` getter.  This is the list of words of
    ``_inverse_descent_walk``, which also sums the getters' constants, the
    inversions each merge adds, into each word's inv.

    >>> [''.join(map(str, p)) for p in inverse_descent_class((2, 1))]
    ['312', '132']
    >>> inverse_descent_class(())
    [()]
    """
    return _inverse_descent_walk(comp)[0]


def descent_class(comp: Composition) -> list[Perm]:
    """All permutations with descent composition ``comp``, sorted: the
    inverses of ``inverse_descent_class(comp)``.

    >>> [''.join(map(str, p)) for p in descent_class((2, 1))]
    ['132', '231']
    """
    return sorted(map(inverse, inverse_descent_class(comp)))


def identity_block_shuffle(comp: Composition) -> list[Perm]:
    """The shifted shuffle id_{i_1} ⩂ id_{i_2} ⩂ ... ⩂ id_{i_r}, sorted.

    Its elements are exactly the inverses of the permutations whose descent
    set lies in Set(comp): the inverse descent classes of the coarser
    compositions.  It is kept for ``bench/tracing.py``, which wraps it.

    >>> [''.join(map(str, p)) for p in identity_block_shuffle((2, 1))]
    ['123', '132', '312']
    """
    return sorted(itertools.chain.from_iterable(
        map(inverse_descent_class, coarser_compositions(comp))))


def parse_integers(text: str, what: str) -> list[int]:
    """The integers of a permutation, composition or code written as digits
    (``2112``), comma-separated (``2,1,1,2``) or comma-separated in
    parentheses (``(2,1,1,2)``); ``what`` names the thing in the error.
    Parenthesized text is always split on commas, so ``(10)`` is one entry.
    Each entry is ASCII digits, optionally after ``-`` and between spaces.

    >>> parse_integers('(10)', 'composition')
    [10]
    >>> parse_integers('2,,1', 'composition')
    Traceback (most recent call last):
    ...
    ValueError: malformed composition '2,,1': write digits like 2112, or integers separated by commas like 2,1,1,2 or (2,1,1,2)
    """
    body = text.strip()
    if body[:1] == '(' and body[-1:] == ')':
        body = body[1:-1]
        tokens = body.split(',') if body.strip() else []
    else:
        tokens = body.split(',') if ',' in body else list(body)
    # int() alone would also read '+1', '1_0' and non-ASCII digits
    if not all(t.isascii() and t.strip().removeprefix('-').isdigit() for t in tokens):
        raise ValueError(
            f'malformed {what} {text!r}: write digits like 2112, or integers '
            f'separated by commas like 2,1,1,2 or (2,1,1,2)')
    return [int(token) for token in tokens]


def parse_permutation(text: str) -> Perm:
    """Parse one-line notation in a form ``parse_integers`` reads.

    >>> parse_permutation('31452')
    (3, 1, 4, 5, 2)
    >>> parse_permutation('10,2,3,4,5,6,7,8,9,1')
    (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)
    """
    return check_permutation(parse_integers(text, 'permutation'))


def format_permutation(p: Perm) -> str:
    """One-line notation: compact digit string for n ≤ 9, comma-separated
    beyond.

    >>> format_permutation((3, 1, 4, 5, 2))
    '31452'
    """
    if len(p) <= 9:
        return ''.join(map(str, p))
    return ','.join(map(str, p))


def parse_composition(text: str) -> Composition:
    """Parse ``(2,1,1,2)``, ``2,1,1,2`` or the compact ``2112``, the forms
    ``parse_integers`` reads; it inverts ``format_composition``.

    >>> parse_composition('(2,1,1,2)')
    (2, 1, 1, 2)
    >>> parse_composition('2112')
    (2, 1, 1, 2)
    >>> parse_composition('(10)')
    (10,)
    """
    return check_composition(parse_integers(text, 'composition'))


def format_composition(comp: Composition) -> str:
    """Parenthesized part list, e.g. ``(2,1,1,2)``."""
    return '(' + ','.join(map(str, comp)) + ')'
