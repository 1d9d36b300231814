"""Flagged complete homogeneous functions and flagged ribbon Schur functions.

Everything lives in the commutative variables x_0, x_1, ... .  A flag attaches
a shrinking alphabet X_m = {x_0, ..., x_m} to each part of a composition: part
i_a of I = (i_1, ..., i_r) is read over X_{i_{a+1} + ... + i_r}.

The flagged ribbon r_I is computed two independent ways — inclusion-exclusion
over coarser compositions, and a Jacobi-Trudi style determinant — and both
equal the generating function of sorted codes over the descent class D_I.
``ribbon_flagged`` and ``ribbon_determinant`` serve one composition at a
time; ``ribbon_walk`` yields both routes' values for every composition of one
n from a single depth-first walk over shared suffixes, each route keeping its
own recurrence.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import Callable, Iterator

from .permutations import Composition, check_composition, compositions_of, format_composition
from .polynomials import IndexPolynomial, Monomial

__all__ = [
    'alphabet_flag',
    'h_flagged',
    'h_product',
    'ribbon_flagged',
    'ribbon_determinant',
    'ribbon_walk',
    'format_bracket',
    'format_monomial',
    'poly_to_json',
    'ribbon_table_lines',
]


def alphabet_flag(comp: Composition) -> tuple[int, ...]:
    """Alphabet sizes (n−i_1, n−i_1−i_2, ..., 0) attached to the parts; a
    part below 1 raises ``ValueError``, so every ribbon route refuses it.

    >>> alphabet_flag((2, 1, 1, 2))
    (4, 3, 2, 0)
    """
    n = sum(check_composition(comp))
    return tuple(n - acc for acc in itertools.accumulate(comp))


@cache
def h_flagged(k: int, m: int) -> IndexPolynomial:
    """Complete homogeneous h_k over the alphabet X_m = {x_0, ..., x_m}, for
    k, m ≥ 0: the sum of all nondecreasing words 0 ≤ j_1 ≤ ... ≤ j_k ≤ m,
    with C(m+k, k) monomials.

    >>> sorted(h_flagged(2, 1).terms)
    [(0, 0), (0, 1), (1, 1)]
    """
    return IndexPolynomial.from_words(
        itertools.combinations_with_replacement(range(m + 1), k))


def h_product(comp: Composition) -> IndexPolynomial:
    """The flagged product h_{i_1}(X_{i_2+...+i_r}) ... h_{i_r}(X_0).

    Multiplied from the last part, whose alphabet is the smallest, so each
    partial product is over the fewest letters that it can be.

    >>> sorted(h_product((2, 1)).terms)
    [(0, 0, 0), (0, 0, 1), (0, 1, 1)]
    """
    out = IndexPolynomial.one()
    for part, size in reversed(tuple(zip(comp, alphabet_flag(comp)))):
        out = h_flagged(part, size) * out
    return out


def ribbon_flagged(comp: Composition) -> IndexPolynomial:
    """The flagged ribbon by inclusion-exclusion over coarser compositions,
    r_I = Σ_{J ≤ I} (−1)^{l(I)−l(J)} h^J, each J read with its own flag.

    Splitting the sum by whether J keeps the first cut of I gives the
    recurrence r_I = h_{i_1}(X_{n−i_1})·r_{(i_2,...)} − r_{(i_1+i_2,i_3,...)},
    with r_{(n)} = h_n(X_0); a part's flag depends only on the parts after it,
    so r_{(i_2,...)} keeps its own flag.  Every composition it reaches is
    (i_{b+1}+...+i_a, i_{a+1}, ..., i_r) for some b < a, so the ribbons are
    filled one row per cut a, from the last cut down.

    >>> format_bracket(ribbon_flagged((2, 1)))
    '[001] + [011]'
    """
    r = len(comp)
    if not r:
        return IndexPolynomial.one()
    # tail[a] = sum(comp[a:]); row[b] is the ribbon of (sum(comp[b:a]), *comp[a:]).
    tail = (sum(comp), *alphabet_flag(comp))
    row = [h_flagged(tail[b], 0) for b in range(r)]
    for a in reversed(range(1, r)):
        row = [h_flagged(tail[b] - tail[a], tail[a]) * row[a] - row[b] for b in range(a)]
    return row[0]


def ribbon_determinant(comp: Composition) -> IndexPolynomial:
    """The flagged ribbon as an r×r determinant: entry (a, b) for a ≤ b is
    h_{i_a+...+i_b}(X_{n−(i_1+...+i_b)}), the subdiagonal is 1, and everything
    below vanishes.

    Expanding this Hessenberg matrix along its first row leaves, for column
    k, a unitriangular block times the trailing minor of the suffix
    (i_{k+1}, ...), whose flags are its own:
    r_I = Σ_k (−1)^{k−1} h_{i_1+...+i_k}(X_{n−i_1−...−i_k})·r_{(i_{k+1},...)}.
    The minors are filled from the last suffix to the first, so each is
    built once; each is one ``IndexPolynomial.sum_of_products`` call, its
    products added into a single accumulator.

    >>> ribbon_determinant((1, 2)) == ribbon_flagged((1, 2))
    True
    """
    r = len(comp)
    # tail[a] = sum(comp[a:]); minors[a] is the ribbon of the suffix comp[a:].
    tail = (sum(comp), *alphabet_flag(comp))
    minors = [IndexPolynomial.zero()] * r + [IndexPolynomial.one()]
    for a in reversed(range(r)):
        minors[a] = IndexPolynomial.sum_of_products(
            (h_flagged(tail[a] - tail[k], tail[k]), minors[k], (k - a) % 2 == 0)
            for k in range(a + 1, r + 1))
    return minors[0]


def ribbon_walk(n: int) -> Iterator[tuple[Composition, IndexPolynomial, IndexPolynomial]]:
    """``(I, r_I by inclusion-exclusion, r_I by determinant)`` for every
    composition I of n ≥ 0: I is c[::-1] for each c of ``compositions_of(n)``,
    in that order.

    One depth-first walk prepends a part per level: a node is a suffix S of
    size m, whose flags are its own, and its children are (p, *S) for
    p = n − m, …, 1.  The routes share no value.  Inclusion-exclusion reads
    r_(p,*S) = h_p(X_m)·r_S − r_(p+s_1,*S[1:]), whose subtracted ribbon is a
    sibling of S met before it; the determinant's first-row expansion reads
    the chain of minors r_S, r_S[1:], …, r_() that are S and its ancestors.
    Only that chain and each level's children are held.

    >>> [(c, format_bracket(ie), ie == det) for c, ie, det in ribbon_walk(2)]
    [((2,), '[00]', True), ((1, 1), '[01]', True)]
    """
    if n < 0:
        raise ValueError(f'negative size {n}')
    one = IndexPolynomial.one()
    return _ribbon_node(n, (), one, one, {}, [])


def _ribbon_node(n: int, suffix: Composition, ribbon: IndexPolynomial,
                 minor: IndexPolynomial, siblings: dict, minors: list):
    """The walk below the node ``suffix``: ``ribbon`` and ``minor`` are its
    r by inclusion-exclusion and by determinant, ``siblings[q]`` the first
    route's r_(q,*suffix[1:]) for each sibling met so far, and ``minors``
    the (size, minor) pairs of its ancestors, nearest first."""
    m = sum(suffix)
    if m == n:
        yield suffix, ribbon, minor
        return
    minors = [(m, minor), *minors]
    children: dict[int, IndexPolynomial] = {}
    for p in range(n - m, 0, -1):
        child = h_flagged(p, m) * ribbon
        if suffix:
            child -= siblings[p + suffix[0]]
        children[p] = child
        determinant = IndexPolynomial.sum_of_products(
            (h_flagged(m + p - size, size), below, j % 2 == 1)
            for j, (size, below) in enumerate(minors))
        yield from _ribbon_node(n, (p, *suffix), child, determinant, children, minors)


def _index_word(mono: Monomial) -> str:
    """Sorted index word: digits while every index is below 10, else
    comma-separated."""
    return (',' if mono and max(mono) > 9 else '').join(map(str, mono))


def format_monomial(mono: Monomial) -> str:
    """Bracketed sorted index word: x_0²x_1x_2 -> ``[0012]``."""
    return f'[{_index_word(mono)}]'


def format_bracket(poly: IndexPolynomial) -> str:
    """Bracket-notation rendering, terms in ascending monomial order.

    >>> format_bracket(IndexPolynomial({(0, 1, 2): 1}))
    '[012]'
    >>> format_bracket(IndexPolynomial.one())
    '[]'
    """
    if not poly:
        return '0'
    parts = []
    for mono, coeff in sorted(poly.terms.items()):
        bracket = format_monomial(mono)
        parts.append(bracket if coeff == 1 else f'{coeff} {bracket}')
    return ' + '.join(parts)


def poly_to_json(poly: IndexPolynomial) -> list[dict[str, object]]:
    """JSON-friendly term list: [{"monomial": "0012", "coeff": 2}, ...],
    monomials written as in ``format_monomial`` without the brackets."""
    return [
        {'monomial': _index_word(mono), 'coeff': coeff}
        for mono, coeff in sorted(poly.terms.items())
    ]


def ribbon_table_lines(
    n: int,
    route: Callable[[Composition], IndexPolynomial] = ribbon_flagged,
) -> list[str]:
    """The table of ``route`` over all compositions of n, one line per
    composition in descending lexicographic order, named h_I for ``h_product``
    and r_I otherwise, e.g. ``r_21 = [001] + [011]`` for the default.
    """
    symbol = 'h' if route is h_product else 'r'
    lines = []
    for comp in compositions_of(n):
        name = ''.join(map(str, comp)) if n <= 9 else format_composition(comp)
        lines.append(f'{symbol}_{name} = {format_bracket(route(comp))}')
    return lines
