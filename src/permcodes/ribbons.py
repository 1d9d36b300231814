"""Flagged complete homogeneous functions and flagged ribbon Schur functions.

Everything lives in the commutative variables x_0, x_1, ... .  A flag attaches
a shrinking alphabet X_m = {x_0, ..., x_m} to each part of a composition: part
i_a of I = (i_1, ..., i_r) is read over X_{i_{a+1} + ... + i_r}.

The flagged ribbon r_I is computed two independent ways — inclusion-exclusion
over coarser compositions, and a Jacobi-Trudi style determinant — and both
equal the generating function of sorted codes over the descent class D_I.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import Callable

from .permutations import Composition, compositions_of, format_composition
from .polynomials import IndexPolynomial, Monomial

__all__ = [
    'alphabet_flag',
    'h_flagged',
    'h_product',
    'ribbon_flagged',
    'ribbon_determinant',
    'format_bracket',
    'format_monomial',
    'poly_to_json',
    'ribbon_table_lines',
]


def alphabet_flag(comp: Composition) -> tuple[int, ...]:
    """Alphabet sizes (n−i_1, n−i_1−i_2, ..., 0) attached to the parts.

    >>> alphabet_flag((2, 1, 1, 2))
    (4, 3, 2, 0)
    """
    n = sum(comp)
    sizes = []
    acc = 0
    for part in comp:
        acc += part
        sizes.append(n - acc)
    return tuple(sizes)


@cache
def h_flagged(k: int, m: int) -> IndexPolynomial:
    """Complete homogeneous h_k over the alphabet X_m = {x_0, ..., x_m}: the
    sum of all nondecreasing words 0 ≤ j_1 ≤ ... ≤ j_k ≤ m, with C(m+k, k)
    monomials.

    >>> sorted(h_flagged(2, 1).terms)
    [(0, 0), (0, 1), (1, 1)]
    """
    if k < 0 or m < 0:
        return IndexPolynomial.zero()
    terms = {
        word: 1
        for word in itertools.combinations_with_replacement(range(m + 1), k)
    }
    return IndexPolynomial(terms)


def h_product(comp: Composition) -> IndexPolynomial:
    """The flagged product h_{i_1}(X_{i_2+...+i_r}) ... h_{i_r}(X_0).

    >>> sorted(h_product((2, 1)).terms)
    [(0, 0, 0), (0, 0, 1), (0, 1, 1)]
    """
    out = IndexPolynomial.one()
    for part, size in zip(comp, alphabet_flag(comp)):
        out = out * h_flagged(part, size)
    return out


def ribbon_flagged(comp: Composition) -> IndexPolynomial:
    """The flagged ribbon by inclusion-exclusion over coarser compositions,
    r_I = Σ_{J ≤ I} (−1)^{l(I)−l(J)} h^J, each J read with its own flag.

    Splitting the sum by whether J keeps the first cut of I gives the
    recurrence r_I = h_{i_1}(X_{n−i_1})·r_{(i_2,...)} − r_{(i_1+i_2,i_3,...)},
    with r_{(n)} = h_n(X_0); a part's flag depends only on the parts after it,
    so r_{(i_2,...)} keeps its own flag.  Memoised per call.

    >>> format_bracket(ribbon_flagged((2, 1)))
    '[001] + [011]'
    """
    memo: dict[Composition, IndexPolynomial] = {}

    def r(parts: Composition) -> IndexPolynomial:
        if parts not in memo:
            first, rest = parts[0], parts[1:]
            out = h_flagged(first, sum(rest))
            if rest:
                out = out * r(rest) - r((first + rest[0],) + rest[1:])
            memo[parts] = out
        return memo[parts]

    return r(tuple(comp)) if comp else IndexPolynomial.one()


def ribbon_determinant(comp: Composition) -> IndexPolynomial:
    """The flagged ribbon as an r×r determinant: entry (a, b) for a ≤ b is
    h_{i_a+...+i_b}(X_{n−(i_1+...+i_b)}), the subdiagonal is 1, and everything
    below vanishes.

    Expanding this Hessenberg matrix along its first row leaves, for column
    k, a unitriangular block times the trailing minor of the suffix
    (i_{k+1}, ...), whose flags are its own:
    r_I = Σ_k (−1)^{k−1} h_{i_1+...+i_k}(X_{n−i_1−...−i_k})·r_{(i_{k+1},...)}.
    Memoised per call over the r + 1 suffixes.

    >>> ribbon_determinant((1, 2)) == ribbon_flagged((1, 2))
    True
    """
    r = len(comp)
    # tail[a] = sum(comp[a:]); minors[a] is the ribbon of the suffix comp[a:].
    tail = list(itertools.accumulate(reversed(comp), initial=0))[::-1]
    minors = [IndexPolynomial.zero()] * r + [IndexPolynomial.one()]
    for a in reversed(range(r)):
        out = IndexPolynomial.zero()
        for k in range(a + 1, r + 1):
            term = h_flagged(tail[a] - tail[k], tail[k]) * minors[k]
            out = out - term if (k - a) % 2 == 0 else out + term
        minors[a] = out
    return minors[0]


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
    for mono in sorted(poly.terms):
        coeff = poly.terms[mono]
        bracket = format_monomial(mono)
        parts.append(bracket if coeff == 1 else f'{coeff} {bracket}')
    return ' + '.join(parts)


def poly_to_json(poly: IndexPolynomial) -> list[dict[str, object]]:
    """JSON-friendly term list: [{"monomial": "0012", "coeff": 2}, ...],
    monomials written as in ``format_monomial`` without the brackets."""
    return [
        {'monomial': _index_word(mono), 'coeff': poly.terms[mono]}
        for mono in sorted(poly.terms)
    ]


def ribbon_table_lines(
    n: int,
    route: Callable[[Composition], IndexPolynomial] = ribbon_flagged,
    symbol: str = 'r',
) -> list[str]:
    """The table of ``route`` over all compositions of n, one line per
    composition in descending lexicographic order, e.g. ``r_21 = [001] +
    [011]`` for the default r_I by inclusion–exclusion.
    """
    lines = []
    for comp in compositions_of(n):
        name = ''.join(map(str, comp)) if n <= 9 else format_composition(comp)
        lines.append(f'{symbol}_{name} = {format_bracket(route(comp))}')
    return lines
