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

from .permutations import Composition, coarser_compositions, format_composition
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
    """The flagged ribbon by inclusion-exclusion over coarser compositions:
    r_I = Σ_{J ≤ I} (−1)^{l(I)−l(J)} h^J, each J read with its own flag.

    >>> format_bracket(ribbon_flagged((2, 1)))
    '[001] + [011]'
    """
    out = IndexPolynomial.zero()
    r = len(comp)
    for other in coarser_compositions(comp):
        term = h_product(other)
        if (r - len(other)) % 2:
            out = out - term
        else:
            out = out + term
    return out


def ribbon_determinant(comp: Composition) -> IndexPolynomial:
    """The flagged ribbon as an r×r determinant: entry (a, b) for a ≤ b is
    h_{i_a+...+i_b}(X_{n−(i_1+...+i_b)}), the subdiagonal is 1, and everything
    below vanishes.  Expanded by the Leibniz sum over permutations, skipping
    the structural zeros.

    >>> ribbon_determinant((1, 2)) == ribbon_flagged((1, 2))
    True
    """
    r = len(comp)
    if r == 0:
        return IndexPolynomial.one()
    n = sum(comp)
    prefix = list(itertools.accumulate(comp))

    def entry(a: int, b: int) -> IndexPolynomial | None:
        # None encodes a structural zero below the subdiagonal.
        if a > b + 1:
            return None
        if a == b + 1:
            return IndexPolynomial.one()
        k = prefix[b] - (prefix[a - 1] if a > 0 else 0)
        return h_flagged(k, n - prefix[b])

    out = IndexPolynomial.zero()
    for sigma in itertools.permutations(range(r)):
        factors = []
        for a in range(r):
            f = entry(a, sigma[a])
            if f is None:
                break
            factors.append(f)
        else:
            term = IndexPolynomial.one()
            for f in factors:
                term = term * f
            sign = _permutation_sign(sigma)
            out = out + term * sign
    return out


def _permutation_sign(sigma: tuple[int, ...]) -> int:
    inversions = sum(
        1
        for i in range(len(sigma))
        for j in range(i + 1, len(sigma))
        if sigma[i] > sigma[j]
    )
    return -1 if inversions % 2 else 1


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


def ribbon_table_lines(n: int) -> list[str]:
    """The r_I table for all compositions of n, one line per composition in
    descending lexicographic order, e.g. ``r_21 = [001] + [011]``.
    """
    from .permutations import compositions_of

    lines = []
    for comp in compositions_of(n):
        name = ''.join(map(str, comp)) if n <= 9 else format_composition(comp)
        lines.append(f'r_{name} = {format_bracket(ribbon_flagged(comp))}')
    return lines
