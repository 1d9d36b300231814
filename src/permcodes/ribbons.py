"""Flagged complete homogeneous functions and flagged ribbon Schur functions.

Everything lives in the commutative variables x_0, x_1, ... .  A flag attaches
a shrinking alphabet X_m = {x_0, ..., x_m} to each part of a composition: part
i_a of I = (i_1, ..., i_r) is read over X_{i_{a+1} + ... + i_r}.

The flagged ribbon r_I is computed two independent ways — inclusion-exclusion
over coarser compositions, and a Jacobi-Trudi style determinant — and both
equal the generating function of sorted codes over the descent class D_I.
Each route's recurrence is one step that prepends a part to a suffix:
``ribbon_flagged`` and ``ribbon_determinant`` fold it along one
composition's suffixes, and ``ribbon_walk`` takes both steps at every node
of one depth-first walk over the compositions of n that share suffixes.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import Callable, Iterable, Iterator

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


def _inclusion_exclusion_step(sizes: Iterable[int], m: int, ribbon: IndexPolynomial,
                              siblings: dict) -> dict[int, IndexPolynomial]:
    """The children r_(k−m,*S) of a suffix S of size m by inclusion-exclusion,
    keyed by their sizes k in ``sizes``, from ``ribbon`` = r_S and the
    children ``siblings`` of S[1:], keyed the same way.

    In r_I = Σ_{J ≤ I} (−1)^{l(I)−l(J)} h^J for I = (p, *S), the J that keep
    the first cut are (p, *J') for J' ≤ S, whose flags are their own, and
    the others are the J ≤ (p+s_1, *S[1:]), so
    r_(p,*S) = h_p(X_m)·r_S − r_(p+s_1,*S[1:]) = h_p(X_m)·r_S − siblings[m+p].
    The empty suffix's children are h_k(X_0), with no product by 1.
    """
    if not m:
        return {k: h_flagged(k, 0) for k in sizes}
    return {k: h_flagged(k - m, m) * ribbon - siblings[k] for k in sizes}


def _determinant_step(k: int, chain: list) -> IndexPolynomial:
    """r_(k−m,*S) by the determinant, for the suffix S of size m heading
    ``chain``, which holds the (size, ribbon) pairs of S, S[1:], ..., ().

    Expanding the Hessenberg matrix of I along its first row leaves, for
    column j, a unitriangular block times the trailing minor of the suffix
    (i_{j+1}, ...), whose flags are its own, so
    r_I = Σ_j (−1)^{j−1} h_{i_1+...+i_j}(X_{n−i_1−...−i_j})·r_{(i_{j+1},...)}:
    one ``IndexPolynomial.sum_of_products`` over the chain.
    """
    return IndexPolynomial.sum_of_products(
        (h_flagged(k - size, size), minor, j % 2 == 1)
        for j, (size, minor) in enumerate(chain))


def ribbon_flagged(comp: Composition) -> IndexPolynomial:
    """The flagged ribbon by inclusion-exclusion over coarser compositions,
    r_I = Σ_{J ≤ I} (−1)^{l(I)−l(J)} h^J, each J read with its own flag.

    ``_inclusion_exclusion_step`` is folded from the last part, each level
    asking only for the children (i_b+...+i_a, i_{a+1}, ...), b ≤ a, that a
    later cut subtracts.

    >>> format_bracket(ribbon_flagged((2, 1)))
    '[001] + [011]'
    """
    # tail[a] = sum(comp[a:])
    tail = (sum(comp), *alphabet_flag(comp))
    ribbon, children = IndexPolynomial.one(), {}
    for a in reversed(range(len(comp))):
        children = _inclusion_exclusion_step(tail[:a + 1], tail[a + 1], ribbon, children)
        ribbon = children[tail[a]]
    return ribbon


def ribbon_determinant(comp: Composition) -> IndexPolynomial:
    """The flagged ribbon as an r×r determinant: entry (a, b) for a ≤ b is
    h_{i_a+...+i_b}(X_{n−(i_1+...+i_b)}), the subdiagonal is 1, and everything
    below vanishes.

    ``_determinant_step``, its first-row expansion
    r_I = Σ_k (−1)^{k−1} h_{i_1+...+i_k}(X_{n−i_1−...−i_k})·r_{(i_{k+1},...)},
    is folded along the suffixes of I from the last, each minor built once.

    >>> ribbon_determinant((1, 2)) == ribbon_flagged((1, 2))
    True
    """
    chain = [(0, IndexPolynomial.one())]
    for size in itertools.accumulate(reversed(check_composition(comp))):
        chain = [(size, _determinant_step(size, chain)), *chain]
    return chain[0][1]


def ribbon_walk(n: int) -> Iterator[tuple[Composition, IndexPolynomial, IndexPolynomial]]:
    """``(I, r_I by inclusion-exclusion, r_I by determinant)`` for every
    composition I of n ≥ 0: I is c[::-1] for each c of ``compositions_of(n)``,
    in that order.

    One depth-first walk prepends a part per level: a node is a suffix S of
    size m, whose flags are its own, and its children are (p, *S) for
    p = n − m, …, 1.  Each node takes both routes' steps, which share no
    value: ``_inclusion_exclusion_step``'s
    r_(p,*S) = h_p(X_m)·r_S − r_(p+s_1,*S[1:]) subtracts a child of S's
    parent, and ``_determinant_step`` expands over the minors of S and its
    ancestors.  Only that chain of minors and each level's children are held.

    >>> [(c, format_bracket(ie), ie == det) for c, ie, det in ribbon_walk(2)]
    [((2,), '[00]', True), ((1, 1), '[01]', True)]
    """
    if n < 0:
        raise ValueError(f'negative size {n}')
    one = IndexPolynomial.one()
    return _ribbon_node(n, (), one, {}, [(0, one)])


def _ribbon_node(n: int, suffix: Composition, ribbon: IndexPolynomial,
                 siblings: dict, chain: list):
    """The walk below ``suffix``, whose r by inclusion-exclusion is
    ``ribbon``; ``siblings`` and ``chain`` are what its two steps read."""
    m, minor = chain[0]
    if m == n:
        yield suffix, ribbon, minor
        return
    children = _inclusion_exclusion_step(range(n, m, -1), m, ribbon, siblings)
    for k, child in children.items():
        yield from _ribbon_node(n, (k - m, *suffix), child, children,
                                [(k, _determinant_step(k, chain)), *chain])


def _index_word(mono: Monomial) -> str:
    """Sorted index word: digits while every index is below 10, else
    comma-separated."""
    return (',' if mono and max(mono) > 9 else '').join(map(str, mono))


def format_monomial(mono: Monomial) -> str:
    """Bracketed sorted index word: x_0²x_1x_2 -> ``[0012]``."""
    return f'[{_index_word(mono)}]'


def format_bracket(poly: IndexPolynomial,
                   bracket: Callable[[Monomial], str] = format_monomial) -> str:
    """Bracket-notation rendering, terms in ascending monomial order, each
    monomial rendered by ``bracket``.

    >>> format_bracket(IndexPolynomial({(0, 1, 2): 1}))
    '[012]'
    >>> format_bracket(IndexPolynomial.one())
    '[]'
    """
    if not poly:
        return '0'
    return ' + '.join(bracket(mono) if coeff == 1 else f'{coeff} {bracket(mono)}'
                      for mono, coeff in sorted(poly.terms.items()))


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
    # each distinct monomial is rendered once per table
    bracket = cache(format_monomial)
    lines = []
    for comp in compositions_of(n):
        name = ''.join(map(str, comp)) if n <= 9 else format_composition(comp)
        lines.append(f'{symbol}_{name} = {format_bracket(route(comp), bracket)}')
    return lines
