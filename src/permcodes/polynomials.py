"""Sparse integer polynomials whose monomials are multisets of variable
indices.

A monomial like x_0²·x_2 is written as the sorted index tuple (0, 0, 2); the
same notation serves the V-indexed tree polynomials (V_3·V_0³ is
(0, 0, 0, 3)).  Sorted permutation codes ARE such tuples, which is the point:
generating functions of sorted codes live directly in this class.

Inside, a monomial is one packed integer, Σ_j e_j·2^(W·j) with W = 8, where
e_j is the exponent of x_j, so the product of two monomials is the sum of
their keys and a key hashes as one int.  A key is the sum of the powers
2^(W·j) of its indices, each read from one table in C, so packing a word
runs no Python frame.  The format is private to this module.  Every
polynomial carries an upper bound on its degree, and the constructors and
the products raise ``ValueError`` before any exponent could reach 2^W = 256,
where a carry would turn x_j^256 into x_{j+1}: a monomial holds degree 255
at most.  A negative index raises ``ValueError`` too.

``IndexPolynomial.sum_of_products`` is the one product loop: it adds Σ ±a·b
into a single dict and drops zero coefficients once, and ``*`` is its
one-product case.  ``terms`` builds a new ``{index tuple: coeff}`` dict on
each read, not a view, so writing into it leaves the polynomial as it was;
its keys are unpacked through a cache bounded at 2^15 monomials, so a
monomial read again is not unpacked again.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Sequence

__all__ = ['Monomial', 'IndexPolynomial', 'QPolynomial', 'format_q_polynomial']

Monomial = tuple[int, ...]
#: Univariate polynomial in q as a degree -> coefficient map.
QPolynomial = dict[int, int]

#: Bits per exponent in a packed key.
W = 8
_MASK = (1 << W) - 1


class _Powers(dict):
    """index -> 2^(W·index), the packed key of x_index.  The first 12
    indices are stored, enough for every code and ribbon up to n = 12; any
    other index ≥ 0 is computed on each read and not stored, and a negative
    one raises ``ValueError``."""

    def __missing__(self, index: int) -> int:
        if index < 0:
            raise ValueError(f'negative variable index {index}')
        return 1 << W * index


#: The packed key of x_index, ``_POWER(index)``: a C call, with no Python
#: frame unless the index is past the stored ones.
_POWER = _Powers((index, 1 << W * index) for index in range(12)).__getitem__


@lru_cache(maxsize=1 << 15)
def _unpack(key: int) -> Monomial:
    """The index tuple of a packed key.  Cached, least recently used first
    out, at most 2^15 = 32,768 monomials: more than the Catalan(10) =
    16,796 sorted codes of length 10, so up to n = 10 each monomial is
    unpacked once per process however often it is read, and for any input
    the cache holds no more than the bound."""
    mono: Monomial = ()
    index = 0
    while key:
        mono += (index,) * (key & _MASK)
        key >>= W
        index += 1
    return mono


def _check_degree(degree: int) -> None:
    if degree >> W:
        raise ValueError(f'degree {degree} reaches 2^{W}; a monomial holds '
                         f'degree {_MASK} at most')


class IndexPolynomial:
    """Polynomial with integer coefficients, monomials written as sorted
    index tuples.

    >>> p = IndexPolynomial.monomial((0, 1)) + IndexPolynomial.monomial((0, 0))
    >>> q = IndexPolynomial.monomial((1,), 2)
    >>> sorted((p * q).terms.items())
    [((0, 0, 1), 2), ((0, 1, 1), 2)]
    """

    __slots__ = ('_terms', '_degree')

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        terms = terms or {}
        self._degree = max(map(len, terms), default=0)
        _check_degree(self._degree)
        packed: dict[int, int] = {}
        for mono, coeff in terms.items():
            key = sum(map(_POWER, mono))
            packed[key] = packed.get(key, 0) + coeff
        self._terms = {k: v for k, v in packed.items() if v}

    @classmethod
    def _packed(cls, terms: dict[int, int], degree: int) -> IndexPolynomial:
        """The polynomial of packed ``terms``, dropping zero coefficients."""
        poly = object.__new__(cls)
        poly._terms = terms if 0 not in terms.values() else {
            k: v for k, v in terms.items() if v}
        poly._degree = degree
        return poly

    @classmethod
    def zero(cls) -> IndexPolynomial:
        return cls()

    @classmethod
    def one(cls) -> IndexPolynomial:
        return cls({(): 1})

    @classmethod
    def monomial(cls, indices: Iterable[int], coeff: int = 1) -> IndexPolynomial:
        return cls({tuple(indices): coeff})

    @classmethod
    def from_words(cls, words: Iterable[Sequence[int]]) -> IndexPolynomial:
        """Σ x^{word} over ``words``, whose letters may come in any order.

        >>> IndexPolynomial.from_words([(1, 0), (0, 1), (0, 0)]).terms
        {(0, 1): 2, (0, 0): 1}
        """
        words = list(words)
        degree = max(map(len, words), default=0)
        _check_degree(degree)
        keys = map(sum, map(map, repeat(_POWER), words))
        return cls._packed(dict(Counter(keys)), degree)

    @property
    def terms(self) -> dict[Monomial, int]:
        return dict(zip(map(_unpack, self._terms), self._terms.values()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IndexPolynomial):
            return self._terms == other._terms
        return NotImplemented

    def __repr__(self) -> str:
        items = ' + '.join(
            f'{v}*x{list(k)}' for k, v in sorted(self.terms.items())
        )
        return f'IndexPolynomial({items or "0"})'

    def __add__(self, other: IndexPolynomial) -> IndexPolynomial:
        out = dict(self._terms)
        get = out.get
        for k, v in other._terms.items():
            out[k] = get(k, 0) + v
        return IndexPolynomial._packed(out, max(self._degree, other._degree))

    def __sub__(self, other: IndexPolynomial) -> IndexPolynomial:
        out = dict(self._terms)
        get = out.get
        for k, v in other._terms.items():
            out[k] = get(k, 0) - v
        return IndexPolynomial._packed(out, max(self._degree, other._degree))

    def __mul__(self, other: IndexPolynomial) -> IndexPolynomial:
        return IndexPolynomial.sum_of_products([(self, other, False)])

    @staticmethod
    def sum_of_products(
        triples: Iterable[tuple[IndexPolynomial, IndexPolynomial, bool]],
    ) -> IndexPolynomial:
        """Σ ±a·b over ``(a, b, negate)`` triples, a·b subtracted where
        ``negate`` is true.  Every product's degree is checked before any
        term is added; then each product, looping over the factor of fewer
        terms outside, goes into one fresh dict, whose zero coefficients are
        dropped once at the end.  The inputs are not modified.

        >>> x0, x1 = IndexPolynomial.monomial((0,)), IndexPolynomial.monomial((1,))
        >>> IndexPolynomial.sum_of_products([(x0, x1, False), (x1, x0, True)])
        IndexPolynomial(0)
        """
        triples = list(triples)
        degree = max((a._degree + b._degree for a, b, _ in triples), default=0)
        _check_degree(degree)
        out: dict[int, int] = {}
        get = out.get
        for a, b, negate in triples:
            outer, inner = a._terms.items(), b._terms.items()
            if len(outer) > len(inner):
                outer, inner = inner, outer
            for ka, va in outer:
                if negate:
                    va = -va
                for kb, vb in inner:
                    key = ka + kb
                    out[key] = get(key, 0) + va * vb
        return IndexPolynomial._packed(out, degree)

    def total_mass(self) -> int:
        """Sum of all coefficients (the value at every variable = 1)."""
        return sum(self._terms.values())

    def q_by_factor_count(self) -> QPolynomial:
        """Substitute every variable -> q; the degree is the factor count."""
        out: QPolynomial = {}
        for k, v in self.terms.items():
            deg = len(k)
            out[deg] = out.get(deg, 0) + v
        return {d: c for d, c in out.items() if c}


def format_q_polynomial(poly: QPolynomial) -> str:
    """Ascending-degree rendering, e.g. ``q + 4*q^2 + q^3``.

    >>> format_q_polynomial({1: 1, 2: 4, 3: 1})
    'q + 4*q^2 + q^3'
    >>> format_q_polynomial({})
    '0'
    """
    parts = []
    for deg in sorted(poly):
        coeff = poly[deg]
        if deg == 0:
            parts.append(str(coeff))
            continue
        q = 'q' if deg == 1 else f'q^{deg}'
        parts.append(q if coeff == 1 else f'{coeff}*{q}')
    return ' + '.join(parts) if parts else '0'
