"""Sparse integer polynomials whose monomials are multisets of variable
indices.

A monomial like x_0²·x_2 is keyed by the sorted index tuple (0, 0, 2); the
same representation serves the V-indexed tree polynomials (V_3·V_0³ is keyed
by (0, 0, 0, 3)).  Sorted permutation codes ARE such keys, which is the point:
generating functions of sorted codes live directly in this class.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = ['Monomial', 'IndexPolynomial', 'QPolynomial', 'format_q_polynomial']

Monomial = tuple[int, ...]
#: Univariate polynomial in q as a degree -> coefficient map.
QPolynomial = dict[int, int]


class IndexPolynomial:
    """Polynomial with integer coefficients, monomials keyed by sorted index
    tuples.

    >>> p = IndexPolynomial.monomial((0, 1)) + IndexPolynomial.monomial((0, 0))
    >>> q = IndexPolynomial.monomial((1,), 2)
    >>> sorted((p * q).terms.items())
    [((0, 0, 1), 2), ((0, 1, 1), 2)]
    """

    __slots__ = ('terms',)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self.terms: dict[Monomial, int] = {
            k: v for k, v in (terms or {}).items() if v
        }

    @classmethod
    def zero(cls) -> IndexPolynomial:
        return cls()

    @classmethod
    def one(cls) -> IndexPolynomial:
        return cls({(): 1})

    @classmethod
    def monomial(cls, indices: Iterable[int], coeff: int = 1) -> IndexPolynomial:
        return cls({tuple(sorted(indices)): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IndexPolynomial):
            return self.terms == other.terms
        return NotImplemented

    def __repr__(self) -> str:
        items = ' + '.join(
            f'{v}*x{list(k)}' for k, v in sorted(self.terms.items())
        )
        return f'IndexPolynomial({items or "0"})'

    def __add__(self, other: IndexPolynomial) -> IndexPolynomial:
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return IndexPolynomial(out)

    def __sub__(self, other: IndexPolynomial) -> IndexPolynomial:
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) - v
        return IndexPolynomial(out)

    def __mul__(self, other: IndexPolynomial | int) -> IndexPolynomial:
        if isinstance(other, int):
            return IndexPolynomial({k: v * other for k, v in self.terms.items()})
        out: dict[Monomial, int] = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                key = tuple(sorted(ka + kb))
                out[key] = out.get(key, 0) + va * vb
        return IndexPolynomial(out)

    def total_mass(self) -> int:
        """Sum of all coefficients (the value at every variable = 1)."""
        return sum(self.terms.values())

    def substitute_one(self, index: int) -> IndexPolynomial:
        """Set the variable with the given index to 1 (drop it from keys)."""
        out: dict[Monomial, int] = {}
        for k, v in self.terms.items():
            key = tuple(i for i in k if i != index)
            out[key] = out.get(key, 0) + v
        return IndexPolynomial(out)

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
