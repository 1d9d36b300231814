import itertools
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import TuplePolynomial
from permcodes.polynomials import IndexPolynomial, _unpack
from permcodes.ribbons import h_flagged

#: Few small indices, so that random sums often cancel, indices past one
#: machine word of packed exponents (8 and up), and indices past the stored
#: entries of the power table (12 and up), which are computed on each read.
INDICES = st.one_of(st.integers(0, 3), st.sampled_from((8, 10, 11, 12, 13, 64, 255, 300)))
MONOMIALS = st.lists(INDICES, max_size=4).map(lambda indices: tuple(sorted(indices)))
POLYNOMIALS = st.dictionaries(MONOMIALS, st.integers(-3, 3), max_size=6)
#: (a, b, negate) triples for ``sum_of_products``.
TRIPLES = st.lists(st.tuples(POLYNOMIALS, POLYNOMIALS, st.booleans()), max_size=4)


@settings(max_examples=300, deadline=None)
@given(POLYNOMIALS, POLYNOMIALS)
def test_arithmetic_agrees_with_the_tuple_keyed_oracle(a, b):
    pa, pb = IndexPolynomial(a), IndexPolynomial(b)
    ta, tb = TuplePolynomial(a), TuplePolynomial(b)
    pairs = [
        (pa, ta),
        (pa + pb, ta + tb),
        (pa - pb, ta - tb),
        (pa * pb, ta * tb),
        (pa - pa, ta - ta),
        (pa * pb - pb * pa, ta * tb - tb * ta),
    ]
    for got, want in pairs:
        assert got.terms == want.terms
        assert sorted(got.terms.items()) == sorted(want.terms.items())
        assert bool(got) == bool(want.terms)
        assert got.total_mass() == want.total_mass()
        assert got.q_by_factor_count() == want.q_by_factor_count()
    assert (pa == pb) == (ta == tb)
    assert pa + pb - pb == pa
    assert IndexPolynomial(dict(pa.terms)) == pa


def test_terms_is_a_new_dict_on_each_read():
    poly = IndexPolynomial({(0, 0, 2): 3, (): -1, (1, 64): 2, (5,): 0})
    terms = poly.terms
    assert type(terms) is dict
    assert terms == {(0, 0, 2): 3, (): -1, (1, 64): 2}
    assert terms != {(0, 0, 2): 3}
    assert sorted(terms.items()) == [((), -1), ((0, 0, 2), 3), ((1, 64), 2)]
    assert sorted(terms.values()) == [-1, 2, 3]
    # keys are sorted index tuples; another order names no key
    assert (1, 64) in terms and () in terms
    assert (64, 1) not in terms and (2, 0, 0) not in terms and (5,) not in terms
    assert terms.get((3,), 0) == 0
    assert repr(IndexPolynomial.monomial((2, 0)).terms) == '{(0, 2): 1}'
    # writing into a read changes neither the polynomial nor the next read,
    # nor a cached h_flagged
    terms[(3,)] = 1
    del terms[()]
    assert poly.terms == {(0, 0, 2): 3, (): -1, (1, 64): 2}
    assert poly == IndexPolynomial({(0, 0, 2): 3, (): -1, (1, 64): 2})
    h = h_flagged(2, 1)
    h.terms[(0, 0)] = 5
    h.terms.clear()
    assert h_flagged(2, 1) is h
    assert h.terms == {(0, 0): 1, (0, 1): 1, (1, 1): 1}


def test_constructor_merges_orderings_of_one_monomial():
    assert IndexPolynomial({(1, 0): 1, (0, 1): 2}).terms == {(0, 1): 3}
    assert not IndexPolynomial({(1, 0): 1, (0, 1): -1})
    assert IndexPolynomial.from_words([(2, 0), (0, 2), ()]).terms == {(0, 2): 2, (): 1}


def test_degree_guard_raises_before_an_exponent_carries():
    # x_0^128 still fits 8 bits of exponent; its square would carry into x_1.
    poly = IndexPolynomial.monomial((0,))
    for _ in range(7):
        poly = poly * poly
    assert poly.terms == {(0,) * 128: 1}
    with pytest.raises(ValueError, match=r'degree 256 reaches 2\^8'):
        poly * poly
    # degree 255, every bit of x_0's exponent set, is the largest that fits
    assert IndexPolynomial.from_words([(0,) * 255]).terms == {(0,) * 255: 1}
    for build in (IndexPolynomial.from_words, lambda words: IndexPolynomial(dict.fromkeys(words, 1))):
        with pytest.raises(ValueError, match='degree 256'):
            build([(0,) * 256])


@pytest.mark.parametrize('build', [
    lambda mono: IndexPolynomial.from_words([(0, 1), mono]),
    lambda mono: IndexPolynomial({(0, 1): 1, mono: 1}),
    IndexPolynomial.monomial,
])
@pytest.mark.parametrize('mono', [(-1,), (0, -1), (-300, 2)])
def test_a_negative_index_raises(build, mono):
    # a table read from the end would take -1 for the last stored index
    with pytest.raises(ValueError, match='negative variable index'):
        build(mono)


@pytest.mark.parametrize('mono', [(300,), (0, 12, 12, 300), (11, 12), (1000,) * 3])
def test_indices_past_the_stored_powers_round_trip(mono):
    assert IndexPolynomial.monomial(mono, 2).terms == {mono: 2}
    assert IndexPolynomial.from_words([mono[::-1], mono]).terms == {mono: 2}
    assert (IndexPolynomial.monomial(mono) * IndexPolynomial.monomial((0,))).terms == {
        (0, *mono): 1}


@settings(max_examples=200, deadline=None)
@given(TRIPLES)
@example([])
def test_sum_of_products_agrees_with_the_tuple_keyed_oracle(triples):
    want = TuplePolynomial()
    for a, b, negate in triples:
        product = TuplePolynomial(a) * TuplePolynomial(b)
        want = want - product if negate else want + product
    polys = [(IndexPolynomial(a), IndexPolynomial(b), negate) for a, b, negate in triples]
    before = [(dict(a.terms), dict(b.terms)) for a, b, _ in polys]
    got = IndexPolynomial.sum_of_products(polys)
    assert got.terms == want.terms
    assert bool(got) == bool(want.terms)
    assert got == IndexPolynomial.sum_of_products(iter(polys))
    # each product cancelled by its own negation, with the factors swapped
    cancelled = polys + [(b, a, not negate) for a, b, negate in polys]
    assert IndexPolynomial.sum_of_products(cancelled).terms == {}
    assert [(dict(a.terms), dict(b.terms)) for a, b, _ in polys] == before


def test_sum_of_products_never_writes_into_a_cached_polynomial():
    h = h_flagged(2, 1)
    before = dict(h.terms)
    one = IndexPolynomial.one()
    twice = IndexPolynomial.sum_of_products([(h, one, False), (one, h, False)])
    assert twice == h + h
    assert not IndexPolynomial.sum_of_products([(h, one, False), (h, one, True)])
    assert h_flagged(2, 1) is h
    assert dict(h.terms) == before


def test_sum_of_products_checks_every_degree_before_it_adds():
    class Unread:
        """A sign that is read only once a product is being added."""

        def __bool__(self):
            raise AssertionError('a product was added before the degree check')

    x0 = IndexPolynomial.monomial((0,))
    poly = x0
    for _ in range(7):
        poly = poly * poly
    with pytest.raises(ValueError, match='degree 256'):
        IndexPolynomial.sum_of_products([(x0, x0, Unread()), (poly, poly, False)])


def test_unpack_cache_is_bounded_and_returns_what_unpacking_returns():
    maxsize = _unpack.cache_info().maxsize
    # at least every sorted code of length 10, Catalan(10) of them
    assert maxsize is not None and maxsize >= 16796
    # every monomial of one degree in x_0..x_7, more of them than the cache holds
    degree = next(d for d in itertools.count() if comb(d + 7, 7) > maxsize)
    words = list(itertools.combinations_with_replacement(range(8), degree))
    poly = IndexPolynomial.from_words(words)
    assert sorted(poly.terms) == words
    assert _unpack.cache_info().currsize <= maxsize
    for word in words[:100] + words[-100:]:
        [key] = IndexPolynomial.from_words([word])._terms
        assert _unpack(key) == _unpack(key) == _unpack.__wrapped__(key) == word
