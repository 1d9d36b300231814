import pytest
from hypothesis import given, settings, strategies as st

from oracles import TuplePolynomial
from permcodes.polynomials import IndexPolynomial

#: Few small indices, so that random sums often cancel, and indices past one
#: machine word of packed exponents.
INDICES = st.one_of(st.integers(0, 3), st.sampled_from((10, 11, 64, 65, 70)))
MONOMIALS = st.lists(INDICES, max_size=4).map(lambda indices: tuple(sorted(indices)))
POLYNOMIALS = st.dictionaries(MONOMIALS, st.integers(-3, 3), max_size=6)


@settings(max_examples=300, deadline=None)
@given(POLYNOMIALS, POLYNOMIALS, st.integers(-2, 2), INDICES)
def test_arithmetic_agrees_with_the_tuple_keyed_oracle(a, b, scalar, index):
    pa, pb = IndexPolynomial(a), IndexPolynomial(b)
    ta, tb = TuplePolynomial(a), TuplePolynomial(b)
    pairs = [
        (pa, ta),
        (pa + pb, ta + tb),
        (pa - pb, ta - tb),
        (pa * pb, ta * tb),
        (pa * scalar, ta * scalar),
        (pa + pa * -1, ta + ta * -1),
        (pa * pb - pb * pa, ta * tb - tb * ta),
        (pa.substitute_one(index), ta.substitute_one(index)),
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


def test_terms_is_a_read_only_dict_view():
    poly = IndexPolynomial({(0, 0, 2): 3, (): -1, (1, 64): 2, (5,): 0})
    terms = poly.terms
    assert terms == {(0, 0, 2): 3, (): -1, (1, 64): 2}
    assert terms != {(0, 0, 2): 3}
    assert sorted(terms.items()) == [((), -1), ((0, 0, 2), 3), ((1, 64), 2)]
    assert sorted(terms) == [(), (0, 0, 2), (1, 64)]
    assert sorted(terms.values()) == [-1, 2, 3]
    assert len(terms) == 3
    # a looked-up monomial may list its indices in any order
    assert terms[(0, 0, 2)] == terms[(2, 0, 0)] == 3
    assert (1, 64) in terms and (64, 1) in terms and () in terms
    assert (5,) not in terms and (-1,) not in terms and 'x' not in terms
    assert terms.get((3,), 0) == 0
    with pytest.raises(KeyError):
        terms[(3,)]
    with pytest.raises(TypeError):
        terms[(3,)] = 1
    assert repr(IndexPolynomial.monomial((2, 0)).terms) == '{(0, 2): 1}'


def test_constructor_merges_orderings_of_one_monomial():
    assert IndexPolynomial({(1, 0): 1, (0, 1): 2}).terms == {(0, 1): 3}
    assert not IndexPolynomial({(1, 0): 1, (0, 1): -1})
    assert IndexPolynomial.from_words([(2, 0), (0, 2), ()]).terms == {(0, 2): 2, (): 1}


def test_degree_guard_raises_before_an_exponent_carries():
    # x_0^(2^31) still fits 32 bits of exponent; its square would carry
    # into x_1.  Nothing here unpacks the terms, which would build a tuple
    # of 2^31 indices.
    poly = IndexPolynomial.monomial((0,))
    for _ in range(31):
        poly = poly * poly
    assert poly.total_mass() == 1
    with pytest.raises(ValueError, match='degree 4294967296'):
        poly * poly
