import itertools
from math import factorial

import pytest

from permcodes import cli, trees
from permcodes.codes import inv_code, s_code
from permcodes.permutations import evaluation, iter_permutations
from permcodes.polynomials import IndexPolynomial, format_q_polynomial
from permcodes.trees import (
    c_polynomial,
    canonical_tree,
    code_arity_monomial,
    connes_moscovici,
    derive,
    format_v_polynomial,
    increasing_labelings,
    taylor_tree_series,
    tree_to_perm,
    tree_to_text,
    x_polynomial,
)

from oracles import s_code_of_tree

CHERRY = ((), ())
CHAIN3 = (((),),)
# root with a leaf child and a chain child carrying a cherry: the shape whose
# five increasing labelings are worked out in full below
CANONIK = ((), (((), ()),))

X_EXPANSIONS = {
    1: 'V0',
    2: 'V1*V0',
    3: 'V2*V0^2 + V1^2*V0',
    4: 'V3*V0^3 + 4*V2*V1*V0^2 + V1^3*V0',
    5: 'V4*V0^4 + 7*V3*V1*V0^3 + 4*V2^2*V0^3 + 11*V2*V1^2*V0^2 + V1^4*V0',
    6: 'V5*V0^5 + 11*V4*V1*V0^4 + 15*V3*V2*V0^4 + 32*V3*V1^2*V0^3'
       ' + 34*V2^2*V1*V0^3 + 26*V2*V1^3*V0^2 + V1^5*V0',
}


def node_count(t) -> int:
    """Nodes of ``t``, one parenthesis pair each in its text."""
    return len(tree_to_text(t)) // 2


def test_canonical_tree_sorts_children_recursively():
    messy = ((((), ()),), ())
    assert canonical_tree(messy) == CANONIK
    assert canonical_tree(CANONIK) == CANONIK


def test_tree_to_text():
    assert tree_to_text(CHERRY) == '(()())'
    assert tree_to_text((((), ()),)) == '((()()))'
    assert tree_to_text(((((), ()),),)) == '(((()())))'


def test_derive_on_single_node():
    assert derive({(): 1}) == {((),): 1}
    assert derive({((),): 1}) == {((), ()): 1, (((),),): 1}


def test_series_shape_counts_and_total_mass():
    expected_shapes = [1, 1, 2, 4, 9, 20, 48, 115, 286]
    for n, count in enumerate(expected_shapes, start=1):
        series = taylor_tree_series(n)
        assert len(series) == count
        assert sum(series.values()) == factorial(n - 1)
        assert all(node_count(t) == n for t in series)


def hook_count(t) -> int:
    """Independent oracle: (n-1)! over the product of non-root subtree sizes,
    divided by g! for each group of g identical child subtrees anywhere."""
    sizes = []
    sym = 1

    def walk(node, is_root):
        nonlocal sym
        if not is_root:
            sizes.append(node_count(node))
        for _, group in itertools.groupby(node):
            sym *= factorial(sum(1 for _ in group))
        for child in node:
            walk(child, False)

    walk(t, True)
    n = node_count(t)
    numerator = factorial(n - 1)
    for s in sizes:
        assert numerator % s == 0
        numerator //= s
    assert numerator % sym == 0
    return numerator // sym


def rotated(t):
    """``t`` with the children of every node rotated by one, so that equal
    children, adjacent in canonical form, are split apart."""
    children = tuple(map(rotated, t))
    return children[1:] + children[:1]


def test_coefficients_agree_along_four_routes():
    for n in range(1, 8):
        series = taylor_tree_series(n)
        for t, coeff in series.items():
            assert connes_moscovici(t) == coeff
            assert connes_moscovici(rotated(t)) == coeff, t
            assert hook_count(t) == coeff
            if n <= 6:
                assert len(increasing_labelings(t)) == coeff


def labeled_shape(lt):
    """Forget the labels."""
    _, children = lt
    return canonical_tree(tuple(labeled_shape(child) for child in children))


def test_increasing_labelings_are_increasing_and_of_right_shape():
    for t in sorted(taylor_tree_series(5)):
        for lt in increasing_labelings(t):
            assert labeled_shape(lt) == t

            def walk(node):
                label, children = node
                assert list(children) == sorted(children)
                for child in children:
                    assert child[0] > label
                    walk(child)

            walk(lt)
            assert lt[0] == 1


def test_canonik_labelings_match_the_worked_example():
    # the five labelings pair off with these permutations and saillance codes
    expected = {
        (4, 3, 1, 2, 5): (3, 3, 2, 0, 0),
        (4, 5, 3, 1, 2): (3, 3, 1, 0, 0),
        (3, 5, 4, 1, 2): (2, 2, 0, 1, 0),
        (2, 5, 4, 1, 3): (2, 0, 2, 1, 0),
        (1, 5, 4, 2, 3): (0, 2, 2, 1, 0),
    }
    labelings = increasing_labelings(CANONIK)
    got = {tree_to_perm(lt): s_code_of_tree(lt) for lt in labelings}
    assert got == expected
    # the direct saillance code of each permutation agrees with the tree one
    for p, c in expected.items():
        assert s_code(p) == c


def test_tree_to_perm_is_a_bijection_onto_s_n():
    # the increasing labelings of all shapes of size n+1 map onto S_n, each
    # permutation hit once, and the father labels read its saillance code
    for n in range(7):
        perms = []
        for t in taylor_tree_series(n + 1):
            for lt in increasing_labelings(t):
                p = tree_to_perm(lt)
                assert s_code_of_tree(lt) == s_code(p)
                perms.append(p)
        assert sorted(perms) == list(iter_permutations(n))


def test_special_shapes():
    # the chain 1-2-3 reads as 21, the star keeps everything in order
    chain = (1, ((2, ((3, ()),)),))
    assert tree_to_perm(chain) == (2, 1)
    star = (1, ((2, ()), (3, ()), (4, ())))
    assert tree_to_perm(star) == (1, 2, 3)


@pytest.mark.parametrize('n', sorted(X_EXPANSIONS))
def test_x_polynomial_matches_printed_expansion(n):
    assert format_v_polynomial(x_polynomial(n)) == X_EXPANSIONS[n]


def test_format_v_polynomial_writes_the_zero_polynomial_as_0():
    assert format_v_polynomial(IndexPolynomial.zero()) == '0'


def test_x_polynomial_equals_code_evaluation_sums():
    # Σ_T α_T Π V_arity  ==  Σ_σ V-monomial of the scode evaluation
    #                   ==  Σ_σ V-monomial of the invcode evaluation
    for n in range(1, 8):
        by_scode = IndexPolynomial.zero()
        by_invcode = IndexPolynomial.zero()
        for p in iter_permutations(n - 1):
            by_scode = by_scode + code_arity_monomial(s_code(p))
            by_invcode = by_invcode + code_arity_monomial(inv_code(p))
        assert by_scode == x_polynomial(n)
        assert by_invcode == x_polynomial(n)


def test_c_polynomial_equals_code_evaluation_sums_without_zero_letters():
    # C_n  ==  Σ_{σ ∈ S_n} monomial of the nonzero scode evaluation entries
    #      ==  the same over the invcode evaluation
    for n in range(8):
        for encode in (s_code, inv_code):
            words = [[e for e in evaluation(encode(p)) if e] for p in iter_permutations(n)]
            assert IndexPolynomial.from_words(words) == c_polynomial(n), (n, encode)


def test_x_polynomial_monomials_have_one_factor_per_node():
    for n in range(1, 10):
        for key in x_polynomial(n).terms:
            assert len(key) == n          # one V factor per node
            assert sum(key) == n - 1      # arities sum to the edge count


def test_trees_computes_each_arity_word_once(monkeypatch):
    calls = []
    arities = trees._arities

    def counted(t):
        calls.append(t)
        return arities(t)

    monkeypatch.setattr(trees, '_arities', counted)
    trees.x_polynomial.cache_clear()
    assert cli.main(['trees', '8']) == 0
    # C_7 is read off the cached x_8, so each of the 115 shapes is walked once
    assert len(calls) == len(taylor_tree_series(8)) == 115


def test_c_polynomial_eulerian_specialization():
    assert format_q_polynomial(c_polynomial(3).q_by_factor_count()) == \
        'q + 4*q^2 + q^3'
    for n in range(1, 8):
        counts = c_polynomial(n).q_by_factor_count()
        expected = {}
        for p in iter_permutations(n):
            d = sum(1 for i in range(n - 1) if p[i] > p[i + 1]) + 1
            expected[d] = expected.get(d, 0) + 1
        assert counts == expected
