import hashlib
import itertools
import re
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from permcodes.permutations import (
    _inverse_descent_walk,
    _merge_getters,
    check_permutation,
    compositions_of,
    coarser_compositions,
    descent_class,
    descent_composition,
    des,
    evaluation,
    format_composition,
    format_permutation,
    identity_block_shuffle,
    insert_one_at,
    inv,
    inverse,
    inverse_descent_class,
    iter_permutations,
    maj,
    parse_composition,
    parse_permutation,
    shifted_word,
    standardize,
)

from oracles import (
    composition_descent_set,
    composition_from_descent_set,
    descent_position_sum,
    descent_set,
    identity_block_shuffle as shuffled_blocks,
    inversion_pairs,
    shifted_shuffle,
    shuffle,
)

perms = st.integers(min_value=0, max_value=7).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple)
)


@given(perms)
def test_inverse_is_involutive(p):
    assert inverse(inverse(p)) == p


@given(perms)
def test_inverse_composes_to_identity(p):
    q = inverse(p)
    n = len(p)
    assert tuple(p[q[i] - 1] for i in range(n)) == tuple(range(1, n + 1))


def test_iter_permutations_counts():
    for n in range(7):
        assert sum(1 for _ in iter_permutations(n)) == factorial(n)


def test_iter_permutations_refuses_a_negative_size():
    with pytest.raises(ValueError, match='negative size -1'):
        iter_permutations(-1)


def test_library_enumerates_any_size_it_is_given():
    # only the CLI caps n; one permutation is built at each size here
    assert descent_class((10,)) == [tuple(range(1, 11))]
    assert identity_block_shuffle((10,)) == [tuple(range(1, 11))]


def test_statistics_on_small_words():
    p = (3, 1, 4, 2)
    assert descent_set(p) == {1, 3}
    assert des(p) == 2
    assert maj(p) == 4
    assert inv(p) == 3
    assert descent_composition(p) == (1, 2, 1)


def test_inv_counts_the_inverted_pairs():
    for n in range(9):
        for p in iter_permutations(n):
            assert inv(p) == inversion_pairs(p), p


# past 64 letters: every descent of a 100-letter word counts
ZIGZAG = tuple(v for k in range(50) for v in (100 - k, 1 + k))
LONG_WORDS = (ZIGZAG, ZIGZAG[::-1], tuple(range(100, 0, -1)))


def test_maj_sums_the_descent_positions():
    for n in range(9):
        for p in iter_permutations(n):
            assert maj(p) == descent_position_sum(p), p
    for word in LONG_WORDS:
        assert maj(word) == descent_position_sum(word) > 0


def test_descent_scans_match_the_descent_set():
    # the rising runs and the descent count against the route through Des p
    for p in itertools.chain(*map(iter_permutations, range(9)), LONG_WORDS):
        assert descent_composition(p) == composition_from_descent_set(
            descent_set(p), len(p)), p
        assert des(p) == len(descent_set(p)), p


def test_coarser_compositions_keep_a_subset_of_the_cuts():
    for n in range(9):
        for comp in compositions_of(n):
            cuts = composition_descent_set(comp)
            assert coarser_compositions(comp) == [
                other for other in compositions_of(n)
                if composition_descent_set(other) <= cuts], comp


@given(st.integers(min_value=9, max_value=16).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple)))
def test_inv_counts_the_inverted_pairs_past_eight(p):
    assert inv(p) == inversion_pairs(p)


@given(perms)
def test_inv_equals_inv_of_inverse(p):
    assert inv(p) == inv(inverse(p))


@given(perms)
def test_descents_from_composition_roundtrip(p):
    comp = descent_composition(p)
    assert composition_from_descent_set(sorted(descent_set(p)), len(p)) == comp
    assert sum(comp) == len(p)


@pytest.mark.parametrize('descents', ({0}, {4}, {2, 5}))
def test_composition_from_descent_set_refuses_a_descent_outside_the_cuts(descents):
    with pytest.raises(ValueError, match=r'descent \d outside 1\.\.3'):
        composition_from_descent_set(descents, 4)


@pytest.mark.parametrize(('descents', 'n'), (({1}, 0), ({2}, 0), ({1}, 1)))
def test_composition_from_descent_set_refuses_a_descent_of_the_empty_composition(descents, n):
    with pytest.raises(ValueError, match=rf'descent \d: size {n} has no cuts'):
        composition_from_descent_set(descents, n)


def test_composition_from_descent_set_refuses_a_negative_size():
    with pytest.raises(ValueError, match='negative size -1'):
        composition_from_descent_set(set(), -1)


def test_standardize_examples():
    assert standardize((3, 1, 3)) == (2, 1, 3)
    assert standardize((5, 5, 2, 9)) == (2, 3, 1, 4)
    assert standardize(()) == ()


@given(perms)
def test_standardize_fixes_permutations(p):
    assert standardize(p) == p


@given(st.lists(st.integers(min_value=0, max_value=9), max_size=8))
def test_standardize_is_a_permutation_preserving_order(w):
    p = standardize(tuple(w))
    assert check_permutation(p) == p
    for i, j in itertools.combinations(range(len(w)), 2):
        # strict order must be preserved; ties break left-to-right
        assert (p[i] < p[j]) == (w[i] < w[j] or (w[i] == w[j]))


def test_evaluation():
    assert evaluation((0, 2, 0, 1)) == (2, 1, 1, 0, 0)
    # a word of size 1 reads over {0, 1}
    assert evaluation((1,)) == (0, 1)
    with pytest.raises(ValueError):
        evaluation((5,))


def test_shuffle_counts_and_members():
    left, right = (1, 2), (3,)
    assert shuffle(left, right) == [(1, 2, 3), (1, 3, 2), (3, 1, 2)]
    a, b = (1, 2, 3), (4, 5)
    assert len(shuffle(a, b)) == comb(5, 2)
    for word in shuffle(a, b):
        assert tuple(x for x in word if x in a) == a
        assert tuple(x for x in word if x in b) == b


def _interleavings(m, n):
    """The orderings of two words' letters, each tagged with its word and its
    index, that list each word's letters in order: one per shuffled word."""
    tagged = [(0, i) for i in range(m)] + [(1, j) for j in range(n)]
    return [
        order for order in itertools.permutations(tagged)
        if [i for w, i in order if w == 0] == list(range(m))
        and [j for w, j in order if w == 1] == list(range(n))
    ]


def test_shuffle_matches_its_definition_with_repeated_letters():
    assert shuffle((1,), (1,)) == [(1, 1), (1, 1)]
    for size in range(7):
        for m in range(size + 1):
            orders = _interleavings(m, size - m)
            for u in itertools.product(range(3), repeat=m):
                for v in itertools.product(range(3), repeat=size - m):
                    words = (u, v)
                    expected = sorted(tuple(words[w][i] for w, i in order)
                                      for order in orders)
                    assert shuffle(u, v) == expected, (u, v)


def test_shifted_shuffle():
    assert shifted_word((1, 2), 2) == (3, 4)
    words = shifted_shuffle((1, 2), (2, 1))
    assert len(words) == comb(4, 2)
    assert all(check_permutation(w) == w for w in words)
    assert (1, 2, 4, 3) in words


def test_identity_block_shuffle_small_cases():
    assert identity_block_shuffle((2, 1)) == [(1, 2, 3), (1, 3, 2), (3, 1, 2)]
    assert identity_block_shuffle((1,) * 4) == sorted(iter_permutations(4))


def test_identity_block_shuffle_members_have_coarse_inverse_descents():
    # id_{i_1} ⩂ ... ⩂ id_{i_r} consists of the inverses of the permutations
    # whose descent set refines the partial sums of the composition
    for comp in ((2, 2), (2, 1, 1), (3, 1)):
        got = set(identity_block_shuffle(comp))
        allowed = set(itertools.accumulate(comp[:-1]))
        expected = {
            inverse(p) for p in iter_permutations(sum(comp))
            if descent_set(p) <= allowed
        }
        assert got == expected


def test_identity_block_shuffle_is_the_union_of_coarser_shuffles():
    # the package's union of inverse descent classes against the oracle's
    # block-by-block shifted shuffle
    for n in range(8):
        for comp in compositions_of(n):
            assert identity_block_shuffle(comp) == shuffled_blocks(comp), comp


def test_insert_one_at_positions():
    base = (2, 1, 3)
    assert insert_one_at(base, 0) == (1, 3, 2, 4)
    assert insert_one_at(base, 1) == (3, 1, 2, 4)
    assert insert_one_at(base, 3) == (3, 2, 4, 1)


@pytest.mark.parametrize('slot', (-1, 4))
def test_insert_one_at_refuses_a_slot_out_of_range(slot):
    with pytest.raises(ValueError, match=rf'insertion slot {slot} out of range 0\.\.3'):
        insert_one_at((2, 1, 3), slot)


def _compositions_by_cuts(n):
    """Every composition of n, one per subset of the cut positions 1..n−1,
    in descending lexicographic order."""
    out = []
    for bits in itertools.product((False, True), repeat=n - 1):
        ends = [s for s, cut in zip(range(1, n), bits) if cut] + [n]
        out.append(tuple(b - a for a, b in zip([0] + ends, ends)))
    return sorted(out, reverse=True)


def test_compositions_of_descending_lex():
    assert compositions_of(4) == [
        (4,), (3, 1), (2, 2), (2, 1, 1),
        (1, 3), (1, 2, 1), (1, 1, 2), (1, 1, 1, 1),
    ]
    assert compositions_of(0) == [()]
    for n in range(1, 11):
        assert len(compositions_of(n)) == 2 ** (n - 1)
        assert compositions_of(n) == _compositions_by_cuts(n), n


def test_compositions_of_refuses_a_negative_size():
    with pytest.raises(ValueError, match='negative size -1'):
        compositions_of(-1)


def test_reversed_class_is_the_conjugate_class():
    # the code table's second column reads each class backwards
    conjugates = {}
    for n in range(2, 9):
        for comp in compositions_of(n):
            if comp[0] < 2:
                continue
            conj = composition_from_descent_set(
                set(range(1, n)) - composition_descent_set(comp), n)
            conjugates[comp] = conj
            assert (sorted(w[::-1] for w in inverse_descent_class(comp))
                    == sorted(inverse_descent_class(conj))), comp
    assert conjugates[(4,)] == (1, 1, 1, 1)
    assert conjugates[(3, 1)] == (1, 1, 2)
    assert conjugates[(2, 2)] == (1, 2, 1)
    assert conjugates[(2, 1, 1)] == (1, 3)


def test_coarsening():
    assert set(coarser_compositions((1, 2, 1))) == {
        (4,), (3, 1), (1, 3), (1, 2, 1),
    }


def test_descent_classes_partition_the_group():
    # one lexicographic pass over S_n per n is the oracle for the generators
    for n in range(9):
        buckets = {}
        for p in iter_permutations(n):
            buckets.setdefault(descent_composition(p), []).append(p)
        assert len(buckets) == len(compositions_of(n))
        for comp in compositions_of(n):
            assert descent_class(comp) == buckets[comp], comp
            words = inverse_descent_class(comp)
            assert len(set(words)) == len(words), comp
            assert sorted(words) == sorted(map(inverse, buckets[comp])), comp


def test_descent_classes_keep_their_bytes():
    # sha256 of every class of n <= 8 (46,234 permutations) as the
    # combination walk that came before the merge tables listed them
    classes = [descent_class(comp) for n in range(9) for comp in compositions_of(n)]
    assert hashlib.sha256(repr(classes).encode()).hexdigest() == (
        '9cbbdcc34617798383022c2f5d5bda4505cd473ca7cf9666ec02cf3a684e57ef')


def test_merge_table_reads_each_interleaving_once():
    for n in range(8):
        for m in range(n + 1):
            k = n - m
            u, v = tuple(range(1, k + 1)), tuple(range(k + 1, n + 1))
            getters, _, ends = _merge_getters(k, m)
            assert len(ends) == k + 1 and ends[-1] == len(getters)
            read = [getter(u + v) for getter in getters]
            for slot, (start, end) in enumerate(zip([0, *ends], ends)):
                for word in read[start:end]:
                    # the letters of u before v's first letter; all k without v
                    assert (word.index(v[0]) if m else k) == slot, (k, m, word)
            assert sorted(read) == shuffle(u, v), (k, m)


def test_merge_constants_count_the_inversions_each_merge_adds():
    # a run above every letter of w adds the same inversions whatever w is
    for n in range(8):
        for m in range(n + 1):
            k = n - m
            run = tuple(range(k + 1, n + 1))
            getters, constants, _ = _merge_getters(k, m)
            assert len(getters) == len(constants)
            for w in iter_permutations(k):
                for getter, constant in zip(getters, constants):
                    assert inv(getter(w + run)) - inv(w) == constant, (w, run)


def test_the_walk_carries_inv_and_keeps_each_class_in_order():
    # the classes of n <= 8 in the order the walk listed them before it
    # carried inv
    classes = []
    for n in range(9):
        for comp in compositions_of(n):
            words, counts = _inverse_descent_walk(comp)
            assert words == inverse_descent_class(comp), comp
            assert counts == list(map(inv, words)), comp
            classes.append(words)
    assert hashlib.sha256(repr(classes).encode()).hexdigest() == (
        '9d57445c041ea57816d13643919d6831eb0f5f4b8e1917eade6e19601ab37493')


def _class_size(comp):
    # |D_I| by inclusion–exclusion over the cut sets S ⊆ Set(I): the
    # permutations with every descent in S number the multinomial n! over
    # the factorials of S's parts, signed by the cuts of Set(I) S leaves out
    n = sum(comp)
    cuts = list(itertools.accumulate(comp[:-1]))
    total = 0
    for k in range(len(cuts) + 1):
        for subset in itertools.combinations(cuts, k):
            bounds = (0, *subset, n)
            count = factorial(n)
            for lo, hi in zip(bounds, bounds[1:]):
                count //= factorial(hi - lo)
            total += (-1) ** (len(cuts) - k) * count
    return total


@pytest.mark.parametrize('comp', [
    (9,), (8, 1), (1, 1, 7), (4, 5), (2, 3, 4), (3, 3, 3),
    (1, 9), (5, 5), (3, 4, 3), (1, 2, 3, 4), (4, 3, 2, 1),
    (2, 1, 1, 2, 2, 2), (1,) * 10,
], ids=format_composition)
def test_descent_classes_past_eight(comp):
    members = descent_class(comp)
    assert all(p < q for p, q in zip(members, members[1:]))
    assert all(descent_composition(p) == comp for p in members)
    assert len(members) == _class_size(comp)


def test_descent_class_edge_cases():
    assert descent_class(()) == [()]
    assert inverse_descent_class(()) == [()]
    # a part below 1 gets the message parse_composition gives the CLI
    for comp in ((2, 0, 1), (3, -1), (1, 0, 1), (0,), (2, 0)):
        for route in (descent_class, inverse_descent_class, _inverse_descent_walk):
            with pytest.raises(ValueError, match=re.escape(
                    f'composition parts must be positive: {comp}')):
                route(comp)
    for n in range(1, 6):
        assert inverse_descent_class((n,)) == [tuple(range(1, n + 1))]


def test_parse_format_permutation():
    assert parse_permutation('41325') == (4, 1, 3, 2, 5)
    assert parse_permutation('10,2,1,3,4,5,6,7,8,9') == (10, 2, 1, 3, 4, 5, 6, 7, 8, 9)
    assert format_permutation((4, 1, 3, 2, 5)) == '41325'
    assert format_permutation(tuple(range(10, 0, -1))).count(',') == 9
    with pytest.raises(ValueError):
        parse_permutation('4135')


@given(st.integers(min_value=0, max_value=11).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple)))
def test_permutation_text_roundtrip(p):
    assert parse_permutation(format_permutation(p)) == p


def test_parse_format_composition():
    for text in ('(2,1,1,2)', '2,1,1,2', '2112'):
        assert parse_composition(text) == (2, 1, 1, 2)
    assert format_composition((2, 1, 1, 2)) == '(2,1,1,2)'
    with pytest.raises(ValueError):
        parse_composition('2,0,1')


def test_parse_composition_inverts_format_composition():
    comps = [comp for n in range(9) for comp in compositions_of(n)]
    for comp in comps + [(10,), (12, 3)]:
        assert parse_composition(format_composition(comp)) == comp
