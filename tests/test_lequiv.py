import pytest
from hypothesis import given, strategies as st

from permcodes.codes import lehmer_code, lehmer_decode, sorted_code
from permcodes.lequiv import (
    avoids_pattern,
    catalan,
    class_max,
    class_min,
    l_adjacent,
    l_class,
    l_classes,
    l_moves,
)
from permcodes.permutations import (
    iter_permutations,
    parse_permutation,
    standardize,
)


def test_catalan_numbers():
    assert [catalan(n) for n in range(9)] == \
        [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_l_classes_refuses_a_negative_size():
    with pytest.raises(ValueError, match='negative size -1'):
        l_classes(-1)


def test_single_move_example():
    u = parse_permutation('738694152')
    v = parse_permutation('758634192')
    assert v in l_moves(u)
    assert u in l_moves(v)
    assert l_adjacent(u, v)


def test_l_adjacent_refuses_permutations_of_different_sizes():
    with pytest.raises(ValueError, match='sizes differ'):
        l_adjacent((1, 2), (1, 2, 3))


def _l_adjacent_by_definition(u, v):
    """u and v differ in three positions p1 < p2 < p3, where one reads
    (b, a, c) and the other (a, c, b) with a < b < c; the letters between p1
    and p2 exceed b, and every letter after p2 other than c lies below b or
    above c."""
    diff = [p for p in range(len(u)) if u[p] != v[p]]
    if len(diff) != 3:
        return False
    p1, p2, p3 = diff
    for s, t in ((u, v), (v, u)):
        b, a, c = s[p1], s[p2], s[p3]
        if a < b < c and (t[p1], t[p2], t[p3]) == (a, c, b):
            return (all(x > b for x in s[p1 + 1:p2])
                    and all(x < b or x > c for x in s[p2 + 1:] if x != c))
    return False


def test_moves_match_the_definition():
    for n in range(6):
        perms = list(iter_permutations(n))
        for u in perms:
            expected = {v for v in perms if _l_adjacent_by_definition(u, v)}
            assert l_moves(u) == expected, u


def test_moves_are_symmetric_and_preserve_sorted_lehmer():
    for u in iter_permutations(5):
        key = sorted_code(lehmer_code(u))
        for v in l_moves(u):
            assert sorted_code(lehmer_code(v)) == key
            assert u in l_moves(v)


def test_class_of_31452():
    cls = l_class(parse_permutation('31452'))
    assert cls.members == tuple(
        parse_permutation(t) for t in (
            '13542', '14352', '21543', '23514', '24153',
            '24315', '31452', '32154', '32415',
        )
    )
    assert len(cls) == 9
    assert cls.key == (0, 0, 1, 1, 2)
    assert cls.max_member == (3, 2, 4, 1, 5)
    assert cls.min_member == (1, 3, 5, 4, 2)
    assert parse_permutation('24153') in cls.members


def test_classes_are_sorted_lehmer_fibers():
    for n in range(1, 7):
        classes = l_classes(n)
        assert len(classes) == catalan(n)
        seen = set()
        for cls in classes:
            for member in cls.members:
                assert sorted_code(lehmer_code(member)) == cls.key
                assert member not in seen
                seen.add(member)
        assert len(seen) == len(list(iter_permutations(n)))
        least = [cls.members[0] for cls in classes]
        assert all(a < b for a, b in zip(least, least[1:]))


def _class_min_by_scan(p):
    """``class_min`` with the largest admissible code entry found by a
    linear scan from the right."""
    n = len(p)
    unused = sorted(lehmer_code(p))
    slots = [0] * n
    for i in range(n, 0, -1):
        pick = max(j for j, c in enumerate(unused) if c <= n - i)
        slots[i - 1] = unused.pop(pick)
    return lehmer_decode(tuple(slots))


def test_class_extremes_for_682547193():
    p = parse_permutation('682547193')
    assert class_max(p) == parse_permutation('764352819')
    assert class_min(p) == parse_permutation('139857642')
    for n in range(8):
        for q in iter_permutations(n):
            assert class_min(q) == _class_min_by_scan(q), q


def test_class_extremes_refuse_a_non_permutation():
    # as l_class does, rather than decoding an "extreme" of no class
    for p in ((3, 1), (2, 2)):
        for extreme in (class_max, class_min):
            with pytest.raises(ValueError, match=r'not a permutation of 1\.\.2'):
                extreme(p)


def test_unique_pattern_avoiders_per_class():
    for n in range(1, 7):
        for cls in l_classes(n):
            avoiders_132 = [p for p in cls.members if avoids_pattern(p, (1, 3, 2))]
            avoiders_213 = [p for p in cls.members if avoids_pattern(p, (2, 1, 3))]
            assert avoiders_132 == [cls.max_member]
            assert avoiders_213 == [cls.min_member]


def test_extremes_belong_to_the_class_and_are_idempotent():
    for p in iter_permutations(5):
        cls = l_class(p)
        assert cls.max_member in cls.members
        assert cls.min_member in cls.members
        assert class_max(cls.max_member) == cls.max_member
        assert class_min(cls.min_member) == cls.min_member
        assert min(cls.members) == cls.members[0]


def test_appending_a_letter_can_split_a_class():
    # 132 and 213 share the sorted Lehmer code (and one exchange links them),
    # but appending the letter 2 separates their standardizations
    u, v = (1, 3, 2), (2, 1, 3)
    assert l_adjacent(u, v)
    u2 = standardize(u + (2,))
    v2 = standardize(v + (2,))
    assert u2 == (1, 4, 2, 3)
    assert v2 == (2, 1, 4, 3)
    assert sorted_code(lehmer_code(u2)) == (0, 0, 0, 2)
    assert sorted_code(lehmer_code(v2)) == (0, 0, 1, 1)
    assert l_class(u2).key != l_class(v2).key


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple)))
def test_class_membership_is_reflexive_and_extremes_avoid(p):
    cls = l_class(p)
    assert p in cls.members
    assert avoids_pattern(cls.max_member, (1, 3, 2))
    assert avoids_pattern(cls.min_member, (2, 1, 3))


@pytest.mark.parametrize('pattern', ((1, 2), (1, 3, 2, 4), (1, 2, 4), (0, 1, 2), (3, 3, 3)))
def test_avoids_pattern_refuses_patterns_not_permutations_of_1_to_3(pattern):
    message = 'not a permutation of 1..3' if len(pattern) == 3 else 'only length-3 patterns'
    with pytest.raises(ValueError, match=message):
        avoids_pattern((2, 1, 3, 4), pattern)
