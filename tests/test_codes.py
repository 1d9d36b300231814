import hashlib
import random
from itertools import product
from math import factorial

import pytest
from hypothesis import example, given, strategies as st

from permcodes.codes import (
    FAMILIES,
    MAJCODE,
    acceptability_witness,
    format_code,
    inv_code,
    inv_decode,
    is_subdiagonal,
    lehmer_code,
    lehmer_decode,
    maj_code,
    maj_decode,
    parse_code,
    s_code,
    s_decode,
    sorted_code,
    tau_m,
    tau_s,
)
from permcodes.permutations import (
    insert_one_at,
    inv,
    inverse,
    iter_permutations,
    maj,
    parse_permutation,
)

from oracles import descent_position_sum, generic_decode, generic_encode

ENCODE = {
    'lehmer': lehmer_code,
    'invcode': inv_code,
    'majcode': maj_code,
    'scode': s_code,
}
DECODE = {
    'lehmer': lehmer_decode,
    'invcode': inv_decode,
    'majcode': maj_decode,
    'scode': s_decode,
}


# The codes as defined, letter by letter: test-only references for the
# one-pass encoders of permcodes.codes.

def lehmer_code_reference(p):
    n = len(p)
    return tuple(
        sum(1 for j in range(i + 1, n) if p[j] < p[i]) for i in range(n)
    )


def inv_code_reference(p):
    position = {v: i for i, v in enumerate(p)}
    return tuple(
        sum(1 for j in range(position[i]) if p[j] > i)
        for i in range(1, len(p) + 1)
    )


def maj_code_reference(p):
    majs = [descent_position_sum([x for x in p if x >= i])
            for i in range(1, len(p) + 2)]
    return tuple(majs[i] - majs[i + 1] for i in range(len(p)))


def s_code_reference(p):
    n = len(p)
    position = {v: i for i, v in enumerate(p)}
    out = []
    for i in range(1, n + 1):
        r = 0
        for j in range(position[i] - 1, -1, -1):
            if p[j] > i:
                r = p[j]
                break
        out.append(n + 1 - r if r else 0)
    return tuple(out)


REFERENCE = {
    'lehmer': lehmer_code_reference,
    'invcode': inv_code_reference,
    'majcode': maj_code_reference,
    'scode': s_code_reference,
}

# The printed S_4 reference: permutations grouped by inverse descent class,
# with their invcode, majcode and saillance code.
S4_TABLE = """
1234 0000 0000 0000   4321 3210 3210 3210
1243 0010 1110 0010   3214 2100 2100 3200
1423 0110 1010 0110   3241 3100 3100 1200
4123 1110 0010 1110   3421 3200 3200 3100
1324 0100 1100 0200   2143 1010 2110 3010
1342 0200 1200 0100   2413 2010 0110 1010
3124 1100 0100 2200   2431 3010 3110 2010
3142 1200 2200 2100   4213 2110 2010 3110
3412 2200 0200 1100   4231 3110 3010 2110
1432 0210 2210 0210   2134 1000 1000 3000
4132 1210 1210 1210   2314 2000 2000 2000
4312 2210 0210 2210   2341 3000 3000 1000
"""


def s4_rows():
    rows = []
    for line in S4_TABLE.strip().splitlines():
        tokens = line.split()
        for chunk in (tokens[:4], tokens[4:]):
            perm, ic, mc, sc = chunk
            rows.append((parse_permutation(perm), parse_code(ic),
                         parse_code(mc), parse_code(sc)))
    return rows


def test_s4_reference_table():
    rows = s4_rows()
    assert len(rows) == 24
    assert len({row[0] for row in rows}) == 24
    for perm, ic, mc, sc in rows:
        assert inv_code(perm) == ic
        assert maj_code(perm) == mc
        assert s_code(perm) == sc


def test_known_codes_of_a_long_permutation():
    p = parse_permutation('531962487')
    assert format_code(lehmer_code(p)) == '420520010'
    assert format_code(inv_code(p)) == '241301210'
    assert format_code(maj_code(p)) == '514421210'
    assert format_code(s_code(p)) == '745401210'


@pytest.mark.parametrize('name', sorted(ENCODE))
def test_encoders_match_their_definitions_exhaustively(name):
    encode, reference = ENCODE[name], REFERENCE[name]
    for n in range(9):
        for p in iter_permutations(n):
            assert encode(p) == reference(p)


# Uniform draws seldom hold long decreasing runs, where the saillance
# stack grows deep, so two such words are always tried.
@given(st.integers(min_value=9, max_value=16).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple)))
@example(tuple(range(16, 0, -1)))
@example((*range(15, 0, -1), 16))
def test_encoders_match_their_definitions_on_long_permutations(p):
    for name in ENCODE:
        assert ENCODE[name](p) == REFERENCE[name](p)


# Past one machine word, where the bit-set encoders hold ints of 100 bits:
# a seeded random word, its reverse, and the zigzag 100 1 99 2 ... 51 50.
RANDOM_100 = tuple(random.Random(100).sample(range(1, 101), 100))
LONG_WORDS = {
    'random': RANDOM_100,
    'reverse': RANDOM_100[::-1],
    'zigzag': tuple(v for k in range(50) for v in (100 - k, 1 + k)),
}


@pytest.mark.parametrize('word', sorted(LONG_WORDS))
@pytest.mark.parametrize('name', ('invcode', 'majcode'))
def test_encoders_match_their_definitions_past_one_machine_word(name, word):
    p = LONG_WORDS[word]
    assert ENCODE[name](p) == REFERENCE[name](p)


def subdiagonal_codes(n):
    return product(*(range(n - i) for i in range(n)))


def test_maj_decode_agrees_with_the_tau_recursion():
    for n in range(8):
        for c in subdiagonal_codes(n):
            assert maj_decode(c) == generic_decode(MAJCODE, c)


def test_maj_decode_inverts_the_definitional_code_on_s8():
    for p in iter_permutations(8):
        assert maj_decode(maj_code_reference(p)) == p


def test_invcode_is_lehmer_of_inverse():
    for p in iter_permutations(5):
        assert inv_code(p) == lehmer_code(inverse(p))


def test_inv_decode_is_inverse_of_lehmer_decode():
    # the inverse code is the Lehmer code of the inverse, kept as a reference
    for n in range(9):
        for c in subdiagonal_codes(n):
            assert inv_decode(c) == inverse(lehmer_decode(c))


def test_code_sums_recover_statistics():
    for p in iter_permutations(5):
        assert sum(lehmer_code(p)) == inv(p)
        assert sum(inv_code(p)) == inv(p)
        assert sum(maj_code(p)) == maj(p)


@pytest.mark.parametrize('name', sorted(ENCODE))
def test_bijectivity_onto_subdiagonal_sequences(name):
    encode, decode = ENCODE[name], DECODE[name]
    for n in range(7):
        seen = set()
        for p in iter_permutations(n):
            c = encode(p)
            assert is_subdiagonal(c)
            assert decode(c) == p
            seen.add(c)
        assert len(seen) == factorial(n)


@pytest.mark.parametrize('name', sorted(ENCODE))
def test_sorted_code_is_nondecreasing_and_subdiagonal_sorted(name):
    encode = ENCODE[name]
    for p in iter_permutations(5):
        c = sorted_code(encode(p))
        assert all(c[i] <= c[i + 1] for i in range(len(c) - 1))
        assert all(c[i] <= i for i in range(len(c)))


def test_tau_regressions():
    beta = parse_permutation('941625738')
    assert tau_s(beta) == (0, 1, 6, 9, 4, 8, 5, 3, 7, 2)
    assert tau_m(beta) == (4, 3, 2, 5, 1, 6, 7, 0, 8, 9)


def test_tau_m_tableau():
    # three worked rows: beta on the left, tau_M(beta) on the right
    rows = [
        ('72451836', '324516078'),
        ('835621947', '4356217089'),
        ('835629147', '3245160789'),
    ]
    for beta_text, expected in rows:
        beta = parse_permutation(beta_text)
        assert ''.join(map(str, tau_m(beta))) == expected


def test_tau_m_is_pinned_for_every_beta_up_to_size_8():
    text = ''.join(''.join(map(str, tau_m(beta))) + '\n'
                   for n in range(9) for beta in iter_permutations(n))
    assert text.count('\n') == 46234
    assert hashlib.sha256(text.encode()).hexdigest() == (
        '1e0030fd8d26e4569368e569c021ab46b0d055265fa68972a1996b52b5d2f232')


def test_tau_s_fixes_zero_and_hits_every_slot():
    for beta in iter_permutations(5):
        t = tau_s(beta)
        assert t[0] == 0
        assert sorted(t) == list(range(6))


@pytest.mark.parametrize('name', ('invcode', 'majcode', 'scode'))
def test_insertion_step_factorizes_the_code(name):
    """code(1 ⧢_i β') prepends τ(β)(i) to code(β), for every slot i."""
    family = FAMILIES[name]
    for beta in iter_permutations(4):
        t = family.tau(beta)
        c = family.encode(beta)
        for i in range(len(beta) + 1):
            assert family.encode(insert_one_at(beta, i)) == (t[i],) + c


@pytest.mark.parametrize('name', ('invcode', 'majcode', 'scode'))
def test_generic_encode_decode_agree_with_direct(name):
    family = FAMILIES[name]
    for n in range(6):
        for p in iter_permutations(n):
            c = ENCODE[name](p)
            assert generic_encode(family, p) == c
            assert generic_decode(family, c) == p


# Far past the interpreter's recursion limit: each runs as a loop.
@pytest.mark.parametrize('name', ('invcode', 'majcode', 'scode'))
def test_generic_encode_decode_on_a_1200_letter_permutation(name):
    family = FAMILIES[name]
    p = tuple(random.Random(1200).sample(range(1, 1201), 1200))
    c = family.encode(p)
    assert generic_encode(family, p) == c
    assert generic_decode(family, c) == p


@pytest.mark.parametrize('name', ('invcode', 'majcode', 'scode'))
def test_families_are_acceptable(name):
    assert acceptability_witness(FAMILIES[name], 5) is None


def test_scode_decode_builds_by_insertion():
    assert s_decode((0, 1, 1, 0)) == (1, 4, 2, 3)


@pytest.mark.parametrize('name', sorted(DECODE))
def test_decoders_start_from_the_empty_word(name):
    assert DECODE[name](()) == ()
    assert DECODE[name]((0,)) == (1,)


def test_parse_code_rejects_non_subdiagonal():
    with pytest.raises(ValueError):
        parse_code('41')  # 4 > n-1 at the first place of a 2-letter code


@given(st.integers(min_value=0, max_value=7).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple)))
def test_roundtrips_on_random_permutations(p):
    for name in ENCODE:
        assert DECODE[name](ENCODE[name](p)) == p


# The decreasing word of 16 gives the major-code decoder all descent slots,
# the increasing one none.  The zigzag 16 1 15 2 ... 9 8 first builds
# 16 15 ... 8, with eight descent slots, then puts each of 7, ..., 1 into one
# of them, adding a rise each time, so its last insertions index long lists
# of both kinds.
@given(st.integers(min_value=9, max_value=16).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple)))
@example(tuple(range(16, 0, -1)))
@example(tuple(range(1, 17)))
@example(tuple(v for k in range(8) for v in (16 - k, 1 + k)))
def test_roundtrips_on_long_permutations(p):
    for name in ENCODE:
        assert DECODE[name](ENCODE[name](p)) == p


# The decoders run no validation pass before decoding: each must reject a
# bad code while it decodes, with the message that check_code gives, and
# decode every good one.  Entries run from -2 to n+1, and below n = 5 also
# take two far-out values; a list must be read like the tuple.
@pytest.mark.parametrize('name', sorted(DECODE))
def test_decoders_reject_exactly_the_non_subdiagonal_codes(name):
    encode, decode = ENCODE[name], DECODE[name]
    for n in range(6):
        far = (-n - 3, 10**6) if n < 5 else ()
        for c in product((*far, *range(-2, n + 2)), repeat=n):
            want = c if is_subdiagonal(c) else f'not a sub-diagonal code: {c}'
            for arg in (c, list(c)):
                try:
                    got = encode(decode(arg))
                except ValueError as exc:
                    got = str(exc)
                assert got == want


@pytest.mark.parametrize('name', ('invcode', 'majcode', 'scode'))
@pytest.mark.parametrize('c', [(1,), (0, 2, 0), (0, -1)])
def test_generic_decode_rejects_non_subdiagonal_codes(name, c):
    with pytest.raises(ValueError):
        generic_decode(FAMILIES[name], c)


@given(st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.tuples(*(st.integers(0, n - 1 - i) for i in range(n)))))
def test_every_subdiagonal_sequence_decodes_to_a_permutation(c):
    for name in ENCODE:
        p = DECODE[name](c)
        assert ENCODE[name](p) == c
