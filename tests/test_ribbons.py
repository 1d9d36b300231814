import itertools
import re
from collections import Counter
from math import comb

import pytest

from permcodes.permutations import (
    coarser_compositions,
    compositions_of,
    descent_class,
    parse_composition,
)
from permcodes.polynomials import IndexPolynomial
from permcodes.ribbons import (
    alphabet_flag,
    format_bracket,
    h_flagged,
    h_product,
    poly_to_json,
    ribbon_determinant,
    ribbon_flagged,
    ribbon_table_lines,
    ribbon_walk,
)

from oracles import tuple_ribbon_determinant, tuple_ribbon_flagged

# Reference expansions.  Monomial [0012] stands for x_0^2 x_1 x_2; an integer
# before a bracket is its coefficient.
TABLE_N3 = """\
r_3 = [000]
r_21 = [001] + [011]
r_12 = [001] + [002]
r_111 = [012]
"""

TABLE_N4 = """\
r_4 = [0000]
r_31 = [0001] + [0011] + [0111]
r_22 = [0001] + [0002] + [0011] + [0012] + [0022]
r_211 = [0012] + [0112] + [0122]
r_13 = [0001] + [0002] + [0003]
r_121 = [0011] + [0012] + [0013] + [0112] + [0113]
r_112 = [0012] + [0013] + [0023]
r_1111 = [0123]
"""

TABLE_N5 = """\
r_5 = [00000]
r_41 = [00001] + [00011] + [00111] + [01111]
r_32 = [00001] + [00002] + [00011] + [00012] + [00022] + [00111] + [00112] \
+ [00122] + [00222]
r_311 = [00012] + [00112] + [00122] + [01112] + [01122] + [01222]
r_23 = [00001] + [00002] + [00003] + [00011] + [00012] + [00013] + [00022] \
+ [00023] + [00033]
r_221 = [00011] + [00012] + [00013] + [00111] + 2 [00112] + 2 [00113] \
+ [00122] + [00123] + [00133] + [01112] + [01113] + [01122] + [01123] + [01133]
r_212 = [00012] + [00013] + [00023] + [00112] + [00113] + [00122] \
+ 2 [00123] + [00133] + [00223] + [00233]
r_2111 = [00123] + [01123] + [01223] + [01233]
r_14 = [00001] + [00002] + [00003] + [00004]
r_131 = [00011] + [00012] + [00013] + [00014] + [00111] + [00112] + [00113] \
+ [00114] + [01112] + [01113] + [01114]
r_122 = [00011] + 2 [00012] + [00013] + [00014] + [00022] + [00023] \
+ [00024] + [00112] + [00113] + [00114] + [00122] + [00123] + [00124] \
+ [00223] + [00224]
r_1211 = [00112] + [00122] + [00123] + [00124] + [01122] + [01123] \
+ [01124] + [01223] + [01224]
r_113 = [00012] + [00013] + [00014] + [00023] + [00024] + [00034]
r_1121 = [00112] + [00113] + [00114] + [00123] + [00124] + [00134] \
+ [01123] + [01124] + [01134]
r_1112 = [00123] + [00124] + [00134] + [00234]
r_11111 = [01234]
"""

# A frozen size-6 regression (same construction, one line per composition).
TABLE_N6 = """\
r_6 = [000000]
r_51 = [000001] + [000011] + [000111] + [001111] + [011111]
r_42 = [000001] + [000002] + [000011] + [000012] + [000022] + [000111] \
+ [000112] + [000122] + [000222] + [001111] + [001112] + [001122] + [001222] \
+ [002222]
r_411 = [000012] + [000112] + [000122] + [001112] + [001122] + [001222] \
+ [011112] + [011122] + [011222] + [012222]
r_33 = [000001] + [000002] + [000003] + [000011] + [000012] + [000013] \
+ [000022] + [000023] + [000033] + [000111] + [000112] + [000113] + [000122] \
+ [000123] + [000133] + [000222] + [000223] + [000233] + [000333]
r_321 = [000011] + [000012] + [000013] + [000111] + 2 [000112] + 2 [000113] \
+ [000122] + [000123] + [000133] + [001111] + 2 [001112] + 2 [001113] \
+ 2 [001122] + 2 [001123] + 2 [001133] + [001222] + [001223] + [001233] \
+ [001333] + [011112] + [011113] + [011122] + [011123] + [011133] + [011222] \
+ [011223] + [011233] + [011333]
r_312 = [000012] + [000013] + [000023] + [000112] + [000113] + [000122] \
+ 2 [000123] + [000133] + [000223] + [000233] + [001112] + [001113] \
+ [001122] + 2 [001123] + [001133] + [001222] + 2 [001223] + 2 [001233] \
+ [001333] + [002223] + [002233] + [002333]
r_3111 = [000123] + [001123] + [001223] + [001233] + [011123] + [011223] \
+ [011233] + [012223] + [012233] + [012333]
r_24 = [000001] + [000002] + [000003] + [000004] + [000011] + [000012] \
+ [000013] + [000014] + [000022] + [000023] + [000024] + [000033] + [000034] \
+ [000044]
r_231 = [000011] + [000012] + [000013] + [000014] + 2 [000111] + 2 [000112] \
+ 2 [000113] + 2 [000114] + [000122] + [000123] + [000124] + [000133] \
+ [000134] + [000144] + [001111] + 2 [001112] + 2 [001113] + 2 [001114] \
+ [001122] + [001123] + [001124] + [001133] + [001134] + [001144] + [011112] \
+ [011113] + [011114] + [011122] + [011123] + [011124] + [011133] + [011134] \
+ [011144]
r_222 = [000011] + 2 [000012] + [000013] + [000014] + [000022] + [000023] \
+ [000024] + [000111] + 3 [000112] + 2 [000113] + 2 [000114] + 3 [000122] \
+ 3 [000123] + 3 [000124] + [000133] + [000134] + [000144] + [000222] \
+ 2 [000223] + 2 [000224] + [000233] + [000234] + [000244] + [001112] \
+ [001113] + [001114] + 2 [001122] + 2 [001123] + 2 [001124] + [001133] \
+ [001134] + [001144] + [001222] + 2 [001223] + 2 [001224] + [001233] \
+ [001234] + [001244] + [002223] + [002224] + [002233] + [002234] + [002244]
r_2211 = [000112] + [000122] + [000123] + [000124] + [001112] + 2 [001122] \
+ 2 [001123] + 2 [001124] + [001222] + 2 [001223] + 2 [001224] + [001233] \
+ [001234] + [001244] + [011122] + [011123] + [011124] + [011222] \
+ 2 [011223] + 2 [011224] + [011233] + [011234] + [011244] + [012223] \
+ [012224] + [012233] + [012234] + [012244]
r_213 = [000012] + [000013] + [000014] + [000023] + [000024] + [000034] \
+ [000112] + [000113] + [000114] + [000122] + 2 [000123] + 2 [000124] \
+ [000133] + 2 [000134] + [000144] + [000223] + [000224] + [000233] \
+ 2 [000234] + [000244] + [000334] + [000344]
r_2121 = [000112] + [000113] + [000114] + [000123] + [000124] + [000134] \
+ [001112] + [001113] + [001114] + [001122] + 3 [001123] + 3 [001124] \
+ [001133] + 3 [001134] + [001144] + [001223] + [001224] + [001233] \
+ 2 [001234] + [001244] + [001334] + [001344] + [011123] + [011124] \
+ [011134] + [011223] + [011224] + [011233] + 2 [011234] + [011244] \
+ [011334] + [011344]
r_2112 = [000123] + [000124] + [000134] + [000234] + [001123] + [001124] \
+ [001134] + [001223] + [001224] + [001233] + 3 [001234] + [001244] \
+ [001334] + [001344] + [002234] + [002334] + [002344]
r_21111 = [001234] + [011234] + [012234] + [012334] + [012344]
r_15 = [000001] + [000002] + [000003] + [000004] + [000005]
r_141 = [000011] + [000012] + [000013] + [000014] + [000015] + [000111] \
+ [000112] + [000113] + [000114] + [000115] + [001111] + [001112] + [001113] \
+ [001114] + [001115] + [011112] + [011113] + [011114] + [011115]
r_132 = [000011] + 2 [000012] + [000013] + [000014] + [000015] + [000022] \
+ [000023] + [000024] + [000025] + [000111] + 2 [000112] + [000113] \
+ [000114] + [000115] + 2 [000122] + [000123] + [000124] + [000125] \
+ [000222] + [000223] + [000224] + [000225] + [001112] + [001113] + [001114] \
+ [001115] + [001122] + [001123] + [001124] + [001125] + [001222] + [001223] \
+ [001224] + [001225] + [002223] + [002224] + [002225]
r_1311 = [000112] + [000122] + [000123] + [000124] + [000125] + [001112] \
+ 2 [001122] + [001123] + [001124] + [001125] + [001222] + [001223] \
+ [001224] + [001225] + [011122] + [011123] + [011124] + [011125] + [011222] \
+ [011223] + [011224] + [011225] + [012223] + [012224] + [012225]
r_123 = [000011] + 2 [000012] + 2 [000013] + [000014] + [000015] + [000022] \
+ 2 [000023] + [000024] + [000025] + [000033] + [000034] + [000035] \
+ [000112] + [000113] + [000114] + [000115] + [000122] + 2 [000123] \
+ [000124] + [000125] + [000133] + [000134] + [000135] + [000223] + [000224] \
+ [000225] + [000233] + [000234] + [000235] + [000334] + [000335]
r_1221 = [000111] + 2 [000112] + 2 [000113] + [000114] + [000115] \
+ [000122] + 2 [000123] + [000124] + [000125] + [000133] + [000134] \
+ [000135] + 2 [001112] + 2 [001113] + [001114] + [001115] + 2 [001122] \
+ 4 [001123] + 2 [001124] + 2 [001125] + 2 [001133] + 2 [001134] \
+ 2 [001135] + [001223] + [001224] + [001225] + [001233] + [001234] \
+ [001235] + [001334] + [001335] + [011122] + 2 [011123] + [011124] \
+ [011125] + [011133] + [011134] + [011135] + [011223] + [011224] + [011225] \
+ [011233] + [011234] + [011235] + [011334] + [011335]
r_1212 = [000112] + [000113] + [000122] + 3 [000123] + [000124] + [000125] \
+ [000133] + [000134] + [000135] + [000223] + [000233] + [000234] + [000235] \
+ [001122] + 2 [001123] + [001124] + [001125] + [001133] + [001134] \
+ [001135] + 2 [001223] + [001224] + [001225] + 2 [001233] + 2 [001234] \
+ 2 [001235] + [001334] + [001335] + [002233] + [002234] + [002235] \
+ [002334] + [002335]
r_12111 = [001123] + [001223] + [001233] + [001234] + [001235] + [011223] \
+ [011233] + [011234] + [011235] + [012233] + [012234] + [012235] + [012334] \
+ [012335]
r_114 = [000012] + [000013] + [000014] + [000015] + [000023] + [000024] \
+ [000025] + [000034] + [000035] + [000045]
r_1131 = [000112] + [000113] + [000114] + [000115] + [000123] + [000124] \
+ [000125] + [000134] + [000135] + [000145] + [001112] + [001113] + [001114] \
+ [001115] + [001123] + [001124] + [001125] + [001134] + [001135] + [001145] \
+ [011123] + [011124] + [011125] + [011134] + [011135] + [011145]
r_1122 = [000112] + [000113] + [000114] + [000115] + [000122] + 2 [000123] \
+ 2 [000124] + 2 [000125] + [000134] + [000135] + [000145] + [000223] \
+ [000224] + [000225] + [000234] + [000235] + [000245] + [001123] + [001124] \
+ [001125] + [001134] + [001135] + [001145] + [001223] + [001224] + [001225] \
+ [001234] + [001235] + [001245] + [002234] + [002235] + [002245]
r_11211 = [001122] + [001123] + [001124] + [001125] + [001223] + [001224] \
+ [001225] + [001234] + [001235] + [001245] + [011223] + [011224] + [011225] \
+ [011234] + [011235] + [011245] + [012234] + [012235] + [012245]
r_1113 = [000123] + [000124] + [000125] + [000134] + [000135] + [000145] \
+ [000234] + [000235] + [000245] + [000345]
r_11121 = [001123] + [001124] + [001125] + [001134] + [001135] + [001145] \
+ [001234] + [001235] + [001245] + [001345] + [011234] + [011235] + [011245] \
+ [011345]
r_11112 = [001234] + [001235] + [001245] + [001345] + [002345]
r_111111 = [012345]
"""

TERM_RE = re.compile(r'(?:(\d+)\s+)?\[(\d+)\]')


def parse_table(text):
    """{composition: {monomial: coeff}} from the bracket notation above."""
    out = {}
    for line in text.strip().splitlines():
        left, right = line.split(' = ')
        comp = parse_composition(left[2:])
        poly = {}
        for term in right.split(' + '):
            match = TERM_RE.fullmatch(term.strip())
            assert match, f'bad term {term!r} in {line!r}'
            coeff = int(match.group(1) or 1)
            mono = tuple(int(ch) for ch in match.group(2))
            assert mono not in poly
            poly[mono] = coeff
        out[comp] = poly
    return out


def test_alphabet_flag():
    assert alphabet_flag((2, 1, 1, 2)) == (4, 3, 2, 0)
    assert alphabet_flag((3,)) == (0,)


@pytest.mark.parametrize('route', [alphabet_flag, h_product, ribbon_flagged,
                                   ribbon_determinant], ids=lambda route: route.__name__)
@pytest.mark.parametrize('comp', [(1, 0, 1), (0,), (2, 0)], ids=str)
def test_every_route_refuses_a_part_below_one(route, comp):
    # the message parse_composition gives the CLI
    with pytest.raises(ValueError, match=re.escape(
            f'composition parts must be positive: {comp}')):
        route(comp)


def test_h_flagged_monomial_counts():
    for k in range(5):
        for m in range(5):
            poly = h_flagged(k, m)
            assert len(poly.terms) == comb(m + k, k)
            assert all(coeff == 1 for coeff in poly.terms.values())
            for mono in poly.terms:
                assert len(mono) == k
                assert all(0 <= j <= m for j in mono)
    assert h_flagged(0, 3) == IndexPolynomial.one()


def test_reference_tables_exactly():
    for text in (TABLE_N3, TABLE_N4, TABLE_N5, TABLE_N6):
        for comp, expected in parse_table(text).items():
            assert ribbon_flagged(comp).terms == expected, comp


def test_rendered_table_lines_match_reference_text():
    expected = (TABLE_N3 + TABLE_N4 + TABLE_N5).strip().splitlines()
    got = ribbon_table_lines(3) + ribbon_table_lines(4) + ribbon_table_lines(5)
    assert got == expected


def test_table_lines_name_the_coarse_products_h_and_the_ribbons_r():
    assert ribbon_table_lines(2, h_product) == ['h_2 = [00]', 'h_11 = [00] + [01]']
    assert ribbon_table_lines(2, ribbon_determinant) == ['r_2 = [00]', 'r_11 = [01]']


def signed_h_sum(comp):
    """Reference r_I: the signed sum of h^J over every J coarser than I."""
    out = IndexPolynomial.zero()
    for other in coarser_compositions(comp):
        term = h_product(other)
        out = out - term if (len(comp) - len(other)) % 2 else out + term
    return out


def leibniz_determinant(comp):
    """Reference r_I: the Leibniz sum of the r×r flagged Hessenberg matrix
    over all r! permutations, structural zeros skipped."""
    r, n = len(comp), sum(comp)
    prefix = list(itertools.accumulate(comp))

    def entry(a, b):
        if a > b + 1:
            return None
        if a == b + 1:
            return IndexPolynomial.one()
        return h_flagged(prefix[b] - (prefix[a - 1] if a else 0), n - prefix[b])

    out = IndexPolynomial.zero()
    for sigma in itertools.permutations(range(r)):
        factors = [entry(a, sigma[a]) for a in range(r)]
        if None in factors:
            continue
        term = IndexPolynomial.one()
        for f in factors:
            term = term * f
        inversions = sum(sigma[i] > sigma[j]
                         for i, j in itertools.combinations(range(r), 2))
        out = out - term if inversions % 2 else out + term
    return out


def test_determinant_route_agrees_with_inclusion_exclusion():
    # both recurrences against the direct expansions they replace
    for n in range(8):
        for comp in compositions_of(n):
            expected = signed_h_sum(comp)
            assert leibniz_determinant(comp) == expected, comp
            assert ribbon_flagged(comp) == expected, comp
            assert ribbon_determinant(comp) == expected, comp


def test_the_walk_yields_both_routes_for_every_composition_in_mirror_order():
    # the walk takes the steps that ribbon_flagged and ribbon_determinant
    # fold, so the oracle is the tuple-keyed recurrences, which share none
    for n in range(9):
        walk = list(ribbon_walk(n))
        assert [comp for comp, _, _ in walk] == [c[::-1] for c in compositions_of(n)], n
        for comp, ribbon, determinant in walk:
            assert ribbon.terms == tuple_ribbon_flagged(comp).terms, comp
            assert determinant.terms == tuple_ribbon_determinant(comp).terms, comp


def test_the_routes_multiply_only_the_term_pairs_they_need(monkeypatch):
    # every product goes through sum_of_products, so these are the routes'
    # work at n = 8: a step asked for children that no cut subtracts, or a
    # product by the empty suffix's ribbon 1 in either step, adds to them
    sum_of_products = IndexPolynomial.sum_of_products
    work = Counter()

    def counted(triples):
        triples = list(triples)
        work['calls'] += 1
        work['pairs'] += sum(len(a.terms) * len(b.terms) for a, b, _ in triples)
        return sum_of_products(triples)

    monkeypatch.setattr(IndexPolynomial, 'sum_of_products', staticmethod(counted))
    for route, calls, pairs in ((ribbon_flagged, 1120, 133810),
                                (ribbon_determinant, 448, 133810)):
        work.clear()
        for comp in compositions_of(8):
            route(comp)
        assert work == {'calls': calls, 'pairs': pairs}, route.__name__
    work.clear()
    for _ in ribbon_walk(8):
        pass
    assert work == {'calls': 494, 'pairs': 194973}


def test_the_walk_refuses_a_negative_size():
    with pytest.raises(ValueError, match='negative size'):
        ribbon_walk(-1)


def test_all_ones_ribbon_of_ten_is_one_monomial():
    # the Leibniz walk would visit 10! permutations here
    expected = IndexPolynomial({tuple(range(10)): 1})
    assert ribbon_determinant((1,) * 10) == ribbon_flagged((1,) * 10) == expected


def test_ribbons_have_nonnegative_coefficients_and_sorted_monomials():
    for n in range(7):
        for comp in compositions_of(n):
            poly = ribbon_flagged(comp)
            for mono, coeff in poly.terms.items():
                assert coeff > 0
                assert len(mono) == n
                assert all(mono[i] <= mono[i + 1] for i in range(n - 1))
                assert all(mono[i] <= i for i in range(n))


def test_ribbon_mass_is_descent_class_size():
    for n in range(7):
        for comp in compositions_of(n):
            assert ribbon_flagged(comp).total_mass() == len(descent_class(comp))


def test_moebius_roundtrip_recovers_h_product():
    # summing r_J over all J coarser than I must give back h^I
    for n in range(7):
        for comp in compositions_of(n):
            acc = IndexPolynomial.zero()
            for coarse in coarser_compositions(comp):
                acc = acc + ribbon_flagged(coarse)
            assert acc == h_product(comp), comp


def test_format_and_json_helpers():
    poly = ribbon_flagged((2, 1))
    assert format_bracket(poly) == '[001] + [011]'
    assert poly_to_json(poly) == [
        {'monomial': '001', 'coeff': 1},
        {'monomial': '011', 'coeff': 1},
    ]
    assert format_bracket(IndexPolynomial.zero()) == '0'


def test_ribbon_routes_equal_the_tuple_keyed_recurrences():
    for n in range(8):
        for comp in compositions_of(n):
            assert ribbon_flagged(comp).terms == tuple_ribbon_flagged(comp).terms, comp
            assert ribbon_determinant(comp).terms == tuple_ribbon_determinant(comp).terms, comp
