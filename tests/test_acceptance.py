"""Acceptance gate: the ten headline reproductions, one printed line each.

Each test prints ``ACCEPTANCE <k> PASS/FAIL - <what it covers>`` on the real
stdout (capture temporarily disabled) so a plain ``pytest -v`` run shows the
scoreboard.
"""

import hashlib
import json
import time
from math import factorial

import pytest

from permcodes import cli
from permcodes.codes import (
    FAMILIES,
    acceptability_witness,
    inv_code,
    inv_decode,
    is_subdiagonal,
    lehmer_code,
    lehmer_decode,
    maj_code,
    maj_decode,
    s_code,
    s_decode,
    tau_m,
    tau_s,
)
from permcodes.lequiv import catalan, class_max, class_min, l_class, l_classes
from permcodes.permutations import (
    descent_class,
    inverse,
    iter_permutations,
    parse_permutation,
)
from permcodes.ribbons import ribbon_flagged
from permcodes.trees import (
    increasing_labelings,
    taylor_tree_series,
    tree_to_perm,
    x_polynomial,
    format_v_polynomial,
)
from permcodes.verify import run_checks

from oracles import q_factorial, q_statistic, s_code_of_tree
from test_ribbons import TABLE_N3, TABLE_N4, TABLE_N5, parse_table
from test_trees import CANONIK, X_EXPANSIONS
from test_verify import (
    INVCODES_2112,
    MAJCODES_2112,
    PERMS_2112,
    SCODES_2112,
    SORTED_2112,
    to_tuple,
)

# sha256 of run_checks(6).render_text() and of its JSON at indent 2: the
# report bytes must not change while the checks are reorganized or sped up
N6_TEXT_SHA256 = 'b315ec2c5db5fd30e954a3634cb9aa1143602951271dc00159092672f891d1b7'
N6_JSON_SHA256 = '85c0e142728cf32fbc7caed14f299c0ef0033c9ed246ded5eb3368c178243a04'


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# the printed S_4 reference exactly as typeset (separators are whitespace)
PAPER_S4 = r"""
1234 & 0000 & 0000 & 0000   &   4321 & 3210 & 3210 & 3210\\
1243 & 0010 & 1110 & 0010   &   3214 & 2100 & 2100 & 3200\\
1423 & 0110 & 1010 & 0110   &   3241 & 3100 & 3100 & 1200\\
4123 & 1110 & 0010 & 1110   &   3421 & 3200 & 3200 & 3100\\
1324 & 0100 & 1100 & 0200   &   2143 & 1010 & 2110 & 3010\\
1342 & 0200 & 1200 & 0100   &   2413 & 2010 & 0110 & 1010\\
3124 & 1100 & 0100 & 2200   &   2431 & 3010 & 3110 & 2010\\
3142 & 1200 & 2200 & 2100   &   4213 & 2110 & 2010 & 3110\\
3412 & 2200 & 0200 & 1100   &   4231 & 3110 & 3010 & 2110\\
1432 & 0210 & 2210 & 0210   &   2134 & 1000 & 1000 & 3000\\
4132 & 1210 & 1210 & 1210   &   2314 & 2000 & 2000 & 2000\\
4312 & 2210 & 0210 & 2210   &   2341 & 3000 & 3000 & 1000\\
"""


@pytest.fixture(name='report')
def scoreboard(request):
    manager = request.config.pluginmanager.getplugin('capturemanager')

    def _report(num: int, passed: bool, description: str) -> None:
        status = 'PASS' if passed else 'FAIL'
        line = f'ACCEPTANCE {num:02d} {status} - {description}'
        if manager is None:
            print(line, flush=True)
        else:
            with manager.global_and_fixture_disabled():
                print(line, flush=True)

    return _report


def test_criterion_01_golden_s4_table(capsys, report):
    ok = False
    elapsed = float('nan')
    try:
        start = time.perf_counter()
        assert cli.main(['code', '--table', '4']) == 0
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        got = [
            token
            for line in out.splitlines()
            if line and line[0].isdigit()
            for token in line.split()
        ]
        expected = PAPER_S4.replace('\\\\', ' ').replace('&', ' ').split()
        assert got == expected
        assert len(got) == 24 * 4
        assert elapsed < 1.0
        ok = True
    finally:
        report(1, ok, f'S_4 (sigma, Ic, Mc, Sc) table matches the printed '
                      f'reference, {elapsed:.3f}s < 1s')


def test_criterion_02_golden_ribbon_tables(report):
    ok = False
    elapsed = float('nan')
    try:
        start = time.perf_counter()
        for text in (TABLE_N3, TABLE_N4, TABLE_N5):
            for comp, expected in parse_table(text).items():
                assert ribbon_flagged(comp).terms == expected, comp
        elapsed = time.perf_counter() - start
        r221 = ribbon_flagged((2, 2, 1)).terms
        assert r221[(0, 0, 1, 1, 2)] == 2 and r221[(0, 0, 1, 1, 3)] == 2
        assert ribbon_flagged((1, 1, 1, 1, 1)).terms == {(0, 1, 2, 3, 4): 1}
        assert elapsed < 1.0
        ok = True
    finally:
        report(2, ok, f'r_I tables for n=3,4,5 exact, {elapsed:.3f}s < 1s')


def test_criterion_03_main_theorem_sweep(report):
    ok = False
    elapsed = float('nan')
    try:
        start = time.perf_counter()
        result = run_checks(7, checks=('theorem',), workers=4)
        elapsed = time.perf_counter() - start
        assert result.passed
        assert len(result.items) == sum(2 ** (n - 1) for n in range(1, 8))
        assert not result.failures
        assert elapsed < 60.0
        ok = True
    finally:
        report(3, ok, f'sorted Ic/Sc/Mc of inverses match both ribbon routes '
                      f'for every composition, n<=7, {elapsed:.1f}s < 60s '
                      f'(4 workers)')


def test_criterion_04_worked_example_2112(report):
    ok = False
    try:
        perms = [parse_permutation(t) for t in PERMS_2112]
        assert descent_class((2, 1, 1, 2)) == perms
        sorted_expected = sorted(to_tuple(t) for t in SORTED_2112)
        for texts, encode in ((INVCODES_2112, inv_code),
                              (SCODES_2112, s_code),
                              (MAJCODES_2112, maj_code)):
            codes = [encode(inverse(p)) for p in perms]
            assert codes == [to_tuple(t) for t in texts]
            assert sorted(tuple(sorted(c)) for c in codes) == sorted_expected
        ok = True
    finally:
        report(4, ok, 'the 19 permutations of class (2,1,1,2) and all three '
                      'code displays plus the common sorted list')


def test_criterion_05_tree_expansion(report):
    ok = False
    try:
        for n, text in X_EXPANSIONS.items():
            assert format_v_polynomial(x_polynomial(n)) == text
        x6 = x_polynomial(6).terms
        assert x6[(0, 0, 0, 1, 1, 3)] == 32   # V3*V1^2*V0^3
        assert x6[(0, 0, 0, 1, 2, 2)] == 34   # V2^2*V1*V0^3
        for n in range(1, 10):
            assert sum(taylor_tree_series(n).values()) == factorial(n - 1)
        expected = {
            (4, 3, 1, 2, 5): (3, 3, 2, 0, 0),
            (4, 5, 3, 1, 2): (3, 3, 1, 0, 0),
            (3, 5, 4, 1, 2): (2, 2, 0, 1, 0),
            (2, 5, 4, 1, 3): (2, 0, 2, 1, 0),
            (1, 5, 4, 2, 3): (0, 2, 2, 1, 0),
        }
        labelings = increasing_labelings(CANONIK)
        assert len(labelings) == 5
        got = {tree_to_perm(lt): s_code_of_tree(lt) for lt in labelings}
        assert got == expected
        ok = True
    finally:
        report(5, ok, 'x_1..x_6 coefficients, sum of tree coefficients '
                      '= (n-1)! for n<=9, five labelings of the worked shape')


def test_criterion_06_code_bijectivity(report):
    ok = False
    suites = 0
    try:
        families = (
            (lehmer_code, lehmer_decode),
            (inv_code, inv_decode),
            (maj_code, maj_decode),
            (s_code, s_decode),
        )
        for encode, decode in families:
            for n in range(1, 8):
                seen = set()
                for p in iter_permutations(n):
                    c = encode(p)
                    assert is_subdiagonal(c)
                    assert decode(c) == p
                    seen.add(c)
                assert len(seen) == factorial(n)
                suites += 1
        assert suites == 28
        ok = True
    finally:
        report(6, ok, f'{suites} exhaustive encode/decode roundtrip suites '
                      f'(4 codes x n<=7) onto sub-diagonal sequences')


def test_criterion_07_tau_regressions(report):
    ok = False
    try:
        assert tau_s(parse_permutation('941625738')) == \
            (0, 1, 6, 9, 4, 8, 5, 3, 7, 2)
        assert tau_m(parse_permutation('941625738')) == \
            (4, 3, 2, 5, 1, 6, 7, 0, 8, 9)
        tableau = [
            ('72451836', '324516078'),
            ('835621947', '4356217089'),
            ('835629147', '3245160789'),
        ]
        for beta_text, expected in tableau:
            got = tau_m(parse_permutation(beta_text))
            assert ''.join(map(str, got)) == expected
        for name in ('invcode', 'scode', 'majcode'):
            assert acceptability_witness(FAMILIES[name], 6) is None
        ok = True
    finally:
        report(7, ok, 'tau_S and tau_M regressions, the three tau_M tableau '
                      'rows, and acceptability of all three families at n<=6')


def test_criterion_08_macmahon_and_class_q_equality(report):
    ok = False
    try:
        for n in range(1, 9):
            expected = q_factorial(n)
            assert q_statistic(n, 'maj') == expected
            assert q_statistic(n, 'inv') == expected
        result = run_checks(7, checks=('fs',))
        assert result.passed
        ok = True
    finally:
        report(8, ok, 'sum q^maj = sum q^inv = [n]_q! for n<=8 and '
                      'per-descent-class q-equality for n<=7')


def test_criterion_09_l_equivalence(report):
    ok = False
    try:
        for n in range(1, 8):
            classes = l_classes(n)
            assert len(classes) == catalan(n)
            from permcodes.lequiv import avoids_pattern
            for cls in classes:
                avoiders_132 = [p for p in cls.members
                                if avoids_pattern(p, (1, 3, 2))]
                avoiders_213 = [p for p in cls.members
                                if avoids_pattern(p, (2, 1, 3))]
                assert avoiders_132 == [cls.max_member]
                assert avoiders_213 == [cls.min_member]
        cls = l_class(parse_permutation('31452'))
        assert [cli.format_permutation(p) for p in cls.members] == [
            '13542', '14352', '21543', '23514', '24153',
            '24315', '31452', '32154', '32415',
        ]
        p = parse_permutation('682547193')
        assert class_max(p) == parse_permutation('764352819')
        assert class_min(p) == parse_permutation('139857642')
        ok = True
    finally:
        report(9, ok, 'Catalan class counts and unique 132-/213-avoiding '
                      'extremes for n<=7, the printed class of 31452, and '
                      'the extremes of 682547193')


def test_criterion_10_deterministic_reports(report):
    ok = False
    try:
        one = run_checks(6, workers=1)
        eight = run_checks(6, workers=8)
        assert one.render_text() == eight.render_text()
        assert one.to_json() == eight.to_json()
        assert one.passed
        assert len(one.items) == 326
        assert _sha256(one.render_text()) == N6_TEXT_SHA256
        assert _sha256(json.dumps(one.to_json(), indent=2)) == N6_JSON_SHA256
        ok = True
    finally:
        report(10, ok, 'n=6 verification report byte-identical across '
                       '1-worker and 8-worker runs, and to its pinned digests')
