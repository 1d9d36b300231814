import dataclasses
import gc
import hashlib
import itertools
import operator
from collections import Counter

import pytest

from permcodes import permutations, verify
from permcodes.codes import (
    FAMILIES,
    INVCODE,
    SCODE,
    CodeFamily,
    acceptability_witness,
    inv_code,
    lehmer_code,
    lehmer_decode,
    maj_code,
    s_code,
    s_decode,
    sorted_code,
    tau_i,
    tau_s,
)
from permcodes.permutations import (
    compositions_of,
    descent_class,
    inverse,
    parse_permutation,
)
from permcodes.polynomials import IndexPolynomial
from permcodes.ribbons import alphabet_flag, ribbon_flagged
from permcodes.verify import (
    CHECK_NAMES,
    VerificationReport,
    class_distribution,
    run_checks,
)

from oracles import (
    coarser_class,
    composition_descent_set,
    descent_set,
    direct_report,
    identity_block_shuffle,
    q_factorial,
    q_statistic,
)

# The 19 permutations of descent composition (2,1,1,2), with the invcode,
# saillance code and majcode of their inverses, row-aligned, and the common
# sorted multiset.
PERMS_2112 = """
154326 164325 165324 165423 254316 264315 265314 265413 354216 364215
365214 365412 453216 463215 465213 465312 563214 564213 564312
""".split()

INVCODES_2112 = """
032100 042100 043100 043200 132100 142100 143100 143200 232100 242100
243100 243200 332100 342100 343100 343200 442100 443100 443200
""".split()

SCODES_2112 = """
043200 013200 041200 043100 243200 213200 241200 243100 343200 313200
341200 143100 443200 413200 141200 343100 113200 441200 443100
""".split()

MAJCODES_2112 = """
332100 342100 343100 343200 232100 242100 243100 443200 132100 142100
443100 243200 032100 442100 143100 143200 042100 043100 043200
""".split()

SORTED_2112 = """
000123 000124 001123 000134 001124 001223 000234 001134 001224 001233
001234 001234 001234 001244 001334 002234 001344 002334 002344
""".split()


def to_tuple(text):
    return tuple(int(ch) for ch in text)


def test_2112_permutations_and_row_aligned_codes():
    perms = [parse_permutation(t) for t in PERMS_2112]
    assert descent_class((2, 1, 1, 2)) == perms
    for p, ic, sc, mc in zip(perms, INVCODES_2112, SCODES_2112, MAJCODES_2112):
        q = inverse(p)
        assert inv_code(q) == to_tuple(ic)
        assert s_code(q) == to_tuple(sc)
        assert maj_code(q) == to_tuple(mc)


def test_2112_sorted_codes_share_one_multiset():
    expected = Counter(tuple(sorted(to_tuple(t))) for t in SORTED_2112)
    for code_list in (INVCODES_2112, SCODES_2112, MAJCODES_2112):
        got = Counter(tuple(sorted(to_tuple(t))) for t in code_list)
        assert got == expected
    # and that multiset is exactly the flagged ribbon of (2,1,1,2)
    assert ribbon_flagged((2, 1, 1, 2)).terms == dict(expected)


@pytest.mark.parametrize('name', ('invcode', 'scode', 'majcode'))
def test_class_distribution_matches_2112(name):
    dist = class_distribution((2, 1, 1, 2), FAMILIES[name])
    assert dist.total_mass() == 19
    assert dist == ribbon_flagged((2, 1, 1, 2))


@pytest.mark.parametrize('check', [
    pytest.param('theorem', id='check_theorem_equidistribution'),
    pytest.param('coarse', id='check_coarse_class_product'),
    pytest.param('ncinv', id='check_noncommutative_invcode'),
    pytest.param('scstep', id='check_scode_step_alphabet'),
    pytest.param('fs', id='check_fs_refinement'),
])
def test_individual_checks_pass_small_sizes(check):
    report = run_checks(5, checks=(check,))
    assert report.passed
    assert {item.check for item in report.items} == {check}
    assert {item.n for item in report.items} == {1, 2, 3, 4, 5}


def test_euler_mahonian_all_families():
    for name in ('invcode', 'scode', 'majcode'):
        report = run_checks(5, checks=('em',), family_names=(name,))
        assert report.passed
        assert [item.subject for item in report.items] == [f'family={name}'] * 5


def test_reversed_tau_is_not_acceptable():
    reversed_tau = CodeFamily(
        name='reversed',
        encode=s_code,
        tau=lambda beta: tuple(range(len(beta), -1, -1)),
        decode=s_decode,
    )
    # inserting 1 into the empty β: τ(()) = (0,) but τ((1,)) begins with 1
    assert acceptability_witness(reversed_tau, 3) == ((), 0)


def near_miss(encode):
    """``encode`` with a positive first entry lowered by one: still
    sub-diagonal, but its entry sum changes."""
    def broken(p):
        c = encode(p)
        return (c[0] - 1,) + c[1:] if c and c[0] > 0 else c
    return broken


def swap01(encode):
    """``encode`` with its first two entries swapped."""
    def broken(p):
        c = encode(p)
        return (c[1], c[0]) + c[2:] if len(c) > 1 else c
    return broken


def reverse(encode):
    """``encode`` with its entries in reverse order."""
    def broken(p):
        return encode(p)[::-1]
    return broken


def drop_last(encode):
    """``encode`` with its last entry dropped when it is longer than 3."""
    def broken(p):
        c = encode(p)
        return c[:-1] if len(c) > 3 else c
    return broken


def test_euler_mahonian_fails_a_near_miss_encoder_of_a_registered_name(monkeypatch):
    monkeypatch.setitem(FAMILIES, 'scode',
                        dataclasses.replace(SCODE, encode=near_miss(s_code)))
    report = run_checks(4, checks=('em',), family_names=('scode',))
    assert not report.passed
    assert report.failures[0].subject == 'family=scode'
    assert report.failures[0].witness.startswith('pair (stat, des)=')


def test_theorem_witness_names_monomial_and_least_permutation(monkeypatch):
    # the Lehmer code is *not* equidistributed over inverse descent classes;
    # wiring it in as "invcode" must produce a failing item with a witness
    broken = CodeFamily('invcode', lehmer_code, tau_i, lehmer_decode)
    monkeypatch.setitem(FAMILIES, 'invcode', broken)
    report = run_checks(3, checks=('theorem',), family_names=('invcode',))
    assert not report.passed
    assert {item.subject for item in report.failures} == {'I=(2,1)', 'I=(1,2)'}
    failure = next(f for f in report.failures if f.subject == 'I=(2,1)')
    assert 'monomial [002]' in failure.witness
    assert 'least contributing sigma: 231' in failure.witness
    assert report.render_text().endswith('FAIL (2 of 7 checks)')


def _digest(report):
    return hashlib.sha256(report.render_text().encode()).hexdigest()


# Failing reports of broken encoders, pinned byte for byte: a change to how
# the checks enumerate, count or find witnesses must not change what they say.

def test_near_miss_scode_fails_theorem_coarse_and_em_with_pinned_report(monkeypatch):
    monkeypatch.setitem(FAMILIES, 'scode',
                        dataclasses.replace(SCODE, encode=near_miss(s_code)))
    report = run_checks(4, checks=('theorem', 'coarse', 'em'))
    assert len(report.items) == 42
    assert report.render_text().endswith('FAIL (25 of 42 checks)')
    assert _digest(report) == (
        'ead6906ef748dc0b0dc5f339715664e1a5df68390c59340802fda6473d52ba8a')


def test_swapped_invcode_fails_ncinv_with_pinned_report(monkeypatch):
    monkeypatch.setitem(FAMILIES, 'invcode',
                        dataclasses.replace(INVCODE, encode=swap01(inv_code)))
    report = run_checks(4, checks=('ncinv',))
    assert (len(report.items), len(report.failures)) == (15, 11)
    assert _digest(report) == (
        '258b2e8d8d24ecfb8f351ef1a374d3d2a9cb0b22df61db08f7b8533259806b7b')


def test_swapped_scode_fails_scstep_with_pinned_report(monkeypatch):
    monkeypatch.setitem(FAMILIES, 'scode',
                        dataclasses.replace(SCODE, encode=swap01(s_code)))
    report = run_checks(4, checks=('scstep',))
    assert (len(report.items), len(report.failures)) == (20, 10)
    assert _digest(report) == (
        '5e8583ae2dad23408f334fac440738699e743f824c16bed521ab8153335fbf84')


def repeat_first(function):
    """``function`` with the last letter of its result replaced by its first."""
    def broken(arg):
        t = function(arg)
        return t[:-1] + t[:1]
    return broken


@pytest.mark.parametrize('field, mutate, failures, digest', [
    ('tau', lambda: swap_first_two(tau_s), 10,
     'a16f0a3e7d099e8e9cd44a890636211988be1e2b97b661325b0753bca483a0dc'),
    ('encode', lambda: drop_last(s_code), 3,
     '0b7f446af9f6c1759c28484ac1c5a23bda10ce322f68727376989fc93e8a09ff'),
    ('encode', lambda: near_miss(s_code), 20,
     'fb7d12c143365cfd7af23701611d909a9a9c81a63eb156a05cfc2f53502e270e'),
    # a τ that repeats a letter: each word counts as often as it is drawn
    ('tau', lambda: repeat_first(tau_s), 20,
     '83756ef5034e2483495be0ab8f41dd3ae8071542cdb76bc88a817ad0e3e87840'),
], ids=['swap_first_two-tau_s', 'drop_last-scode', 'near_miss-scode',
        'repeat_first-tau_s'])
def test_broken_scode_fails_scstep_with_pinned_report(
        monkeypatch, field, mutate, failures, digest):
    monkeypatch.setitem(FAMILIES, 'scode', dataclasses.replace(SCODE, **{field: mutate()}))
    report = run_checks(5, checks=('scstep',))
    assert (len(report.items), len(report.failures)) == (35, failures)
    assert _digest(report) == digest


def test_scstep_names_the_least_failing_beta(monkeypatch):
    # τ_S broken at two β of S_3 that the insertion walk meets as 213 before
    # 132: the witness names the lexicographically least
    def tau(beta):
        return (swap_first_two(tau_s) if beta in ((2, 1, 3), (1, 3, 2)) else tau_s)(beta)

    monkeypatch.setitem(FAMILIES, 'scode', dataclasses.replace(SCODE, tau=tau))
    assert [item.render() for item in run_checks(5, checks=('scstep',)).failures] == [
        'scstep n=5 m=3 k=2: FAIL '
        '[beta=132: word 03: prefixes has 1, tau_S-nondecreasing words has 0]']


def test_fs_witness_renders_q_polynomials_in_degree_order(monkeypatch):
    monkeypatch.setitem(FAMILIES, 'scode',
                        dataclasses.replace(SCODE, encode=near_miss(s_code)))
    lines = run_checks(4, checks=('fs',)).render_text().splitlines()
    assert ('fs n=4 I=(3,1): FAIL '
            '[scode q-specialization q + 2*q^2 != q + q^2 + q^3]') in lines


def test_report_rendering_and_json():
    report = run_checks(3)
    text = report.render_text()
    lines = text.splitlines()
    assert lines[-1] == f'PASS ({len(report.items)} checks)'
    assert any(line.startswith('theorem n=3 I=(2,1): ok') for line in lines)
    payload = report.to_json()
    assert payload['passed'] is True
    assert len(payload['items']) == len(report.items)


def test_reports_identical_across_worker_counts():
    serial = run_checks(4, workers=1)
    parallel = run_checks(4, workers=3)
    assert serial.render_text() == parallel.render_text()
    assert serial == parallel


@pytest.mark.parametrize('requested, cpus, pool_size', [
    (5000, 2, 2),        # clamped to the CPU count
    (5000, 64, 3),       # clamped to the 3 theorem tasks, one per n <= 3
    (3, 64, 3),          # left as requested
    (5000, None, None),  # unknown CPU count: serial, no pool
    (1, 64, None),       # one worker: serial, no pool
])
def test_workers_are_clamped_to_cpus_and_tasks(monkeypatch, requested, cpus, pool_size):
    sizes = []

    class RecordingPool:
        """Records ``max_workers`` and runs the tasks in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr('concurrent.futures.ProcessPoolExecutor', RecordingPool)
    monkeypatch.setattr(verify.os, 'cpu_count', lambda: cpus)
    report = run_checks(3, checks=('theorem',), workers=requested)
    assert report == run_checks(3, checks=('theorem',))
    assert sizes == ([] if pool_size is None else [pool_size])


@pytest.mark.parametrize('workers', (0, -1))
def test_run_checks_refuses_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match='^workers must be at least 1$'):
        run_checks(3, workers=workers)


def test_run_checks_subset_selection():
    report = run_checks(4, checks=('theorem',), family_names=('scode',))
    assert report.passed
    assert {item.check for item in report.items} == {'theorem'}
    assert {item.n for item in report.items} == {1, 2, 3, 4}
    with pytest.raises(ValueError, match=r"unknown checks \['nope'\]; choose from "
                                         r"theorem,coarse,ncinv,scstep,em,fs$"):
        run_checks(2, checks=('theorem', 'nope'))
    with pytest.raises(ValueError, match=r"unknown checks \['nope', 'bad'\];"):
        run_checks(3, checks=('nope', 'bad'))


@pytest.mark.parametrize('n_max, checks, family_names', [
    (3, (), tuple(FAMILIES)),
    (0, CHECK_NAMES, tuple(FAMILIES)),
])
def test_run_checks_refuses_a_selection_without_checks(n_max, checks, family_names):
    with pytest.raises(ValueError, match='the selection runs no checks'):
        run_checks(n_max, checks=checks, family_names=family_names)


@pytest.mark.parametrize('checks, family_names, message', [
    (('ncinv',), ('majcode',), "check ncinv needs code family 'invcode'"),
    (('scstep',), ('invcode',), "check scstep needs code family 'scode'"),
    (('theorem', 'ncinv'), ('majcode',), "check ncinv needs code family 'invcode'"),
    (CHECK_NAMES, ('scode',), "check ncinv needs code family 'invcode'"),
], ids=['ncinv-majcode', 'scstep-invcode', 'theorem,ncinv-majcode', 'all-scode'])
def test_run_checks_refuses_a_check_without_its_family(checks, family_names, message):
    with pytest.raises(ValueError, match=f'^{message}$'):
        run_checks(3, checks=checks, family_names=family_names)


def test_run_checks_runs_by_default_every_check_whose_family_is_selected():
    report = run_checks(3, family_names=('scode',))
    assert report.passed
    assert {item.check for item in report.items} == {
        'theorem', 'coarse', 'scstep', 'em', 'fs'}
    assert report.render_text() == run_checks(
        3, checks=('theorem', 'coarse', 'scstep', 'em', 'fs'),
        family_names=('scode',)).render_text()


def test_run_checks_drops_repeated_families(monkeypatch):
    calls = Counter()

    def counted(p):
        calls['invcode'] += 1
        return inv_code(p)

    monkeypatch.setitem(FAMILIES, 'invcode', dataclasses.replace(INVCODE, encode=counted))
    report = run_checks(3, checks=('em',), family_names=('invcode', 'invcode'))
    assert [item.render() for item in report.items] == [
        f'em n={n} family=invcode: ok' for n in (1, 2, 3)]
    # each inverse encoded once: 1! + 2! + 3!
    assert calls == Counter(invcode=9)
    # the first-seen order is kept: coarse sums the first family in full
    tasks = verify._build_tasks(1, ('coarse',), ('scode', 'invcode', 'scode'))
    assert tasks == [(verify._class_items, 1, ('coarse',), ('scode', 'invcode'))]


def test_pool_tasks_run_two_per_size_largest_first():
    # the n = 9 class pass, the longest task, starts first and no worker
    # queues a second task behind it while another is idle
    tasks = verify._build_tasks(9, CHECK_NAMES, tuple(FAMILIES))
    assert [n for _, n, *_ in tasks] == [n for n in range(9, 0, -1) for _ in range(2)]
    assert tasks[0] == (verify._class_items, 9, ('theorem', 'coarse', 'ncinv', 'em', 'fs'),
                        tuple(FAMILIES))


@pytest.mark.parametrize('family_names, message', [
    (('lehmer',), "unknown family 'lehmer'"),
    (('invcode', 'bogus'), "unknown family 'bogus'"),
    ((), 'no code families selected'),
], ids=['lehmer', 'bogus', 'none'])
def test_run_checks_refuses_unknown_or_no_families(family_names, message):
    with pytest.raises(ValueError, match=message):
        run_checks(3, family_names=family_names)


def test_witness_words_past_letter_nine_are_comma_separated():
    # digits while every letter is at most 9, as monomials are written
    assert verify._word((1, 0, 9)) == 'word 109'
    assert verify._word((1, 0, 10)) == 'word 1,0,10'
    assert verify._word((10, 1, 0)) == 'word 10,1,0'


def test_failure_line_rendering():
    report = run_checks(3)
    item = report.items[0]
    assert item.render().endswith(': ok')
    assert VerificationReport.from_items([item]).render_text().endswith(
        'PASS (1 checks)')


def test_q_factorial_and_macmahon():
    assert q_factorial(3) == {0: 1, 1: 2, 2: 2, 3: 1}
    for n in range(7):
        assert q_statistic(n, 'maj') == q_factorial(n)
        assert q_statistic(n, 'inv') == q_factorial(n)


def test_sorted_code_multiset_is_what_class_distribution_counts():
    comp = (2, 2)
    dist = class_distribution(comp, FAMILIES['majcode'])
    expected = IndexPolynomial.zero()
    for p in descent_class(comp):
        expected = expected + IndexPolynomial.monomial(
            sorted_code(maj_code(inverse(p))))
    assert dist == expected


# The class pass against the direct routes.

def concatenation_product(comp):
    """The words of E(I), one nondecreasing block per part of I over its
    alphabet from ``alphabet_flag``."""
    blocks = [
        itertools.combinations_with_replacement(range(size + 1), part)
        for part, size in zip(comp, alphabet_flag(comp))
    ]
    return [sum(pieces, ()) for pieces in itertools.product(*blocks)]


def test_exact_descent_words_are_e_filtered_by_descent_set():
    for n in range(1, 8):
        for comp in compositions_of(n):
            cuts = composition_descent_set(comp)
            expected = sorted(w for w in concatenation_product(comp)
                              if descent_set(w) == cuts)
            assert verify._exact_descent_words(comp) == expected, comp


@pytest.mark.parametrize('name', ('invcode', 'scode', 'majcode'))
def test_subset_sums_of_class_counts_are_the_shuffle_set_counts(name):
    family = FAMILIES[name]
    for n in range(1, 8):
        by_class = {comp: class_distribution(comp, family)
                    for comp in compositions_of(n)}
        sums = verify._subset_sums(by_class, operator.add)
        assert list(sums) == compositions_of(n)
        for comp, got in sums.items():
            shuffle_set = identity_block_shuffle(comp)
            if n <= 6:
                assert shuffle_set == sorted(map(inverse, coarser_class(comp)))
            direct = Counter(sorted_code(family.encode(p)) for p in shuffle_set)
            assert got.terms == direct, (n, comp)


def test_add_into_drops_cancelled_keys_and_keeps_negative_counts():
    counts = Counter({(0,): 2, (1,): 1})
    assert verify._add_into(counts, {(1,): -1, (2,): -3, (3,): 0}) is counts
    assert dict(counts) == {(0,): 2, (2,): -3}


MUTATIONS = [('none', (), None)] + [
    (f'{mutate.__name__}-{name}', (name,), mutate)
    for name in ('invcode', 'scode', 'majcode')
    for mutate in (near_miss, swap01)
] + [(f'drop_last-{name}', (name,), drop_last) for name in ('invcode', 'scode')] + [
    # ncinv selected alone, where the class pass encodes only the invcode
    # words; the ids name the invcode encoder that ncinv reads
    (f'{mutate.__name__}-verify.inv_code', ('verify.inv_code',), mutate)
    for mutate in (near_miss, swap01)
] + [
    # two later families broken at once: where both differ from the first
    # family, the coarse witness comes from the earlier difference sum
    ('near_miss-scode-majcode', ('scode', 'majcode'), near_miss),
]


@pytest.mark.parametrize('label, targets, mutate', MUTATIONS,
                         ids=[label for label, _, _ in MUTATIONS])
def test_reports_equal_the_direct_routes(monkeypatch, label, targets, mutate):
    checks = verify.CHECK_NAMES
    if targets == ('verify.inv_code',):
        targets, checks = ('invcode',), ('ncinv',)
    for target in targets:
        family = FAMILIES[target]
        monkeypatch.setitem(FAMILIES, target,
                            dataclasses.replace(family, encode=mutate(family.encode)))
    fast = run_checks(5, checks=checks)
    assert fast.render_text() == direct_report(5, checks=checks).render_text()
    # swapping two majcode entries keeps every sorted code and entry sum, and
    # no check reads majcode words unsorted; every other mutation is caught
    assert fast.passed == (label in ('none', 'swap01-majcode'))


# strict, so the code row of ROADMAP item 2 has to remove these marks
_MAJCODE_ORDER_GAP = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 2: no check reads majcode's order")


@pytest.mark.parametrize('name, mutate', [
    pytest.param(name, mutate, id=f'{mutate.__name__}-{name}',
                 marks=_MAJCODE_ORDER_GAP if name == 'majcode' and mutate is not near_miss else ())
    for name in ('invcode', 'scode', 'majcode')
    for mutate in (swap01, reverse, near_miss)
])
def test_every_broken_family_fails_with_witnesses(monkeypatch, name, mutate):
    family = FAMILIES[name]
    monkeypatch.setitem(FAMILIES, name,
                        dataclasses.replace(family, encode=mutate(family.encode)))
    report = run_checks(5)
    assert not report.passed
    assert all(item.witness for item in report.failures)


def test_coarse_transforms_later_families_as_empty_differences(monkeypatch):
    held = []
    original = verify._subset_sums

    def recording(by_comp, add):
        held.append([any(column) for column in zip(*by_comp.values())])
        return original(by_comp, add)

    monkeypatch.setattr(verify, '_subset_sums', recording)
    assert run_checks(6, checks=('coarse',)).passed
    # one transform per size over the per-class lists: the first family's
    # polynomials, then the other two families' differences from them,
    # which hold no monomial on a passing sweep
    assert held == [[True, False, False]] * 6


def _spy(monkeypatch, calls, module, name):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_a_theorem_sweep_takes_no_inv_or_maj(monkeypatch):
    calls = Counter()
    # verify binds no inv: the class walk carries it
    _spy(monkeypatch, calls, permutations, 'inv')
    _spy(monkeypatch, calls, verify, 'maj')
    from_words = IndexPolynomial.from_words

    def counted(words):
        calls['from_words'] += 1
        return from_words(words)

    monkeypatch.setattr(IndexPolynomial, 'from_words', staticmethod(counted))
    # theorem and coarse build sorted-code polynomials (so do the cached h
    # slices of the ribbons, hence no exact count), and em and fs take
    # maj σ^{-1} once per σ, Σ_{k ≤ 5} k! = 153, and read inv σ off the walk
    for checks in [('theorem',), ('coarse',), ('em', 'fs'), ('fs',)]:
        calls.clear()
        assert run_checks(5, checks=checks).passed
        if 'theorem' in checks or 'coarse' in checks:
            assert set(calls) == {'from_words'}, checks
        else:
            assert calls == Counter(maj=153), checks


def test_a_class_pass_builds_each_inner_merge_table_once():
    merge_getters = permutations._merge_getters
    merge_getters.cache_clear()
    # one table per (k, m) with k, m ≥ 1 and k + m ≤ 6, each final merge,
    # k + m = n, included: no table is built twice
    assert run_checks(6, checks=('theorem',)).passed
    assert merge_getters.cache_info().misses == 15
    assert run_checks(6, checks=('theorem',)).passed
    assert merge_getters.cache_info().misses == 15
    # scstep adds its (0, 1) table; the memo holds no more than these
    merge_getters.cache_clear()
    assert run_checks(6).passed
    assert merge_getters.cache_info().currsize == 16
    keys = [(0, 1)] + [(k, m) for k in range(1, 6) for m in range(1, 7 - k)]
    for key in keys:
        assert all(type(part) is tuple for part in merge_getters(*key)), key
    assert merge_getters.cache_info().misses == 16


def test_each_family_encodes_each_inverse_once(monkeypatch):
    calls = Counter()
    for name in tuple(FAMILIES):
        family = FAMILIES[name]

        def counted(p, encode=family.encode, name=name):
            calls[name] += 1
            return encode(p)

        monkeypatch.setitem(FAMILIES, name, dataclasses.replace(family, encode=counted))
    # ncinv sorts the invcode words of the class pass: Σ_{k ≤ 5} k! = 153
    assert run_checks(5, checks=('ncinv',)).passed
    assert calls == Counter(invcode=153)
    calls.clear()
    assert run_checks(5, checks=('theorem', 'coarse', 'ncinv', 'em', 'fs')).passed
    assert calls == Counter(invcode=153, scode=153, majcode=153)
    calls.clear()
    # scstep's walk encodes each σ with scode once more, apart from the pass
    assert run_checks(5).passed
    assert calls == Counter(invcode=153, scode=2 * 153, majcode=153)


def test_a_failing_class_encodes_each_inverse_once_per_family(monkeypatch):
    calls = Counter()

    def counted(p):
        calls['invcode'] += 1
        return lehmer_code(p)

    # the Lehmer code fails theorem at (2,1) and (1,2); the least σ is named
    # from the codes the class pass already holds: 1! + 2! + 3!
    monkeypatch.setitem(FAMILIES, 'invcode', CodeFamily('invcode', counted, tau_i,
                                                        lehmer_decode))
    report = run_checks(3, checks=('theorem',), family_names=('invcode',))
    assert len(report.failures) == 2
    assert calls == Counter(invcode=9)


def test_a_sweep_leaves_no_reference_cycles():
    # the class records, the descent-class walk and the ribbon walk are
    # freed by reference counting alone, so a sweep leaves nothing for the
    # cyclic collector
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert run_checks(6).passed
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_scstep_encodes_each_permutation_once_per_size(monkeypatch):
    encoded = Counter()

    def counted(p):
        encoded[p] += 1
        return s_code(p)

    monkeypatch.setitem(FAMILIES, 'scode', dataclasses.replace(SCODE, encode=counted))
    report = run_checks(7, checks=('scstep',))
    # one walk per size n encodes S_n, Σ_{n ≤ 7} n! = 5913; one item per
    # (n, m, k) with m + k <= n
    assert sum(encoded.values()) == 5913
    assert len(report.items) == sum(n * (n + 1) // 2 for n in range(1, 8)) == 84
    assert report.passed
    for n in range(1, 7):
        encoded.clear()
        assert all(item.passed for item in verify._scstep_items(n, n))
        assert encoded == Counter(itertools.permutations(range(1, n + 1))), n


def test_ncinv_never_builds_a_shuffle_set(monkeypatch):
    calls = Counter()
    original = permutations.identity_block_shuffle

    def counted(*args, **kwargs):
        calls['identity_block_shuffle'] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(permutations, 'identity_block_shuffle', counted)
    assert run_checks(5, checks=('ncinv',)).passed
    monkeypatch.setitem(FAMILIES, 'invcode',
                        dataclasses.replace(INVCODE, encode=swap01(inv_code)))
    report = run_checks(4, checks=('ncinv',))
    # failing units word their witnesses from the subset sums
    assert len(report.failures) == 11
    assert calls == Counter()


@pytest.mark.parametrize('workers', (1, 2))
def test_verify_n7_report_is_pinned(workers):
    report = run_checks(7, workers=workers)
    assert len(report.items) == 613
    assert hashlib.sha256((report.render_text() + '\n').encode()).hexdigest() == (
        '535cf0cbc4277813011b71754f4b4e466dea2ee3f954904a91e7b19ead475f98')


def test_verify_n8_report_is_pinned():
    report = run_checks(8)
    assert len(report.items) == 1164
    assert hashlib.sha256((report.render_text() + '\n').encode()).hexdigest() == (
        '21d972ce5aa1fd15052bdcb64c239dd9d437d24123b19e05fd74094f24adaefc')


def test_verify_n8_theorem_report_is_pinned():
    report = run_checks(8, checks=('theorem',))
    assert len(report.items) == 255
    assert hashlib.sha256((report.render_text() + '\n').encode()).hexdigest() == (
        '4135f0b74e2351c44682ae3b6ea06dc332f07c2c033126977e1faec263ccde64')


def test_only_theorem_advances_the_ribbon_walk_once_per_size(monkeypatch):
    walk = verify.ribbon_walk
    started, read = Counter(), Counter()

    def counted(n):
        started[n] += 1
        for values in walk(n):
            read[n] += 1
            yield values

    monkeypatch.setattr(verify, 'ribbon_walk', counted)
    assert run_checks(6, checks=('coarse', 'ncinv', 'em', 'fs')).passed
    assert started == read == Counter()
    assert run_checks(6, checks=('theorem',)).passed
    assert started == {n: 1 for n in range(1, 7)}
    assert read == {n: 2 ** (n - 1) for n in range(1, 7)}


# The inputs a verdict reads besides the code families' encoders, each
# broken at verify's binding; each ribbon route in the value the ribbon
# walk yields for it, inv σ in one constant of the merge tables the class
# walk builds, and τ_S in the registry entry that scstep reads it from.  The
# direct routes import the same functions from their own modules, so they
# stay unbroken here and are not compared: each case pins which checks the
# broken input changes, all to FAIL, and the first changed line.  On a
# passing sweep those are the failing checks and the first failing line.

def in_verify(name, mutate):
    """The case name and the patch that breaks verify's binding of ``name``
    with ``mutate``."""
    return name, lambda monkeypatch: monkeypatch.setattr(
        verify, name, mutate(getattr(verify, name)))

def raise_001_at_21(route):
    """``route`` with the coefficient of x_0 x_0 x_1 raised by one at (2,1)."""
    return lambda comp: (route(comp) + IndexPolynomial.monomial((0, 0, 1))
                         if comp == (2, 1) else route(comp))


def in_ribbon_walk(route, index):
    """The case of ``route`` and the patch that raises by one the coefficient
    of x_0 x_0 x_1 in the value at ``index`` of the triple that verify's
    binding of the ribbon walk yields at (2,1)."""
    def patch(monkeypatch):
        walk = verify.ribbon_walk

        def broken(n):
            for values in walk(n):
                if values[0] == (2, 1):
                    values = list(values)
                    values[index] += IndexPolynomial.monomial((0, 0, 1))
                yield tuple(values)

        monkeypatch.setattr(verify, 'ribbon_walk', broken)
    return route, patch


def without(entry):
    """A function of compositions whose lists lose ``entry``."""
    return lambda listing: lambda comp: [w for w in listing(comp) if w != entry]


def one_more_on_2143(stat):
    """``stat`` off by one on σ = 2143, which is its own inverse."""
    return lambda p: stat(p) + (p == (2, 1, 4, 3))


def in_walk(entry, as_):
    """The case of the inverse descent classes and the patch that breaks
    verify's binding of the walk that builds them: ``entry`` reads ``as_``,
    or is dropped where ``as_`` is None, and the inv carried for it stays."""
    def patch(monkeypatch):
        walk = verify._inverse_descent_walk

        def broken(comp):
            words, counts = walk(comp)
            pairs = [(as_ if w == entry else w, count)
                     for w, count in zip(words, counts) if w != entry or as_]
            return [w for w, _ in pairs], [count for _, count in pairs]

        monkeypatch.setattr(verify, '_inverse_descent_walk', broken)
    return 'inverse_descent_class', patch


def one_more_at_first_merge(k, m):
    """The case of inv σ and the patch that raises by one the constant of
    the first (k, m) merge getter, which puts the run before w, in the
    tables that verify's class walk builds.  The memoized table is left as
    it is: the broken one is a copy."""
    merge_getters = permutations._merge_getters

    def broken(k_, m_):
        getters, constants, ends = merge_getters(k_, m_)
        if (k_, m_) == (k, m):
            constants = (constants[0] + 1, *constants[1:])
        return getters, constants, ends

    return 'inv', lambda monkeypatch: monkeypatch.setattr(
        permutations, '_merge_getters', broken)


def swap_first_two(function):
    """``function`` with the first two letters of its result swapped."""
    def broken(arg):
        t = function(arg)
        return t[1::-1] + t[2:]
    return broken


VERDICT_INPUTS = [
    (*in_ribbon_walk('ribbon_determinant', 2), {'theorem'},
     'theorem n=3 I=(2,1): FAIL '
     '[monomial [001]: inclusion-exclusion has 1, determinant has 2]'),
    (*in_ribbon_walk('ribbon_flagged', 1), {'theorem'},
     'theorem n=3 I=(2,1): FAIL '
     '[monomial [001]: inclusion-exclusion has 2, determinant has 1]'),
    (*in_verify('h_product', raise_001_at_21), {'coarse'},
     'coarse n=3 I=(2,1): FAIL [monomial [001]: invcode has 1, h_product has 2]'),
    # 3412, its own inverse, is missing from D_(2,2)
    (*in_walk((3, 4, 1, 2), None),
     {'theorem', 'coarse', 'ncinv', 'em', 'fs'},
     'coarse n=4 I=(1,1,1,1): FAIL [monomial [0022]: invcode has 0, h_product has 1]'),
    # the carried inv of 3412 in D_(2,2), its own inverse, is one too many
    (*one_more_at_first_merge(2, 2), {'em', 'fs'},
     'em n=4 family=invcode: FAIL [pair (stat, des)=(4, 1): code sum has 1, inv has 0]'),
    (*in_verify('maj', one_more_on_2143), {'em', 'fs'},
     'em n=4 family=invcode: FAIL '
     '[pair (stat, des)=(4, 2): code sum has 4, maj of inverse has 3]'),
    (*in_verify('_exact_descent_words', without((1, 1, 0))), {'ncinv'},
     'ncinv n=3 I=(1,1,1): FAIL '
     '[word 110: invcode words has 1, concatenation product has 0]'),
    ('tau_s', lambda monkeypatch: monkeypatch.setitem(
        FAMILIES, 'scode', dataclasses.replace(SCODE, tau=swap_first_two(tau_s))),
     {'scstep'},
     'scstep n=3 m=1 k=2: FAIL '
     '[beta=1: word 01: prefixes has 1, tau_S-nondecreasing words has 0]'),
    # 2143 is its own inverse; here its inverse reads 1243 in D_(1,2,1),
    # and keeps the inv of 2143
    (*in_walk((2, 1, 4, 3), (1, 2, 4, 3)),
     {'theorem', 'coarse', 'ncinv', 'em', 'fs'},
     'coarse n=4 I=(1,1,1,1): FAIL [monomial [0001]: invcode has 4, h_product has 3]'),
]


@pytest.mark.parametrize('name, patch, failing, first', VERDICT_INPUTS,
                         ids=[name for name, *_ in VERDICT_INPUTS])
def test_each_verdict_input_can_fail_the_checks_that_read_it(
        monkeypatch, name, patch, failing, first):
    before = set(run_checks(4).items)
    patch(monkeypatch)
    report = run_checks(4)
    changed = [item for item in report.items if item not in before]
    assert changed == list(report.failures)
    assert {item.check for item in changed} == failing
    assert not any(item.passed for item in changed)
    assert changed[0].render() == first
