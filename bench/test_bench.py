"""Tests of the benchmark itself, at sizes small enough to run in seconds.

    python3 -m pytest bench
"""

import dataclasses
import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / 'src')]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from permcodes import codes, verify  # noqa: E402


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.restore()


def sum_factorials(n):
    return sum(math.factorial(k) for k in range(1, n + 1))


@pytest.mark.parametrize('n, checks', [(4, verify.CHECK_NAMES), (5, ('theorem',))])
def test_traced_and_untraced_reports_are_identical(n, checks):
    plain = workloads.verify_pass(n, checks)
    t = tracing.Tracer()
    t.install()
    try:
        traced = workloads.verify_pass(n, checks, t)
    finally:
        t.restore()
    assert plain.failed == traced.failed == 0
    assert plain.digest == traced.digest
    assert {span[2] for span in t.spans} >= {
        f'verify.check.{c}' for c in checks}


def test_tracer_restores_every_original():
    from permcodes import permutations, polynomials
    before = (verify.descent_composition, codes.FAMILIES['majcode'].encode,
              polynomials.IndexPolynomial.__add__)
    t = tracing.Tracer()
    t.install()
    assert verify.descent_composition is not before[0]
    t.restore()
    assert (verify.descent_composition, codes.FAMILIES['majcode'].encode,
            polynomials.IndexPolynomial.__add__) == before
    assert permutations.descent_composition is before[0]


def test_theorem_sweep_counts_equal_known_values(tracer, capsys):
    n = 5
    outcome = workloads.verify_pass(n, ('theorem',), tracer)
    m = tracer.metrics()
    # Each family encodes every σ of S_k once, for k = 1..n.
    for family in ('invcode', 'scode', 'majcode'):
        assert m[f'codes.encode.{family}.calls'] == sum_factorials(n)
    # Each composition of k rescans S_k four times: once per family, once
    # to count |D_I|.
    scans = 4 * sum(math.factorial(k) * 2 ** (k - 1) for k in range(1, n + 1))
    assert m['permutations.descent_composition.calls'] == scans
    assert m['permutations.iter_permutations.perms'] == scans
    assert m['ribbons.flagged.calls'] == m['ribbons.determinant.calls'] == 2 ** n - 1

    from permcodes import cli
    assert cli.main(workloads.verify_argv(n, ('theorem',))) == 0
    footer = capsys.readouterr().out.splitlines()[-1]
    assert footer == f'PASS ({outcome.layers["verify.items"]} checks)'


def test_ribbon_counts_equal_known_values(tracer):
    outcome = workloads.ribbon_pass(4, seed=7, tracer=tracer)
    m = tracer.metrics()
    assert outcome.failed == 0
    assert m['ribbons.flagged.calls'] == m['ribbons.determinant.calls'] == 8
    # Σ over compositions of 4 of r! and of 2^(r-1), r the number of parts.
    assert m['ribbons.determinant.leibniz_walked'] == 1 + 3 * 2 + 3 * 6 + 24
    assert m['ribbons.determinant.leibniz_nonzero'] == 3 ** 3


def test_descent_class_sizes_sum_to_n_factorial():
    for n in range(1, 8):
        comps = workloads.compositions(n)
        assert len(set(comps)) == 2 ** (n - 1)
        assert sum(map(workloads.descent_class_size, comps)) == math.factorial(n)
    assert workloads.descent_class_size((2, 1, 1, 2)) == 19


def _near_miss(encode):
    """``encode`` with a positive first entry lowered by one: still
    sub-diagonal, but its sorted code changes."""
    def broken(p):
        c = encode(p)
        return (c[0] - 1,) + c[1:] if c and c[0] > 0 else c
    return broken


def test_broken_encoder_fails_the_round_trip(monkeypatch):
    perms = workloads.roundtrip_inputs(seed=3, sizes=range(4, 7), per_size=20)
    assert workloads.roundtrip_pass(perms).failed == 0
    monkeypatch.setattr(codes, 's_code', _near_miss(codes.s_code))
    outcome = workloads.roundtrip_pass(perms)
    assert 0 < outcome.failed <= outcome.attempted == len(perms)


def test_broken_encoder_fails_the_verify_sweep(monkeypatch):
    broken = dataclasses.replace(codes.SCODE, encode=_near_miss(codes.s_code))
    monkeypatch.setitem(codes.FAMILIES, 'scode', broken)
    outcome = workloads.verify_pass(4, ('theorem',))
    assert 0 < outcome.failed <= outcome.attempted


def test_report_that_differs_only_in_digest_fails_every_item():
    expected = {'items': 2, 'sha256': workloads.sha256('a: ok\nb: ok\nPASS (2 checks)\n')}
    good = workloads.grade_report('a: ok\nb: ok\nPASS (2 checks)\n', 0, expected)
    assert (good.attempted, good.failed) == (2, 0)
    renamed = workloads.grade_report('a: ok\nc: ok\nPASS (2 checks)\n', 0, expected)
    assert renamed.failed == 2
    short = workloads.grade_report('a: ok\nPASS (1 checks)\n', 0, expected)
    assert short.failed == 1


def test_speed_sampler_samples_during_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.SpeedSampler()
    sampler.start()
    deadline = time.perf_counter() + 10 * speed.INTERVAL_S
    while time.perf_counter() < deadline:
        sum(range(1000))
    sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 3
    assert 0 < sampler.spent < 10 * speed.INTERVAL_S
    # The loop took the reference time exactly: corrected equals measured.
    sampler.samples = [speed.REFERENCE_S] * 4
    assert sampler.factor() == pytest.approx(1.0)
    # Twice as slow for half the time: three quarters of the reference speed.
    sampler.samples = [speed.REFERENCE_S, 2 * speed.REFERENCE_S]
    assert sampler.factor() == pytest.approx(0.75)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / 'BENCHMARK.json').read_text())
    assert spec['command'] == ['python3', 'bench/run.py']
    assert [w['name'] for w in spec['workloads']] == list(run.WORKLOAD_NAMES) \
        == list(workloads.WORKLOADS)
    assert [(m['name'], m['unit']) for m in spec['end_to_end']] == list(run.END_TO_END)
    assert [(m['name'], m['unit']) for m in spec['per_layer']] == list(run.PER_LAYER)


def test_run_reports_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, 'bench/run.py', '--workload', 'codes-roundtrip',
         '--seed', '5', '--seconds', '1', '--trace', '0'],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result['correct'] and result['failed'] == 0
    assert result['attempted'] == workloads.WORKLOADS['codes-roundtrip'].units
    assert {name for name, _ in run.END_TO_END} == set(result['metrics'])
    assert all(m['value'] > 0 for m in result['metrics'].values())


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / 'bench',
                    ignore=shutil.ignore_patterns('__pycache__'))
    shutil.copy(ROOT / 'BENCHMARK.json', tmp_path)
    out = subprocess.run(
        [sys.executable, 'bench/run.py', '--workload', 'ribbons-n8',
         '--seed', '1', '--seconds', '1', '--trace', '0'],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
