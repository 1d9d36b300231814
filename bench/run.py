"""The permcodes benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every pass of the workload runs in a
fresh single-threaded interpreter (``worker.py``), so ``functools.cache``
state starts cold as it does for every CLI user, with ``PERMCODES_WORKERS``
unset and one worker.  Passes start until ``--seconds`` have gone by (at
least one runs); each is graded, and a wrong or missing answer counts as
failed and yields no timing.

With ``--trace 0`` the run reports the end-to-end metrics, as medians over
its passes; ``setup_s`` also counts passes that only import permcodes, run
between the timed ones.  The times are given at a fixed machine speed:
``wall_s`` and ``cpu_s`` against a reference loop timed inside each pass
(``speed.py``), ``setup_s`` against a reference interpreter started just
before each worker.  The measured medians are printed as comment lines
before the result.
With ``--trace 1`` it runs pairs of one untraced and one traced pass and
reports the per-layer metrics of the traced passes, their overhead, and the
largest self times.  Every metric is printed as ``name value unit``; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A copy with the run's metadata, pass records and spans goes to
``.bench_out/``.

The workloads, the metrics and what each layer should move are in
``PREDICTIONS.md`` beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / '.bench_out'

WORKLOAD_NAMES = ('verify-n7', 'theorem-n8', 'ribbons-n8', 'codes-roundtrip')

END_TO_END = (
    ('wall_s', 's'),
    ('cpu_s', 's'),
    ('setup_s', 's'),
    ('peak_rss_mb', 'MB'),
)


def _layer_metrics() -> tuple[tuple[str, str], ...]:
    count, sec = 'count', 's'
    out = [
        ('permutations.descent_composition.calls', count),
        ('permutations.descent_composition.s', sec),
        ('permutations.iter_permutations.perms', count),
        ('permutations.identity_block_shuffle.calls', count),
        ('permutations.identity_block_shuffle.s', sec),
        ('permutations.identity_block_shuffle.perms', count),
        ('permutations.stats.calls', count),
        ('permutations.stats.s', sec),
        ('permutations.self_s', sec),
    ]
    out += [(f'codes.encode.{f}.calls', count) for f in ('invcode', 'scode', 'majcode')]
    out += [('codes.encode.s', sec), ('codes.sorted_code.calls', count)]
    for family in ('lehmer', 'invcode', 'majcode', 'scode'):
        out += [(f'codes.roundtrip.{family}.encode_us', 'us'),
                (f'codes.roundtrip.{family}.decode_us', 'us')]
    out += [
        ('codes.self_s', sec),
        ('polynomials.add.calls', count),
        ('polynomials.add.s', sec),
        ('polynomials.add.terms_in', count),
        ('polynomials.mul.calls', count),
        ('polynomials.mul.s', sec),
        ('polynomials.mul.term_pairs', count),
        ('polynomials.eq.calls', count),
        ('polynomials.eq.s', sec),
        ('polynomials.self_s', sec),
        ('ribbons.flagged.calls', count),
        ('ribbons.flagged.s', sec),
        ('ribbons.flagged.terms', count),
        ('ribbons.determinant.calls', count),
        ('ribbons.determinant.s', sec),
        ('ribbons.determinant.leibniz_walked', count),
        ('ribbons.determinant.leibniz_nonzero', count),
        ('ribbons.h_product.calls', count),
        ('ribbons.h_product.s', sec),
        ('ribbons.h_flagged.hits', count),
        ('ribbons.h_flagged.misses', count),
        ('ribbons.self_s', sec),
    ]
    out += [(f'verify.check.{c}.s', sec)
            for c in ('theorem', 'coarse', 'ncinv', 'scstep', 'em', 'fs')]
    out += [
        ('verify.class_distribution.calls', count),
        ('verify.class_distribution.s', sec),
        ('verify.items', count),
        ('verify.scan_base', count),
        ('verify.scan_ratio', 'ratio'),
        ('verify.render.s', sec),
        ('verify.self_s', sec),
        ('trace.wall_s', sec),
        ('trace.untraced_wall_s', sec),
        ('trace.overhead_s', sec),
        ('trace.untracked_s', sec),
        ('trace.spans', count),
    ]
    return tuple(out)


PER_LAYER = _layer_metrics()

#: Import-only passes before each timed pass of an untraced run and after
#: the last, on top of the import in every pass.  Slow and fast stretches of
#: the machine last seconds, so spreading them over the run steadies setup_s.
SETUP_PROBES = 3
#: The reference set-up: standard modules of about the weight permcodes
#: imports, and the line a worker prints once permcodes is imported.
REFERENCE_IMPORTS = ('import argparse, concurrent.futures.process, dataclasses, '
                     'fractions, json, time; '
                     'print(json.dumps({"ready": time.perf_counter()}))')
#: The time of the reference set-up at the speed ``setup_s`` is given in.
REFERENCE_SETUP_S = 0.1
#: Every worker is stopped by then, so a run ends within 180 s.
RUN_LIMIT_S = 170.0


class PassDied(Exception):
    """A worker exited badly, printed no outcome, or ran out of time."""


def time_to_ready(cmd: list[str], what: str, deadline: float) -> tuple[float, list[str]]:
    """Start ``cmd``, wait for it, and return the seconds from its start
    until it printed its ``ready`` line, and its stdout lines."""
    env = {k: v for k, v in os.environ.items() if k != 'PERMCODES_WORKERS'}
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassDied(f'{what} ran out of time')
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise PassDied(f'{what} exited {proc.returncode}:\n{err}')
    return json.loads(lines[0])['ready'] - started, lines


def run_pass(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Start one worker, wait for it, and return its outcome with
    ``setup_s`` (start until permcodes was imported) added.

    The worker's set-up is timed against a reference interpreter started
    just before it, which imports a fixed set of standard modules, so that
    ``setup_s`` is given at the machine speed where that takes
    ``REFERENCE_SETUP_S``."""
    what = f'{mode} pass of {workload}'
    reference, _ = time_to_ready(
        [sys.executable, '-E', '-s', '-c', REFERENCE_IMPORTS],
        f'reference set-up before the {what}', deadline)
    setup, lines = time_to_ready(
        [sys.executable, '-E', '-s', str(BENCH / 'worker.py'), workload, str(seed), mode],
        what, deadline)
    if mode != 'setup' and len(lines) < 2:
        raise PassDied(f'{what} printed no outcome')
    result = json.loads(lines[1]) if mode != 'setup' else {}
    result.update(setup_raw_s=setup, setup_reference_s=reference,
                  setup_s=setup * REFERENCE_SETUP_S / reference)
    return result


def measure(workload: str, seed: int, seconds: int, traced: bool,
            units: int) -> tuple[list[dict], float, int, int, str]:
    """Start passes until ``seconds`` have gone by; at least one runs.

    Returns the passes, the wall time the run took, the units attempted and
    failed, and why the run stopped early ('' when it did not)."""
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    modes = ('plain', 'traced') if traced else ('plain',)
    probes = 0 if traced else SETUP_PROBES
    passes: list[dict] = []
    attempted = failed = 0

    def probe() -> None:
        passes.extend(run_pass(workload, seed, 'setup', deadline)
                      for _ in range(probes))

    try:
        while not attempted or time.perf_counter() - start < seconds:
            probe()
            for mode in modes:
                result = run_pass(workload, seed, mode, deadline)
                result['mode'] = mode
                passes.append(result)
                attempted += result['attempted']
                failed += result['failed']
        probe()
    except PassDied as exc:
        return passes, time.perf_counter() - start, attempted + units, \
            failed + units, str(exc)
    return passes, time.perf_counter() - start, attempted, failed, ''


def end_to_end(passes: list[dict]) -> dict[str, float]:
    timed = [p for p in passes if p.get('mode') == 'plain']
    return {
        'wall_s': statistics.median(p['wall_s'] for p in timed),
        'cpu_s': statistics.median(p['cpu_s'] for p in timed),
        'setup_s': statistics.median(p['setup_s'] for p in passes),
        'peak_rss_mb': statistics.median(p['peak_rss_mb'] for p in timed),
    }


def measured(passes: list[dict]) -> dict[str, float]:
    """The end-to-end times as measured, and the machine's speed factor."""
    timed = [p for p in passes if p.get('mode') == 'plain']
    return {
        'wall_raw_s': statistics.median(p['wall_raw_s'] for p in timed),
        'cpu_raw_s': statistics.median(p['cpu_raw_s'] for p in timed),
        'setup_raw_s': statistics.median(p['setup_raw_s'] for p in passes),
        'speed': statistics.median(p['speed'] for p in timed),
    }


def per_layer(passes: list[dict]) -> dict[str, float]:
    plain = [p for p in passes if p['mode'] == 'plain']
    traced = [p for p in passes if p['mode'] == 'traced']
    out = {
        name: statistics.median(p['layers'].get(name, 0) for p in traced)
        for name, _ in PER_LAYER
    }
    out['trace.wall_s'] = statistics.median(p['wall_s'] for p in traced)
    out['trace.untraced_wall_s'] = statistics.median(p['wall_s'] for p in plain)
    out['trace.overhead_s'] = out['trace.wall_s'] - out['trace.untraced_wall_s']
    return out


def _cpu_model() -> str:
    try:
        with open('/proc/cpuinfo') as f:
            for line in f:
                if line.startswith('model name'):
                    return line.split(':', 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or 'unknown'


def _git_sha() -> str | None:
    """HEAD of the checkout, read from its own .git; None when the checkout
    is not a git repository."""
    git = ROOT / '.git'
    try:
        head = (git / 'HEAD').read_text().strip()
        if not head.startswith('ref: '):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / 'packed-refs').read_text().splitlines():
            if line.endswith(' ' + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    """Digest of the measured sources, which identifies the program even
    where there is no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / 'src').rglob('*.py')):
        digest.update(str(path.relative_to(ROOT)).encode() + b'\0')
        digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata(args) -> dict:
    return {
        'workload': args.workload,
        'seed': args.seed,
        'seconds': args.seconds,
        'trace': args.trace,
        'nproc': os.cpu_count(),
        'python': platform.python_version(),
        'cpu_model': _cpu_model(),
        'git_sha': _git_sha(),
        'src_sha256': _src_sha256(),
    }


def _print_self_times(passes: list[dict]) -> None:
    last = [p for p in passes if p['mode'] == 'traced'][-1]
    wall = last['wall_raw_s']
    print(f'# largest self times of the last traced pass ({wall:.3f} s measured):')
    for name, seconds in last['self_times'][:10]:
        print(f'#   {name:44s} {seconds:9.3f} s  {seconds / wall:6.1%}')


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    parser.add_argument('--workload', required=True, choices=WORKLOAD_NAMES)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=int, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / 'src' / 'permcodes' / '__init__.py').is_file():
        print(f'error: no permcodes sources under {ROOT / "src"}; run from a '
              f'source checkout', file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / 'src'))
    import workloads

    meta = metadata(args)
    print('# meta ' + json.dumps(meta))
    units = workloads.WORKLOADS[args.workload].units
    passes, run_s, attempted, failed, died = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), units)
    if died:
        print(f'# {died}')
    correct = failed == 0
    print(f'# fail_frac {failed / attempted:.6f} ({failed} of {attempted} units '
          f'failed, {len(passes)} passes in {run_s:.1f} s)')
    metrics: dict[str, dict] = {}
    if correct:
        if args.trace:
            values, units_of = per_layer(passes), dict(PER_LAYER)
            _print_self_times(passes)
        else:
            values, units_of = end_to_end(passes), dict(END_TO_END)
            for name, value in measured(passes).items():
                print(f'# {name} {value:.6g}')
        metrics = {name: {'value': value, 'unit': units_of[name]}
                   for name, value in values.items()}
        for name, m in metrics.items():
            print(f'{name} {m["value"]:.6g} {m["unit"]}')

    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f'{args.workload}-seed{args.seed}-trace{args.trace}.json'
    record.write_text(json.dumps({
        'meta': meta, 'correct': correct, 'attempted': attempted,
        'failed': failed, 'metrics': metrics, 'passes': passes,
    }))
    print(json.dumps({'correct': correct, 'attempted': attempted,
                      'failed': failed, 'metrics': metrics}))
    return 0 if correct else 1


if __name__ == '__main__':
    sys.exit(main())
