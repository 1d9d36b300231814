"""The four workloads of the permcodes benchmark and their correctness gate.

Each workload is one pass of work a user of permcodes waits for.  The
functions here run that pass in the calling process, time it and grade its
answer: ``worker.py`` calls ``WORKLOADS[name].run`` in a fresh interpreter per
pass, and the tests call the building blocks at small sizes.  The program is
reached through its CLI and through module attributes looked up at call time,
so the wrappers of ``tracing.Tracer`` see every call.

A unit is one check item, one ribbon composition or one round-tripped
permutation.  A wrong or missing answer counts its unit as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from permcodes import cli, codes, ribbons, verify

#: Digests of the answers at the commit that added the benchmark: the CLI's
#: stdout for the verify workloads, and ``poly_digest`` of r_I for each
#: composition of 8.
EXPECTED = json.loads(Path(__file__).with_name('expected.json').read_text())

ROUNDTRIP_SIZES = range(10, 17)
ROUNDTRIP_PER_SIZE = 4000
ROUNDTRIP_FAMILIES = ('lehmer', 'invcode', 'majcode', 'scode')


@dataclass
class Outcome:
    """Units attempted and failed in one pass, its wall time, and the
    per-layer figures the pass measured itself."""

    attempted: int
    failed: int
    wall_s: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)
    #: sha256 of the rendered verify report, for comparing passes.
    digest: str = ''


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _span(tracer, name: str, layer: str):
    return contextlib.nullcontext() if tracer is None else tracer.span(name, layer)


# ---------------------------------------------------------------------------
# verify: the full sweep and the theorem scaling step


def verify_argv(n: int, checks: tuple[str, ...]) -> list[str]:
    argv = ['verify', '--n', str(n), '--workers', '1']
    if checks != verify.CHECK_NAMES:
        argv += ['--checks', ','.join(checks)]
    return argv


def grade_report(text: str, exit_code: int, expected: dict | None) -> Outcome:
    """Grade rendered verify output.  Without ``expected`` only the items'
    own verdicts and the footer are checked."""
    lines = text.splitlines()
    items = lines[:-1]
    want = expected['items'] if expected else len(items)
    failed = sum(not line.endswith(': ok') for line in items)
    failed += abs(want - len(items))
    intact = (
        exit_code == 0
        and bool(lines) and lines[-1] == f'PASS ({len(items)} checks)'
        and (expected is None or sha256(text) == expected['sha256'])
    )
    if failed == 0 and not intact:
        # Wrong somewhere, but no item says where: trust none of them.
        failed = want
    return Outcome(attempted=want, failed=min(failed, want),
                   layers={'verify.items': len(items)})


def verify_pass(n: int, checks: tuple[str, ...], tracer=None,
                expected: dict | None = None) -> Outcome:
    """Untraced, the CLI sweep a user runs.  Traced, ``run_checks`` once per
    check so that each check is one span; the merged report renders the
    same bytes as the CLI."""
    start = time.perf_counter()
    if tracer is None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exit_code = cli.main(verify_argv(n, checks))
        text = out.getvalue()
    else:
        items = []
        for check in checks:
            with tracer.span(f'verify.check.{check}', 'verify'):
                items.extend(verify.run_checks(n, checks=(check,), workers=1).items)
        with tracer.span('verify.render', 'verify'):
            report = verify.VerificationReport.from_items(items)
            text = report.render_text() + '\n'
        exit_code = 0 if report.passed else 1
    outcome = grade_report(text, exit_code, expected)
    outcome.wall_s = time.perf_counter() - start
    outcome.layers['verify.scan_base'] = sum(
        math.factorial(k) for k in range(1, n + 1))
    outcome.digest = sha256(text)
    return outcome


# ---------------------------------------------------------------------------
# ribbons: both routes for every composition of n


def compositions(n: int) -> list[tuple[int, ...]]:
    """All 2^(n-1) compositions of n, in the benchmark's own enumeration."""
    out = []
    for cuts in itertools.product((False, True), repeat=n - 1):
        parts, run = [], 1
        for cut in cuts:
            if cut:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        out.append(tuple(parts))
    return out


def descent_class_size(comp: tuple[int, ...]) -> int:
    """|D_I| by inclusion-exclusion over multinomials, independent of the
    package: Σ_{J coarser than I} (−1)^(l(I)−l(J)) n!/(j_1!···j_k!)."""
    n = sum(comp)
    cuts = list(itertools.accumulate(comp))[:-1]
    total = 0
    for r in range(len(cuts) + 1):
        for kept in itertools.combinations(cuts, r):
            bounds = (0, *kept, n)
            term = math.factorial(n)
            for lo, hi in zip(bounds, bounds[1:]):
                term //= math.factorial(hi - lo)
            total += (-1) ** (len(cuts) - r) * term
    return total


def poly_digest(poly) -> str:
    return sha256(repr(sorted(poly.terms.items())))


def comp_key(comp: tuple[int, ...]) -> str:
    return ','.join(map(str, comp))


def ribbon_pass(n: int, seed: int, tracer=None,
                expected: dict | None = None) -> Outcome:
    """r_I by inclusion-exclusion and by determinant for every composition of
    n, in a seed-drawn order.  Each must agree with the other, have total mass
    |D_I|, and match its recorded digest; the masses must sum to n!."""
    comps = compositions(n)
    random.Random(seed).shuffle(comps)
    sizes = [descent_class_size(comp) for comp in comps]
    start = time.perf_counter()
    failed = 0
    mass = 0
    for comp, size in zip(comps, sizes):
        ie = ribbons.ribbon_flagged(comp)
        det = ribbons.ribbon_determinant(comp)
        got = ie.total_mass()
        mass += got
        ok = ie == det and got == size
        if expected is not None:
            ok = ok and poly_digest(ie) == expected[comp_key(comp)]
        failed += not ok
    if mass != math.factorial(n):
        failed = len(comps)
    return Outcome(attempted=len(comps), failed=failed,
                   wall_s=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# codes: encode and decode beyond the enumeration cap


def roundtrip_inputs(seed: int, sizes=ROUNDTRIP_SIZES,
                     per_size: int = ROUNDTRIP_PER_SIZE) -> list[tuple[int, ...]]:
    """``per_size`` seed-drawn permutations of each size, so every seed
    asks for the same amount of work."""
    rng = random.Random(seed)
    perms = []
    for n in sizes:
        for _ in range(per_size):
            p = list(range(1, n + 1))
            rng.shuffle(p)
            perms.append(tuple(p))
    return perms


def _coders(name: str):
    return {
        'lehmer': (codes.lehmer_code, codes.lehmer_decode),
        'invcode': (codes.inv_code, codes.inv_decode),
        'majcode': (codes.maj_code, codes.maj_decode),
        'scode': (codes.s_code, codes.s_decode),
    }[name]


def _subdiagonal(code, n: int) -> bool:
    """The benchmark's own test, so a broken ``codes.is_subdiagonal`` cannot
    pass a broken encoder."""
    return len(code) == n and all(0 <= c <= n - 1 - i for i, c in enumerate(code))


def roundtrip_pass(perms: list[tuple[int, ...]], tracer=None) -> Outcome:
    """Encode every permutation with all four codes and decode it back, one
    timed batch per family and direction.  A permutation fails when any code
    is not sub-diagonal or does not decode to it."""
    start = time.perf_counter()
    bad = [False] * len(perms)
    layers = {}
    for name in ROUNDTRIP_FAMILIES:
        encode, decode = _coders(name)
        prefix = f'codes.roundtrip.{name}'
        t0 = time.perf_counter()
        with _span(tracer, f'{prefix}.encode', 'codes'):
            encoded = [encode(p) for p in perms]
        t1 = time.perf_counter()
        decoded = []
        with _span(tracer, f'{prefix}.decode', 'codes'):
            for code in encoded:
                try:
                    decoded.append(decode(code))
                except (ValueError, IndexError):
                    decoded.append(None)
        t2 = time.perf_counter()
        for i, (p, code, back) in enumerate(zip(perms, encoded, decoded)):
            if back != p or not _subdiagonal(code, len(p)):
                bad[i] = True
        layers[f'{prefix}.encode_us'] = (t1 - t0) / len(perms) * 1e6
        layers[f'{prefix}.decode_us'] = (t2 - t1) / len(perms) * 1e6
    wall = time.perf_counter() - start
    return Outcome(attempted=len(perms), failed=sum(bad), wall_s=wall, layers=layers)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    name: str
    #: Units one pass attempts; all of them count as failed if a pass dies.
    units: int
    #: (seed, tracer or None) -> Outcome
    run: Callable
    #: Whether the traced pass installs the call wrappers.  The round trip
    #: times its own batches instead.
    wrapped: bool = True


WORKLOADS = {w.name: w for w in (
    Workload('verify-n7', EXPECTED['verify-n7']['items'],
             lambda seed, tracer: verify_pass(7, verify.CHECK_NAMES, tracer,
                                              EXPECTED['verify-n7'])),
    Workload('theorem-n8', EXPECTED['theorem-n8']['items'],
             lambda seed, tracer: verify_pass(8, ('theorem',), tracer,
                                              EXPECTED['theorem-n8'])),
    Workload('ribbons-n8', 2 ** 7,
             lambda seed, tracer: ribbon_pass(8, seed, tracer,
                                              EXPECTED['ribbons-n8'])),
    Workload('codes-roundtrip', len(ROUNDTRIP_SIZES) * ROUNDTRIP_PER_SIZE,
             lambda seed, tracer: roundtrip_pass(roundtrip_inputs(seed), tracer),
             wrapped=False),
)}
