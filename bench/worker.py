"""One cold pass of a workload in a fresh interpreter.

    python3 -E -s bench/worker.py WORKLOAD SEED MODE

MODE is ``setup`` (import permcodes and stop), ``plain`` (one untraced pass)
or ``traced`` (one pass under ``tracing.Tracer``).  The first stdout line is
``{"ready": t}``, the ``time.perf_counter()`` reading once permcodes is
imported; on Linux that clock is CLOCK_MONOTONIC, shared with the parent,
which subtracts its own reading taken before it started this process.
The second line is the pass's outcome as JSON, with its times both as
measured (``*_raw_s``) and corrected for the machine's speed.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / 'src'))


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    import permcodes.cli  # noqa: F401  (the set-up being measured)

    print(json.dumps({'ready': time.perf_counter()}), flush=True)
    if mode == 'setup':
        return 0

    import speed
    import tracing
    import workloads
    from permcodes import ribbons

    spec = workloads.WORKLOADS[workload]
    tracer = None
    if mode == 'traced':
        tracer = tracing.Tracer()
        if spec.wrapped:
            tracer.install()
    # In a traced pass the reference loop runs inside whichever call it
    # interrupts, so each layer's time holds its share of the loop's.
    sampler = speed.SpeedSampler()
    sampler.start()
    window = time.perf_counter()
    outcome = spec.run(seed, tracer)
    window = time.perf_counter() - window
    sampler.stop()
    if tracer is not None:
        tracer.restore()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = usage.ru_utime + usage.ru_stime
    cache = ribbons.h_flagged.cache_info()
    layers = {
        **outcome.layers,
        'ribbons.h_flagged.hits': cache.hits,
        'ribbons.h_flagged.misses': cache.misses,
    }
    # The workload times only part of the sampled window, so it holds that
    # share of the loop's time.
    in_wall = sampler.spent * min(outcome.wall_s / window, 1.0)
    speed_factor = sampler.factor()
    result = {
        'attempted': outcome.attempted,
        'failed': outcome.failed,
        'wall_s': (outcome.wall_s - in_wall) * speed_factor,
        'cpu_s': (cpu_s - sampler.spent) * speed_factor,
        'wall_raw_s': outcome.wall_s,
        'cpu_raw_s': cpu_s,
        'speed': speed_factor,
        'samples': len(sampler.samples),
        'peak_rss_mb': usage.ru_maxrss / 1024,
        'digest': outcome.digest,
        'layers': layers,
    }
    if tracer is not None:
        layers.update(tracer.metrics())
        layers['trace.untracked_s'] = outcome.wall_s - tracer.inner
        if 'verify.scan_base' in layers:
            layers['verify.scan_ratio'] = (
                layers.get('permutations.descent_composition.calls', 0)
                / layers['verify.scan_base'])
        result['self_times'] = tracer.self_times()
        result['spans'] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv))
