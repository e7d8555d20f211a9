"""Benchmark for dqml: one workload per run, every metric by name and unit.

    python3 perfbench/run.py --workload protocol-cv --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ``src/``. Set-up
(the import, data generation and, for classify-bulk, fitting and writing the
model) is repeated SETUPS times and its median reported; then whole rounds of
the workload run, at least one (two when traced), until the next one would end
after ``--seconds``; wall_s is the median round time. Both are scaled to a fixed
host speed by probes timed between pieces of each phase (see hostspeed.py).
Each round's outputs are checked against numpy recomputations (see checks.py).

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (setup_s, wall_s, peak_rss_mb). With ``--trace 1`` the
set-ups and every other round run with a span around each call into dqml's
layers; the spans are written to .perfbench-out/ and the last line carries
the per-layer metrics derived from them, plus the tracing overhead measured
against the untraced rounds of the same run.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUPS = 9
# Traced runs trace every other round, up to this many, to bound the spans kept.
MAX_TRACED_ROUNDS = 3
# eigen_decompose calls timed for symmat.eigh_us
EIGH_SAMPLES = 400


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def eigh_microseconds(symmat, dim: int, seed: int) -> float:
    """Median time of one eigen_decompose call on a random symmetric dim x dim."""
    rng = np.random.default_rng(seed)
    times = []
    for _ in range(EIGH_SAMPLES):
        a = rng.normal(size=(dim, dim))
        m = symmat.SymmetricMatrix(a + a.T)
        t0 = time.perf_counter()
        symmat.eigen_decompose(m)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dqml" / "__init__.py").is_file():
        print(f"run.py: no dqml sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dqml
    from dqml import symmat

    if Path(dqml.__file__).resolve().parent != SRC / "dqml":
        print(f"run.py: imported dqml from {dqml.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import hostspeed
    import tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"run.py: unknown workload {args.workload!r}; one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    log = tracing.SolveLog()
    tracer = tracing.Tracer()
    clock = hostspeed.SpeedClock()
    runner = tracing.Runner(tracer, log, clock)

    def setup():
        clock.child(lambda: hostspeed.import_fresh(SRC))
        return workload.setup(args.seed, workdir)

    log.install()
    clock.install()
    try:
        setup_s = []
        for _ in range(SETUPS):
            ph, state = runner.phase("setup", bool(args.trace), setup)
            setup_s.append(ph.scaled)

        failures: list[str] = []
        attempted = failed = 0
        rounds: list[float] = []  # wall seconds, probes left out
        scaled: list[float] = []  # host-speed-scaled seconds of untraced rounds
        # A traced run needs an untraced round to measure the tracing overhead.
        min_rounds = 2 if args.trace else 1
        start = time.perf_counter()
        while True:
            traced = args.trace and len(rounds) % 2 == 0 and len(rounds) < 2 * MAX_TRACED_ROUNDS
            ph, out = runner.phase("round", traced, lambda: workload.run_round(state))
            rounds.append(ph.seconds)
            if not traced:
                scaled.append(ph.scaled)
            out.solves = ph.solves
            failures += workload.check(state, out)
            a, f = workload.operations(state, out)
            attempted += a
            failed += f
            del out
            elapsed = time.perf_counter() - start
            if len(rounds) >= min_rounds and elapsed + statistics.median(rounds) > args.seconds:
                break
        solve_counts = {len(p.solves) for p in runner.phases if p.kind == "round"}
        if len(solve_counts) != 1:
            failures.append(f"rounds made different numbers of solves: {sorted(solve_counts)}")
    finally:
        clock.remove()
        log.remove()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        eigh_us = eigh_microseconds(symmat, workload.dim, args.seed)
        metrics = tracing.layer_metrics(tracer.spans, runner.phases, eigh_us, clock.probes)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "wall_s": {"value": statistics.median(scaled), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }

    for message in failures[:20]:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations, {failed} failed, {len(failures)} check failures")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
