"""Benchmark of invpower: one closed-loop client, one process, one thread.

Run from the root of a source checkout (nothing needs installing):

    python3 bench/run.py --workload verify_ground --seed 1 --seconds 26 --trace 0

Workloads: verify_ground, series_scan, integrate, cli_quick (see README.md).
The seed fixes the inputs.  Each run repeats whole passes over the input
list until ``--seconds`` have passed, checks every operation against the
benchmark's own reference, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics.  Results and spans are written
under ``bench/out/``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("verify_ground", "series_scan", "integrate", "cli_quick")
SETUP_SAMPLES = 7
MAX_DIGITS = 16.0

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("accuracy_digits", "digits"),
)


def _parse(argv):
    p = argparse.ArgumentParser(description="invpower benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup_seconds(args) -> float:
    """Median over fresh interpreters of the time to import invpower and
    build the inputs; no operation runs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def _digits(deviation: float) -> float:
    return MAX_DIGITS if deviation <= 0.0 else min(MAX_DIGITS, -math.log10(deviation))


class Phase:
    """Whole passes over the inputs until ``seconds`` have passed.

    With a tracer, passes alternate untraced and traced, so that both kinds
    see the same host conditions, and the phase ends after an even number
    of passes."""

    def __init__(self, workload, inputs, seconds: float, tracer=None):
        self.times, self.digits, self.failures = [], [], []
        # operations per second of program time, per pass, keyed by traced
        self.pass_rates = {False: [], True: []}
        self.traced_ops = 0
        self.unexpected = 0
        deadline = time.perf_counter() + seconds
        passes = 0
        while True:
            traced = tracer is not None and passes % 2 == 1
            if traced:
                tracer.install()
            try:
                busy = self._run_pass(workload, inputs, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            self.pass_rates[traced].append(len(inputs) / busy)
            self.traced_ops += len(inputs) if traced else 0
            passes += 1
            if time.perf_counter() >= deadline and (tracer is None or passes % 2 == 0):
                break

    def _run_pass(self, workload, inputs, tracer) -> float:
        busy = 0.0
        for item in inputs:
            if tracer is not None:
                tracer.current_op = len(self.times)
            t0 = time.perf_counter()
            output = workload.run(item)
            self.times.append(time.perf_counter() - t0)
            busy += self.times[-1]
            if tracer is not None:
                tracer.paused = True
            try:
                self.digits.append(_digits(workload.check(item, output)))
            except Exception as exc:  # any failed check counts, and is reported
                self.failures.append(f"{type(exc).__name__}: {exc}")
                self.unexpected += not getattr(item, "known_fault", False)
            finally:
                if tracer is not None:
                    tracer.paused = False
        return busy

    def ops_per_s(self, traced: bool = False) -> float:
        """Median over passes, so that a burst of host noise in one pass
        does not move it as it moves the mean."""
        return statistics.median(self.pass_rates[traced])


def _report(lines):
    for line in lines:
        print(line, file=sys.stderr)


def _failure_lines(failures):
    counts = collections.Counter(failures)
    return [f"  failed x{n}: {msg}" for msg, n in sorted(counts.items())]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "invpower" / "__init__.py").is_file():
        print(f"error: no invpower sources under {SRC}", file=sys.stderr)
        return 2
    # one thread everywhere: numpy's BLAS included (set before numpy loads)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore", RuntimeWarning)

    import workloads  # imports numpy and invpower

    workload = workloads.WORKLOADS[args.workload]
    # a str seed is hashed with SHA-512, so inputs do not depend on PYTHONHASHSEED
    inputs = workload.make_inputs(random.Random(f"{args.workload}:{args.seed}"))
    if args.setup_probe:
        print(time.perf_counter() - _T0)
        return 0

    workload.run(inputs[0])  # warm-up, not counted
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        phase = Phase(workload, inputs, args.seconds, tracer)
        tracer.save(f"{stem}.spans.npz")
        overhead = (phase.ops_per_s() / phase.ops_per_s(traced=True) - 1.0) * 100.0
        figures = tracing.layer_metrics(tracer.arrays(), phase.traced_ops, overhead)
        # -1 marks a figure that was not measured: no span of that kind
        # occurred on this workload (see README.md)
        metrics = {name: {"value": -1.0 if figures[name] is None else figures[name],
                          "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
        _report([f"{args.workload} seed {args.seed}: {phase.traced_ops} traced and "
                 f"{len(phase.times) - phase.traced_ops} untraced ops"]
                + [f"  {n:40s} " + ("unmeasured" if figures[n] is None
                                     else f"{figures[n]:.6g} {u}")
                   for n, u, _ in tracing.PER_LAYER])
    else:
        setup = _setup_seconds(args)
        phase = Phase(workload, inputs, args.seconds)
        values = {
            "ops_per_s": phase.ops_per_s(),
            "op_p50_ms": statistics.median(phase.times) * 1e3,
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy_digits": statistics.median(phase.digits) if phase.digits else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        _report([f"{args.workload} seed {args.seed}: {len(phase.times)} ops over "
                 f"{len(phase.times) // len(inputs)} passes of {len(inputs)} inputs"]
                + [f"  {n:16s} {values[n]:.6g} {u}" for n, u in END_TO_END])

    _report(_failure_lines(phase.failures))
    correct = not phase.unexpected
    result = {"correct": correct, "attempted": len(phase.times),
              "failed": len(phase.failures), "metrics": metrics}
    line = json.dumps(result)
    Path(f"{stem}.json").write_text(line + "\n")
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
