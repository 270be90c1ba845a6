"""Benchmark for the bipara CLI: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload frame_report --seed 0 --seconds 50 --trace 0

One op is one CLI command.  A single client drives the ops in a closed loop
(the next op starts when the previous one has returned), in passes over the
workload's fixed list of ops, until ``--seconds`` have passed and at least
two passes have run.  Each op calls ``bipara.cli.main(argv)`` in this
process.  Every output is checked: exit code, the verdicts known by
construction, and a sha256 that must be the same each time an op repeats.

The end-to-end timings are wall times scaled to a fixed host speed by a
short reference loop timed between ops (``HostClock``), because the speed of
the shared host drifts by 2x and more over minutes; the unscaled wall times are
printed beside them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
passes (see layers.py) and prints the per-layer metrics.  The last line of
stdout is one JSON object; the lines before it are for people.  The exit
code is 0 only if every op gave the right output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

SETUP_REPEATS = 3
MIN_PASSES = 2
TAIL_PERCENTILE = 90
MAX_LOOP_S = 110.0  # stop starting ops here so a slow build still ends within 180 s
CALIB_ITERATIONS = 20000
# The reference loop timed between ops, and its time at the speed the
# timings are scaled to: a round figure near its fastest times on the 2-vCPU
# Xeon VM this benchmark was written on.  See "Host speed" in README.md.
REF_ITERATIONS = 4000
REF_S = 0.02
CHILD_TIMEOUT_S = 60.0
IMPORT_PROBE = "import time; t = time.perf_counter(); import bipara.cli; print(time.perf_counter() - t)"

clock = time.perf_counter


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def fraction_loop(iterations: int) -> float:
    """Seconds for a fixed pure-Python Fraction loop: how fast the host runs Python now."""
    start = clock()
    acc = Fraction(0)
    for i in range(1, iterations + 1):
        acc += Fraction(1, i) * Fraction(i % 7 + 1, 3)
        if acc.denominator > 10**12:
            acc = Fraction(acc.numerator % 1000, 7)
    return clock() - start


def import_probe() -> float:
    """Time of a fresh ``import bipara.cli``, measured inside a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout)


class HostClock:
    """Wall times scaled to the host speed at which the reference loop takes REF_S.

    The reference loop runs before and after each timed interval, and the
    interval's wall time is scaled by REF_S over the mean of the two.  A
    slower or faster host moves the interval and the loops together, so the
    scaled time keeps the program's cost and drops the host's speed of the
    moment.  ``reference`` carries the last loop time over to the next
    interval, so back-to-back intervals share one loop between them.
    """

    def __init__(self):
        self.reference = fraction_loop(REF_ITERATIONS)

    def scaled(self, wall: float) -> tuple[float, float]:
        """Close an interval of ``wall`` seconds; return its scaled time and its reference time."""
        before, self.reference = self.reference, fraction_loop(REF_ITERATIONS)
        ref = (before + self.reference) / 2
        return wall * REF_S / ref, ref


class Runner:
    """Runs ops and checks their outputs; remembers each op's first digest."""

    def __init__(self, cli, inputs):
        self.cli = cli
        self.inputs = inputs
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def in_process(self, argv: list[str]) -> tuple[int | None, bytes]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an op that raises is a failed op, not a benchmark crash
            return None, f"{type(exc).__name__}: {exc}".encode()
        return code, out.getvalue().encode("utf-8")

    def run(self, op) -> tuple[float, int]:
        """Run one op and check it; return its wall time and output size in bytes."""
        start = clock()
        code, out = self.in_process(op.argv)
        elapsed = clock() - start
        self.attempted += 1
        problem = self.inputs.check(op, code, out.decode("utf-8", "replace"))
        if problem is None:
            digest = hashlib.sha256(out).hexdigest()
            if self.digests.setdefault(op.key, digest) != digest:
                problem = "output differs from an earlier run of the same op"
        if problem is not None:
            self.failures.append(f"{op.key}: {problem}")
        return elapsed, len(out)

    def workload_digest(self, ops) -> str:
        lines = "".join(f"{op.key} {self.digests.get(op.key, '-')}\n" for op in ops)
        return hashlib.sha256(lines.encode()).hexdigest()


def set_up(runner: Runner, workload: str, seed: int, work: Path):
    """Build the inputs and warm up, SETUP_REPEATS times; return ops and times.

    The warm-up op is the first by key, the same ladder entry for every seed.
    Set-up times are scaled by ``HostClock``; import times are as measured.
    """
    host = HostClock()
    setup_times, import_times = [], []
    ops = []
    for _ in range(SETUP_REPEATS):
        import_s = import_probe()
        start = clock()
        ops = runner.inputs.build(workload, seed, work)
        runner.run(min(ops, key=lambda op: op.key))
        setup_times.append(host.scaled(import_s + clock() - start)[0])
        import_times.append(import_s)
    return ops, setup_times, import_times


def passes(ops, seconds: float, step, min_passes: int = MIN_PASSES) -> float:
    """Call ``step(op)`` over whole passes of ``ops`` until the time and pass floor are met."""
    start = clock()
    done = 0
    while True:
        for op in ops:
            step(op)
        done += 1
        elapsed = clock() - start
        if (elapsed >= seconds and done >= min_passes) or elapsed >= MAX_LOOP_S:
            return elapsed


def tail(by_op: dict[str, list[float]]) -> tuple[float, str]:
    """The TAIL_PERCENTILE op of a pass by nearest rank, each op at its mean time.

    Every pass runs the same ops, so this picks the same op, from the same
    rank of the ladder, however many passes a run makes.
    """
    means = sorted((statistics.fmean(times), key) for key, times in by_op.items())
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(means))
    return means[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(runner: Runner, ops, seconds: float, setup_times) -> dict[str, tuple[float, str]]:
    """Every op timed in wall seconds and scaled by ``HostClock``; metrics from the scaled times."""
    times: list[float] = []
    walls: list[float] = []
    refs: list[float] = []
    by_op: dict[str, list[float]] = {op.key: [] for op in ops}
    host = HostClock()

    def step(op):
        elapsed, _ = runner.run(op)
        scaled, ref = host.scaled(elapsed)
        times.append(scaled)
        walls.append(elapsed)
        refs.append(ref)
        by_op[op.key].append(scaled)

    loop_s = passes(ops, seconds, step)
    for op in ops:
        print(f"  op {op.key:36s} {op.terms:6d} input terms, largest {op.largest:4d}  mean {statistics.fmean(by_op[op.key]):.4f} s scaled")
    tail_s, tail_key = tail(by_op)
    failed = len(runner.failures)
    print(f"  {len(times)} timed ops in {len(times) // len(ops)} passes, {loop_s:.2f} s")
    print(f"  op_tail_s is the p{TAIL_PERCENTILE} op of a pass, {tail_key}, at its mean of {len(by_op[tail_key])} samples")
    print(f"  failed_ops {failed / runner.attempted:.4f} ({failed} of {runner.attempted} ops)")
    print(
        f"  wall, unscaled: op median {statistics.median(walls):.4f} s, {len(walls) / loop_s:.4f} ops/s;"
        f" reference loop median {statistics.median(refs):.4f} s (scaled to {REF_S} s)"
    )
    return {
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(runner: Runner, ops, seconds: float, import_times) -> tuple[dict[str, tuple[float, str]], bool]:
    """Spans pass interleaved with untraced ops, then two identical counter passes."""
    from layers import SPAN_NAMES, Counters, Spans

    spans = Spans()
    ratios: list[float] = []

    def traced_run(op) -> float:
        spans.install()
        try:
            return runner.run(op)[0]
        finally:
            spans.remove()

    def step(op):
        # Alternate which of the pair runs first: the second run of a spec
        # finds warmer caches.  The two runs of a pair meet the same host
        # speed, so the ratio within a pair is the overhead.
        if len(ratios) % 2:
            traced = traced_run(op)
            plain = runner.run(op)[0]
        else:
            plain = runner.run(op)[0]
            traced = traced_run(op)
        ratios.append(traced / plain)

    passes(ops, seconds / 2, step, min_passes=1)

    def count_pass():
        counters = Counters().install()
        try:
            out_bytes = sum(runner.run(op)[1] for op in ops)
        finally:
            counters.remove()
        return counters, out_bytes

    first, first_bytes = count_pass()
    second, second_bytes = count_pass()
    repeat = first.counts == second.counts and first_bytes == second_bytes
    print(f"  traced: {len(ratios)} span ops, 2 x {len(ops)} counted ops; counts repeat: {repeat}")
    metrics = {f"{name}_s": (spans.totals[name] / len(ratios), "s") for name in SPAN_NAMES}
    metrics.update(first.per_op(len(ops)))
    metrics["cli.output_bytes"] = (first_bytes / len(ops), "B")
    metrics["cli.import_s"] = (statistics.median(import_times), "s")
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    return metrics, repeat


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bipara" / "__init__.py").is_file():
        print(f"error: no bipara sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bipara.cli as cli
    import inputs

    if Path(cli.__file__).resolve().parent != SRC / "bipara":
        print(f"error: imported bipara from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(inputs.WORKLOADS)}", file=sys.stderr)
        return 2

    calib_s = fraction_loop(CALIB_ITERATIONS)
    runner = Runner(cli, inputs)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        ops, setup_times, import_times = set_up(runner, args.workload, args.seed, work)
        print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per pass, {sum(op.terms for op in ops)} input terms")
        print(f"  host.calib_s {calib_s:.4f} s")
        if args.trace:
            metrics, correct = per_layer(runner, ops, args.seconds, import_times)
            metrics["host.calib_s"] = (calib_s, "s")
        else:
            metrics = end_to_end(runner, ops, args.seconds, setup_times)
            correct = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    digest = runner.workload_digest(ops)
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    if args.seed == stored.get("seed") and args.workload in stored:
        match = stored[args.workload] == digest
        correct = correct and match
        print(f"  digest {digest} ({'matches' if match else 'DIFFERS FROM'} the stored seed-{args.seed} digest)")
    else:
        print(f"  digest {digest}")
    for failure in runner.failures[:10]:
        print(f"  FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")

    correct = correct and not runner.failures
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
