"""qjunta benchmark: one workload, closed loop, checked against brute force.

Run from the repository root:

    python3 bench/run.py --workload exhaustive_small --seed 1 --seconds 20 --trace 0

One caller in this one process sends the next call when the previous one
has returned.  Every output is checked against brute force after its round,
outside the timed region.  The last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines above it give every metric with its unit, the raw wall-clock figures
and the informational fields.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "qjunta").is_dir():
    sys.exit(f"error: no qjunta sources under {ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

_import_started = perf_counter()
import qjunta  # noqa: E402,F401  (timed: the import is part of set-up)

IMPORT_S = perf_counter() - _import_started

import numpy as np  # noqa: E402

from check import oracle_calls  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, CliRun  # noqa: E402

SETUP_REPEATS = 5
OUT_DIR = ROOT / ".bench_out"

# Gated end-to-end metrics.  op_ms_p50 and op_ms_tail are printed, not
# gated: the median call of a mixed round moves between call types as the
# machine's speed changes (five seeds spread 0.16 to 0.28 between quartiles
# even after calibration), and scan_wide makes too few calls for a tail.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)

# Per-layer metrics on the result line: each is a count, or a time that is
# nonzero on every workload.  The self times of layers that some workload
# never calls (learner, cli, boolfn parse and brute force) would read exactly
# 0 there, so they are printed in the report above the result line instead.
PER_LAYER = (
    ("qsim.hadamard.calls", "count"),
    ("qsim.hadamard.self_s", "s"),
    ("qsim.oracle.calls", "count"),
    ("qsim.oracle.self_s", "s"),
    ("qsim.gate.calls", "count"),
    ("qsim.gate.self_s", "s"),
    ("qsim.prep.self_s", "s"),
    ("qsim.density.self_s", "s"),
    ("qsim.readout.calls", "count"),
    ("qsim.readout.self_s", "s"),
    ("qsim.validate.self_s", "s"),
    ("qsim.amp_bytes", "B"),
    ("qsim.states", "count"),
    ("entangle.wootters.calls", "count"),
    ("entangle.wootters.self_s", "s"),
    ("entangle.effective.calls", "count"),
    ("junta.verdicts", "count"),
    ("junta.circuit_ratio", "ratio"),
    ("junta.self_s", "s"),
    ("junta.oracle_calls_quantum", "count"),
    ("junta.oracle_calls_classical", "count"),
    ("learner.derivative_tests", "count"),
    ("boolfn.tabulate.self_s", "s"),
    ("boolfn.query.calls", "count"),
    ("boolfn.query.self_s", "s"),
    ("cli.report_bytes", "B"),
    ("trace.overhead_ratio", "ratio"),
)

# The machine's speed swings by up to 1.7x, in spells from under a second to
# tens of seconds, with CPU time equal to wall time: the shared hardware
# slows, the process is not descheduled.  The timed calls are therefore
# interleaved with a fixed reference kernel that does not touch qjunta, and
# the gated times are scaled by the reference's slowdown: the geometric mean
# of its times over its typical time on the machine the bounds were set on.
# The typical time only sets the scale; the raw times are printed as well.
#
# Code paths slow by different factors, so each workload has a kernel of its
# own kind of work.  A reference helps only if it runs at least every few
# seconds: sampled once per 12 s, the same kernel widened the spread of an
# earlier scan_wide instead.


class Kernel(NamedTuple):
    loops: int  # interpreter-loop iterations
    small: int  # iterations of small numpy calls
    qubits: int  # size of the dense state for the gate passes
    passes: int  # single-qubit gates applied to it
    typical_s: float  # typical time on the machine the bounds were set on


REFERENCES = {
    "exhaustive_small": Kernel(30_000, 60, 0, 0, 0.012),
    "scan_wide": Kernel(0, 0, 18, 6, 0.18),
    "learn_cli": Kernel(30_000, 60, 14, 14, 0.03),
}
REFERENCE_EVERY_S = 0.25
_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)


@dataclass(frozen=True)
class _Amplitudes:
    values: np.ndarray

    def __post_init__(self):
        if abs(float(np.sum(np.abs(self.values) ** 2)) - 1.0) > 1e-9:
            raise ValueError("not normalized")


def reference(kernel: Kernel) -> float:
    """Time a fixed kernel: interpreter loops; small numpy calls on validated
    frozen objects, with JSON; single-qubit gates on a dense complex state,
    applied by axis shuffles and a batched 2x2 product."""
    t0 = perf_counter()
    acc, seen = 0, {}
    for i in range(kernel.loops):
        acc += i * i % 7
        seen[i & 1023] = acc
    for k in range(kernel.small):
        amps = np.zeros(64, dtype=np.complex128)
        amps[k % 64] = 1.0
        amps = np.moveaxis(amps.reshape((2,) * 6), k % 6, -1).copy().reshape(-1)
        _Amplitudes(amps)
        rho = np.outer(amps[:4], amps[:4].conj()) + np.eye(4)
        np.linalg.eigvalsh(rho)
        np.allclose(rho, rho.T)
        json.loads(json.dumps({"k": k, "p": [0.5, 1.5]}))
    q = kernel.qubits
    amps = np.full(1 << q, 2.0 ** (-q / 2), dtype=np.complex128)
    for k in range(kernel.passes):
        tensor = np.moveaxis(amps.reshape((2,) * q), k % q, -1) @ _H
        amps = np.moveaxis(tensor, -1, k % q).reshape(-1)
    return perf_counter() - t0


class Reference:
    """Times of a workload's reference kernel.  The slowdown is their
    geometric mean over the kernel's typical time."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.times: list[float] = []
        self.sample()

    def sample(self) -> None:
        self.times.append(reference(self.kernel))

    def slowdown(self, calibrated: bool = True) -> float:
        return statistics.geometric_mean(self.times) / self.kernel.typical_s if calibrated else 1.0


def _call(call):
    try:
        return call.run()
    except Exception as error:  # a failing call is a failed output, not a crash
        traceback.print_exc(file=sys.stderr)
        return error


class Checks:
    """Running tally of checked outputs."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.oracle_calls = np.zeros(2, dtype=np.int64)
        self.report_bytes = 0

    def check(self, call, out) -> None:
        self.attempted += 1
        found = [f"raised {out!r}"] if isinstance(out, Exception) else call.check(out)
        if found:
            self.failed += 1
            self.problems += [f"{call.key[:120]}: {p}" for p in found[:3]]
            return
        self.oracle_calls += oracle_calls(out)
        if isinstance(out, CliRun):
            self.report_bytes += len(out.stdout.encode())


class Phase:
    """One timed loop: each call's latency, the reference times taken between
    calls, and the checks of every output.

    A reference runs before the first call, after every ``REFERENCE_EVERY_S``
    of timed calls and at the end of each round, so the references sample
    the machine evenly over the phase.  The phase's slowdown is their
    geometric mean over the kernel's typical time; a calibrated time is a raw
    time divided by it.
    """

    def __init__(self, kernel: Kernel):
        self.latencies: list[list[float]] = []  # per round
        self.reference = Reference(kernel)
        self.checks = Checks()

    @property
    def rounds(self) -> int:
        return len(self.latencies)

    @property
    def calls(self) -> int:
        return sum(map(len, self.latencies))

    @property
    def wall(self) -> float:
        return sum(map(sum, self.latencies))

    def slowdown(self, calibrated: bool = True) -> float:
        return self.reference.slowdown(calibrated)

    def ops_per_s(self, calibrated: bool = True) -> float:
        """Calls per second of timed time, over the whole phase."""
        return self.calls / self.wall * self.slowdown(calibrated)

    def flat_latencies(self, calibrated: bool = True) -> list[float]:
        slowdown = self.slowdown(calibrated)
        return [t / slowdown for lat in self.latencies for t in lat]

    def op_ms_p50(self, calibrated: bool = True) -> float:
        return 1e3 * statistics.median(self.flat_latencies(calibrated))


def run_loop(workload, seconds: float, tracer: Tracer | None = None) -> Phase:
    """Whole rounds, cycling through ``workload.rounds``, until ``seconds`` of
    timed calls have passed.  Outputs are checked after each round, so only
    one round's outputs are held at a time."""
    phase = Phase(REFERENCES[workload.name])
    while phase.rounds == 0 or phase.wall < seconds:
        calls = workload.rounds[phase.rounds % len(workload.rounds)]
        latencies, outputs = [], []
        since_reference = 0.0
        for call in calls:
            t0 = perf_counter()
            if tracer is None:
                out = _call(call)
            else:
                with tracer.root("bench.call"):
                    out = _call(call)
            latency = perf_counter() - t0
            latencies.append(latency)
            outputs.append(out)
            since_reference += latency
            if since_reference >= REFERENCE_EVERY_S and call is not calls[-1]:
                phase.reference.sample()
                since_reference = 0.0
        phase.reference.sample()
        phase.latencies.append(latencies)
        for call, out in zip(calls, outputs):
            phase.checks.check(call, out)
    return phase


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    ordered = sorted(latencies)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = int(np.ceil(pct / 100 * len(ordered)))  # nearest rank
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def info() -> dict:
    """Informational fields; none of them is gated."""
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py"))
    try:
        l3 = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                text=True, timeout=10, check=True).stdout.strip() or 0) or None
    except (OSError, ValueError, subprocess.SubprocessError):
        l3 = None
    return {
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "l3_bytes": l3,
    }


_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                 "import qjunta; print(time.perf_counter() - t)")


def child_import_s() -> float:
    """Time ``import qjunta`` in a fresh interpreter, as this process did."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def setup(name: str, seed: int, workdir: Path):
    """Set up SETUP_REPEATS times: the import (this process's own the first
    time, a fresh interpreter's after that), then input generation,
    tabulation, files and one warm-up call.

    Returns the last workload, its warm-up output, the median raw and
    calibrated set-up times, and each repetition's raw time.
    """
    calibration = Reference(REFERENCES[name])
    repeats = []
    for k in range(SETUP_REPEATS):
        import_s = IMPORT_S if k == 0 else child_import_s()
        t0 = perf_counter()
        workload = WORKLOADS[name](seed, workdir)
        warm_out = _call(workload.warmup)
        repeats.append(import_s + perf_counter() - t0)
        calibration.sample()
    raw = statistics.median(repeats)
    return workload, warm_out, raw, raw / calibration.slowdown(), repeats


def layer_metrics(tracer: Tracer, traced: Phase, untraced_ops: float) -> dict:
    """Per-layer figures per round of the traced phase."""
    summary = tracer.summary()
    values = {key: value / traced.rounds for key, value in summary.items()}
    values["junta.circuit_ratio"] = summary["junta.circuits"] / max(1, summary["junta.verdicts"])
    values["cli.report_bytes"] = traced.checks.report_bytes / traced.rounds
    values["trace.overhead_ratio"] = traced.ops_per_s() / untraced_ops
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        workload, warm_out, setup_raw, setup_s, repeats = setup(args.workload, args.seed, workdir)
        warm = Checks()
        warm.check(workload.warmup, warm_out)
        if args.trace:
            untraced = run_loop(workload, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_loop(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            phases = [untraced, traced]
        else:
            untraced = run_loop(workload, args.seconds)
            phases = [untraced]
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = [warm] + [p.checks for p in phases]
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    for problem in [q for c in checks for q in c.problems][:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    ops_per_s, op_ms_p50 = untraced.ops_per_s(), untraced.op_ms_p50()
    n = untraced.calls
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("  times are calibrated by the reference kernel (see bench/README.md); raw figures in brackets")
    print(f"  setup_s       {setup_s:.6f} s   [raw {setup_raw:.6f} s: median of "
          f"{[round(t, 4) for t in repeats]}; this process's import {IMPORT_S:.4f} s]")
    print(f"  ops_per_s     {ops_per_s:.4f} 1/s   [raw {untraced.ops_per_s(False):.4f} 1/s; "
          f"{n} calls in {untraced.rounds} rounds, {untraced.wall:.3f} s]")
    print(f"  op_ms_p50     {op_ms_p50:.6f} ms   [raw {untraced.op_ms_p50(False):.6f} ms; n={n}]")
    high = tail(untraced.flat_latencies())
    if high is None:
        print(f"  op_ms_tail    omitted: {n} samples leave no percentile with ten beyond it")
    else:
        print(f"  op_ms_tail    {high[1] * 1e3:.6f} ms   [p{high[0]:g}, n={n}; "
              f"raw {tail(untraced.flat_latencies(False))[1] * 1e3:.6f} ms]")
    print(f"  peak_rss_mib  {peak_rss_mib:.3f} MiB")
    print(f"  failed_ratio  {failed / attempted:.6f}   ({failed} of {attempted} calls, warm-up included)")
    quantum, classical = untraced.checks.oracle_calls
    print(f"  oracle calls  quantum {quantum}, classical {classical} over {n} untraced calls   "
          f"(each call checked against the documented accounting)")
    refs = [t for p in phases for t in p.reference.times]
    print(f"  reference     median {statistics.median(refs):.4f} s, range {min(refs):.4f}-{max(refs):.4f} s "
          f"over {len(refs)} runs; slowdown {untraced.slowdown():.4f}")
    print("  info          " + json.dumps(info()))

    if tracer is None:
        metrics = {"setup_s": setup_s, "ops_per_s": ops_per_s, "peak_rss_mib": peak_rss_mib}
        units = dict(END_TO_END)
    else:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}.npz"
        tracer.save(spans_path)
        layer = layer_metrics(tracer, traced, ops_per_s)
        print(f"  per layer, per round of {traced.calls // traced.rounds} calls "
              f"({traced.rounds} traced rounds; spans in {spans_path.relative_to(ROOT)}):")
        for key in sorted(layer):
            print(f"    {key:34s} {layer[key]:.9g}")
        metrics = {key: layer[key] for key, _ in PER_LAYER}
        units = dict(PER_LAYER)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
