"""Benchmark of the exptaylor command-line tool.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: curves1d, multivar, pointwise, identities (see ``workloads.py``
for what each one stresses and why).  The program is built from ``src/`` of
the checkout this file sits in.

Each op is one in-process call of ``exptaylor.cli.main(argv)`` with stdout
captured, run as a closed loop with one client: the next op starts when the
previous one returns.  Every output is checked by ``oracle.py``; the time
the oracle takes is not measured.

``--trace 0`` measures what a CLI user sees: warm throughput and latency
over whole design cycles until ``--seconds`` of op time have run, the
peak memory of this process, and, from fresh interpreters launched one at a
time, the set-up time up to ``import exptaylor.cli`` and the first op's time.
``--trace 1`` runs a fixed number of cycles under the span tracer of
``tracer.py`` and reports per-layer time and work counts, then reruns the
same ops untraced to give the tracing overhead.  The untraced mode never
installs the tracer.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans and the per-run input record are
written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shlex
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import oracle
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

COLD_LAUNCHES = 15
MIN_OPS = 120  # so that at least ten samples lie beyond p90
READ_EVERY_S = 0.1
# the contention kernel's reading on an uncontended core of the machine the
# baseline was recorded on (Xeon at 2.1 GHz, Python 3.11)
REFERENCE_KERNEL_S = 5.0e-4
# cycles run under the tracer: about a third of a 20-second run, and a fixed
# op set so that work counts repeat exactly for a seed
TRACE_CYCLES = {"curves1d": 3, "multivar": 3, "pointwise": 30, "identities": 4}

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "cold_op_ms": "ms",
}


class Runner:
    """Runs ops, checks each output, and keeps the failures by argv."""

    def __init__(self, main):
        self.main = main
        self.attempted = 0
        self.failures: list[tuple[list[str], str]] = []
        self.outputs: list[tuple[object, str]] = []

    def run(self, op, keep: bool = False) -> tuple[float, int]:
        buf = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.main(op.argv)
        except Exception as exc:  # a traceback is a failed op, not a stopped run
            elapsed = perf_counter() - start
            reason = f"raised {exc!r}"
        else:
            elapsed = perf_counter() - start
            reason = oracle.check(op, code, buf.getvalue())
        self.attempted += 1
        out = buf.getvalue()
        if reason is not None:
            self.failures.append((op.argv, reason))
        elif keep:
            self.outputs.append((op, out))
        return elapsed, len(out.encode())


class ColdProbe:
    """Launches one fresh interpreter per call, never two at once.

    Each launch yields the set-up time up to ``import exptaylor.cli`` and
    the time of the first op, whose stdout is discarded.
    """

    def __init__(self, workload: str, seed: int):
        self.stream = workloads.cycles(workload, seed, stream="cold")
        self.setups: list[float] = []
        self.firsts: list[float] = []
        self.scales: list[float] = []
        self.errors: list[str] = []

    def __call__(self, timeline: "Timeline") -> None:
        """Launch one probe, bracketed by contention readings."""
        timeline.close()
        op = next(op for op in next(self.stream) if op.slot == 0)
        read_fd, write_fd = os.pipe()
        try:
            launched = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-I", str(BENCH / "probe.py"), str(SRC), repr(launched), str(write_fd), json.dumps(op.argv)],
                stdout=subprocess.DEVNULL,
                pass_fds=(write_fd,),
            )
        finally:
            os.close(write_fd)
        with os.fdopen(read_fd) as fh:
            report = fh.read()
        proc.wait(timeout=170)
        self.scales.append(timeline.close())
        if proc.returncode != 0 or not report:
            self.errors.append(f"probe exited {proc.returncode}: {shlex.join(op.argv)}")
            self.setups.append(math.nan)
            self.firsts.append(math.nan)
            return
        data = json.loads(report)
        if data["code"] != 0:
            self.errors.append(f"cold op exited {data['code']}: {shlex.join(op.argv)}")
        self.setups.append(data["setup_s"])
        self.firsts.append(data["cold_op_s"])


def input_record(ops) -> dict:
    """Input properties later cache or batching claims cite."""
    seen, repeats = set(), 0
    for op in ops:
        repeats += op.share_key in seen
        seen.add(op.share_key)
    return {
        "ops": len(ops),
        "dims": dict(sorted(Counter(op.dims for op in ops).items())),
        "order": dict(sorted(Counter(op.order for op in ops if op.order is not None).items())),
        "kind": dict(sorted(Counter(op.kind for op in ops).items())),
        "repeat_frac": repeats / len(ops) if ops else 0.0,
    }


class ContentionMeter:
    """Times a fixed interpreter loop that shares no code with the program.

    The machine this runs on is shared: for seconds at a time other tenants
    slow every process on both cores by up to half, CPU time included.  The
    loop slows with them in proportion, so ``REFERENCE_KERNEL_S / reading``
    converts a time measured under contention into the time it would have
    taken on the machine the baseline was recorded on, uncontended.
    """

    @staticmethod
    def _kernel() -> int:
        acc = 0
        for j in range(6000):
            acc += (j * 7) % 5
        return acc

    def reading(self) -> float:
        best = math.inf
        for _ in range(2):
            start = perf_counter()
            self._kernel()
            best = min(best, perf_counter() - start)
        return best


class Timeline:
    """Op times, each scaled by the contention readings that bracket it.

    A reading is taken between ops once ``READ_EVERY_S`` has passed since the
    previous one; the ops in between share the mean of the two readings.
    """

    def __init__(self, meter: ContentionMeter):
        self.meter = meter
        self.last = meter.reading()
        self.last_at = perf_counter()
        self.pending: list[float] = []
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.readings: list[float] = [self.last]

    def add(self, elapsed: float) -> None:
        self.pending.append(elapsed)
        if perf_counter() - self.last_at >= READ_EVERY_S:
            self.close()

    def close(self) -> float:
        """End the current bracket; returns its scale factor."""
        reading = self.meter.reading()
        scale = REFERENCE_KERNEL_S / ((self.last + reading) / 2.0)
        self.raw += self.pending
        self.scaled += [t * scale for t in self.pending]
        self.pending.clear()
        self.last, self.last_at = reading, perf_counter()
        self.readings.append(reading)
        return scale


def measure(runner: Runner, stream, seconds: float, probe: "ColdProbe", timeline: Timeline) -> list:
    """Whole cycles until ``seconds`` of op time and ``MIN_OPS`` ops have run.

    The cold-process probes are spread over the run, one after a cycle each
    ``seconds / COLD_LAUNCHES`` of op time, so they meet the same machine
    states as the warm ops.  Returns the ops run.
    """
    ops = []
    spent = 0.0
    while spent < seconds or len(ops) < MIN_OPS:
        cycle = next(stream)
        for op in cycle:
            elapsed = runner.run(op)[0]
            timeline.add(elapsed)
            spent += elapsed
        ops += cycle
        if len(probe.setups) < COLD_LAUNCHES and spent >= len(probe.setups) * seconds / COLD_LAUNCHES:
            probe(timeline)
    timeline.close()
    while len(probe.setups) < COLD_LAUNCHES:
        probe(timeline)
    return ops


def run_untraced(runner: Runner, args, stream) -> tuple[dict, list[str], dict]:
    timeline = Timeline(ContentionMeter())
    probe = ColdProbe(args.workload, args.seed)
    ops = measure(runner, stream, args.seconds, probe, timeline)
    runner.attempted += COLD_LAUNCHES
    runner.failures += [(["(cold probe)"], e) for e in probe.errors]
    setups = [t * k for t, k in zip(probe.setups, probe.scales) if not math.isnan(t)]
    firsts = [t * k for t, k in zip(probe.firsts, probe.scales) if not math.isnan(t)]
    if not setups:
        raise SystemExit("error: every cold-process probe failed\n" + "\n".join(probe.errors))
    times = timeline.scaled
    q = statistics.quantiles(times, n=10)
    p50, p90 = q[4], q[8]
    metrics = {
        "ops_per_s": len(times) / sum(times),
        "op_ms_p50": p50 * 1e3,
        "op_ms_p90": p90 * 1e3,
        "ok_frac": 1.0 - len(runner.failures) / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
        "cold_op_ms": statistics.median(firsts) * 1e3,
    }
    raw = timeline.raw
    q_raw = statistics.quantiles(raw, n=10)
    raw_values = {
        "ops_per_s": len(raw) / sum(raw),
        "op_ms_p50": q_raw[4] * 1e3,
        "op_ms_p90": q_raw[8] * 1e3,
        "setup_s": statistics.median(t for t in probe.setups if not math.isnan(t)),
        "cold_op_ms": statistics.median(t for t in probe.firsts if not math.isnan(t)) * 1e3,
    }
    beyond = sum(t > p90 for t in times)
    notes = {
        "ops_per_s": f"{len(times)} ops, {sum(raw):.2f} s of op time",
        "op_ms_p50": f"n={len(times)}",
        "op_ms_p90": f"n={len(times)}, {beyond} beyond" + ("" if beyond >= 10 else " (fewer than 10: not resolved)"),
        "ok_frac": f"{runner.attempted - len(runner.failures)}/{runner.attempted} ops correct",
        "peak_rss_mb": "getrusage of this process",
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "cold_op_ms": f"median of {len(firsts)} fresh interpreters",
    }
    lines = []
    for k in E2E_UNITS:
        as_measured = f"; {raw_values[k]:.6g} unscaled" if k in raw_values else ""
        lines.append(f"{k:<12} = {metrics[k]:.6g} {E2E_UNITS[k]}  ({notes[k]}{as_measured})")
    # fail_frac is printed for the reader; the gated metric is ok_frac, which is never 0
    lines.insert(4, f"{'fail_frac':<12} = {1.0 - metrics['ok_frac']:.6g}  ({len(runner.failures)}/{runner.attempted} ops)")
    lines.append(
        f"contention: kernel read {len(timeline.readings)} times, {min(timeline.readings) * 1e3:.3f} to "
        f"{max(timeline.readings) * 1e3:.3f} ms (reference {REFERENCE_KERNEL_S * 1e3:.3f} ms)"
    )
    record = input_record(ops)
    record["timings"] = {
        "op_s": raw,
        "op_scaled_s": times,
        "kernel_s": timeline.readings,
        "setup_s": probe.setups,
        "cold_op_s": probe.firsts,
        "probe_scale": probe.scales,
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}, lines, record


def run_traced(runner: Runner, args, stream) -> tuple[dict, list[str], dict]:
    from tracer import COUNTS, LAYERS, Tracer

    ops = [op for _ in range(TRACE_CYCLES[args.workload]) for op in next(stream)]
    tracer = Tracer()
    traced_runner = Runner(tracer.wrap(runner.main, "cli.main"))
    traced = untraced = 0.0
    # each op runs once traced and once not, in alternating order, so that
    # the overhead figure compares the same ops under the same machine state
    for i, op in enumerate(ops):
        for with_tracer in ((True, False) if i % 2 == 0 else (False, True)):
            if not with_tracer:
                untraced += runner.run(op)[0]
                continue
            tracer.op = i
            tracer.install()
            try:
                elapsed, nbytes = traced_runner.run(op)
            finally:
                tracer.uninstall()
            traced += elapsed
            tracer.counts["cli.bytes_out"] += nbytes
    runner.attempted += traced_runner.attempted
    runner.failures += traced_runner.failures

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    counts = tracer.counts
    values: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = (tracer.calls[layer], "count")
        values[f"{layer}.self_s"] = (tracer.self_s[layer], "s")
        values[f"{layer}.self_frac"] = (tracer.self_s[layer] / traced, "ratio")
        values[f"{layer}.errors"] = (tracer.errors[layer], "count")
    for name in COUNTS:
        values[name] = (counts[name], "count")
    values["jet.lifts_per_op"] = (counts["jet.lifts"] / len(ops), "count")
    builds = counts["stirling.table_builds"]
    values["stirling.table_rebuild_frac"] = (counts["stirling.table_rebuilds"] / builds if builds else 0.0, "ratio")
    record = input_record(ops)
    record["lift_batch"] = dict(sorted(tracer.batch_sizes.items()))
    values["input.repeat_frac"] = (record["repeat_frac"], "ratio")
    values["trace.ops_per_s"] = (len(ops) / traced, "1/s")
    values["trace.untraced_ops_per_s"] = (len(ops) / untraced, "1/s")
    values["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    values["trace.spans"] = (len(tracer.spans), "count")
    values["trace.absent_hooks"] = (len(tracer.absent), "count")
    lines = [f"{k:<28} = {v:.6g} {u}" for k, (v, u) in values.items()]
    lines.append(f"traced ops: {len(ops)} ({TRACE_CYCLES[args.workload]} cycles), each also run untraced")
    lines += [f"absent (reported as 0): {name}" for name in sorted(tracer.absent)]
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, lines, record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("curves1d", "multivar", "pointwise", "identities"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "exptaylor" / "cli.py").is_file():
        print(f"error: no exptaylor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from exptaylor import cli

    if Path(cli.__file__).resolve().parent != SRC / "exptaylor":
        print(f"error: imported exptaylor from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    # one core for the ops, the contention readings and the probes' children,
    # so that every reading describes the core the timed code ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    stream = workloads.cycles(args.workload, args.seed)
    runner = Runner(cli.main)
    # warm-up: one cycle, unmeasured; its correct outputs feed the self-check
    for op in next(stream):
        runner.run(op, keep=True)
    checks = [(op.kind, label, rejected) for op, out in runner.outputs for label, rejected in oracle.self_check(op, out)]
    runner.outputs.clear()
    missed = [c for c in checks if not c[2]]
    if not checks or missed:
        print(f"error: oracle self-check: {len(missed)} of {len(checks)} corruptions accepted: {missed}", file=sys.stderr)
        return 3

    if args.trace:
        metrics, lines, record = run_traced(runner, args, stream)
    else:
        metrics, lines, record = run_untraced(runner, args, stream)

    print(f"exptaylor benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    print(f"oracle self-check: {len(checks)} corrupted outputs, all rejected")
    print("inputs: " + json.dumps({k: v for k, v in record.items() if k != "timings"}))
    for argv_, reason in runner.failures:
        print(f"FAILED op ({reason}): exptaylor {shlex.join(argv_)}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"inputs-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
