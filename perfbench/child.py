"""One workload in one fresh interpreter: set-up, timed calls, checks.

Started by ``run.py`` with the program's ``src`` on ``PYTHONPATH``.  It
prints ``ready`` as soon as ``z2z4`` is imported and the inputs exist (the
parent times set-up up to that line); with ``--setup-only`` it stops
there.  Otherwise it makes one full pass over the inputs, then keeps making
the same calls in the same order until ``--seconds`` is used up: a call
starts only if its median time so far still fits.  Each call is timed on
its own, without the time of the speed probe (``SpeedProbe``) that runs
once a second meanwhile.  It then reads the peak memory, and only then loads the reference
and checks the answers against it.  It prints one JSON line with the raw
measurements.

With ``--trace 1`` it makes one untraced pass and then one traced pass of
the same inputs; the traced pass gives the per-layer numbers, and the two
walls give the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
import uuid
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent


def setup(workload: str, seed: int, tiny: bool):
    if workload == "mixed-sweep":
        return wl.mixed_setup(seed, tiny)
    if workload == "z4-sweep":
        return wl.z4_setup(seed, tiny)
    if workload == "search":
        return wl.search_setup(seed, tiny)
    pool = json.loads((HERE / "image_pool.json").read_text())
    return wl.image_setup(seed, tiny, pool)


def check(workload: str, op: wl.Op, out: dict, reference: dict) -> wl.CheckResult:
    if workload == "image-query":
        return wl.check_images([op.query], out)
    return wl.check_cells(out, reference[workload])


def valid_counts(reference: dict) -> dict[tuple[int, int], int]:
    """Valid canonical tuples per (alpha, beta) cell, for the skip counter."""
    counts = {}
    for name in ("mixed-sweep", "search"):
        for cell, data in reference[name]["cells"].items():
            alpha, beta = (int(x) for x in cell.split(","))
            counts[(alpha, beta)] = data["count"]
    return counts


def answers_per_cell(workload: str, reference: dict) -> dict[str, int]:
    """How many answers of the fixed input set each cell holds.

    A call returns every code of its cells at once, so each of them waits
    that call's latency; an image query is one answer.
    """
    if workload == "image-query":
        return {}
    return {name: cell["count"] for name, cell in reference[workload]["cells"].items()}


PROBE_EVERY_S = 1.0
# small ints are shared objects, so xor-ing them allocates nothing: the
# probe's time depends neither on the program's heap nor on its collector
PROBE_DATA = tuple(range(256)) * 40
PROBE_ROUNDS = 40


def probe_loop() -> float:
    """Time a fixed piece of pure-Python integer work (about 10 ms)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        x = 0
        for _ in range(PROBE_ROUNDS):
            for v in PROBE_DATA:
                x ^= v
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Times ``probe_loop`` once a second, from a timer signal, during the calls.

    On a shared machine the speed of a core drifts by up to 40% over tens
    of seconds, and the program's time drifts with it.  The signal handler
    runs in the main thread between the program's bytecodes, so the loop
    meets the machine as the program meets it, at the same moments; the
    parent scales every time of the run by the loop's median time.  The
    loop touches no object the program owns.  ``clock`` is wall time minus
    the time spent in the probe, so the calls are timed without it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def tick(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append(probe_loop())
        self.spent += time.perf_counter() - t0
        self._busy = False

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def start(self) -> None:
        self.tick()
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.tick()


class Calls:
    """Every call made, by op: wall times, and the first answers it gave.

    Later answers are reduced to a digest and compared with the first, so
    that they add little to the peak memory.
    """

    def __init__(self, ops: list[wl.Op], clock=time.perf_counter):
        self.ops = ops
        self.clock = clock
        self.samples = [[] for _ in ops]   # wall time of each call that returned
        self.first = [None] * len(ops)     # answers of the op's first call
        self.digest = [None] * len(ops)
        self.repeats = [0] * len(ops)      # later calls
        self.differ = [0] * len(ops)       # later calls whose answers differ

    def make(self, i: int, on_op=wl._call, timed: bool = True) -> float:
        out, dt = wl.run_op(self.ops[i], on_op, self.clock)
        if dt is not None and timed:
            self.samples[i].append(dt)
        digest = wl.output_digest(out)
        if self.first[i] is None:
            self.first[i], self.digest[i] = out, digest
        else:
            self.repeats[i] += 1
            self.differ[i] += digest != self.digest[i]
        return dt or 0.0

    def full_pass(self, on_op=wl._call, timed: bool = True) -> float:
        return sum(self.make(i, on_op, timed) for i in range(len(self.ops)))

    def until(self, deadline: float) -> None:
        """Repeat the calls in order while the next one's median time fits."""
        i = 0
        while True:
            typical = statistics.median(self.samples[i]) if self.samples[i] else 0.0
            if time.perf_counter() + typical > deadline:
                return
            self.make(i)
            i = (i + 1) % len(self.ops)


def check_calls(workload: str, calls: Calls, reference: dict):
    """Check every call made; return the totals over all calls and over one pass.

    A later call that answered as the op's first counts as the first's check;
    one that answered otherwise fails every answer it should have given.
    The one-pass totals give fail_frac, which thus does not depend on how
    often each call was made.
    """
    total, per_pass = wl.CheckResult(), wl.CheckResult()
    for i, op in enumerate(calls.ops):
        res = check(workload, op, calls.first[i], reference)
        failed_all = wl.CheckResult(expected=res.expected, wrong=res.expected)
        total.add(res, 1 + calls.repeats[i] - calls.differ[i])
        total.add(failed_all, calls.differ[i])
        per_pass.add(failed_all if calls.differ[i] else res)
    return total, per_pass


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    ops = setup(args.workload, args.seed, args.tiny)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # the traced run reports self times, which the probe would inflate
    probe = SpeedProbe()
    calls = Calls(ops, time.perf_counter if args.trace else probe.clock)
    start = time.perf_counter()
    if not args.trace:
        probe.start()
    first_wall = calls.full_pass()
    if not args.trace:
        calls.until(start + args.seconds)
        probe.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # the reference is read only now, so that it is not in the peak memory
    reference = json.loads((HERE / "reference.json").read_text())
    result = {"rss_mb": rss_mb, "walls": [first_wall], "samples": calls.samples,
              "probe": probe.samples,
              "cells": [op.cells for op in ops],
              "answers_per_cell": answers_per_cell(args.workload, reference)}
    if args.trace:
        import spans as tr

        tracer = tr.Tracer(uuid.uuid4().hex, valid_counts(reference))
        result["missing_targets"] = tr.install(tracer)
        result["traced_wall"] = calls.full_pass(tracer.op, timed=False)
        result["layers"] = tracer.metrics()
        result["run_id"] = tracer.run_id
        if args.spans_out:
            result["spans"] = tracer.write(args.spans_out)

    total, per_pass = check_calls(args.workload, calls, reference)
    result["check"] = vars(total)
    result["pass_check"] = vars(per_pass)
    result["calls_made"] = [1 + n for n in calls.repeats]
    result["identical"] = sum(calls.differ) == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
