#!/usr/bin/env python3
"""The z2z4 benchmark: one workload, measured in fresh interpreters.

    python3 perfbench/run.py --workload search --seed 1 --seconds 36 --trace 0

Run from the root of a checkout that holds ``src/z2z4``.  Each run:

1. starts the workload's set-up several times, each in a fresh interpreter
   with cold caches, half of them before the workload and half after it,
   and takes the median time from interpreter start to ``z2z4`` imported
   and inputs generated (``setup_s``);
2. runs the workload in one more fresh interpreter, one caller, ``jobs=1``,
   with ``Z2Z4_CAPACITY`` removed from the environment: one full pass, then
   the same calls again, in order, while ``--seconds`` lasts; each call's
   time is the median over the times it was made, and every time of the
   run is scaled to a nominal machine speed (``PROBE_NOMINAL_S``) by the
   speed probe in ``child.py``;
3. checks every answer against ``perfbench/reference.json`` (made once by
   ``make_reference.py``) outside the timed region;
4. prints each metric by name and unit, writes the full result (with the
   commit, Python version, ``nproc`` and seed) under ``perfbench/out/``,
   and prints, as the last line, the JSON object
   ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics instead.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_SAMPLES = 16      # set-up-only interpreters per run, plus the workload's own
RUN_TIMEOUT_S = 170     # every run must end within 180 s
# Times are reported at the machine speed at which child.probe_loop takes
# this long (its typical time on a shared 2-core x86 machine, Python 3.11).
PROBE_NOMINAL_S = 0.010


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("Z2Z4_CAPACITY", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def child_cmd(args, *extra) -> list[str]:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    return cmd + list(extra)


def start_child(cmd, deadline: float):
    """Start a child; return (process, set-up seconds up to its ``ready`` line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RuntimeError(f"workload child failed during set-up: {line!r}")
    return proc, setup_s


def finish(proc, deadline: float) -> str:
    """Wait for a child (killing it at the deadline); return the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload child ran past the time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"workload child exited with code {proc.returncode}")
    return out


def answer_latencies(latencies: list, per_cell: dict[str, int]) -> list[float]:
    """One sample per answer: the time of the call that returned it."""
    return [dt for dt, cells in latencies
            for _ in range(sum(per_cell.get(name, 1) for name in cells))]


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its value.

    With fewer than 20 samples no such percentile is meaningful, so the
    maximum (p100) is reported.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def provenance(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "commit": commit,
        "src_sha256": src.hexdigest(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "jobs": 1,
    }


def measure(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    (HERE / "out").mkdir(exist_ok=True)
    # compile bytecode once so that every timed set-up starts alike
    warm, _ = start_child(child_cmd(args, "--setup-only"), deadline)
    finish(warm, deadline)

    probes = []

    def time_setups(count: int) -> list[float]:
        times = []
        for _ in range(count):
            # the speed probe, run here next to each set-up, scales setup_s
            probes.append(child.probe_loop())
            proc, setup_s = start_child(child_cmd(args, "--setup-only"), deadline)
            finish(proc, deadline)
            times.append(setup_s)
        return times

    # half before and half after the workload, so that the samples do not
    # all fall into one few-second spell of the machine's speed
    setups = time_setups(SETUP_SAMPLES // 2)
    extra = []
    spans_path = None
    if args.trace:
        spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        extra = ["--spans-out", str(spans_path)]
    proc, setup_s = start_child(child_cmd(args, *extra), deadline)
    setups.append(setup_s)
    raw = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    raw["setups"] = setups + time_setups(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    raw["setup_probe"] = probes
    if spans_path is not None:
        raw["spans_file"] = spans_path.relative_to(ROOT).as_posix()
    return raw, summarize(args, raw)


def checks(raw: dict, key: str = "check") -> wl.CheckResult:
    return wl.CheckResult(**raw[key])


def summarize(args, raw: dict) -> dict:
    fail_frac = checks(raw, "pass_check").fail_frac
    if args.trace:
        metrics = dict(raw["layers"])
        metrics["trace.overhead_frac"] = raw["traced_wall"] / raw["walls"][0] - 1
        metrics["fail_frac"] = fail_frac
        return metrics
    # each call's time is the median over the times it was made; a pass
    # takes the sum of those.  Every time is scaled by the machine's speed
    # during the run, as the probe loop measured it.
    scale = PROBE_NOMINAL_S / statistics.median(raw["probe"])
    typical = [(statistics.median(times) * scale, cells)
               for times, cells in zip(raw["samples"], raw["cells"]) if times]
    if not typical:
        raise RuntimeError("no call of the workload returned")
    lat = answer_latencies(typical, raw["answers_per_cell"])
    pct, tail = tail_percentile(lat)
    raw["pass_s"] = sum(dt for dt, _ in typical)
    raw["speed_scale"] = scale
    raw["tail_percentile"] = pct
    raw["latency_samples"] = len(lat)
    return {
        "codes_per_s": checks(raw, "pass_check").expected / raw["pass_s"],
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_tail_ms": tail * 1000,
        "peak_rss_mb": raw["rss_mb"],
        "ok_frac": 1 - fail_frac,
        "setup_s": statistics.median(raw["setups"]) * PROBE_NOMINAL_S
        / statistics.median(raw["setup_probe"]),
    }


def units(names) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {name: table.get(name, "") for name in names}


def main() -> int:
    ap = argparse.ArgumentParser(description="Run one z2z4 benchmark workload.")
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest inputs, for the self-tests")
    args = ap.parse_args()

    if not (ROOT / "src" / "z2z4" / "__init__.py").is_file():
        print(f"error: no z2z4 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        raw, metrics = measure(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    chk, pass_chk = checks(raw), checks(raw, "pass_check")
    # a known skip lowers ok_frac; any other loss makes the run incorrect
    correct = chk.failed == 0 and raw["identical"]
    info = provenance(args)
    unit = units(metrics)
    print(f"# {info['workload']} seed={info['seed']} commit={info['commit']} "
          f"src={info['src_sha256'][:12]} python={info['python']} nproc={info['nproc']} jobs=1")
    print(f"# calls made per op={raw['calls_made']} first_pass_s={raw['walls'][0]:.3f} "
          f"expected_per_pass={pass_chk.expected} wrong={chk.wrong} missing={chk.missing} "
          f"known_skips_per_pass={pass_chk.skipped} fail_frac={pass_chk.fail_frac:.6f} "
          f"outputs_identical={raw['identical']}")
    if not args.trace:
        print(f"# pass_s={raw['pass_s']:.3f} (sum of per-call medians, scaled) "
              f"speed_scale={raw['speed_scale']:.4f} probe_samples={len(raw['probe'])} "
              f"latency samples (answers) per pass={raw['latency_samples']} "
              f"tail=p{raw['tail_percentile']:.1f}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit[name]}")
    record = {"info": info, "correct": correct, "metrics": metrics, "raw": raw}
    (HERE / "out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": chk.expected,
        "failed": chk.failed,
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
