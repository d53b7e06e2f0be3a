"""Self-tests of the benchmark: tiny runs of every workload and its checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENUMERATION = ("additive.span.calls", "linimage.z4_gray_linear_oracle.calls")
SOLVER = ("linimage.psi_image_generators.calls", "linimage.solve_cyclic_z4_lexmin.calls")


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    return line


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_untraced_smoke_prints_every_end_to_end_metric(workload):
    line = last_json(bench(workload, 0))
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(line["metrics"]) == names
    for m in SPEC["end_to_end"]:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_smoke_prints_every_per_layer_metric(workload):
    line = last_json(bench(workload, 1))
    assert sorted(line["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    result = json.loads((HERE / "out" / f"result-{workload}-seed3-trace1.json").read_text())
    # the traced pass answered exactly as the untraced pass did
    assert result["raw"]["identical"] is True
    assert result["raw"]["missing_targets"] == []
    values = {k: v["value"] for k, v in line["metrics"].items()}
    if workload in ("search", "image-query"):
        assert all(values[k] == 0 for k in ENUMERATION)
    if workload == "search":
        assert all(values[k] == 0 for k in SOLVER)


def _search_cell():
    reference = json.loads((HERE / "reference.json").read_text())["search"]
    return reference, {"6,9": dict(reference["cells"]["6,9"]["answers"])}


def test_corrupted_answer_is_counted_in_fail_frac():
    reference, out = _search_cell()
    key = next(iter(out["6,9"]))
    out["6,9"][key] = "1" if out["6,9"][key] == "0" else "0"
    res = wl.check_cells(out, reference)
    assert (res.expected, res.wrong, res.missing) == (819, 1, 0)
    raw = {"pass_check": vars(res), "layers": {}, "walls": [1.0], "traced_wall": 1.0}
    metrics = run.summarize(SimpleNamespace(trace=1), raw)
    assert metrics["fail_frac"] == pytest.approx(1 / 819)


def test_dropped_code_is_missing_and_a_raising_cell_fails_all():
    reference, out = _search_cell()
    del out["6,9"][next(iter(out["6,9"]))]
    res = wl.check_cells(out, reference)
    assert (res.wrong, res.missing, res.skipped, res.failed) == (0, 1, 0, 1)
    res = wl.check_cells({"6,9": "error:CapacityError"}, reference)
    assert (res.wrong, res.missing, res.failed) == (819, 0, 819)


def test_only_the_reference_skips_may_be_left_out():
    reference = json.loads((HERE / "reference.json").read_text())["search"]
    cell = reference["cells"]["4,15"]
    listed = {k: v for k, v in cell["answers"].items() if k not in cell["skipped"]}
    res = wl.check_cells({"4,15": dict(listed)}, reference)
    assert (res.wrong, res.missing, res.skipped) == (0, 0, 212)
    assert res.failed == 0 and res.fail_frac == pytest.approx(212 / 1863)
    del listed[next(iter(listed))]
    res = wl.check_cells({"4,15": listed}, reference)
    assert (res.missing, res.skipped, res.failed) == (1, 212, 1)


def test_speed_probe_samples_during_calls_and_is_left_out_of_their_time():
    import child

    probe = child.SpeedProbe()
    wall0, clock0 = time.perf_counter(), probe.clock()
    probe.start()
    while time.perf_counter() - wall0 < 2.5:
        sum(range(1000))
    probe.stop()
    assert len(probe.samples) >= 4
    assert probe.spent >= sum(probe.samples)
    wall, clock = time.perf_counter() - wall0, probe.clock() - clock0
    assert wall - clock == pytest.approx(probe.spent, abs=1e-3)


def test_fail_frac_is_per_pass_however_often_each_call_was_made():
    import child

    reference = json.loads((HERE / "reference.json").read_text())
    search = reference["search"]["cells"]
    ops = [wl.Op([name], ("z2z4.linimage", "search_by_type"), (), None) for name in ("6,9", "4,15")]
    calls = child.Calls(ops)
    for i, name in enumerate(("6,9", "4,15")):
        cell = search[name]
        calls.first[i] = {name: {k: v for k, v in cell["answers"].items() if k not in cell["skipped"]}}
    calls.repeats = [5, 1]
    total, per_pass = child.check_calls("search", calls, reference)
    assert per_pass.expected == 819 + 1863 and per_pass.fail_frac == pytest.approx(212 / (819 + 1863))
    assert total.expected == 6 * 819 + 2 * 1863 and total.failed == 0
    calls.differ = [1, 0]
    total, per_pass = child.check_calls("search", calls, reference)
    assert per_pass.wrong == 819 and total.wrong == 819 and total.failed == 819


def _copy_checkout(dest: Path, with_src: bool) -> None:
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)


DROPS = {
    "mixed-sweep": "return _run_parallel(check_candidate, mixed_candidates(alphas, betas), jobs)",
    "z4-sweep": "return _run_parallel(check_z4, z4_candidates(ns), jobs)",
}


@pytest.mark.parametrize("workload", sorted(DROPS))
def test_a_dropped_sweep_code_makes_the_run_incorrect(workload):
    mutant = HERE / "out" / "mutant"
    _copy_checkout(mutant, with_src=True)
    try:
        path = mutant / "src" / "z2z4" / "reproduce.py"
        text = path.read_text()
        body = DROPS[workload]
        assert body in text
        path.write_text(text.replace(body, body + "[1:]"))
        proc = bench(workload, 0, cwd=mutant)
    finally:
        shutil.rmtree(mutant)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] >= 1


def test_corrupted_image_answer_is_wrong():
    pool = json.loads((HERE / "image_pool.json").read_text())
    op = wl.image_setup(5, True, pool)[0]
    entry, gens = op.query
    key = wl.gens_key(gens)
    answer = entry["answer"].split("/")
    answer[3] = "1" if answer[3] != "1" else "0"
    res = wl.check_images([op.query], {key: {key: "/".join(answer)}})
    assert (res.expected, res.wrong, res.missing) == (1, 1, 0)
    res = wl.check_images([op.query], {key: {}})
    assert (res.expected, res.wrong, res.missing) == (1, 0, 1)


def test_image_query_asks_the_whole_pool_in_seed_order():
    pool = json.loads((HERE / "image_pool.json").read_text())
    first, second = ([op.cells[0] for op in wl.image_setup(seed, False, pool)] for seed in (1, 2))
    assert len(first) == len(pool) == 72 and sorted(first) == sorted(second) and first != second


def test_repeated_calls_are_timed_each_and_checked_against_the_first():
    import child

    ops = wl.search_setup(3, tiny=True)
    calls = child.Calls(ops)
    calls.full_pass()
    calls.until(time.perf_counter() + 3)
    assert calls.repeats[0] >= 1 and calls.differ == [0]
    assert len(calls.samples[0]) == 1 + calls.repeats[0]


def test_fails_without_the_program():
    bare = HERE / "out" / "bare"
    _copy_checkout(bare, with_src=False)
    try:
        proc = bench("search", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_tail_percentile_leaves_ten_samples_above():
    pct, value = run.tail_percentile([float(i) for i in range(100)])
    assert (pct, value) == (90.0, 89.0)
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)
