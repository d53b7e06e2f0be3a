import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "scripts" / "bench_trajectory.py"


def trajectory(*argv):
    out = subprocess.run(
        [sys.executable, str(TRAJECTORY), *argv], capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()


class TestBenchTrajectory:
    def test_every_bench_summary_is_listed(self):
        lines = trajectory()
        for path in ROOT.glob("BENCH_*.json"):
            bench = json.loads(path.read_text())
            for name, entry in bench.items():
                if isinstance(entry, dict) and "codes_per_s" in entry.get("summary", {}):
                    row = [ln.split() for ln in lines if ln.split()[:1] == [path.name]]
                    assert any(r[2] == name for r in row), (path.name, name)
        assert lines[-1].startswith("skipped")

    def test_both_summary_shapes_and_a_skipped_file(self, tmp_path):
        (tmp_path / "BENCH_1.json").write_text(json.dumps({
            "search": {"summary": {"codes_per_s": {"parent_median": 10.0, "change_median": 20.0}}},
        }))
        (tmp_path / "BENCH_2.json").write_text(json.dumps({
            "search": {"summary": {"codes_per_s": {
                "parent_q1_median_q3": [1.0, 30.0, 40.0], "change_q1_median_q3": [1.0, 15.0, 40.0],
            }}},
        }))
        (tmp_path / "BENCH_3.json").write_text(json.dumps({"what": "no workload summary"}))
        lines = trajectory("--dir", str(tmp_path))
        assert lines[1].split() == ["BENCH_1.json", "search", "10.0", "20.0", "2.00"]
        assert lines[2].split() == ["BENCH_2.json", "search", "30.0", "15.0", "0.50"]
        assert lines[-1] == "skipped (no codes_per_s summary): BENCH_3.json"

    def test_peak_rss_beside_the_rate_in_every_shape(self, tmp_path):
        (tmp_path / "BENCH_1.json").write_text(json.dumps({
            "search": {"summary": {
                "codes_per_s": {"parent_median": 10.0, "change_median": 20.0},
                "peak_rss_mb": {"parent_median": 25.5, "change_median": 25.25},
            }},
        }))
        (tmp_path / "BENCH_2.json").write_text(json.dumps({
            "search": {"summary": {
                "codes_per_s": {"parent_q1_median_q3": [1.0, 30.0, 40.0],
                                "change_q1_median_q3": [1.0, 15.0, 40.0]},
                "peak_rss_mb": {"parent_q1_median_q3": [1.0, 24.0, 40.0],
                                "change_q1_median_q3": [1.0, 26.25, 40.0]},
            }},
        }))
        (tmp_path / "BENCH_3.json").write_text(json.dumps({
            "image_query": {"summary": {
                "codes_per_s": {"parent": {"median": 4.0}, "change": {"median": 8.0}},
                "peak_rss_mb": {"parent": {"median": 22.75}, "change": {"median": 24.3}},
            }},
            "search": {"summary": {"peak_rss_mb": {"parent_median": 1.0, "change_median": 2.0}}},
        }))
        lines = trajectory("--dir", str(tmp_path))
        assert lines[0].split()[-4:] == ["parent", "MB", "change", "MB"]
        assert lines[1].split() == ["BENCH_1.json", "search", "10.0", "20.0", "2.00", "25.50", "25.25"]
        assert lines[2].split() == ["BENCH_2.json", "search", "30.0", "15.0", "0.50", "24.00", "26.25"]
        assert lines[3].split() == ["BENCH_3.json", "image_query", "4.0", "8.0", "2.00", "22.75", "24.30"]
        assert lines[-1] == "skipped (no codes_per_s summary): none"

    def test_peak_rss_of_the_repo_files(self):
        lines = [ln.split() for ln in trajectory()]
        for path in ROOT.glob("BENCH_*.json"):
            bench = json.loads(path.read_text())
            for name, entry in bench.items():
                summary = entry.get("summary", {}) if isinstance(entry, dict) else {}
                if "codes_per_s" not in summary:
                    continue
                (row,) = [r for r in lines if r[:1] == [path.name] and r[2] == name]
                assert len(row) == (8 if "peak_rss_mb" in summary else 6), row
