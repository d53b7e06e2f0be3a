import multiprocessing

import pytest

from z2z4 import parallel


class _FakeContext:
    """Stands in for a fork context: records the pool size, maps in-process."""

    def __init__(self):
        self.sizes = []

    def Pool(self, jobs):
        self.sizes.append(jobs)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, worker, items, chunksize=1):
        return [worker(it) for it in items]


@pytest.fixture
def fake(monkeypatch):
    ctx = _FakeContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: ctx)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    return ctx


def test_jobs_clamped_to_cpu_count(fake):
    assert parallel.run_parallel(abs, [-3, 1, -2], 1000) == [3, 1, 2]
    assert fake.sizes == [2]


def test_one_job_or_one_item_runs_in_process(fake):
    assert parallel.run_parallel(abs, [-3, 1], 1) == [3, 1]
    assert parallel.run_parallel(abs, [-3], 8) == [3]
    assert fake.sizes == []


def test_unknown_cpu_count_runs_in_process(fake, monkeypatch):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
    assert parallel.run_parallel(abs, [-3, 1], 4) == [3, 1]
    assert fake.sizes == []
