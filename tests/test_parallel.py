import multiprocessing
import pickle

import pytest

from z2z4 import parallel
from z2z4.cycliccode import enumerate_all_cyclic
from z2z4.errors import DomainError
from z2z4.linimage import gray_linear_criterion
from z2z4.polyring import BinPoly, QuatPoly


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


@pytest.mark.parametrize("jobs", [0, -2])
def test_jobs_below_one_rejected(fake, jobs):
    with pytest.raises(DomainError, match="at least 1"):
        parallel.run_parallel(abs, [-3, 1], jobs)
    assert fake.sizes == []


def test_pool_payloads_survive_pickling(length9_code):
    # the pool pickles its items and results; a value that does not
    # round-trip fails here instead of stalling Pool.map
    report = gray_linear_criterion(length9_code)
    for value in (BinPoly.parse("x^70+x+1"), BinPoly.zero(), QuatPoly.parse("x^3+2x+3"),
                  length9_code, next(enumerate_all_cyclic(3, 3)), report):
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value) and back == value
    assert pickle.loads(pickle.dumps(BinPoly.parse("x^2+1"))).bits == 0b101
