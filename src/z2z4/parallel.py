"""One process-pool helper for the sweeps of ``reproduce --jobs``."""

from __future__ import annotations

import os

from .errors import DomainError


def run_parallel(worker, items: list, jobs: int) -> list:
    """``[worker(it) for it in items]`` in order, over at most ``jobs`` forked
    processes; ``jobs`` must be at least 1 and is clamped to the number of CPUs."""
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, not {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or len(items) < 2:
        return [worker(it) for it in items]
    # imported here: multiprocessing costs a serial caller about a megabyte
    from multiprocessing import get_context

    chunk = max(1, len(items) // (jobs * 8))
    with get_context("fork").Pool(jobs) as pool:
        return pool.map(worker, items, chunksize=chunk)
