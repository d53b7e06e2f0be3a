"""The mixed sweep against its no-sharing oracle, and the scope of its caches.

``run_mixed_sweep`` shares each factor triple's polynomials
(``cycliccode._triple_forms``) and each puncture identity
(``reproduce._projection_matches``) among the codes of one call, and
empties both caches when the call returns.  ``tests/sweep_oracle.py``
recomputes everything for every code.
"""

import pytest

import sweep_oracle
from z2z4 import cycliccode, polyring, reproduce
from z2z4.additive import Code
from z2z4.cycliccode import TRIPLE_CACHE_SIZE, _triple_forms
from z2z4.reproduce import (
    FULL_BETAS,
    PROJECTION_CACHE_SIZE,
    _projection_matches,
    mixed_candidates,
    run_mixed_sweep,
)

CACHES = (_triple_forms, _projection_matches)


@pytest.fixture(scope="module")
def full_grid_oracle():
    return [sweep_oracle.check_candidate(gens) for gens in mixed_candidates()]


class TestSweepOracle:
    def test_full_grid(self, full_grid_oracle):
        assert run_mixed_sweep() == full_grid_oracle

    def test_alpha_5_and_6(self):
        # each triple repeats over more b than on the full grid
        alphas = (5, 6)
        want = [sweep_oracle.check_candidate(g) for g in mixed_candidates(alphas, FULL_BETAS)]
        assert run_mixed_sweep(alphas, FULL_BETAS) == want

    def test_full_grid_two_jobs(self, full_grid_oracle):
        assert run_mixed_sweep(jobs=2) == full_grid_oracle


def _count_calls(monkeypatch) -> dict[str, int]:
    """Count the ``gf2_bezout`` calls, in every module that holds it, and the
    codes built by ``Code.span``."""
    calls = {"gf2_bezout": 0, "Code.span": 0}
    real_bezout, real_span = polyring.gf2_bezout, Code.span.__func__

    def bezout(h, g):
        calls["gf2_bezout"] += 1
        return real_bezout(h, g)

    def span(cls, codec, gens):
        calls["Code.span"] += 1
        return real_span(cls, codec, gens)

    for module in (polyring, cycliccode):
        monkeypatch.setattr(module, "gf2_bezout", bezout)
    monkeypatch.setattr(Code, "span", classmethod(span))
    return calls


class TestCacheScope:
    def test_caches_are_bounded(self):
        assert [c.cache_info().maxsize for c in CACHES] == [TRIPLE_CACHE_SIZE, PROJECTION_CACHE_SIZE]

    def test_each_sweep_call_pays_its_own_misses(self, monkeypatch):
        for c in CACHES:  # entries that other callers of check_candidate left
            c.cache_clear()
        calls = _count_calls(monkeypatch)
        counts = []
        for _ in range(2):
            before = dict(calls)
            run_mixed_sweep()
            counts.append({k: calls[k] - before[k] for k in calls})
            assert [c.cache_info().currsize for c in CACHES] == [0, 0]
        triples = {(g.f, g.h, g.g, g.beta) for g in mixed_candidates()}
        assert counts[0] == counts[1]
        assert counts[0]["gf2_bezout"] == len(triples) == 48

    def test_caches_are_emptied_when_a_sweep_raises(self, monkeypatch):
        real, seen = reproduce.check_candidate, []

        def failing(gens):
            seen.append(real(gens))
            if len(seen) == 100:
                raise RuntimeError("stop")
            return seen[-1]

        monkeypatch.setattr(reproduce, "check_candidate", failing)
        with pytest.raises(RuntimeError, match="stop"):
            run_mixed_sweep()
        assert [c.cache_info().currsize for c in CACHES] == [0, 0]
