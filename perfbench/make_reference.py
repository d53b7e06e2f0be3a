#!/usr/bin/env python3
"""Write the answers every workload is checked against.

Run once, on the commit whose answers are the reference:

    python3 perfbench/make_reference.py

``reference.json`` holds, per cell of each workload, the number of codes
and a short key and answer for each of them; ``image_pool.json`` holds the
codes image-query queries, each with its answer:

* ``mixed-sweep`` and ``z4-sweep``: a digest of each sweep record;
* ``search``: the gcd-criterion verdict of every valid canonical tuple,
  from an enumeration with no capacity bound, so codes that
  ``search_by_type`` drops stay in the reference, and the keys of the
  codes it dropped (``skipped``), the only codes it may leave out;
* ``image-query``: a pool of canonical codes with linear Gray image,
  ``b != 1`` (degree at least 2) and ``ell != 0``, drawn with a fixed seed,
  with the generator pair ``psi_image_generators`` returns for each.
"""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

POOL_PER_BETA = 24
POOL_SEED = 1707


def _cells(ops):
    out = wl.run_pass(ops)
    cells = {}
    for name in sorted(out):
        answers = out[name]
        bad = [k for k, v in answers.items() if v.startswith(("error:", "flag-false", "disagree", "duplicate"))]
        if bad:
            raise SystemExit(f"cell {name}: {len(bad)} records fail their own checks")
        cells[name] = {"count": len(answers), "answers": dict(sorted(answers.items()))}
    return cells


def search_cells():
    from z2z4.cycliccode import enumerate_all_cyclic
    from z2z4.linimage import gray_linear_criterion

    out = wl.run_pass(wl.search_setup(0, tiny=False))
    cells = {}
    for alpha, beta in wl.SEARCH_CELLS:
        name = f"{alpha},{beta}"
        answers = {}
        for gens in enumerate_all_cyclic(alpha, beta, capacity=1 << 62):
            answers[wl.gens_key(gens)] = str(int(gray_linear_criterion(gens).verdict))
        listed = out[name]
        if any(answers.get(key) != ans for key, ans in listed.items()):
            raise SystemExit(f"cell {name}: search_by_type disagrees with the enumeration")
        cells[name] = {
            "count": len(answers), "answers": dict(sorted(answers.items())),
            "skipped": sorted(key for key in answers if key not in listed),
        }
    return cells


def image_pool():
    from z2z4.cycliccode import CyclicGenerators, code_type, violations
    from z2z4.cyclofield import divisors_of_xn_minus_1_z2, factor_xn_minus_1_z4
    from z2z4.linimage import gray_linear_criterion, psi_image_generators
    from z2z4.polyring import BinPoly, QuatPoly

    rng = random.Random(POOL_SEED)
    pool = []
    for beta in wl.IMAGE_BETAS:
        factors = factor_xn_minus_1_z4(beta)
        seen = set()
        while len(seen) < POOL_PER_BETA:
            alpha = rng.randint(2, 7)
            b = rng.choice([d for d in divisors_of_xn_minus_1_z2(alpha) if d.degree >= 2])
            parts = [QuatPoly.one()] * 3
            for fac in factors:
                slot = rng.randrange(3)
                parts[slot] = parts[slot] * fac
            f, h, g = parts
            db = int(b.degree)
            ells = [BinPoly([(bits >> i) & 1 for i in range(db)]) for bits in range(1, 1 << db)]
            ells = [ell for ell in ells if not violations(alpha, beta, b, ell, f, h, g)]
            if not ells:
                continue
            gens = CyclicGenerators(alpha, beta, b, rng.choice(ells), f, h, g)
            key = wl.gens_key(gens)
            if key in seen or not gray_linear_criterion(gens).verdict:
                continue
            seen.add(key)
            answer = wl.image_answer(psi_image_generators(gens))
            size_log2 = code_type(gens).size.bit_length() - 1
            if size_log2 <= wl.SET_CHECK_LOG2 and not wl.image_set_check(gens, answer):
                raise SystemExit(f"image of {key} disagrees with its enumeration")
            pool.append({
                "alpha": alpha, "beta": beta,
                "b": wl.digits(gens.b.coeffs), "ell": wl.digits(gens.ell.coeffs),
                "f": wl.digits(f.coeffs), "h": wl.digits(h.coeffs), "g": wl.digits(g.coeffs),
                "size_log2": size_log2, "answer": answer,
            })
    return pool


def main() -> None:
    os.environ.pop("Z2Z4_CAPACITY", None)
    mixed = _cells(wl.mixed_setup(0, tiny=False))
    z4 = _cells(wl.z4_setup(0, tiny=False))
    ref = {
        "mixed-sweep": {"cells": mixed},
        "z4-sweep": {"cells": z4},
        "search": {"cells": search_cells()},
    }
    (HERE / "reference.json").write_text(
        json.dumps(ref, sort_keys=True, separators=(",", ":")) + "\n")
    pool = image_pool()
    (HERE / "image_pool.json").write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n")
    for name, data in ref.items():
        counts = {c: v["count"] for c, v in data["cells"].items()}
        skipped = sum(len(v.get("skipped", ())) for v in data["cells"].values())
        print(name, sum(counts.values()), counts, "skipped", skipped)
    print("image-query pool", len(pool))


if __name__ == "__main__":
    main()
