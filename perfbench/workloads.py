"""The benchmark workloads: inputs from a seed, the calls of one pass, answers.

Every workload is a closed loop with one caller in one process: the next
call into ``z2z4`` starts only after the previous one returned, and every
call uses ``jobs=1``.  A workload is described by:

* ``*_setup(seed, tiny)`` builds the inputs, a list of ``Op``: the calls of
  one pass, in the order the seed gives.  It is the set-up that ``setup_s``
  times.
* ``run_op(op, on_op)`` makes one call and returns the answers it gave,
  filed by cell and keyed by code (or an error string per cell when the call
  raised), with its wall time.  ``on_op`` makes the call, so that the traced
  run can open a root span around it.
* ``check_cells`` / ``check_images`` compare answers with the stored
  reference, outside the timed region.

Only the public ``z2z4`` API is called.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import random
import time

MIXED = ((1, 2, 3, 4), (1, 3, 5, 7))  # alphas, betas
MIXED_TINY = ((1, 2), (1, 3))
Z4_NS = [1, 3, 5, 7, 9, 15]
Z4_TINY = [1, 3, 5]
# (4,15), (3,15) and (2,21) hold codes past the default capacity bound,
# which search_by_type drops; all four cells stay so that the drop shows.
SEARCH_CELLS = [(4, 15), (3, 15), (2, 21), (6, 9)]
SEARCH_TINY = [(6, 9)]
IMAGE_BETAS = (31, 45, 63)
# Image answers are also checked against the enumerated Nechaev-Gray image
# for codes with at most this many words (enumeration is pure Python).
SET_CHECK_LOG2 = 14


def digits(coeffs) -> str:
    return "".join(str(c) for c in coeffs) or "0"


def parse_poly(cls, text: str):
    return cls([int(c) for c in text])


def code_key(alpha, beta, b, ell, f, h, g) -> str:
    """Short stable identifier of a canonical tuple given as coefficient tuples."""
    text = "|".join([str(alpha), str(beta)] + [digits(p) for p in (b, ell, f, h, g)])
    return hashlib.sha1(text.encode()).hexdigest()[:12]


def gens_key(gens) -> str:
    return code_key(
        gens.alpha, gens.beta, gens.b.coeffs, gens.ell.coeffs,
        gens.f.coeffs, gens.h.coeffs, gens.g.coeffs,
    )


def record_digest(record) -> str:
    return hashlib.sha1(repr(dataclasses.astuple(record)).encode()).hexdigest()[:12]


def output_digest(out: dict) -> str:
    """Order-independent digest of a set of answers."""
    flat = sorted(
        (cell, repr(answers) if isinstance(answers, str) else sorted(answers.items()))
        for cell, answers in out.items()
    )
    return hashlib.sha256(repr(flat).encode()).hexdigest()


def _call(fn, *args):
    return fn(*args)


@dataclasses.dataclass
class Op:
    """One call of a pass.

    ``target`` names the function as ``(module, attribute)``; it is looked up
    at call time, so that the traced run sees its wrapper.  ``file`` turns
    what the call returned into ``(cell, code key, answer)`` triples.
    """

    cells: list[str]        # the cells this call answers
    target: tuple[str, str]
    args: tuple
    file: object
    query: object = None    # image-query: the (pool entry, generators) pair


def run_op(op: Op, on_op=_call, clock=time.perf_counter) -> tuple[dict, float | None]:
    """Make one call; return its answers by cell and its time on ``clock``
    (None if it raised).

    A call that raises fails every code of its cells.
    """
    fn = getattr(importlib.import_module(op.target[0]), op.target[1])
    t0 = clock()
    try:
        result = on_op(fn, *op.args)
    except Exception as exc:
        return {name: f"error:{type(exc).__name__}" for name in op.cells}, None
    dt = clock() - t0
    out = {name: {} for name in op.cells}
    for cell, key, answer in op.file(result):
        answers = out.setdefault(cell, {})
        # a code listed twice is a wrong answer, not a second right one
        answers[key] = "duplicate" if key in answers else answer
    return out, dt


def run_pass(ops: list[Op], on_op=_call) -> dict:
    """Every call of one pass, in order; return all answers by cell."""
    out = {}
    for op in ops:
        out.update(run_op(op, on_op)[0])
    return out


def _filer(cell_of, key_of, ok):
    return lambda items: ((cell_of(it), key_of(it), ok(it)) for it in items)


# ----------------------------------------------------------------------
# mixed-sweep: one run_mixed_sweep(jobs=1) call over alpha in 1..4 and
# beta in {1,3,5,7}; the seed orders both lists

MIXED_FLAGS = (
    "size_ok", "cyclic_ok", "oracle_modes_agree", "image_check_agrees",
    "order_two_ok", "three_gen_ok", "punctures_ok",
)


def mixed_setup(seed: int, tiny: bool) -> list[Op]:
    import z2z4.reproduce  # noqa: F401  (the import is part of set-up)

    rng = random.Random(seed)
    alphas, betas = (list(xs) for xs in (MIXED_TINY if tiny else MIXED))
    rng.shuffle(alphas)
    rng.shuffle(betas)
    file = _filer(
        lambda rec: f"{rec.alpha},{rec.beta}",
        lambda rec: code_key(rec.alpha, rec.beta, rec.b, rec.ell, rec.f, rec.h, rec.g),
        lambda rec: record_digest(rec) if _mixed_ok(rec) else "flag-false",
    )
    cells = [f"{a},{b}" for a in alphas for b in betas]
    return [Op(cells, ("z2z4.reproduce", "run_mixed_sweep"), (tuple(alphas), tuple(betas), 1), file)]


def _mixed_ok(rec) -> bool:
    if not all(getattr(rec, name) for name in MIXED_FLAGS):
        return False
    if rec.criterion_linear != rec.oracle_linear or rec.type_formula != rec.type_standard:
        return False
    return rec.psi_double_cyclic is not False and rec.psi_span_ok is not False


# ----------------------------------------------------------------------
# z4-sweep: one run_z4_sweep(jobs=1) call over every length n; the seed
# orders the lengths


def z4_setup(seed: int, tiny: bool) -> list[Op]:
    import z2z4.reproduce  # noqa: F401

    ns = list(Z4_TINY if tiny else Z4_NS)
    random.Random(seed).shuffle(ns)
    file = _filer(
        lambda rec: str(rec.n),
        lambda rec: code_key(0, rec.n, (), (), rec.f, rec.h, rec.g),
        lambda rec: record_digest(rec) if rec.criterion_linear == rec.oracle_linear else "disagree",
    )
    return [Op([str(n) for n in ns], ("z2z4.reproduce", "run_z4_sweep"), (tuple(ns), 1), file)]


# ----------------------------------------------------------------------
# search: one search_by_type call per cell, no type filter, criterion only


def search_setup(seed: int, tiny: bool) -> list[Op]:
    import z2z4.linimage  # noqa: F401

    cells = list(SEARCH_TINY if tiny else SEARCH_CELLS)
    random.Random(seed).shuffle(cells)
    file = _filer(
        lambda item: f"{item[0].alpha},{item[0].beta}",
        lambda item: gens_key(item[0]), lambda item: str(int(item[1].verdict)),
    )
    return [Op([f"{a},{b}"], ("z2z4.linimage", "search_by_type"), (a, b), file) for a, b in cells]


# ----------------------------------------------------------------------
# image-query: one psi_image_generators call per pool code, in seed order;
# each query is a cell of its own, named by its code key


def image_setup(seed: int, tiny: bool, pool: list[dict]) -> list[Op]:
    from z2z4.cycliccode import CyclicGenerators
    from z2z4.polyring import BinPoly, QuatPoly

    rng = random.Random(seed)
    entries = [e for e in pool if e["beta"] in IMAGE_BETAS]
    if tiny:
        entries = rng.sample([e for e in entries if e["beta"] == IMAGE_BETAS[0]], 1)
    rng.shuffle(entries)
    ops = []
    for e in entries:
        gens = CyclicGenerators(
            e["alpha"], e["beta"], parse_poly(BinPoly, e["b"]), parse_poly(BinPoly, e["ell"]),
            parse_poly(QuatPoly, e["f"]), parse_poly(QuatPoly, e["h"]), parse_poly(QuatPoly, e["g"]),
        )
        key = gens_key(gens)
        ops.append(Op([key], ("z2z4.linimage", "psi_image_generators"), (gens,),
                      lambda dcg, key=key: [(key, key, image_answer(dcg))], (e, gens)))
    return ops


def image_answer(dcg) -> str:
    return "/".join([str(dcg.r), str(dcg.s), digits(dcg.b.coeffs),
                     digits(dcg.ellp.coeffs), digits(dcg.a.coeffs)])


def image_set_check(gens, answer: str) -> bool:
    """The answer's double-cyclic span equals the enumerated Nechaev-Gray image."""
    from z2z4.cycliccode import enumerate_code
    from z2z4.linimage import DoubleCyclicGenerators, double_cyclic_span, ext_psi_image
    from z2z4.polyring import BinPoly

    r, s, b, ellp, a = answer.split("/")
    dcg = DoubleCyclicGenerators(
        int(r), int(s), parse_poly(BinPoly, b), parse_poly(BinPoly, ellp), parse_poly(BinPoly, a)
    )
    return double_cyclic_span(dcg).words == ext_psi_image(enumerate_code(gens)).words


# ----------------------------------------------------------------------
# checks against the stored reference


@dataclasses.dataclass
class CheckResult:
    expected: int = 0   # answers the reference says the pass must give
    wrong: int = 0      # answers that disagree, raised, or were not asked for
    missing: int = 0    # expected answers the program did not give, other than:
    skipped: int = 0    # codes search_by_type dropped at the reference commit

    def add(self, other: "CheckResult", times: int = 1) -> None:
        self.expected += times * other.expected
        self.wrong += times * other.wrong
        self.missing += times * other.missing
        self.skipped += times * other.skipped

    @property
    def failed(self) -> int:
        """Answers that make the run incorrect: every loss but the known skips."""
        return self.wrong + self.missing

    @property
    def fail_frac(self) -> float:
        return (self.wrong + self.missing + self.skipped) / self.expected


def check_cells(out: dict, reference: dict) -> CheckResult:
    """Compare each cell's answers, keyed by code, with the reference answers.

    A cell whose call raised fails every code the reference lists for it.  A
    missing code is a known skip only if the reference lists it as one.
    Answers for a cell the reference lacks are all wrong.
    """
    res = CheckResult()
    for name, answers in out.items():
        cell = reference["cells"].get(name, {"answers": {}})
        expected = cell["answers"]
        res.expected += len(expected)
        if isinstance(answers, str):
            res.wrong += len(expected)
            continue
        right = sum(1 for key, ans in answers.items() if expected.get(key) == ans)
        res.wrong += len(answers) - right
        known = set(cell.get("skipped", ()))
        for key in expected:
            if key not in answers:
                if key in known:
                    res.skipped += 1
                else:
                    res.missing += 1
    return res


def check_images(queries, out: dict, set_check: bool = True) -> CheckResult:
    """Compare the answer to each ``(pool entry, generators)`` query with the pool's."""
    res = CheckResult(expected=len(queries))
    for entry, gens in queries:
        key = gens_key(gens)
        answers = out.get(key, {})
        ans = None if isinstance(answers, str) else answers.get(key)
        if isinstance(answers, str) or (ans is not None and ans != entry["answer"]):
            res.wrong += 1
        elif ans is None:
            res.missing += 1
        elif set_check and entry["size_log2"] <= SET_CHECK_LOG2 and not image_set_check(gens, ans):
            res.wrong += 1
    return res


WORKLOADS = ("mixed-sweep", "z4-sweep", "search", "image-query")
