#!/usr/bin/env python3
"""Digests of the outputs a change that keeps behaviour must keep.

Prints one line per gated output: its exit status, the sha256 of its exact
stdout bytes with every "elapsed_s" line removed, and its label.  The
gated outputs are ``search --json`` at six cells, four filtered searches
(``--linear-only`` at two cells, ``--type`` at two), ``reproduce --json``
(full and ``--quick``), ``factor --json`` over both rings for every odd
n <= 255, the census script's default output, the ``run_z4_sweep()``
and ``run_mixed_sweep()`` records (the latter over the full grid), ``image --json`` and ``linearity --json`` on each code of the
benchmark's image pool, in pool order (the latter prints each code's
g~ (x) g~ as ``tensor_poly``), and ``analyze --json`` on the two worked matrices of
``z2z4.reproduce`` and on ``shift_witness_matrix(8)``, a non-cyclic code of
2^16 words whose shift witness is searched for among all its codewords.
Run it at two commits and compare the listings with ``diff``:

    PYTHONPATH=src python3 scripts/output_digest.py > before.txt

The lines of the current outputs are checked in as
``tests/data/output_digest.txt``, under a first line naming the Python
that printed them, and ``tests/test_scripts.py`` compares against them.
A change that alters an output on purpose rewrites that file:

    (echo "# Python $(python3 -c 'import platform; print(platform.python_version())')"
     PYTHONPATH=src python3 scripts/output_digest.py) > tests/data/output_digest.txt
"""

import contextlib
import hashlib
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path

from z2z4.additive import GeneratorMatrix, MixedVector
from z2z4.cli import main as cli_main
from z2z4.cyclofield import MAX_MODULUS
from z2z4.reproduce import (
    cyclic_projections_matrix,
    nonlinear_image_matrix,
    run_mixed_sweep,
    run_z4_sweep,
)

SEARCH_CELLS = [(4, 15), (3, 15), (2, 21), (6, 9), (12, 9), (2, 45)]
FILTERED_SEARCHES = [
    (4, 15, ["--linear-only"]), (12, 9, ["--linear-only"]),
    (4, 15, ["--type", "8,4,4"]), (6, 9, ["--type", "4,6"]),
]
CENSUS = Path(__file__).resolve().parent / "linear_image_census.py"
IMAGE_POOL = Path(__file__).resolve().parent.parent / "perfbench" / "image_pool.json"


def digest(text: str) -> str:
    """sha256 of the UTF-8 bytes of text without its "elapsed_s" lines."""
    kept = (line for line in text.splitlines(keepends=True) if '"elapsed_s"' not in line)
    return hashlib.sha256("".join(kept).encode()).hexdigest()


def cli_output(argv: list[str]) -> tuple[int, str]:
    """Exit status and stdout of ``z2z4 argv``, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli_main(argv)
    return status, out.getvalue()


def census_output() -> tuple[int, str]:
    """Exit status and stdout of the census script with its default cells."""
    out = io.StringIO()
    argv, sys.argv = sys.argv, [str(CENSUS)]
    try:
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(CENSUS), run_name="__main__")
    finally:
        sys.argv = argv
    return 0, out.getvalue()


def pool_outputs(command: str) -> tuple[int, str]:
    """Largest exit status and joined stdout of ``command --json`` on each
    code of the image pool, in pool order."""
    statuses, texts = [], []
    for e in json.loads(IMAGE_POOL.read_text()):
        code = {"alpha": e["alpha"], "beta": e["beta"]}
        code.update((k, [int(c) for c in e[k]]) for k in ("b", "ell", "f", "h", "g"))
        status, text = cli_output([command, "--code", json.dumps(code), "--json"])
        statuses.append(status)
        texts.append(text)
    return max(statuses), "".join(texts)


def analyze_output(matrix) -> tuple[int, str]:
    """Exit status and stdout of ``analyze --json`` on ``matrix``, read
    from a temporary JSON file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "matrix.json"
        path.write_text(json.dumps(matrix.to_json()))
        return cli_output(["analyze", "--matrix", str(path), "--json"])


def shift_witness_matrix(beta: int) -> GeneratorMatrix:
    """(1 0 | e_0), (0 1 | e_1) and (0 0 | e_i) for i = 2 .. beta-1: a code of
    4^beta words, one per quaternary block, and not cyclic: its shift
    witness is (0,0 | 0,...,0,1)."""
    def e(i):
        return tuple(int(j == i) for j in range(beta))
    rows = [MixedVector((1, 0), e(0)), MixedVector((0, 1), e(1))]
    return GeneratorMatrix(2, beta, tuple(rows + [MixedVector((0, 0), e(i)) for i in range(2, beta)]))


def gated_outputs():
    """(label, thunk) for every gated output; a thunk returns (status, stdout)."""
    for alpha, beta in SEARCH_CELLS:
        argv = ["search", "--alpha", str(alpha), "--beta", str(beta), "--json"]
        yield " ".join(argv), lambda argv=argv: cli_output(argv)
    for alpha, beta, flags in FILTERED_SEARCHES:
        argv = ["search", "--alpha", str(alpha), "--beta", str(beta), *flags, "--json"]
        yield " ".join(argv), lambda argv=argv: cli_output(argv)
    for argv in (["reproduce", "--json"], ["reproduce", "--quick", "--json"]):
        yield " ".join(argv), lambda argv=argv: cli_output(argv)
    for n in range(1, MAX_MODULUS + 1, 2):
        for ring in ("z2", "z4"):
            argv = ["factor", "--n", str(n), "--ring", ring, "--json"]
            yield " ".join(argv), lambda argv=argv: cli_output(argv)
    yield "linear_image_census.py", census_output
    yield "run_z4_sweep()", lambda: (0, "".join(f"{r!r}\n" for r in run_z4_sweep()))
    yield "run_mixed_sweep()", lambda: (0, "".join(f"{r!r}\n" for r in run_mixed_sweep()))
    for command in ("image", "linearity"):
        yield f"{command} --json on perfbench/image_pool.json", lambda c=command: pool_outputs(c)
    for make in (cyclic_projections_matrix, nonlinear_image_matrix):
        yield f"analyze --json on {make.__name__}()", lambda make=make: analyze_output(make())
    yield "analyze --json on shift_witness_matrix(8)", lambda: analyze_output(shift_witness_matrix(8))


def digest_lines():
    """One "<status> <sha256> <label>" line per gated output, in order."""
    for label, thunk in gated_outputs():
        status, text = thunk()
        yield f"{status} {digest(text)} {label}"


def main() -> None:
    for line in digest_lines():
        print(line, flush=True)


if __name__ == "__main__":
    main()
