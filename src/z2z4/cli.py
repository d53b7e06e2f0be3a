"""Command-line front end.

Subcommands: factor, gray, analyze, code, linearity, image, search,
reproduce.  ``--json`` switches any of them to machine output with a
stable schema; identical inputs produce byte-identical output except for
the elapsed-time field.  Exit codes: 0 ok, 1 error, 2 precondition
failure.  The Z2Z4_CAPACITY environment variable overrides the bound on
the codewords a command lists; it is checked when the command starts.
A code's size, type (read off its echelon), cyclicity, punctures and the
``generators`` Gray-image closure, which ``analyze`` runs on the code and
on its quaternary projection, need no codeword, so ``analyze`` answers
past the bound, except for a shift witness, which is a listed codeword.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
import time

from . import __version__
from .additive import (
    Code,
    GeneratorMatrix,
    MixedVector,
    WordCodec,
    _as_bits,
    _as_quat,
    gray_is_linear_oracle,
    parse_ints,
    resolve_capacity,
)
from .cyclofield import factor_xn_minus_1_z2, factor_xn_minus_1_z4
from .cycliccode import (
    CyclicGenerators,
    code_type,
    enumerate_code,
    order_two_generators,
    three_generator_form,
    violations,
)
from .errors import DomainError, PreconditionError, Z2Z4Error
from .linimage import (
    double_cyclic_span,
    gray_linear_criterion,
    is_double_cyclic,
    psi_image_generators,
    search_by_type,
)
from .polyring import BinPoly, QuatPoly
from .reproduce import run_checks


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no option starts with a digit, so a vector such as "-1,2" is an
        # argument, whose entries are then range-checked
        self._negative_number_matcher = re.compile(r"^-\d")

    # argparse exits with status 2 on usage errors, which this tool
    # reserves for precondition failures; route through DomainError instead
    def error(self, message):
        raise DomainError(message)


def _emit(args, report: dict, text: str) -> None:
    if args.json:
        report["version"] = __version__
        report["elapsed_s"] = time.time() - args._t0
        text = json.dumps(report, indent=2)
    print(text, flush=True)  # a closed stdout fails here, not at exit


def _parse_vector_csv(text: str) -> tuple[int, ...]:
    return parse_ints(t for t in text.split(",") if t.strip() != "")


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path!r}: {exc}") from exc


def _load_code_spec(arg: str) -> CyclicGenerators:
    raw = arg if arg.lstrip().startswith("{") else _read_file(arg)
    try:
        obj = json.loads(raw)
    except ValueError as exc:
        raise DomainError(f"bad code JSON: {exc}") from exc
    return CyclicGenerators.from_json(obj)


def _load_matrix(path: str) -> GeneratorMatrix:
    raw = _read_file(path)
    if raw.lstrip().startswith("{"):
        try:
            obj = json.loads(raw)
        except ValueError as exc:
            raise DomainError(f"bad matrix JSON: {exc}") from exc
        return GeneratorMatrix.from_json(obj)
    return GeneratorMatrix.from_text(raw)


# ----------------------------------------------------------------------
# subcommands


def cmd_factor(args) -> int:
    ring = args.ring
    if ring == "z2":
        factors = factor_xn_minus_1_z2(args.n)
    else:
        factors = factor_xn_minus_1_z4(args.n)
    report = {
        "command": "factor",
        "inputs": {"n": args.n, "ring": ring},
        "factors": [list(p.coeffs) for p in factors],
    }
    _emit(args, report, "\n".join(str(p) for p in factors))
    return 0


def cmd_gray(args) -> int:
    """Gray map (phi, Phi) or Nechaev-Gray map (psi, Psi), or the inverse.

    phi and psi take a quaternary vector, Phi and Psi a mixed one whose
    binary block passes through; an inverse takes bits, of which the first
    --alpha form that block.  The input is checked here, then packed and
    mapped by the ``WordCodec`` word maps.
    """
    name = args.map
    vec = args.vector
    psi = name in ("psi", "Psi")
    extended = name in ("Phi", "Psi")
    if args.inv:
        bits = _parse_vector_csv(vec)
        alpha = 0
        if extended:
            alpha = args.alpha
            if alpha is None:
                raise DomainError("--alpha is required to invert an extended map")
            if not 0 <= alpha <= len(bits):
                raise DomainError(f"--alpha {alpha} is outside 0..{len(bits)}, the vector length")
        bits = _as_bits(bits)
        if (len(bits) - alpha) % 2:
            raise DomainError(f"{'Nechaev-' if psi else ''}Gray preimage needs an even-length vector")
        codec = WordCodec(alpha, (len(bits) - alpha) // 2)
        word = sum(c << i for i, c in enumerate(bits))
        word_map = codec.psi_inv_words if psi else codec.gray_inv_words
    else:
        if extended:
            mv = MixedVector.parse(vec, alpha=args.alpha, beta=args.beta)
        else:
            mv = MixedVector((), _as_quat(_parse_vector_csv(vec)))
        codec = WordCodec(mv.alpha, mv.beta)
        word = codec.pack(mv)
        word_map = codec.psi_words if psi else codec.gray_words
    if psi and codec.beta % 2 == 0:
        raise DomainError("the permutation is defined for odd n only")
    (word,) = word_map([word])
    if not args.inv:
        result = [(word >> i) & 1 for i in range(codec.alpha + 2 * codec.beta)]
        text = ",".join(map(str, result))
    elif extended:
        mv = codec.unpack(word)
        text, result = str(mv), {"bin": list(mv.bin), "quat": list(mv.quat)}
    else:
        quat = codec.unpack(word).quat
        text, result = ",".join(map(str, quat)), list(quat)
    report = {
        "command": "gray",
        "inputs": {"map": name, "inv": bool(args.inv), "vector": vec},
        "result": result,
    }
    _emit(args, report, text)
    return 0


def cmd_analyze(args) -> int:
    matrix = _load_matrix(args.matrix)
    code = Code.from_matrix(matrix)
    ctype = code.code_type
    cyclic = code.is_cyclic()
    witness = None if cyclic else code.cyclic_witness()
    oracle = gray_is_linear_oracle(code, mode="generators")
    quat_oracle = gray_is_linear_oracle(code.puncture_y(), mode="generators")
    separable = code.is_separable()
    report = {
        "command": "analyze",
        "inputs": {"matrix": matrix.to_json()},
        "type": {
            "alpha": ctype.alpha,
            "beta": ctype.beta,
            "gamma": ctype.gamma,
            "delta": ctype.delta,
            "kappa": ctype.kappa,
        },
        "size": code.size,
        "cyclic": cyclic,
        "shift_witness": [str(w) for w in witness] if witness else None,
        "separable": separable,
        "gray_image_linear": oracle.linear,
        "gray_witness": [str(w) for w in oracle.witness] if oracle.witness else None,
        "quaternary_image_linear": quat_oracle.linear,
    }
    lines = [
        f"type: {ctype}",
        f"|C| = {code.size}",
        f"cyclic: {'yes' if cyclic else 'no'}"
        + (f"   witness: {witness[0]} -> {witness[1]} not in code" if witness else ""),
        f"separable: {'yes' if separable else 'no'}",
        f"extended Gray image linear: {'yes' if oracle.linear else 'no'}"
        + (
            f"   witness: 2*({oracle.witness[0]})*({oracle.witness[1]}) = {oracle.witness[2]} not in code"
            if oracle.witness
            else ""
        ),
        f"quaternary Gray image linear: {'yes' if quat_oracle.linear else 'no'}",
    ]
    _emit(args, report, "\n".join(lines))
    return 0


def cmd_code(args) -> int:
    polys = (
        BinPoly.parse(args.b, args.alpha),
        BinPoly.parse(args.ell, args.alpha) if args.ell is not None else BinPoly.zero(),
        QuatPoly.parse(args.f, args.beta),
        QuatPoly.parse(args.h, args.beta),
        QuatPoly.parse(args.g, args.beta),
    )
    try:
        gens = CyclicGenerators(args.alpha, args.beta, *polys)
    except DomainError:
        # report every violated condition; a bad length alone re-raises
        errs = violations(args.alpha, args.beta, *polys)
        if not errs:
            raise
        report = {"command": "code", "valid": False, "violations": errs}
        _emit(args, report, "invalid generator data:\n  " + "\n  ".join(errs))
        raise DomainError("generator data violates the canonical form") from None
    ct = code_type(gens)
    w1, w2 = order_two_generators(gens)
    t1, t2, t3 = three_generator_form(gens)
    report = {
        "command": "code",
        "inputs": gens.to_json(),
        "valid": True,
        "type": {
            "gamma": ct.gamma,
            "delta": ct.delta,
            "kappa": ct.kappa,
            "kappa1": ct.kappa1,
            "kappa2": ct.kappa2,
            "delta1": ct.delta1,
            "delta2": ct.delta2,
        },
        "size": ct.size,
        "order_two_generators": [str(w1), str(w2)],
        "three_generator_form": [str(t1), str(t2), str(t3)],
    }
    lines = [
        "valid: yes",
        f"type: {ct}  (kappa1={ct.kappa1}, kappa2={ct.kappa2}, delta1={ct.delta1}, delta2={ct.delta2})",
        f"|C| = {ct.size}",
        f"order-two subcode generators: {w1}, {w2}",
        f"three-generator form: {t1}, {t2}, {t3}",
    ]
    _emit(args, report, "\n".join(lines))
    return 0


def cmd_linearity(args) -> int:
    gens = _load_code_spec(args.code)
    rep = gray_linear_criterion(gens)
    report = {
        "command": "linearity",
        "inputs": gens.to_json(),
        "report": rep.to_json(),
    }
    lines = [
        f"criterion polynomial f~*b/gcd(b, ell*g~): {rep.criterion_poly_a}",
        f"root-product polynomial of g~: {rep.tensor_poly}",
        f"gcd: {rep.gcd_value}",
        f"extended Gray image linear: {'yes' if rep.verdict else 'no'}",
    ]
    if args.oracle:
        oracle = gray_is_linear_oracle(enumerate_code(gens))
        report["report"]["oracle_linear"] = oracle.linear
        if oracle.witness is not None:
            report["report"]["witness"] = [str(v) for v in oracle.witness]
        lines.append(f"oracle agrees: {'yes' if oracle.linear == rep.verdict else 'NO'}")
    _emit(args, report, "\n".join(lines))
    return 0


def cmd_image(args) -> int:
    gens = _load_code_spec(args.code)
    dcg = psi_image_generators(gens)
    report = {
        "command": "image",
        "inputs": gens.to_json(),
        "map": "Psi",
        "generators": dcg.to_json(),
    }
    lines = [
        f"blocks: r = {dcg.r}, s = {dcg.s}",
        f"generators: ({dcg.b} | 0), ({dcg.ellp} | {dcg.a})",
    ]
    if args.dump:
        span = double_cyclic_span(dcg)
        words = ["".join(map(str, t)) for t in span.to_tuples()]
        report["words"] = words
        report["double_cyclic"] = is_double_cyclic(span)
        lines.append(f"|image| = {len(words)}")
        lines.extend(words)
    _emit(args, report, "\n".join(lines))
    return 0


def cmd_search(args) -> int:
    gamma = delta = kappa = None
    if args.type:
        parts = [p.strip() for p in args.type.split(",")]
        if len(parts) not in (2, 3):
            raise DomainError("--type expects gamma,delta or gamma,delta,kappa")
        gamma, delta, *rest = parse_ints(parts)
        kappa = rest[0] if rest else None
    results = search_by_type(
        args.alpha, args.beta, gamma, delta, kappa, linear_only=args.linear_only
    )
    # JSON rows under --json, text lines without it
    rows, lines = [], [f"{len(results)} codes"]
    for gens, rep in results:
        ct = code_type(gens)
        if args.json:
            rows.append({
                **{k: list(getattr(gens, k).coeffs) for k in ("b", "ell", "f", "h", "g")},
                "type": [ct.gamma, ct.delta, ct.kappa],
                "linear": rep.verdict,
            })
        else:
            lines.append(
                f"b={gens.b}  ell={gens.ell}  f={gens.f}  h={gens.h}  g={gens.g}"
                f"  type=({ct.gamma},{ct.delta},{ct.kappa})  linear={'yes' if rep.verdict else 'no'}"
            )
    report = {
        "command": "search",
        "inputs": {
            "alpha": args.alpha,
            "beta": args.beta,
            "type": args.type,
            "linear_only": bool(args.linear_only),
        },
        "count": len(results),
        "results": rows,
    }
    _emit(args, report, "\n".join(lines))
    return 0


def cmd_reproduce(args) -> int:
    checks = run_checks(quick=args.quick, jobs=args.jobs)
    all_passed = all(c.passed for c in checks)
    report = {
        "command": "reproduce",
        "inputs": {"quick": bool(args.quick)},
        "checks": [c.to_json() for c in checks],
        "all_passed": all_passed,
    }
    width = max(len(c.name) for c in checks)
    lines = [
        f"[{'ok' if c.passed else 'FAIL'}] {c.name.ljust(width)}  {json.dumps(c.details, sort_keys=True)}"
        for c in checks
    ]
    lines.append("all checks passed" if all_passed else "SOME CHECKS FAILED")
    _emit(args, report, "\n".join(lines))
    return 0 if all_passed else 1


# ----------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="z2z4", description=__doc__)
    parser.add_argument("--version", action="version", version=f"z2z4 {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("factor", help="factor x^n-1 over Z2 or Z4 (n odd)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ring", choices=("z2", "z4"), required=True)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("gray", help="apply a Gray-type map or its inverse")
    p.add_argument("--map", choices=("phi", "psi", "Phi", "Psi"), required=True)
    p.add_argument("--inv", action="store_true")
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--beta", type=int, default=None)
    p.add_argument("vector", help="csv digits, or 'bits|quats' for extended maps")
    p.set_defaults(func=cmd_gray)

    p = sub.add_parser("analyze", help="analyze a generator matrix file")
    p.add_argument("--matrix", required=True, help="JSON or text-grid matrix file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("code", help="validate and describe a cyclic code")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--ell", default=None)
    p.add_argument("--f", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--g", required=True)
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("linearity", help="gcd criterion for the Gray image")
    p.add_argument("--code", required=True, help="code JSON (inline or file path)")
    p.add_argument("--oracle", action="store_true", help="cross-check by enumeration")
    p.set_defaults(func=cmd_linearity)

    p = sub.add_parser("image", help="Nechaev-Gray image generators")
    p.add_argument("--code", required=True, help="code JSON (inline or file path)")
    p.add_argument("--map", choices=("Psi",), default="Psi")
    p.add_argument("--dump", action="store_true", help="list every image word")
    p.set_defaults(func=cmd_image)

    p = sub.add_parser("search", help="search cyclic codes by type")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--type", default=None, help="gamma,delta[,kappa]")
    p.add_argument("--linear-only", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("reproduce", help="run the cross-validation checklist")
    p.add_argument("--quick", action="store_true", help="restricted sweep, a few seconds")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_reproduce)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args._t0 = time.time()
        resolve_capacity()  # a bad setting fails every command, listing or not
        if sys.stdout is None:  # fd 1 was closed at start: print would drop the output
            raise OSError(errno.EBADF, "stdout is closed")
        return args.func(args)
    except OSError as exc:
        # a stdout write failed or its reader is gone: what is still buffered goes nowhere
        if sys.stdout is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"PreconditionError: {exc}", file=sys.stderr)
        return 2
    except Z2Z4Error as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
