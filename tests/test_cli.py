import contextlib
import io
import json
import multiprocessing
import os
import pathlib
import re
import subprocess
import sys
import threading
import time
from errno import EBADF, ENOSPC
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from z2z4 import __version__, cli, cycliccode
from z2z4.additive import MixedVector, _as_bits, resolve_capacity
from z2z4.cycliccode import enumerate_all_cyclic
from z2z4.cli import main
from z2z4.errors import DomainError
from z2z4.polyring import BinPoly, QuatPoly
import word_oracle

LENGTH9_JSON = (
    '{"alpha": 3, "beta": 3, "b": "x^2+x+1", "ell": "1",'
    ' "f": "1", "h": "x^2+x+1", "g": "x+3"}'
)

BETA63_JSON = (
    '{"alpha": 6, "beta": 63, "b": [1, 0, 1, 0, 1], "ell": [1, 0, 0, 1],'
    ' "f": [1, 1, 3, 3, 2, 0, 0, 2, 3, 0, 3, 1, 0, 2, 2, 0, 3, 1, 1,'
    ' 1, 2, 2, 0, 2, 1, 1, 3, 2, 1, 0, 0, 2, 2, 0, 0, 3, 1],'
    ' "h": [3, 2, 3, 3, 0, 2, 3, 2, 3, 0, 0, 1, 2, 1, 3, 3, 2, 3, 1, 1, 3, 0, 3, 1],'
    ' "g": [1, 1, 3, 2, 1]}'
)
BETA63_A = [int(c) for c in (
    "100101111101000100110100111010001100011010001101000110100011010"
    "101000111011100111100101010010111"
)]


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


class TestModuleEntryPoint:
    @pytest.mark.parametrize("argv", [
        ("factor", "--n", "15", "--ring", "z4"),
        ("factor", "--n", "4", "--ring", "z2"),
    ])
    def test_python_m_z2z4_is_main(self, capsys, argv):
        # a checkout that is not installed runs with the source on the path
        src = pathlib.Path(cli.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "z2z4", *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, cwd=src.parent, timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)

    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("argv", [
        ("factor", "--n", "7", "--ring", "z2"),
        ("search", "--alpha", "2", "--beta", "7"),
        ("search", "--alpha", "2", "--beta", "7", "--json"),
    ])
    def test_closed_stdout_is_one_error_line(self, argv, buffered):
        # stdout is a pipe whose reader is gone, so any write to it fails
        src = pathlib.Path(cli.__file__).resolve().parent.parent
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "z2z4", *argv], stdout=write_end, stderr=subprocess.PIPE,
                text=True, env={**env, "PYTHONPATH": str(src)}, cwd=src.parent, timeout=120,
            )
        finally:
            os.close(write_end)
        lines = proc.stderr.splitlines()
        assert proc.returncode == 1
        assert len(lines) == 1 and lines[0].startswith("BrokenPipeError: "), proc.stderr
        assert "Traceback" not in proc.stderr

    @staticmethod
    def _run_module(argv, **kwargs):
        src = pathlib.Path(cli.__file__).resolve().parent.parent
        return subprocess.run(
            [sys.executable, "-m", "z2z4", *argv], stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, cwd=src.parent, timeout=120, **kwargs,
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ("factor", "--n", "7", "--ring", "z2"),
        ("search", "--alpha", "2", "--beta", "7", "--json"),
    ])
    def test_failing_stdout_write_is_one_error_line(self, argv):
        # every write to /dev/full fails with ENOSPC, an OSError other than a broken pipe
        with open("/dev/full", "w") as full:
            proc = self._run_module(argv, stdout=full)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"OSError: [Errno {ENOSPC}] {os.strerror(ENOSPC)}"]

    @pytest.mark.parametrize("argv", [
        ("factor", "--n", "7", "--ring", "z2"),
        ("search", "--alpha", "2", "--beta", "7", "--json"),
    ])
    def test_stdout_closed_at_start_is_one_error_line(self, argv):
        # the child starts with fd 1 closed, so sys.stdout is None and print writes nothing
        proc = self._run_module(argv, preexec_fn=lambda: os.close(1))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"OSError: [Errno {EBADF}] stdout is closed"]


class TestFactor:
    def test_text(self, capsys):
        status, out, _ = run(capsys, "factor", "--n", "7", "--ring", "z4")
        assert status == 0
        assert set(out.split()) == {"x+3", "x^3+2x^2+x+3", "x^3+3x^2+2x+3"}

    def test_json(self, capsys):
        status, out, _ = run(capsys, "factor", "--n", "7", "--ring", "z2", "--json")
        data = json.loads(out)
        assert status == 0
        assert sorted(data["factors"]) == sorted([[1, 1], [1, 1, 0, 1], [1, 0, 1, 1]])
        assert data["version"]

    def test_even_n_fails(self, capsys):
        status, _, err = run(capsys, "factor", "--n", "4", "--ring", "z2")
        assert status == 1
        assert err.startswith("DomainError:")


class TestGray:
    def test_psi(self, capsys):
        status, out, _ = run(capsys, "gray", "--map", "psi", "1,3,1")
        assert status == 0 and out.strip() == "0,0,0,1,1,1"

    def test_phi_inverse(self, capsys):
        status, out, _ = run(capsys, "gray", "--map", "phi", "--inv", "0,1,0,1,0,1")
        assert status == 0 and out.strip() == "1,3,1"

    def test_extended(self, capsys):
        status, out, _ = run(capsys, "gray", "--map", "Phi", "0,0,0|1,3,1")
        assert status == 0 and out.strip() == "0,0,0,0,1,0,1,0,1"

    def test_extended_inverse_round_trip(self, capsys):
        status, out, _ = run(
            capsys, "gray", "--map", "Psi", "--inv", "--alpha", "3", "0,0,0,0,0,0,1,1,1"
        )
        assert status == 0
        status2, out2, _ = run(capsys, "gray", "--map", "Psi", out.strip())
        assert status2 == 0 and out2.strip() == "0,0,0,0,0,0,1,1,1"

    def test_even_psi_fails(self, capsys):
        status, _, err = run(capsys, "gray", "--map", "psi", "1,2")
        assert status == 1 and "DomainError" in err

    def test_non_digit_token_fails(self, capsys):
        status, _, err = run(capsys, "gray", "--map", "phi", "1,2,x")
        assert status == 1 and err.startswith("DomainError:") and "'x'" in err

    def test_non_digit_mixed_vector_fails(self, capsys):
        status, _, err = run(capsys, "gray", "--map", "Phi", "0,y|1,3,1")
        assert status == 1 and err.startswith("DomainError:") and "'y'" in err

    def test_extended_inverse_alpha_longer_than_vector_fails(self, capsys):
        status, out, err = run(capsys, "gray", "--map", "Phi", "--inv", "--alpha", "5", "1,0")
        assert status == 1 and out == ""
        assert err.startswith("DomainError:") and "--alpha 5" in err
        status, out, _ = run(capsys, "gray", "--map", "Phi", "--inv", "--alpha", "2", "1,0")
        assert status == 0 and out.strip() == "1,0|"


    @pytest.mark.parametrize("name, vector", [("Phi", "5,0,1"), ("Psi", "7,0,1")])
    def test_extended_inverse_checks_the_binary_block(self, capsys, name, vector):
        status, out, err = run(capsys, "gray", "--map", name, "--inv", "--alpha", "1", vector)
        assert (status, out, err) == (1, "", "DomainError: binary entries must be 0 or 1\n")


def run_quiet(*argv):
    """``main`` on argv, with its stdout and stderr captured (no fixture, so
    that hypothesis can call it once per example)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(list(argv))
    return status, out.getvalue(), err.getvalue()


def _csv(vals):
    return ",".join(map(str, vals))


def oracle_gray(name, inv, vals, alpha):
    """What ``z2z4 gray`` computes, by the tuple maps: (text, result)."""
    if inv:
        ext = name in ("Phi", "Psi")
        pre = word_oracle.nechaev_gray_inv if name in ("psi", "Psi") else word_oracle.gray_inv
        b = _as_bits(vals[:alpha]) if ext else ()
        q = pre(vals[alpha:] if ext else vals)
        if not ext:
            return _csv(q), list(q)
        return str(MixedVector(b, q)), {"bin": list(b), "quat": list(q)}
    if name in ("phi", "psi"):
        out = (word_oracle.gray if name == "phi" else word_oracle.nechaev_gray)(vals[1])
    else:
        out = (word_oracle.ext_gray if name == "Phi" else word_oracle.ext_nechaev_gray)(vals)
    return _csv(out), list(out)


@st.composite
def gray_calls(draw):
    """A valid-entry call of every map and direction, alpha 0..3, beta
    0..9; a preimage is sometimes one bit too long, and psi gets even
    lengths as often as odd ones."""
    name = draw(st.sampled_from(["phi", "psi", "Phi", "Psi"]))
    inv = draw(st.booleans())
    ext = name in ("Phi", "Psi")
    alpha = draw(st.integers(0, 3)) if ext else 0
    beta = draw(st.integers(0, 9))
    argv = ["gray", "--map", name]
    if inv:
        n = alpha + 2 * beta + draw(st.sampled_from([0, 0, 0, 1]))
        vals = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        argv += ["--inv"] + (["--alpha", str(alpha)] if ext else []) + [_csv(vals)]
    else:
        b = tuple(draw(st.lists(st.integers(0, 1), min_size=alpha, max_size=alpha)))
        q = tuple(draw(st.lists(st.integers(0, 3), min_size=beta, max_size=beta)))
        vals = (b, q)
        if ext and draw(st.booleans()):
            argv += ["--alpha", str(alpha), "--beta", str(beta)]
        argv.append(f"{_csv(b)}|{_csv(q)}" if ext else _csv(q))
    as_json = draw(st.booleans())
    return argv + (["--json"] if as_json else []), name, inv, vals, alpha, as_json


class TestGrayDifferential:
    """``z2z4 gray`` runs on packed words; the tuple maps are its oracle."""

    @settings(max_examples=400, deadline=None)
    @given(gray_calls())
    def test_matches_the_tuple_maps(self, call):
        argv, name, inv, vals, alpha, as_json = call
        status, out, err = run_quiet(*argv)
        try:
            text, result = oracle_gray(name, inv, vals, alpha)
        except DomainError as exc:
            assert (status, out, err) == (1, "", f"DomainError: {exc}\n")
            return
        assert (status, err) == (0, "")
        if not as_json:
            assert out == text + "\n"
            return
        report = json.loads(out)
        assert report.pop("elapsed_s") >= 0
        assert report == {
            "command": "gray",
            "inputs": {"map": name, "inv": inv, "vector": argv[-2]},
            "result": result,
            "version": __version__,
        }


# Each bad input and the one stderr line it gives, with exit code 1.
GRAY_ERRORS = [
    (["--map", "phi", "4"], "quaternary entries must be in 0..3"),
    (["--map", "phi", "-1"], "quaternary entries must be in 0..3"),
    (["--map", "psi", "1,4,1"], "quaternary entries must be in 0..3"),
    (["--map", "Phi", "0|4"], "quaternary entries must be in 0..3"),
    (["--map", "Phi", "2|1"], "binary entries must be 0 or 1"),
    (["--map", "Psi", "0|1,9,1"], "quaternary entries must be in 0..3"),
    (["--map", "phi", "--inv", "2,0"], "binary entries must be 0 or 1"),
    (["--map", "psi", "--inv", "0,0,0,3,0,0"], "binary entries must be 0 or 1"),
    (["--map", "Phi", "--inv", "--alpha", "1", "1,0,2"], "binary entries must be 0 or 1"),
    (["--map", "Psi", "--inv", "--alpha", "1", "1,0,0,0,0,0,-1"], "binary entries must be 0 or 1"),
    (["--map", "phi", "1,2,x"], "'x' is not an integer"),
    (["--map", "psi", "1.5"], "'1.5' is not an integer"),
    (["--map", "Phi", "0,y|1,3,1"], "'y' is not an integer"),
    (["--map", "Psi", "0|1,z,1"], "'z' is not an integer"),
    (["--map", "phi", "--inv", "1,a"], "'a' is not an integer"),
    (["--map", "Phi", "--inv", "--alpha", "1", "1,b"], "'b' is not an integer"),
    (["--map", "phi", "--inv", "1,0,1"], "Gray preimage needs an even-length vector"),
    (["--map", "psi", "--inv", "1,0,1"], "Nechaev-Gray preimage needs an even-length vector"),
    (["--map", "Phi", "--inv", "--alpha", "1", "1,0,1,1"], "Gray preimage needs an even-length vector"),
    (["--map", "Psi", "--inv", "--alpha", "1", "1,0,1,1"],
     "Nechaev-Gray preimage needs an even-length vector"),
    (["--map", "psi", "1,2"], "the permutation is defined for odd n only"),
    (["--map", "psi", ""], "the permutation is defined for odd n only"),
    (["--map", "Psi", "0|1,2"], "the permutation is defined for odd n only"),
    (["--map", "Psi", "0|"], "the permutation is defined for odd n only"),
    (["--map", "psi", "--inv", "0,0,0,0"], "the permutation is defined for odd n only"),
    (["--map", "psi", "--inv", ""], "the permutation is defined for odd n only"),
    (["--map", "Psi", "--inv", "--alpha", "1", "1"], "the permutation is defined for odd n only"),
    (["--map", "Psi", "--inv", "--alpha", "1", "1,0,0,0,0"],
     "the permutation is defined for odd n only"),
    (["--map", "Phi", "--beta", "2", "0|1,3,1"], "expected quaternary block of length 2"),
    (["--map", "Psi", "--beta", "2", "0|1,3,1"], "expected quaternary block of length 2"),
    (["--map", "Phi", "--alpha", "2", "0|1"], "expected binary block of length 2"),
    (["--map", "Phi", "1,0,1"], "mixed vector text needs a '|' separator"),
    (["--map", "Phi", "--inv", "1,0"], "--alpha is required to invert an extended map"),
    (["--map", "Psi", "--inv", "1,0"], "--alpha is required to invert an extended map"),
    (["--map", "Phi", "--inv", "--alpha", "5", "1,0"], "--alpha 5 is outside 0..2, the vector length"),
    (["--map", "Psi", "--inv", "--alpha", "-1", "1,0"],
     "--alpha -1 is outside 0..2, the vector length"),
]


# a vector whose first entry is negative, for each map and its inverse
NEGATIVE_VECTORS = [
    (["--map", "phi", "-1,2"], "quaternary entries must be in 0..3"),
    (["--map", "psi", "-1,2,0"], "quaternary entries must be in 0..3"),
    (["--map", "Phi", "-1,0|1"], "binary entries must be 0 or 1"),
    (["--map", "Psi", "-1|1,2,0"], "binary entries must be 0 or 1"),
    (["--map", "phi", "--inv", "-1,2"], "binary entries must be 0 or 1"),
    (["--map", "psi", "--inv", "-1,0,0,0,0,0"], "binary entries must be 0 or 1"),
    (["--map", "Phi", "--inv", "--alpha", "1", "-1,0,1"], "binary entries must be 0 or 1"),
    (["--map", "Psi", "--inv", "--alpha", "1", "-1,0,0,0,0,0,0"], "binary entries must be 0 or 1"),
]


class TestGrayErrors:
    @pytest.mark.parametrize("argv, message", GRAY_ERRORS)
    @pytest.mark.parametrize("as_json", [False, True])
    def test_error_line_and_exit_code(self, argv, message, as_json):
        argv = ["gray", *argv] + (["--json"] if as_json else [])
        assert run_quiet(*argv) == (1, "", f"DomainError: {message}\n")

    @pytest.mark.parametrize("argv, message", NEGATIVE_VECTORS)
    @pytest.mark.parametrize("as_json", [False, True])
    def test_negative_entry_is_a_range_error(self, argv, message, as_json):
        """A leading '-' makes no option of the vector: the range error is
        the one given after '--'."""
        *opts, vector = ["gray", *argv[:-1]] + (["--json"] if as_json else []) + argv[-1:]
        got = run_quiet(*opts, vector)
        assert got == (1, "", f"DomainError: {message}\n")
        assert got == run_quiet(*opts, "--", vector)


class TestAnalyze:
    def test_text_matrix(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 0 | 1 0 0\n0 1 | 0 1 0\n0 0 | 0 0 1\n")
        status, out, _ = run(capsys, "analyze", "--matrix", str(path))
        assert status == 0
        assert "type: (2,3; 0,3; 0)" in out
        assert "cyclic: no" in out and "0,0|0,0,1" in out

    def test_json_matrix(self, capsys, tmp_path, nonlinear_image_matrix):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(nonlinear_image_matrix.to_json()))
        status, out, _ = run(capsys, "analyze", "--matrix", str(path), "--json")
        data = json.loads(out)
        assert status == 0
        assert data["size"] == 128
        assert data["gray_image_linear"] is False
        assert data["gray_witness"][2] == "0,0,0|2,0,0"
        assert data["quaternary_image_linear"] is True

    def test_matrix_json_without_rows(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"alpha": 1, "beta": 1}')
        status, _, err = run(capsys, "analyze", "--matrix", str(path))
        assert status == 1 and err.startswith("DomainError: bad matrix JSON:")
        assert err.count("bad matrix JSON") == 1

    @pytest.mark.parametrize("alpha, beta", [(-1, 1), (1, -2), (-3, -3)])
    def test_negative_lengths_are_refused(self, capsys, tmp_path, alpha, beta):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"alpha": alpha, "beta": beta, "rows": []}))
        status, out, err = run(capsys, "analyze", "--matrix", str(path))
        assert (status, out) == (1, "")
        assert err == (
            f"DomainError: bad matrix JSON: alpha {alpha} and beta {beta} must not be negative\n"
        )

    @pytest.mark.parametrize("rows, lines", [
        ([], ["type: (1,1000000; 0,0; 0)", "|C| = 1", "cyclic: yes"]),
        ([[0, 1] + [0] * 999_999], ["type: (1,1000000; 0,1; 0)", "|C| = 4", "cyclic: no"]),
    ])
    def test_long_quaternary_block_is_linear_in_beta(self, capsys, tmp_path, rows, lines):
        # the echelon jumps from pivot to pivot, so the run is linear in
        # beta; a column-by-column scan took 18 s on the empty matrix at
        # beta = 800000
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"alpha": 1, "beta": 1_000_000, "rows": rows}))
        start = time.perf_counter()
        status, out, err = run(capsys, "analyze", "--matrix", str(path))
        assert time.perf_counter() - start < 10.0
        assert (status, err) == (0, "")
        got = out.splitlines()[:3]
        assert [line[:len(want)] for line, want in zip(got, lines)] == lines

    @pytest.mark.parametrize("name, text", [
        ("m.json", json.dumps({"alpha": 1, "beta": 10**7, "rows": [[1, "|", 1]]})),
        ("m.txt", "1 |" + " 0" * 10**7),
    ], ids=["json", "text"])
    def test_matrix_past_the_length_bound_is_refused(self, capsys, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        status, out, err = run(capsys, "analyze", "--matrix", str(path))
        assert (status, out) == (1, "")
        assert err.startswith("DomainError: ") and err.endswith("exceeds the bound 1048576\n")

    def test_missing_matrix_file(self, capsys, tmp_path):
        status, _, err = run(capsys, "analyze", "--matrix", str(tmp_path / "absent.txt"))
        assert status == 1 and err.startswith("DomainError:") and "absent.txt" in err

    @pytest.mark.parametrize("value", ["-1", "0", "ten"])
    def test_bad_capacity_setting_rejected(self, capsys, tmp_path, monkeypatch, value):
        path = tmp_path / "m.txt"
        path.write_text("1 | 1\n")
        monkeypatch.setenv("Z2Z4_CAPACITY", value)
        status, out, err = run(capsys, "analyze", "--matrix", str(path))
        assert status == 1 and out == ""
        assert err.startswith("DomainError: Z2Z4_CAPACITY") and err.count("\n") == 1


def _capacity_line(bound: int) -> str:
    return (
        f"CapacityError: enumeration exceeds the capacity bound {bound}; "
        "raise it via Z2Z4_CAPACITY if intended\n"
    )


class TestPastTheBound:
    """A code larger than the capacity bound: what needs no codeword is
    answered, and a command that lists words fails with the error line
    and exit code it has always had."""

    def test_analyze_answers(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("Z2Z4_CAPACITY", raising=False)
        path = tmp_path / "id26.txt"
        path.write_text("".join(
            " ".join("1" if i == j else "0" for i in range(26)) + " |\n" for j in range(26)
        ))
        status, out, err = run(capsys, "analyze", "--matrix", str(path), "--json")
        data = json.loads(out)
        assert (status, err) == (0, "")
        assert data["size"] == 67108864
        assert data["cyclic"] is True and data["shift_witness"] is None
        assert data["type"] == {"alpha": 26, "beta": 0, "gamma": 26, "delta": 0, "kappa": 26}
        assert data["separable"] is True and data["gray_image_linear"] is True

    @pytest.mark.parametrize("as_json", [False, True])
    def test_analyze_quaternary_answers(self, capsys, tmp_path, monkeypatch, as_json):
        # the 13x13 quaternary identity: all of Z4^13, 2^26 words, so the
        # quaternary projection is past the bound too
        monkeypatch.delenv("Z2Z4_CAPACITY", raising=False)
        path = tmp_path / "id13.txt"
        path.write_text("".join(
            "| " + " ".join("1" if i == j else "0" for i in range(13)) + "\n" for j in range(13)
        ))
        argv = ["analyze", "--matrix", str(path)] + (["--json"] if as_json else [])
        status, out, err = run(capsys, *argv)
        assert (status, err) == (0, "")
        if as_json:
            data = json.loads(out)
            assert data["size"] == 67108864 and data["cyclic"] is True
            assert data["type"] == {"alpha": 0, "beta": 13, "gamma": 0, "delta": 13, "kappa": 0}
            assert data["gray_image_linear"] is True and data["quaternary_image_linear"] is True
        else:
            assert "type: (0,13; 0,13; 0)" in out
            assert "quaternary Gray image linear: yes" in out

    def test_analyze_past_sys_maxsize(self, capsys, tmp_path, monkeypatch):
        # 2^64 words: a size that len() cannot return
        monkeypatch.delenv("Z2Z4_CAPACITY", raising=False)
        path = tmp_path / "id64.txt"
        path.write_text("".join(
            " ".join("1" if i == j else "0" for i in range(64)) + " |\n" for j in range(64)
        ))
        status, out, err = run(capsys, "analyze", "--matrix", str(path), "--json")
        data = json.loads(out)
        assert (status, err) == (0, "")
        assert data["size"] == 18446744073709551616
        assert data["separable"] is True and data["gray_image_linear"] is True

    @pytest.mark.parametrize("as_json", [False, True])
    def test_oracle_past_sys_maxsize(self, capsys, monkeypatch, as_json):
        # <(1 | 3)> is all of Z2^2 x Z4^45, 2^92 words
        monkeypatch.delenv("Z2Z4_CAPACITY", raising=False)
        code = '{"alpha":2,"beta":45,"b":"1","f":"1","h":"1","g":"x^45+3"}'
        argv = ["linearity", "--oracle", "--code", code] + (["--json"] if as_json else [])
        assert run(capsys, *argv) == (1, "", _capacity_line(resolve_capacity()))

    @pytest.mark.parametrize("as_json", [False, True])
    def test_shift_witness_needs_the_words(self, capsys, tmp_path, monkeypatch, as_json):
        # the 64-word non-cyclic code with cyclic projections
        path = tmp_path / "m.txt"
        path.write_text("1 0 | 1 0 0\n0 1 | 0 1 0\n0 0 | 0 0 1\n")
        monkeypatch.setenv("Z2Z4_CAPACITY", "63")
        argv = ["analyze", "--matrix", str(path)] + (["--json"] if as_json else [])
        assert run(capsys, *argv) == (1, "", _capacity_line(63))

    @pytest.mark.parametrize(
        "argv",
        [
            ["linearity", "--code", LENGTH9_JSON, "--oracle"],
            ["image", "--code", LENGTH9_JSON, "--dump"],
        ],
    )
    @pytest.mark.parametrize("as_json", [False, True])
    def test_listing_commands_fail(self, capsys, monkeypatch, argv, as_json):
        # the length-9 code and its image have 32 words
        monkeypatch.setenv("Z2Z4_CAPACITY", "31")
        argv = argv + (["--json"] if as_json else [])
        assert run(capsys, *argv) == (1, "", _capacity_line(31))


class TestCode:
    def test_valid(self, capsys):
        status, out, _ = run(
            capsys, "code", "--alpha", "3", "--beta", "3",
            "--b", "x^2+x+1", "--ell", "1", "--f", "1", "--h", "x^2+x+1", "--g", "x+3",
        )
        assert status == 0
        assert "type: (3,3; 3,1; 3)" in out
        assert "(x^2+x | 2)" in out

    def test_invalid(self, capsys):
        status, out, err = run(
            capsys, "code", "--alpha", "1", "--beta", "1",
            "--b", "x+1", "--ell", "1", "--f", "x+3", "--h", "1", "--g", "1",
        )
        assert status == 1
        assert "DomainError" in err


    def test_valid_input_checked_once(self, capsys, monkeypatch):
        calls = []
        real = cycliccode.violations

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "violations", counting)
        monkeypatch.setattr(cycliccode, "violations", counting)
        status, out, _ = run(
            capsys, "code", "--alpha", "3", "--beta", "3",
            "--b", "x^2+x+1", "--ell", "x^3", "--f", "1", "--h", "x^2+x+1", "--g", "x+3",
        )
        assert status == 0 and "(x^2+x | 2)" in out
        assert len(calls) == 1

    @pytest.mark.parametrize("opt, exponent, length", [
        ("--ell", 4, 3), ("--b", 4, 3), ("--f", 999999999, 5), ("--g", 6, 5),
    ])
    def test_exponent_past_the_block_length_is_refused(self, capsys, opt, exponent, length):
        # ell = x^4 at alpha 3 was reduced modulo b before; now it is refused
        opts = {"--b": "x^3+1", "--ell": "1", "--f": "1", "--h": "x^5-1", "--g": "1"}
        opts[opt] = f"x^{exponent}+1"
        argv = ["code", "--alpha", "3", "--beta", "5"] + [a for kv in opts.items() for a in kv]
        status, out, err = run(capsys, *argv)
        assert (status, out) == (1, "")
        assert err == f"DomainError: exponent {exponent} exceeds the block length {length}\n"

    def test_exponent_past_beta_in_code_json_is_refused(self, capsys):
        code = json.loads(LENGTH9_JSON) | {"g": "x^999999999+3"}
        status, out, err = run(capsys, "linearity", "--code", json.dumps(code))
        assert (status, out) == (1, "")
        assert err == (
            "DomainError: code JSON field g: exponent 999999999 exceeds the block length 3\n"
        )

    def test_even_beta_still_rejected(self, capsys):
        status, _, err = run(
            capsys, "code", "--alpha", "1", "--beta", "2",
            "--b", "1", "--f", "1", "--h", "1", "--g", "x^2+3",
        )
        assert status == 1
        assert "beta must be odd" in err


class TestLinearity:
    def test_inline_json(self, capsys):
        status, out, _ = run(capsys, "linearity", "--code", LENGTH9_JSON, "--oracle", "--json")
        data = json.loads(out)
        assert status == 0
        assert data["report"]["linear"] is True
        assert data["report"]["oracle_linear"] is True

    def test_nonlinear_oracle_output(self, capsys):
        code = '{"alpha":1,"beta":3,"b":"1","ell":"0","f":"x+3","h":"1","g":"x^2+x+1"}'
        status, out, _ = run(capsys, "linearity", "--code", code, "--oracle", "--json")
        data = json.loads(out)
        assert status == 0 and isinstance(data.pop("elapsed_s"), float)
        assert data == {
            "command": "linearity",
            "inputs": {
                "alpha": 1, "beta": 3, "b": [1], "ell": [], "f": [3, 1], "h": [1], "g": [1, 1, 1],
            },
            "report": {
                "criterion_poly_a": [1, 1],
                "tensor_poly": [1, 0, 0, 1],
                "gcd": [1, 1],
                "linear": False,
                "oracle_linear": False,
                "witness": ["0|3,1,0", "0|3,0,1", "0|2,0,0"],
            },
            "version": __version__,
        }

    def test_file(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(LENGTH9_JSON)
        status, out, _ = run(capsys, "linearity", "--code", str(path))
        assert status == 0 and "linear: yes" in out

    def test_missing_code_file(self, capsys, tmp_path):
        status, _, err = run(capsys, "linearity", "--code", str(tmp_path / "absent.json"))
        assert status == 1 and err.startswith("DomainError:") and "absent.json" in err

    @pytest.mark.parametrize(
        "field, value, phrase",
        [
            ("alpha", 2.9, "alpha = 2.9"),
            ("alpha", "a", "alpha = 'a'"),
            ("f", [7], "coefficient 7"),
            ("f", [1.5], "coefficient 1.5"),
            ("b", [1, 2], "coefficient 2"),
        ],
    )
    def test_bad_code_json_rejected(self, capsys, field, value, phrase):
        obj = json.loads(LENGTH9_JSON)
        obj[field] = value
        status, out, err = run(capsys, "linearity", "--code", json.dumps(obj))
        assert status == 1 and out == ""
        assert err.startswith("DomainError:") and phrase in err
        assert err.count("\n") == 1


class TestImage:
    def test_generators(self, capsys):
        status, out, _ = run(capsys, "image", "--code", LENGTH9_JSON, "--json")
        data = json.loads(out)
        assert status == 0
        assert data["generators"] == {
            "r": 3, "s": 6, "b": [1, 1, 1], "ellp": [0, 1], "a": [1, 1, 1]
        }

    def test_beta63_output_pinned(self, capsys):
        # a pool code whose ell' = p~ ell mod b needs the smallest p
        status, out, _ = run(capsys, "image", "--code", BETA63_JSON, "--json")
        data = json.loads(out)
        assert status == 0
        del data["elapsed_s"]
        assert data == {
            "command": "image",
            "inputs": json.loads(BETA63_JSON),
            "map": "Psi",
            "generators": {
                "r": 6, "s": 126, "b": [1, 0, 1, 0, 1], "ellp": [0, 1, 1, 1],
                "a": BETA63_A,
            },
            "version": __version__,
        }

    def test_dump(self, capsys):
        status, out, _ = run(capsys, "image", "--code", LENGTH9_JSON, "--dump", "--json")
        data = json.loads(out)
        assert status == 0
        assert len(data["words"]) == 32
        assert data["double_cyclic"] is True

    def test_precondition_exit_code(self, capsys):
        bad = (
            '{"alpha": 2, "beta": 7, "b": "1", "ell": "0",'
            ' "f": "x^4+2x^3+3x^2+x+1", "h": "1", "g": "x^3+2x^2+x+3"}'
        )
        status, _, err = run(capsys, "image", "--code", bad)
        assert status == 2
        assert err.startswith("PreconditionError:")


class TestSearch:
    def test_blocked_type_search(self, capsys):
        status, out, _ = run(
            capsys, "search", "--alpha", "2", "--beta", "7",
            "--type", "2,3", "--linear-only", "--json",
        )
        data = json.loads(out)
        assert status == 0 and data["count"] == 0
        status, out, _ = run(
            capsys, "search", "--alpha", "2", "--beta", "7", "--type", "2,3", "--json"
        )
        data = json.loads(out)
        assert status == 0 and data["count"] >= 1
        assert all(r["linear"] is False for r in data["results"])

    def test_bad_type_spec(self, capsys):
        status, _, err = run(capsys, "search", "--alpha", "2", "--beta", "3", "--type", "1")
        assert status == 1 and "DomainError" in err

    def test_non_digit_type_spec(self, capsys):
        status, _, err = run(capsys, "search", "--alpha", "2", "--beta", "3", "--type", "a,b")
        assert status == 1 and err.startswith("DomainError:") and "'a'" in err

    @pytest.mark.parametrize("alpha, beta, message", [
        ("0", "3", "length must be positive"),
        ("1", "2", "beta must be odd"),
    ])
    def test_bad_lengths_give_one_error_line(self, alpha, beta, message):
        got = run_quiet("search", "--alpha", alpha, "--beta", beta, "--json")
        assert got == (1, "", f"DomainError: {message}\n")

    @pytest.mark.parametrize("alpha", ["257", "256", "4096", "65536"])
    def test_long_alpha_is_refused_at_once(self, alpha):
        # the bound is on alpha itself, not only on its odd part
        start = time.perf_counter()
        got = run_quiet("search", "--alpha", alpha, "--beta", "1")
        assert time.perf_counter() - start < 1.0
        assert got == (1, "", f"CapacityError: length {alpha} exceeds the desk-scale bound 255\n")

    def test_too_many_divisors_are_refused_at_once(self):
        # x^254 - 1 = (x^127 - 1)^2 has 3^19 divisors over Z2
        start = time.perf_counter()
        got = run_quiet("search", "--alpha", "254", "--beta", "1")
        assert time.perf_counter() - start < 1.0
        assert got == (
            1, "", "CapacityError: x^254-1 has 1162261467 divisors over Z2, past the bound 65536\n"
        )

    @pytest.mark.parametrize("beta, subsets", [("127", 524288), ("255", 34359738368)])
    def test_too_many_factor_subsets_are_refused_at_once(self, beta, subsets):
        # x^127 - 1 has 19 factors and x^255 - 1 has 35, each a bit of a mask
        start = time.perf_counter()
        got = run_quiet("search", "--alpha", "1", "--beta", beta)
        assert time.perf_counter() - start < 1.0
        assert got == (
            1, "", f"CapacityError: x^{beta}-1 has {subsets} factor subsets, past the bound 65536\n"
        )

    @staticmethod
    def _code_type_calls(capsys, monkeypatch, *filters):
        calls = []
        real = cycliccode.code_type

        def counting(gens):
            calls.append(gens)
            return real(gens)

        # every module of the package that binds the function
        for name, mod in list(sys.modules.items()):
            if name.partition(".")[0] == "z2z4" and getattr(mod, "code_type", None) is real:
                monkeypatch.setattr(mod, "code_type", counting)
        status, out, _ = run(capsys, "search", "--alpha", "2", "--beta", "7", *filters, "--json")
        count = json.loads(out)["count"]
        assert status == 0 and count > 0
        return len(calls), count

    def test_code_type_once_per_result(self, capsys, monkeypatch):
        calls, count = self._code_type_calls(capsys, monkeypatch)
        assert calls == count

    @pytest.mark.parametrize("type_", ["1,3", "1,4,1"])
    def test_type_filters_take_no_code_type(self, capsys, monkeypatch, type_):
        # the search decides gamma and delta per run and kappa per row
        # entry, so only the listing takes a code's type
        calls, count = self._code_type_calls(capsys, monkeypatch, "--type", type_)
        assert calls == count

    def test_text_listing(self, capsys):
        status, out, _ = run(capsys, "search", "--alpha", "1", "--beta", "3", "--type", "1,1")
        lines = out.splitlines()
        assert status == 0 and lines[0] == f"{len(lines) - 1} codes" and len(lines) > 1
        assert all("  type=(1,1," in line for line in lines[1:])


class TestReproduce:
    def test_quick_all_pass(self, capsys):
        status, out, _ = run(capsys, "reproduce", "--quick")
        assert status == 0
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_quick_json_deterministic(self, capsys):
        def normalized():
            status, out, _ = run(capsys, "reproduce", "--quick", "--json")
            assert status == 0
            data = json.loads(out)
            del data["elapsed_s"]
            return json.dumps(data, sort_keys=True)

        assert normalized() == normalized()

    def test_jobs_do_not_change_output(self, capsys):
        def normalized(jobs):
            status, out, _ = run(capsys, "reproduce", "--quick", "--json", "--jobs", jobs)
            assert status == 0
            data = json.loads(out)
            del data["elapsed_s"]
            return json.dumps(data, sort_keys=True)

        assert normalized("1") == normalized("2")

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, capsys, jobs):
        status, out, err = run(capsys, "reproduce", "--quick", "--jobs", jobs)
        assert status == 1 and out == ""
        assert err.startswith("DomainError: jobs must be at least 1") and err.count("\n") == 1


# ----------------------------------------------------------------------
# fuzzing: argvs over every subcommand, run in this process

ERROR_LINE = re.compile(r"[A-Z][A-Za-z]*Error: .*\n")
VALID_CODES = [
    gens.to_json()
    for alpha in (1, 2, 3)
    for beta in (1, 3, 5)
    for gens in enumerate_all_cyclic(alpha, beta)
]
JUNK_INTS = ["", "x", "2.5", "9" * 5000]
POLY_JUNK = ["", "x^", "x^-1", "y", "+", "x^99999999999", "1" * 5000, "[1,", "[]", "[1,7]", "[-1]"]


@st.composite
def mostly(draw, good, bad):
    """A draw from ``good`` about three times in four, else from ``bad``."""
    return draw(bad if draw(st.integers(0, 3)) == 0 else good)


LENGTHS = mostly(st.integers(-1, 7).map(str), st.sampled_from(JUNK_INTS))
ODD_LENGTHS = mostly(st.integers(0, 4).map(lambda k: str(2 * k + 1)), LENGTHS)


@st.composite
def poly_args(draw):
    """A polynomial as text, a JSON array or junk; exponents up to 12."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        term = st.tuples(st.integers(-1, 5), st.integers(0, 12))
        terms = draw(st.lists(term, min_size=1, max_size=4))
        return "".join(f"+{c}x^{k}" for c, k in terms)[1:]
    if kind == 1:
        return json.dumps(draw(st.lists(st.integers(-1, 4), max_size=8)))
    if kind == 2:
        return draw(st.sampled_from(POLY_JUNK))
    return draw(st.text(alphabet="x^+-0123[], ", max_size=12))


@st.composite
def code_specs(draw):
    """Code JSON text: a valid code of a small cell, one with a field
    replaced or dropped, or junk."""
    spec = dict(draw(st.sampled_from(VALID_CODES)))
    kind = draw(st.integers(0, 5))
    if kind == 3:
        name = draw(st.sampled_from(sorted(spec)))
        spec[name] = draw(st.one_of(poly_args(), st.integers(-2, 7), st.none()))
    elif kind == 4:
        del spec[draw(st.sampled_from(sorted(spec)))]
    elif kind == 5:
        return draw(st.sampled_from(["{", "[]", "{}", '{"alpha": 1}', "null"]))
    return json.dumps(spec)


@st.composite
def code_options(draw):
    """--alpha ... --g of ``code``: a valid code, one option replaced, or all drawn."""
    spec = draw(st.sampled_from(VALID_CODES))
    opts = {"alpha": str(spec["alpha"]), "beta": str(spec["beta"])}
    for name in ("b", "ell", "f", "h", "g"):
        p = (BinPoly if name in ("b", "ell") else QuatPoly)(spec[name])
        opts[name] = draw(st.sampled_from([str(p), json.dumps(list(p.coeffs))]))
    kind = draw(st.integers(0, 2))
    if kind == 1:
        name = draw(st.sampled_from(sorted(opts)))
        opts[name] = draw(LENGTHS if name in ("alpha", "beta") else poly_args())
    elif kind == 2:
        opts = {"alpha": draw(LENGTHS), "beta": draw(LENGTHS)}
        opts.update((name, draw(poly_args())) for name in ("b", "ell", "f", "h", "g"))
    if draw(st.booleans()):
        del opts["ell"]
    return [arg for name, value in opts.items() for arg in (f"--{name}", value)]


@st.composite
def entry_lists(draw, size, top):
    """``size`` entries in 0..top, one of them replaced by junk one time in four."""
    out = draw(st.lists(st.integers(0, top), min_size=size, max_size=size))
    if out and draw(st.integers(0, 3)) == 0:
        out[draw(st.integers(0, size - 1))] = draw(st.sampled_from([-1, 2, 4, "|", "a"]))
    return out


@st.composite
def matrix_texts(draw):
    """A matrix file: JSON with small or negative lengths, a text grid, or junk."""
    alpha, beta = draw(st.integers(-1, 3)), draw(st.integers(-1, 3))
    any_size = st.tuples(st.integers(0, 3), st.integers(0, 3))
    sizes = mostly(st.just((max(alpha, 0), max(beta, 0))), any_size)
    rows = []
    for a, b in draw(st.lists(sizes, max_size=4)):
        rows.append((draw(entry_lists(a, 1)), draw(entry_lists(b, 3))))
    kind = draw(st.integers(0, 4))
    if kind <= 1:
        obj = {"alpha": alpha, "beta": beta, "rows": [[*l, "|", *r] for l, r in rows]}
        if draw(st.integers(0, 5)) == 0:
            del obj[draw(st.sampled_from(sorted(obj)))]
        return json.dumps(obj)
    if kind <= 3:
        return "\n".join(" ".join(map(str, l)) + " | " + " ".join(map(str, r)) for l, r in rows)
    junk = ["", "{", "# only a comment", '{"alpha": 1.5, "beta": 1, "rows": []}']
    return draw(st.sampled_from(junk))


@st.composite
def gray_args(draw):
    """Map, options and vector of ``gray``: shaped for the map and
    direction three times in four, else drawn freely."""
    name = draw(mostly(st.sampled_from(["phi", "psi", "Phi", "Psi"]), st.just("chi")))
    inv, ext = draw(st.booleans()), name in ("Phi", "Psi")
    alpha, beta = draw(st.integers(0, 3)) if ext else 0, draw(st.integers(0, 5))
    argv = ["--map", name] + (["--inv"] if inv else [])
    if draw(st.integers(0, 3)):
        if inv:
            vector = draw(entry_lists(alpha + 2 * beta, 1))
            argv += ["--alpha", str(alpha)] if ext else []
            return argv + [",".join(map(str, vector))]
        bits, quats = draw(entry_lists(alpha, 1)), draw(entry_lists(beta, 3))
        text = ",".join(map(str, quats))
        return argv + [",".join(map(str, bits)) + "|" + text if ext else text]
    for opt in ("--alpha", "--beta"):
        if draw(st.booleans()):
            argv += [opt, draw(LENGTHS)]
    left, right = draw(entry_lists(draw(st.integers(0, 4)), 3)), draw(entry_lists(beta, 3))
    sep = draw(st.sampled_from(["|", ",", ""]))
    return argv + [",".join(map(str, left)) + sep + ",".join(map(str, right))]


@st.composite
def fuzz_argvs(draw, matrix_path):
    """An argv for one of the eight subcommands, with small cells and
    --jobs never above 1; ``matrix_path`` is written when analyze is drawn."""
    cmd = draw(st.sampled_from(
        ["factor", "gray", "analyze", "code", "linearity", "image", "search", "reproduce"]
    ))
    argv = [cmd]
    if cmd == "factor":
        odd = st.integers(0, 127).map(lambda k: str(2 * k + 1))
        argv += ["--n", draw(mostly(odd, st.sampled_from(["0", "-3", "4", "257", *JUNK_INTS])))]
        argv += ["--ring", draw(mostly(st.sampled_from(["z2", "z4"]), st.just("z3")))]
    elif cmd == "gray":
        argv += draw(gray_args())
    elif cmd == "analyze":
        matrix_path.write_text(draw(matrix_texts()))
        missing = draw(st.integers(0, 5)) == 0
        argv += ["--matrix", "/nonexistent/m.json" if missing else str(matrix_path)]
    elif cmd == "code":
        argv += draw(code_options())
    elif cmd in ("linearity", "image"):
        argv += ["--code", draw(code_specs())]
        if draw(st.booleans()):
            argv.append("--oracle" if cmd == "linearity" else "--dump")
    elif cmd == "search":
        argv += ["--alpha", draw(LENGTHS), "--beta", draw(ODD_LENGTHS)]
        if draw(st.booleans()):
            argv += ["--type", draw(st.sampled_from(["1,1", "0,0,0", "2", "1,x", "1,2,3,4", ""]))]
        if draw(st.booleans()):
            argv.append("--linear-only")
    else:
        jobs = mostly(st.just("1"), st.sampled_from(["0", "-1", "-7"]))
        argv += ["--quick", "--jobs", draw(jobs)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), capacity=mostly(st.none(), st.sampled_from(["1", "0", "4096"])))
    def test_every_argv_gives_a_status_and_one_error_line(self, tmp_path_factory, data, capacity):
        # in process, so a traceback would escape; --jobs is never above 1
        argv = data.draw(fuzz_argvs(tmp_path_factory.getbasetemp() / "fuzz_matrix.json"))
        threads = threading.active_count()
        with mock.patch.dict(os.environ):
            os.environ.pop("Z2Z4_CAPACITY", None)
            if capacity is not None:
                os.environ["Z2Z4_CAPACITY"] = capacity
            status, _, err = run_quiet(*argv)
        assert status in (0, 1, 2)
        if status:
            assert ERROR_LINE.fullmatch(err), err
        assert threading.active_count() == threads and not multiprocessing.active_children()
