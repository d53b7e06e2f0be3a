"""Acceptance criteria, one test per criterion, at full stated scale.

The mixed sweep covers every valid cyclic generator tuple with
alpha in 1..4 and beta in {1, 3, 5, 7}; the quaternary sweep covers
n in {1, 3, 5, 7, 9, 15}.  Each test prints one PASS line (visible with
pytest -s or -rA) after its assertions hold.
"""

import json
import time

import pytest

from z2z4.additive import Code, MixedVector, gray_is_linear_oracle
from z2z4.cli import main
from z2z4.cycliccode import enumerate_code
from z2z4.linimage import double_cyclic_span, ext_psi_image, psi_image_generators
from z2z4.polyring import BinPoly
from z2z4.reproduce import (
    FULL_ALPHAS,
    FULL_BETAS,
    FULL_NS,
    nonlinear_image_matrix,
    length9_generators,
    cyclic_projections_matrix,
    run_mixed_sweep,
    run_z4_sweep,
)


@pytest.fixture(scope="module")
def sweep_records():
    return run_mixed_sweep(FULL_ALPHAS, FULL_BETAS, jobs=1)


@pytest.fixture(scope="module")
def z4_records():
    return run_z4_sweep(FULL_NS, jobs=1)


def _cli_json(capsys, *argv):
    status = main(list(argv) + ["--json"])
    out = capsys.readouterr().out
    assert status == 0, out
    return json.loads(out)


def test_criterion_01_factorization(capsys):
    t0 = time.time()
    data = _cli_json(capsys, "factor", "--n", "7", "--ring", "z4")
    elapsed = time.time() - t0
    got = {tuple(c) for c in data["factors"]}
    want = {(3, 1), (3, 1, 2, 1), (3, 2, 3, 1)}  # x-1, x^3+2x^2+x+3, x^3+3x^2+2x+3
    assert got == want
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: factor --n 7 --ring z4 exact in {elapsed:.3f}s")


def test_criterion_02_criterion_oracle_equivalence(sweep_records):
    assert len(sweep_records) > 0
    disagreements = [r for r in sweep_records if not r.criterion_agrees]
    assert disagreements == []
    print(
        f"\nPASS criterion 2: gcd criterion == closure oracle on "
        f"{len(sweep_records)} cyclic codes (alpha 1..4, beta 1,3,5,7), 0 disagreements"
    )


def test_criterion_03_wolfmann_equivalence(z4_records):
    assert len(z4_records) > 0
    disagreements = [r for r in z4_records if not r.criterion_agrees]
    assert disagreements == []
    print(
        f"\nPASS criterion 3: quaternary criterion == closure oracle on "
        f"{len(z4_records)} codes (n in {list(FULL_NS)}), 0 disagreements"
    )


def test_criterion_04_no_linear_type_2_7_2_3(capsys):
    filtered = _cli_json(
        capsys, "search", "--alpha", "2", "--beta", "7", "--type", "2,3", "--linear-only"
    )
    unfiltered = _cli_json(capsys, "search", "--alpha", "2", "--beta", "7", "--type", "2,3")
    assert filtered["count"] == 0 and filtered["results"] == []
    assert unfiltered["count"] >= 1
    print(
        f"\nPASS criterion 4: type (2,7;2,3;*) search: {unfiltered['count']} candidates, "
        f"0 with linear image"
    )


def test_criterion_05_nonlinear_image_with_linear_projection():
    code = Code.from_matrix(nonlinear_image_matrix())
    whole = gray_is_linear_oracle(code, mode="generators")
    quat = gray_is_linear_oracle(code.puncture_y())
    assert not whole.linear and quat.linear
    assert whole.witness[2] == MixedVector((0, 0, 0), (2, 0, 0))
    print(
        "\nPASS criterion 5: extended image nonlinear, quaternary image linear, "
        f"witness 2*({whole.witness[0]})*({whole.witness[1]}) = {whole.witness[2]}"
    )


def test_criterion_06_projections_cyclic_code_not():
    code = Code.from_matrix(cyclic_projections_matrix())
    assert code.puncture_x().is_cyclic()
    assert code.puncture_y().is_cyclic()
    assert not code.is_cyclic()
    witness = code.cyclic_witness()
    assert witness == (MixedVector((0, 0), (0, 0, 1)), MixedVector((0, 0), (1, 0, 0)))
    assert witness[1] not in code
    print(
        f"\nPASS criterion 6: projections cyclic, code not; shift witness "
        f"{witness[0]} -> {witness[1]} not in code"
    )


def test_criterion_07_type_and_cardinality(sweep_records):
    size_bad = [r for r in sweep_records if not r.size_ok]
    type_bad = [r for r in sweep_records if not r.types_agree]
    assert size_bad == [] and type_bad == []
    print(
        f"\nPASS criterion 7: |C| = 2^(alpha-deg b) 4^(deg g) 2^(deg h) = 2^(gamma+2delta) "
        f"and (gamma,delta,kappa) match standard form on {len(sweep_records)} codes"
    )


def test_criterion_08_subcode_span_identities(sweep_records):
    order_two_bad = [r for r in sweep_records if not r.order_two_ok]
    three_gen_bad = [r for r in sweep_records if not r.three_gen_ok]
    assert order_two_bad == [] and three_gen_bad == []
    print(
        f"\nPASS criterion 8: order-two generator pair and three-generator form span "
        f"identities hold on {len(sweep_records)} codes"
    )


def test_criterion_09_psi_images(sweep_records):
    linear = [r for r in sweep_records if r.criterion_linear]
    bad = [r for r in linear if not (r.psi_double_cyclic and r.psi_span_ok)]
    assert linear and bad == []
    # the worked length-9 code, exactly
    gens = length9_generators()
    code = enumerate_code(gens)
    img = ext_psi_image(code)
    dcg = psi_image_generators(gens)
    assert (dcg.b, dcg.ellp, dcg.a) == (
        BinPoly.parse("x^2+x+1"),
        BinPoly.parse("x"),
        BinPoly.parse("x^2+x+1"),
    )
    span = double_cyclic_span(dcg)
    assert len(img) == 32 and img.r + img.s == 9
    assert span.words == img.words
    print(
        f"\nPASS criterion 9: Nechaev-Gray images double-cyclic with matching generator "
        f"spans on {len(linear)} linear-image codes; length-9 example exact (32 words)"
    )


def test_criterion_10_subgroup_root_family(sweep_records):
    members = [r for r in sweep_records if r.family_member]
    bad = [r for r in members if not r.criterion_linear]
    assert members and bad == []
    print(
        f"\nPASS criterion 10: all {len(members)} sweep codes with g = 1 or "
        f"g~ = x^s-1 (s | beta) have linear images"
    )


def test_criterion_11_reproduce_determinism(capsys):
    def normalized():
        status = main(["reproduce", "--json"])
        out = capsys.readouterr().out
        assert status == 0
        data = json.loads(out)
        del data["elapsed_s"]
        return json.dumps(data, sort_keys=True)

    first = normalized()
    second = normalized()
    assert first == second
    print("\nPASS criterion 11: reproduce --json byte-identical modulo elapsed time")
