"""Golden CLI output: sha256 of stdout for a fixed command set.

A refactor keeps these bytes.  One that changes the order of floating-point
operations may move values in their last bits; it then shows that every
changed value agrees within 1e-14 relative, re-records the hash and names
the command in CHANGES.md.
"""

import hashlib

import pytest

from qwcount.cli import main

FIG2 = ["--n0", "4", "--n1", "3", "--k0", "2", "--k1", "1"]
SAMPLED = ["--mode", "sampled", "--trials", "20", "--seed", "42"]

GOLDEN = {
    "spectrum": (
        ["spectrum", *FIG2],
        "f9f6d9e3c1f0abbc6e239a7fafae289269fa3886e09ea56c8a710a9007ec06af"),
    "distribution_analytic": (
        ["distribution", *FIG2, "--p", "6", "--engine", "analytic"],
        "b8ab23f44845786b4cfd6ef5f76e34cd77a62b229465e803c43cabc1ad084b29"),
    "distribution_circuit": (
        ["distribution", *FIG2, "--p", "5", "--engine", "circuit"],
        "a8b846206abd185669a243d9e132e0c6bd34105a16b02057e8a5127288aa36d2"),
    "count_exact_part0": (
        ["count", *FIG2, "--p", "6", "--part", "0", "--mode", "exact"],
        "e5b00a72b7151461593ad8e5085a5ad57d1bdfdbb823113409b79e771ffb48e3"),
    "count_exact_part1_json": (
        ["count", *FIG2, "--p", "6", "--part", "1", "--mode", "exact", "--format", "json"],
        "3d19131729c34ec2d70141d102eba246c0271c1c8e8f0e09414ab3ed42bd6c19"),
    "count_exact_both": (
        ["count", *FIG2, "--p", "5", "--part", "both", "--mode", "exact"],
        "778ef4b08f5d4f9dbd6f836629ae48fbd5cdd756bef197870ecc1a95df28056c"),
    "count_exact_both_json": (
        ["count", "--n0", "5", "--n1", "7", "--k0", "2", "--k1", "3", "--p", "4",
         "--part", "both", "--format", "json"],
        "dd1e74ae0ab2b5170e9bb0e5faa4552f955b5930accf085d2127029db97146fd"),
    "count_exact_both_json_p7": (
        ["count", *FIG2, "--p", "7", "--part", "both", "--format", "json"],
        "b9e844f504d1fbc40fcffb2bcfe2190b6cc87a87ca7bf6440e5793b0fbe9807f"),
    "distribution_analytic_p12_part64": (
        ["distribution", "--n0", "64", "--n1", "64", "--k0", "13", "--k1", "29", "--p", "12"],
        "d31c0fc5d4e1c97c2ac57e7ac9c3ecf91a85464855d1cb476f806008528efb1f"),
    "count_sampled_part0": (
        ["count", *FIG2, "--p", "6", "--part", "0", *SAMPLED],
        "e4c7874ee736967570d251bd84e39e6e876aa95173e5e01d97f453a0f47ce3ed"),
    "count_sampled_both": (
        ["count", *FIG2, "--p", "6", "--part", "both", *SAMPLED],
        "9c71201d2883739519cfa435438671b6cced3ab527a744ed34995f4805890826"),
    "count_sampled_both_json": (
        ["count", "--n0", "9", "--n1", "5", "--k0", "4", "--k1", "1", "--p", "8", *SAMPLED,
         "--format", "json"],
        "6569319b8895a5babaf405d209d1db7f8a3a3fc3654248122272fbea5ce844a7"),
    "verify": (
        ["verify", *FIG2, "--p", "5"],
        "3ed0384ed4e87c3042e27fc21a0781baa24f1121d849a279a6919182f0e34019"),
}

# The default k0 range 0..3 makes n0 = 2, k0 = 3 infeasible: skipped points
# are part of the golden run.
SWEEP_CONFIG = "n0 = 2..3\nn1 = 2..3\nk1 = 0..1\np = 4,5\n"
SWEEP_DIGEST = "58f9d4923b0d622ae0e2368533c73e54451dd12dc6286dc2d7c70c587c5020ed"


def _stdout_sha256(capsys, argv) -> str:
    status = main(argv)
    out = capsys.readouterr().out
    assert status == 0
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_stdout(capsys, name):
    argv, digest = GOLDEN[name]
    assert _stdout_sha256(capsys, argv) == digest


def test_golden_sweep(capsys, tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(SWEEP_CONFIG)
    assert _stdout_sha256(capsys, ["sweep", "--config", str(config)]) == SWEEP_DIGEST
