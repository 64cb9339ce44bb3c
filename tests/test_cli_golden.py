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
        "2fb0be81da849a1596ae888dfaf6f94ced828ff52240b338007d5999a8494de5"),
    "count_exact_part0": (
        ["count", *FIG2, "--p", "6", "--part", "0", "--mode", "exact"],
        "e5b00a72b7151461593ad8e5085a5ad57d1bdfdbb823113409b79e771ffb48e3"),
    "count_exact_part1_json": (
        ["count", *FIG2, "--p", "6", "--part", "1", "--mode", "exact", "--format", "json"],
        "fea0c8610313466a6151025636cfede4a2b0ddd124106f11aff5f86983cf37c1"),
    "count_exact_both": (
        ["count", *FIG2, "--p", "5", "--part", "both", "--mode", "exact"],
        "4d151767466efb7e1cf446517b2ca496e358858680b2fc1e4daff30bc761f589"),
    "count_exact_both_json": (
        ["count", "--n0", "5", "--n1", "7", "--k0", "2", "--k1", "3", "--p", "4",
         "--part", "both", "--format", "json"],
        "6a01088f27339209535c6ff14573c1da01a36ec6aa4e2c667b3653790711d762"),
    "count_exact_both_json_p7": (
        ["count", *FIG2, "--p", "7", "--part", "both", "--format", "json"],
        "6eafb9fca16a14009dbe052ffcc472869f74ba852cbad9232ab99533408dc96f"),
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
        "1172d32af38b64be506c44c2613ccde4d8df6101b7580121f3582fb5f2fd82cc"),
}

# The default k0 range 0..3 makes n0 = 2, k0 = 3 infeasible: skipped points
# are part of the golden run.
SWEEP_CONFIG = "n0 = 2..3\nn1 = 2..3\nk1 = 0..1\np = 4,5\n"
SWEEP_DIGEST = "f4d8cef9279d02a7ec0b68df9f69abd808279d2ec84b247fcef4512299571a04"


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
