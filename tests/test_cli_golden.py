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
        "ad81b306d6b3074b093b5ddff79c6ac685ab23a51214e1b4e87a5548c8c9a144"),
    "count_exact_part1_json": (
        ["count", *FIG2, "--p", "6", "--part", "1", "--mode", "exact", "--format", "json"],
        "5f81977de4fd91284271cd7d5209346bd41fbf44ce2248eb1740ee31d3a86dcf"),
    "count_exact_both": (
        ["count", *FIG2, "--p", "5", "--part", "both", "--mode", "exact"],
        "be32f50471a6435d30d3437b29563400dfda759733350ee6c3d803dd1d3385e7"),
    "count_exact_both_json": (
        ["count", "--n0", "5", "--n1", "7", "--k0", "2", "--k1", "3", "--p", "4",
         "--part", "both", "--format", "json"],
        "ddf684f402ed8f6ff4e11535f75e23e1ebea26e4c68893b1544b64c5d5a01528"),
    "count_exact_both_json_p7": (
        ["count", *FIG2, "--p", "7", "--part", "both", "--format", "json"],
        "1822807207e0d2048b51ca987a4297231830439457382311e3fb97337b34c5cc"),
    "distribution_analytic_p12_part64": (
        ["distribution", "--n0", "64", "--n1", "64", "--k0", "13", "--k1", "29", "--p", "12"],
        "d31c0fc5d4e1c97c2ac57e7ac9c3ecf91a85464855d1cb476f806008528efb1f"),
    "count_sampled_part0": (
        ["count", *FIG2, "--p", "6", "--part", "0", *SAMPLED],
        "e4c7874ee736967570d251bd84e39e6e876aa95173e5e01d97f453a0f47ce3ed"),
    "count_sampled_both": (
        ["count", *FIG2, "--p", "6", "--part", "both", *SAMPLED],
        "e58a1efd394469ac8181732e257d4dfa614204be9740311e7fdcb8de4895ac56"),
    "count_sampled_both_json": (
        ["count", "--n0", "9", "--n1", "5", "--k0", "4", "--k1", "1", "--p", "8", *SAMPLED,
         "--format", "json"],
        "62db41b7cd1396ca69bb6e08b75c5dc4c88b8efc2d5f97f6f32e44eae7e7a7b2"),
    "verify": (
        ["verify", *FIG2, "--p", "5"],
        "3ed0384ed4e87c3042e27fc21a0781baa24f1121d849a279a6919182f0e34019"),
}

# The default k0 range 0..3 makes n0 = 2, k0 = 3 infeasible: skipped points
# are part of the golden run.
SWEEP_CONFIG = "n0 = 2..3\nn1 = 2..3\nk1 = 0..1\np = 4,5\n"
SWEEP_DIGEST = "cb2e29e82f73f3330149d3cfa85f27211ef2f89d7590b04f2527b2326de2e635"


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
