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
K88 = ["--n0", "8", "--n1", "8", "--k0", "3", "--k1", "5"]
SAMPLED = ["--mode", "sampled", "--trials", "20", "--seed", "42"]

GOLDEN = {
    "spectrum": (
        ["spectrum", *FIG2],
        "f9f6d9e3c1f0abbc6e239a7fafae289269fa3886e09ea56c8a710a9007ec06af"),
    "distribution_analytic": (
        ["distribution", *FIG2, "--p", "6", "--engine", "analytic"],
        "4102ef032c2e8e77b1c9c1ae2ed12d821b458547de9595e7626a9408e82d336f"),
    "distribution_circuit": (
        ["distribution", *FIG2, "--p", "5", "--engine", "circuit"],
        "07a24f7537fa876e7413f5a533a7892791baee05a1cedf6c864904210be4df11"),
    "count_exact_part0": (
        ["count", *FIG2, "--p", "6", "--part", "0", "--mode", "exact"],
        "007b8e8e09912ef2c21b41686d2422b671d26fbb8c505821c57a1cdec9ba4aad"),
    "count_exact_part1_json": (
        ["count", *FIG2, "--p", "6", "--part", "1", "--mode", "exact", "--format", "json"],
        "1933c20937669e5aa171d2dccc5b197bdef7cf58ceb49f8934f5efe9132b762d"),
    "count_exact_both": (
        ["count", *FIG2, "--p", "5", "--part", "both", "--mode", "exact"],
        "151d7ac87a16d925ac3f2394e712041c3cb63b5826ec303f7cac425140f543e2"),
    "count_exact_both_json": (
        ["count", "--n0", "5", "--n1", "7", "--k0", "2", "--k1", "3", "--p", "4",
         "--part", "both", "--format", "json"],
        "8485a43d6d0c965acc51bd07ad696d9959af1d25de3663d7ebc9e0a895f5bcee"),
    "count_exact_both_json_p7": (
        ["count", *FIG2, "--p", "7", "--part", "both", "--format", "json"],
        "6d5a481609c13a9bfd72e81359fe959c904e653a8e0a1fd081019dbb1b664090"),
    # 65,536 rows in 16 blocks: pins the joint table across block edges.
    "count_exact_both_p8_blocks": (
        ["count", "--n0", "37", "--n1", "50", "--k0", "13", "--k1", "29", "--p", "8",
         "--part", "both"],
        "c738b791954f8884c318825f56371549e2cfbb1152fa224994cf2a96ad93c609"),
    "count_exact_both_p8_blocks_json": (
        ["count", "--n0", "37", "--n1", "50", "--k0", "13", "--k1", "29", "--p", "8",
         "--part", "both", "--format", "json"],
        "e2e2543d9897ba4a88563515c101984cc00945824ad2f8b69b2821f1119ceb67"),
    "distribution_analytic_p12_part64": (
        ["distribution", "--n0", "64", "--n1", "64", "--k0", "13", "--k1", "29", "--p", "12"],
        "c1bd1c1c7620e8d75d777ca5a8c9679543f9b6f5a15136ee93f5ff215b716bab"),
    "count_sampled_part0": (
        ["count", *FIG2, "--p", "6", "--part", "0", *SAMPLED],
        "e4c7874ee736967570d251bd84e39e6e876aa95173e5e01d97f453a0f47ce3ed"),
    "count_sampled_both": (
        ["count", *FIG2, "--p", "6", "--part", "both", *SAMPLED],
        "19b2b55708c4a312c4a71f194dea757f68ba4f863c7d6c299d18e0c0f0b76059"),
    "count_sampled_both_json": (
        ["count", "--n0", "9", "--n1", "5", "--k0", "4", "--k1", "1", "--p", "8", *SAMPLED,
         "--format", "json"],
        "405fe2beb60a51f6096da2c52209582b2543ff88bb1236b360f1a32e27055f2b"),
    "verify": (
        ["verify", *FIG2, "--p", "5"],
        "21b1698d78bf532608190a2094a91bf9a390d08c5f2d6d1e67c87f5de613f578"),
    "verify_k88_p8": (
        ["verify", *K88, "--p", "8"],
        "a9cc2eb47e9542bf00148c5d00c2ac033ca63a0c4565c3be2f8abdb89fbce673"),
    # Dimension 128 at p = 11: every prefix doubling of the circuit engine.
    "distribution_circuit_k88_p11": (
        ["distribution", *K88, "--p", "11", "--engine", "circuit"],
        "9ae7e47a4c69ce2ab828224ecb9c5b4d2da6654765198bad9315d39ba2ed9cdf"),
    "verify_k88_p11": (
        ["verify", *K88, "--p", "11"],
        "aa5156074b2825e2456c6b7674fa44894905b976a0cc09bdce0acd448df8a790"),
}

# The default k0 range 0..3 makes n0 = 2, k0 = 3 infeasible: skipped points
# are part of the golden run.
SWEEP_CONFIG = "n0 = 2..3\nn1 = 2..3\nk1 = 0..1\np = 4,5\n"
SWEEP_DIGEST = "2339099630993a00babc923cd657bd353e9e0c8c8fded3fa2ca80e575cebff79"
# The same sweep with --format json: the bytes a config line ``format = json``
# printed before the config lost its format key.
SWEEP_JSON_DIGEST = "a63fcafef7efef0cb265bcfe7fc8afbfa1665d113cd28916067b2d4d4405bd2a"


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


def test_golden_sweep_json(capsys, tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(SWEEP_CONFIG)
    argv = ["sweep", "--config", str(config), "--format", "json"]
    assert _stdout_sha256(capsys, argv) == SWEEP_JSON_DIGEST
