"""Register-size audit: every engine and command, at every kind of register size.

Each library call and CLI command runs at ``p`` = 0, 1, the limit of the
guard it meets first, one past that limit, 10^12 and 2^63.  Within its time
budget, a library call must return a value or raise ``ValueError`` or
``ResourceLimitError``; a command must exit 0 or 1, print nothing on stderr
when it exits 0 and one line when it exits 1, and print no traceback.  The
cases run in a child Python that caps its own address space at 512 MiB, so a
register formed before its guard (``2**p`` for ``p = 10**12`` wants about
125 GB) fails inside the cap instead of taking the machine's memory.

Marked counts are out of scope: ``BipartiteInstance.from_counts`` at
``k`` near 10^9 still builds the marked set.

Run alone as ``python tests/test_register_sizes.py '<json list of [name, p]>'``,
this file is the child: it prints one JSON line per case.
"""

import contextlib
import io
import json
import logging
import os
import resource
import subprocess
import sys
import time
import traceback

import pytest

from qwcount import (
    BipartiteInstance,
    ResourceLimitError,
    angles_from_instance,
    build_evolution,
    circuit_distribution,
    eigenphase_table,
    exact_distribution,
    full_count,
    good_estimate_mass,
    grover_count,
    partial_count,
    uniform_state,
)
from qwcount.cli import MAX_JOINT_ROWS, main
from qwcount.phase_estimation import MAX_ANALYTIC_QUBITS, MAX_CIRCUIT_QUBITS

from conftest import package_env

ADDRESS_SPACE = 512 * 2**20
BUDGET_S = 1.0
# A table of 2^20 rows is output-bound: about 2 s to format and write.
TABLE_BUDGET_S = 10.0
CHILD_TIMEOUT_S = 120

INST = BipartiteInstance.from_counts(3, 4, 1, 2)  # verify and sweep pass at p = 1 and the limits
INSTANCE_ARGS = ["--n0", "3", "--n1", "4", "--k0", "1", "--k1", "2"]
JOINT_LIMIT = (MAX_JOINT_ROWS.bit_length() - 1) // 2
# Largest p whose every grid position is below 2^52.
GRID_LIMIT = 52

# name: (limit of the first guard met, call at p)
LIBRARY = {
    "exact_distribution": (MAX_ANALYTIC_QUBITS, lambda p: exact_distribution(
        eigenphase_table(angles_from_instance(INST)), p)),
    "circuit_distribution": (MAX_CIRCUIT_QUBITS, lambda p: circuit_distribution(
        build_evolution(INST), uniform_state(INST), p)),
    "partial_count": (MAX_ANALYTIC_QUBITS, lambda p: partial_count(p, INST, 1)),
    "full_count": (MAX_ANALYTIC_QUBITS, lambda p: full_count(p, INST)),
    "grover_count": (MAX_ANALYTIC_QUBITS, lambda p: grover_count(p, 12, 3)),
    "good_estimate_mass": (GRID_LIMIT, lambda p: good_estimate_mass(0.1, p)),
}

# name: (limit of the first guard met, argv at p without the sweep config)
CLI = {
    "count_part0": (MAX_ANALYTIC_QUBITS, ["count", "--part", "0"]),
    "count_part1": (MAX_ANALYTIC_QUBITS, ["count", "--part", "1"]),
    "count_both": (JOINT_LIMIT, ["count", "--part", "both"]),
    "count_part0_sampled": (MAX_ANALYTIC_QUBITS, ["count", "--part", "0", "--mode", "sampled"]),
    "count_part1_sampled": (MAX_ANALYTIC_QUBITS, ["count", "--part", "1", "--mode", "sampled"]),
    "count_both_sampled": (MAX_ANALYTIC_QUBITS, ["count", "--part", "both", "--mode", "sampled"]),
    "distribution_analytic": (MAX_ANALYTIC_QUBITS, ["distribution", "--engine", "analytic"]),
    "distribution_circuit": (MAX_CIRCUIT_QUBITS, ["distribution", "--engine", "circuit"]),
    "verify": (MAX_CIRCUIT_QUBITS, ["verify"]),
    "sweep": (MAX_ANALYTIC_QUBITS, ["sweep"]),
}
# The cases that print a table with a row per grid index at p = 20.
TABLES = {"count_part0", "count_part1", "distribution_analytic"}

SIZES = {"0": lambda limit: 0, "1": lambda limit: 1, "limit": lambda limit: limit,
         "limit+1": lambda limit: limit + 1, "10**12": lambda limit: 10**12,
         "2**63": lambda limit: 2**63}


def cli_argv(name, p, config_path):
    argv = CLI[name][1]
    if argv == ["sweep"]:
        with open(config_path, "w", encoding="utf-8") as handle:
            handle.write(f"n0 = 3\nn1 = 4\nk0 = 1\nk1 = 2\np = {p}\n")
        return ["sweep", "--config", config_path, "--output", os.devnull]
    seed = ["--seed", "3"] if "sampled" in argv else []
    return [*argv, *INSTANCE_ARGS, "--p", str(p), *seed, "--output", os.devnull]


class _Stderr:
    """``sys.stderr`` as it is at each write, so that log lines land in the
    capture of the case that makes them."""

    def write(self, text):
        sys.stderr.write(text)

    def flush(self):
        sys.stderr.flush()


def run_cases(cases, config_path):
    """Child side: run each ``(name, p)`` under the address-space cap and
    print one JSON line per case as it ends."""
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    logging.basicConfig(stream=_Stderr(), level=logging.INFO, format="%(message)s")
    for name, p in cases:
        outcome, status, err = "value", None, io.StringIO()
        start = time.perf_counter()
        try:
            if name in LIBRARY:
                LIBRARY[name][1](p)
            else:
                with contextlib.redirect_stderr(err):
                    status = main(cli_argv(name, p, config_path))
        except (ValueError, ResourceLimitError) as exc:
            outcome = type(exc).__name__ if name in LIBRARY else "Traceback: " + repr(exc)
        except Exception as exc:  # MemoryError, OverflowError, ...
            outcome = "Traceback: " + "".join(traceback.format_exception_only(exc)).strip()
        print(json.dumps({"name": name, "p": p, "outcome": outcome, "status": status,
                          "stderr": err.getvalue(), "seconds": time.perf_counter() - start}),
              flush=True)


def failures(result):
    """What is wrong with one case's result; empty when it passes."""
    name, p = result["name"], result["p"]
    budget = TABLE_BUDGET_S if name in TABLES and p == MAX_ANALYTIC_QUBITS else BUDGET_S
    found = []
    if result["seconds"] > budget:
        found.append(f"took {result['seconds']:.2f} s, budget {budget} s")
    if name in LIBRARY:
        if result["outcome"] not in ("value", "ValueError", "ResourceLimitError"):
            found.append(result["outcome"])
        return found
    err = result["stderr"]
    if result["outcome"] != "value" or "Traceback" in err:
        found.append(f"traceback: {result['outcome']} {err!r}")
    elif result["status"] not in (0, 1):
        found.append(f"exit {result['status']}")
    elif len(err.splitlines()) != result["status"] or (err and not err.startswith("error: ")):
        found.append(f"exit {result['status']} with stderr {err!r}")
    return found


@pytest.mark.parametrize("size", list(SIZES))
def test_every_engine_and_command_guards_its_register(size, tmp_path):
    cases = [(name, SIZES[size](limit)) for name, (limit, _) in {**LIBRARY, **CLI}.items()]
    env = {**package_env(), "OPENBLAS_NUM_THREADS": "1"}
    try:
        child = subprocess.run(
            [sys.executable, __file__, json.dumps(cases), str(tmp_path / "sweep.cfg")],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        output, error = child.stdout, child.stderr
    except subprocess.TimeoutExpired as exc:
        output, error = exc.stdout or "", f"timed out after {CHILD_TIMEOUT_S} s"
    if isinstance(output, bytes):
        output = output.decode()
    results = [json.loads(line) for line in output.splitlines()]
    assert [[r["name"], r["p"]] for r in results] == [list(c) for c in cases], error[-2000:]
    bad = {f"{r['name']} at p={r['p']}": found for r in results if (found := failures(r))}
    assert not bad


if __name__ == "__main__":
    run_cases([tuple(case) for case in json.loads(sys.argv[1])], sys.argv[2])
