"""Size audit: every engine and command, at every kind of register and instance size.

The register half runs each library call and CLI command at ``p`` = 0, 1,
the limit of the guard it meets first, one past that limit, 10^12 and 2^63.
The instance half runs every size-bearing instance option (``--n0``,
``--n1``, ``--k0``, ``--k1``, ``--marked0``, ``--marked1``, ``--trials``
and the part sizes and counts of a sweep ``--config``) on every command it
reaches, and ``BipartiteInstance``, ``from_counts`` and the sweep grid in
the library, at the limit of the guard the size meets, one past it, 10^18
and 2^63.  A part size meets the arc-space guard (64 edges, with the other
part of size 1), a count its part (64), a listed vertex the last vertex
(63), ``--trials`` :data:`MAX_JOINT_ROWS` and the sweep grid
:data:`MAX_SWEEP_POINTS` candidate points.

Within its time budget, a library call must return a value or raise
``ValueError`` or ``ResourceLimitError``; a command must exit 0 or 1, print
nothing on stderr when it exits 0 and one line when it exits 1, and print no
traceback.  The cases run in a child Python that caps its own address space
at 512 MiB, so a register formed before its guard (``2**p`` for
``p = 10**12`` wants about 125 GB) fails inside the cap instead of taking
the machine's memory.

Left out: valid marked counts of 10^7 or more, because
``BipartiteInstance.from_counts`` still builds the marked set (``k = 10**7``
of ``n0 = 10**9`` raised ``MemoryError`` under the cap); and in a sweep, a
count past its part, which is a skipped grid point that the sweep reports on
its own line before it refuses a grid with no feasible point.  The grid at
its limit is only parsed: evaluating 10^6 points takes minutes.

Run alone as ``python tests/test_register_sizes.py '<json list of [name, size]>'``,
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
    parse_sweep_config,
    partial_count,
    uniform_state,
)
from qwcount.analysis import MAX_SWEEP_POINTS
from qwcount.cli import MAX_JOINT_ROWS, main
from qwcount.phase_estimation import MAX_ANALYTIC_QUBITS, MAX_CIRCUIT_QUBITS
from qwcount.walk import MAX_FULL_SPACE_EDGES

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

SIZES = {"0": lambda limit: 0, "1": lambda limit: 1, "limit": lambda limit: limit,
         "limit+1": lambda limit: limit + 1, "10**12": lambda limit: 10**12,
         "2**63": lambda limit: 2**63}

# A part this large, with the other of size 1, fills the arc space.
PART = MAX_FULL_SPACE_EDGES

# name: (limit of the guard the size meets, call at that size)
INSTANCE_LIBRARY = {
    "BipartiteInstance_n0": (PART, lambda n: BipartiteInstance(n, 1).dim),
    "BipartiteInstance_marked1": (PART - 1, lambda v: BipartiteInstance(1, PART, marked1={v})),
    "from_counts_n1": (PART, lambda n: BipartiteInstance.from_counts(1, n, 0, 1).dim),
    "from_counts_k0": (PART, lambda k: BipartiteInstance.from_counts(PART, 1, k, 0)),
    "from_counts_k1": (PART, lambda k: BipartiteInstance.from_counts(1, PART, 0, k)),
    "parse_sweep_config": (MAX_SWEEP_POINTS, lambda points: parse_sweep_config(
        f"n0 = 1..{points}\nn1 = 1\nk0 = 0\nk1 = 0\np = 4\n")),
}

# Every library call of both halves.
CALLS = {**LIBRARY, **INSTANCE_LIBRARY}

# option: (limit of the guard it meets, instance options at that size)
OPTIONS = {
    "n0": (PART, lambda n: {"n0": n, "n1": 1, "k0": 1, "k1": 0}),
    "n1": (PART, lambda n: {"n0": 1, "n1": n, "k0": 0, "k1": 1}),
    "k0": (PART, lambda k: {"n0": PART, "n1": 1, "k0": k, "k1": 0}),
    "k1": (PART, lambda k: {"n0": 1, "n1": PART, "k0": 0, "k1": k}),
    "marked0": (PART - 1, lambda v: {"n0": PART, "n1": 1, "marked0": v, "k1": 0}),
    "marked1": (PART - 1, lambda v: {"n0": 1, "n1": PART, "k0": 0, "marked1": v}),
}
# Every command an instance option reaches, at a register every engine takes
# and where verify and sweep pass on every instance below.
COMMANDS = {
    "spectrum": ["spectrum"],
    "distribution_analytic": ["distribution", "--p", "5"],
    "distribution_circuit": ["distribution", "--p", "5", "--engine", "circuit"],
    "count_part0": ["count", "--p", "5", "--part", "0"],
    "count_part1": ["count", "--p", "5", "--part", "1"],
    "count_both": ["count", "--p", "5", "--part", "both"],
    "count_sampled": ["count", "--p", "5", "--mode", "sampled", "--seed", "3"],
    "verify": ["verify", "--p", "5"],
    "sweep": ["sweep"],
}
# name: argv before the instance options and --trials
TRIALS = {
    "trials_part0": [*COMMANDS["count_sampled"], "--part", "0"],
    "trials_part1": [*COMMANDS["count_sampled"], "--part", "1"],
    "trials_both": COMMANDS["count_sampled"],
    "trials_both_json": [*COMMANDS["count_sampled"], "--format", "json"],
}
INSTANCE_SIZES = {"limit": lambda limit: limit, "limit+1": lambda limit: limit + 1,
                  "10**18": lambda limit: 10**18, "2**63": lambda limit: 2**63}

# The cases that print a table of 2^20 rows: per grid index at p = 20, or per trial.
TABLES = {*((name, MAX_ANALYTIC_QUBITS) for name in ("count_part0", "count_part1",
                                                      "distribution_analytic")),
          *((name, MAX_JOINT_ROWS) for name in TRIALS)}


def instance_argv(name, size, config_path):
    """``option/command`` at an option's size, or a ``TRIALS`` case at ``size`` trials."""
    if name in TRIALS:
        return [*TRIALS[name], *INSTANCE_ARGS, "--trials", str(size), "--output", os.devnull]
    option, command = name.split("/")
    instance = OPTIONS[option][1](size)
    if command == "sweep":
        with open(config_path, "w", encoding="utf-8") as handle:
            handle.write("".join(f"{key} = {value}\n" for key, value in instance.items()))
            handle.write("p = 5\n")
        return ["sweep", "--config", config_path, "--output", os.devnull]
    options = [item for key, value in instance.items() for item in (f"--{key}", str(value))]
    return [*COMMANDS[command], *options, "--output", os.devnull]


def instance_cases(size):
    """Every instance case at one of ``INSTANCE_SIZES``: each option on each
    command it reaches (a sweep has no marked list, and a count past its part
    is a skipped sweep point), each library call, and ``--trials``."""
    cases = [(name, INSTANCE_SIZES[size](limit)) for name, (limit, _) in INSTANCE_LIBRARY.items()]
    for option, (limit, _) in OPTIONS.items():
        for command in COMMANDS:
            if command == "sweep" and (option.startswith("marked")
                                       or option.startswith("k") and size != "limit"):
                continue
            cases.append((f"{option}/{command}", INSTANCE_SIZES[size](limit)))
    cases.extend((name, INSTANCE_SIZES[size](MAX_JOINT_ROWS)) for name in TRIALS)
    return cases


def cli_argv(name, p, config_path):
    if name not in CLI:
        return instance_argv(name, p, config_path)
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
    """Child side: run each ``(name, size)`` under the address-space cap and
    print one JSON line per case as it ends."""
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    logging.basicConfig(stream=_Stderr(), level=logging.INFO, format="%(message)s")
    for name, size in cases:
        outcome, status, err = "value", None, io.StringIO()
        start = time.perf_counter()
        try:
            if name in CALLS:
                CALLS[name][1](size)
            else:
                with contextlib.redirect_stderr(err):
                    status = main(cli_argv(name, size, config_path))
        except (ValueError, ResourceLimitError) as exc:
            outcome = type(exc).__name__ if name in CALLS else "Traceback: " + repr(exc)
        except Exception as exc:  # MemoryError, OverflowError, ...
            outcome = "Traceback: " + "".join(traceback.format_exception_only(exc)).strip()
        print(json.dumps({"name": name, "size": size, "outcome": outcome, "status": status,
                          "stderr": err.getvalue(), "seconds": time.perf_counter() - start}),
              flush=True)


def failures(result):
    """What is wrong with one case's result; empty when it passes."""
    name = result["name"]
    budget = TABLE_BUDGET_S if (name, result["size"]) in TABLES else BUDGET_S
    found = []
    if result["seconds"] > budget:
        found.append(f"took {result['seconds']:.2f} s, budget {budget} s")
    if name in CALLS:
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


def audit(cases, tmp_path):
    """Run ``cases`` in one capped child and assert that every one passes."""
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
    assert [[r["name"], r["size"]] for r in results] == [list(c) for c in cases], error[-2000:]
    bad = {f"{r['name']} at {r['size']}": found for r in results if (found := failures(r))}
    assert not bad


@pytest.mark.parametrize("size", list(SIZES))
def test_every_engine_and_command_guards_its_register(size, tmp_path):
    audit([(name, SIZES[size](limit)) for name, (limit, _) in {**LIBRARY, **CLI}.items()], tmp_path)


@pytest.mark.parametrize("size", list(INSTANCE_SIZES))
def test_every_instance_option_is_guarded(size, tmp_path):
    audit(instance_cases(size), tmp_path)


if __name__ == "__main__":
    run_cases([tuple(case) for case in json.loads(sys.argv[1])], sys.argv[2])
