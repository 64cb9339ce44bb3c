"""Command-line front end emitting deterministic CSV or JSON.

Commands: ``spectrum`` (angles and eigenphase weights), ``distribution``
(exact phase-estimation outcome distribution, analytic or circuit engine),
``count`` (single-part or total counting, exact or sampled), ``sweep``
(grid of exact bound checks from a config file), ``verify`` (full check
suite on one instance).

Exit codes: 0 success, 1 invalid input or I/O failure, 2 verification or
threshold failure.  Floating values are printed with 17 significant digits
and identical inputs produce identical output bytes.  Sampled runs without
``--seed`` generate one, report it on stderr, and embed it in every row.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import sys

import numpy as np

from .analysis import (
    MAX_FULL_SPACE_EDGES,
    load_sweep_config,
    run_sweep,
    verify_suite,
    SweepRecord,
)
from .counting import full_count, partial_count
from .errors import ResourceLimitError
from .phase_estimation import exact_distribution, circuit_distribution
from .reduced import EIGENPHASE_LABELS, angles_from_instance, eigenphase_table
from .walk import BipartiteInstance, build_oracle, build_evolution, uniform_state

__all__ = ["main", "entrypoint", "build_parser", "emit"]

DISTRIBUTION_FIELDS = ("p", "omega_index", "omega_radians", "mass")
SPECTRUM_FIELDS = ("label", "phase_radians", "probability", "theta0", "theta1", "mu", "sigma")
PART_COUNT_FIELDS = ("p", "part", "n_part", "k_part", "omega_index", "omega_radians",
                     "theta_est", "k_est", "mass", "bound", "oracle_queries")
TOTAL_COUNT_FIELDS = ("p", "omega_index_0", "omega_index_1", "k_est_0", "k_est_1",
                      "k_est", "mass", "bound", "oracle_queries")
SAMPLED_PART_FIELDS = ("trial", "p", "part", "k_est", "k_rounded", "theta_est",
                       "bound", "oracle_queries", "seed")
SAMPLED_TOTAL_FIELDS = ("trial", "p", "k_est_0", "k_est_1", "k_est", "k_rounded",
                        "bound", "oracle_queries", "seed")
VERIFY_FIELDS = ("check", "value", "limit", "kind", "passed")


class UsageError(Exception):
    """Invalid command line or configuration input (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit with status 2
        raise UsageError(message)


def _add_instance_arguments(parser) -> None:
    parser.add_argument("--n0", type=int, required=True, help="size of part 0")
    parser.add_argument("--n1", type=int, required=True, help="size of part 1")
    parser.add_argument("--k0", type=int, help="marked count in part 0 (canonical set {0..k0-1})")
    parser.add_argument("--k1", type=int, help="marked count in part 1 (canonical set {0..k1-1})")
    parser.add_argument("--marked0", help="explicit marked vertices in part 0, e.g. 1,3")
    parser.add_argument("--marked1", help="explicit marked vertices in part 1, e.g. 0")


def _add_output_arguments(parser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default csv)")
    parser.add_argument("--output", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qwcount",
                     description="Exact simulator and verifier for quantum-walk counting "
                                 "on complete bipartite graphs.")
    commands = parser.add_subparsers(dest="command", required=True)

    spectrum = commands.add_parser("spectrum", help="angles and eigenphase weights")
    _add_instance_arguments(spectrum)
    _add_output_arguments(spectrum)

    distribution = commands.add_parser("distribution", help="exact outcome distribution")
    _add_instance_arguments(distribution)
    distribution.add_argument("--p", type=int, required=True, help="register qubits")
    distribution.add_argument("--engine", choices=("analytic", "circuit"), default="analytic")
    _add_output_arguments(distribution)

    count = commands.add_parser("count", help="count marked vertices")
    _add_instance_arguments(count)
    count.add_argument("--p", type=int, required=True, help="register qubits")
    count.add_argument("--part", choices=("0", "1", "both"), default="both")
    count.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    count.add_argument("--trials", type=int, default=1, help="sampled-mode repetitions")
    count.add_argument("--seed", type=int, default=None, help="sampled-mode RNG seed")
    _add_output_arguments(count)

    sweep = commands.add_parser("sweep", help="exact bound checks over a parameter grid")
    sweep.add_argument("--config", required=True, help="sweep configuration file")
    _add_output_arguments(sweep)

    verify = commands.add_parser("verify", help="full check suite on one instance")
    _add_instance_arguments(verify)
    verify.add_argument("--p", type=int, default=5, help="register qubits (default 5)")
    verify.add_argument("--corrupt-oracle", action="store_true",
                        help="negative control: flip one oracle sign before verifying")
    _add_output_arguments(verify)

    return parser


def _parse_vertex_list(text: str, name: str) -> frozenset[int]:
    try:
        return frozenset(int(item) for item in text.split(",") if item.strip())
    except ValueError:
        raise UsageError(f"--{name} expects comma-separated integers, got {text!r}")


def _instance_from_args(args) -> BipartiteInstance:
    marked = []
    for part, count, listed in ((0, args.k0, args.marked0), (1, args.k1, args.marked1)):
        if count is not None and listed is not None:
            raise UsageError(f"--k{part} and --marked{part} are mutually exclusive")
        if listed is not None:
            marked.append(_parse_vertex_list(listed, f"marked{part}"))
        elif count is not None:
            if count < 0:
                raise UsageError(f"--k{part} must be nonnegative, got {count}")
            marked.append(frozenset(range(count)))
        else:
            marked.append(frozenset())
    try:
        return BipartiteInstance(args.n0, args.n1, marked[0], marked[1])
    except ValueError as exc:
        raise UsageError(str(exc))


def _format_scalar(value, as_json: bool = False) -> str:
    """One CSV cell, or one JSON value when ``as_json``: None and strings differ."""
    if value is None:
        return "null" if as_json else ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if as_json and not isinstance(value, (int, np.integer)):
        return json.dumps(str(value))
    return str(value)


def _render_csv(rows, fieldnames) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_format_scalar(row[name]) for name in fieldnames])
    return buffer.getvalue()


def _render_json(rows, fieldnames) -> str:
    keys = [(json.dumps(name), name) for name in fieldnames]
    items = []
    for row in rows:
        body = ", ".join(f"{key}: {_format_scalar(row[name], as_json=True)}" for key, name in keys)
        items.append("  {" + body + "}")
    if not items:
        return "[]\n"
    return "[\n" + ",\n".join(items) + "\n]\n"


def emit(rows, fieldnames, output_format: str, destination: str | None) -> None:
    """Write rows as CSV (fixed header) or JSON (array of objects) deterministically."""
    text = _render_csv(rows, fieldnames) if output_format == "csv" else _render_json(rows, fieldnames)
    if destination in (None, "-"):
        sys.stdout.write(text)
        return
    with open(destination, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _generate_seed() -> int:
    seed = int(np.random.SeedSequence().generate_state(1)[0])
    print(f"generated seed: {seed}", file=sys.stderr)
    return seed


def _trial_seed(base: int, trial: int) -> int:
    # Stateless per-trial derivation so any single trial can be reproduced.
    return int(np.random.SeedSequence(entropy=base, spawn_key=(trial,)).generate_state(1)[0])


def _cmd_spectrum(args) -> tuple[list[dict], tuple[str, ...], int]:
    inst = _instance_from_args(args)
    angles = angles_from_instance(inst)
    mixture = eigenphase_table(angles)
    rows = [
        {
            "label": label,
            "phase_radians": float(phase),
            "probability": float(weight),
            "theta0": angles.theta0,
            "theta1": angles.theta1,
            "mu": angles.mu,
            "sigma": angles.sigma,
        }
        for label, phase, weight in zip(EIGENPHASE_LABELS, mixture.phases, mixture.weights)
    ]
    return rows, SPECTRUM_FIELDS, 0


def _cmd_distribution(args) -> tuple[list[dict], tuple[str, ...], int]:
    inst = _instance_from_args(args)
    if args.engine == "analytic":
        dist = exact_distribution(eigenphase_table(angles_from_instance(inst)), args.p)
    else:
        if inst.num_edges > MAX_FULL_SPACE_EDGES:
            raise ResourceLimitError(
                f"circuit engine limited to {MAX_FULL_SPACE_EDGES} edges, got {inst.num_edges}")
        evolution = build_evolution(inst, build_oracle(inst))
        dist = circuit_distribution(evolution, uniform_state(inst), args.p)
    rows = [
        {"p": dist.p, "omega_index": index, "omega_radians": float(omega), "mass": float(mass)}
        for index, (omega, mass) in enumerate(zip(dist.omegas(), dist.mass))
    ]
    return rows, DISTRIBUTION_FIELDS, 0


def _part_rows(dist) -> list[dict]:
    columns = (dist.omega.tolist(), dist.theta_est.tolist(), dist.k_est.tolist(), dist.mass.tolist())
    return [
        {
            "p": dist.p,
            "part": dist.part,
            "n_part": dist.n_target,
            "k_part": dist.k_true,
            "omega_index": index,
            "omega_radians": omega,
            "theta_est": theta_est,
            "k_est": k_est,
            "mass": mass,
            "bound": dist.bound,
            "oracle_queries": dist.oracle_queries,
        }
        for index, (omega, theta_est, k_est, mass) in enumerate(zip(*columns))
    ]


def _total_rows(joint) -> list[dict]:
    part1 = list(enumerate(zip(joint.part1.k_est.tolist(), joint.part1.mass.tolist())))
    rows = []
    for index0, (k0, m0) in enumerate(zip(joint.part0.k_est.tolist(), joint.part0.mass.tolist())):
        for index1, (k1, m1) in part1:
            rows.append({
                "p": joint.p,
                "omega_index_0": index0,
                "omega_index_1": index1,
                "k_est_0": k0,
                "k_est_1": k1,
                "k_est": k0 + k1,
                "mass": m0 * m1,
                "bound": joint.bound,
                "oracle_queries": joint.oracle_queries,
            })
    return rows


def _cmd_count(args) -> tuple[list[dict], tuple[str, ...], int]:
    inst = _instance_from_args(args)
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    part = None if args.part == "both" else int(args.part)
    if args.mode == "sampled":
        seed = args.seed if args.seed is not None else _generate_seed()
    dist = full_count(args.p, inst) if part is None else partial_count(args.p, inst, part)
    if args.mode == "exact":
        if part is None:
            return _total_rows(dist), TOTAL_COUNT_FIELDS, 0
        return _part_rows(dist), PART_COUNT_FIELDS, 0

    # One pushforward per run; trial t draws with its own derived generator.
    rows = []
    for trial in range(args.trials):
        estimate = dist.draw(np.random.default_rng(_trial_seed(seed, trial)))
        row = {"trial": trial, "p": estimate.p, "k_est": estimate.k_est,
               "k_rounded": estimate.k_rounded, "bound": estimate.bound,
               "oracle_queries": estimate.oracle_queries, "seed": seed}
        if part is None:
            row.update(k_est_0=estimate.part0.k_est, k_est_1=estimate.part1.k_est)
        else:
            row.update(part=part, theta_est=estimate.theta_est)
        rows.append(row)
    return rows, SAMPLED_TOTAL_FIELDS if part is None else SAMPLED_PART_FIELDS, 0


def _cmd_sweep(args) -> tuple[list[dict], tuple[str, ...], int]:
    try:
        cfg = load_sweep_config(args.config)
    except ValueError as exc:
        raise UsageError(f"invalid sweep config: {exc}")
    records = run_sweep(cfg)
    rows = [record.as_dict() for record in records]
    status = 0 if all(record.all_passed() for record in records) else 2
    if args.format is None:
        args.format = cfg.output_format
    return rows, SweepRecord.FIELD_ORDER, status


def _cmd_verify(args) -> tuple[list[dict], tuple[str, ...], int]:
    inst = _instance_from_args(args)
    oracle = None
    if args.corrupt_oracle:
        oracle = build_oracle(inst)
        oracle[0, 0] = -oracle[0, 0]
    report = verify_suite(inst, args.p, oracle=oracle)
    rows = [
        {"check": c.name, "value": c.value, "limit": c.limit, "kind": c.kind, "passed": c.passed}
        for c in report.checks
    ]
    return rows, VERIFY_FIELDS, 0 if report.all_passed else 2


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "distribution": _cmd_distribution,
    "count": _cmd_count,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        rows, fieldnames, status = _COMMANDS[args.command](args)
        emit(rows, fieldnames, args.format or "csv", args.output)
        return status
    except (UsageError, ValueError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
