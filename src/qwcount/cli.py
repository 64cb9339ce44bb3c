"""Command-line front end emitting deterministic CSV or JSON.

Commands: ``spectrum`` (angles and eigenphase weights), ``distribution``
(exact phase-estimation outcome distribution, analytic or circuit engine),
``count`` (single-part or total counting, exact or sampled), ``sweep``
(grid of exact bound checks from a config file), ``verify`` (full check
suite on one instance).

Each command returns its table as blocks of columns, and :func:`emit`, the
one writer for every command, writes each block as it comes and keeps
nothing between blocks, so a table of :data:`MAX_JOINT_ROWS` rows is never
held whole.

Exit codes: 0 success, 1 invalid input or I/O failure, 2 verification or
threshold failure.  Floating values are printed with 17 significant digits
and identical inputs produce identical output bytes.  Sampled runs without
``--seed`` generate one, report it on stderr, and embed it in every row.  All
trials draw from one generator seeded with it, the stream that
:func:`~qwcount.phase_estimation.sample` draws.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import logging
import sys

import numpy as np

from .analysis import (
    load_sweep_config,
    run_sweep,
    verify_suite,
    SweepRecord,
)
from .counting import full_count, partial_count
from .errors import ResourceLimitError
from .phase_estimation import exact_distribution, circuit_distribution, grid_indices
from .reduced import EIGENPHASE_LABELS, angles_from_instance, eigenphase_table
from .walk import BipartiteInstance, build_oracle, build_evolution, uniform_state

__all__ = ["main", "entrypoint", "build_parser", "emit", "MAX_JOINT_ROWS"]

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

# Rows of the exact ``count --part both`` table (p <= 10), and sampled ``--trials``.
MAX_JOINT_ROWS = 4**10
# Rows formatted and written at a time when that table is streamed.
_BLOCK_ROWS = 4096
# How every float and integer is printed, one value or a whole array at once.
_FLOAT_SPEC, _INT_SPEC = "%.17g", "%d"
# Float64 arrays of at least this many values are printed by _format_floats;
# below it, its fixed cost per call makes one `%` cheaper (crossover measured
# near 225 values).
_FLOAT_KERNEL_MIN = 256
# Values per pass of _format_floats: its temporaries then fit a 2 MiB L2 cache.
_FLOAT_KERNEL_PASS = 2048
# Dekker's splitter 2**27 + 1 cuts a double into two halves whose products are exact.
_SPLIT = 134217729.0
# The kernel decides the 17th digit when the fraction of its product is this far
# from a half.  The product's error is below 4e-15 (see _format_floats).
_TIE_MARGIN = 1e-7
# Decimal exponents of the kernel's range, |x| in [1e-280, 1e290]: no split or
# product of _format_floats overflows or underflows there.
_EXPONENTS = range(-281, 291)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit with status 2
        raise ValueError(message)


def _add_instance_arguments(parser) -> None:
    parser.add_argument("--n0", type=int, required=True, help="size of part 0")
    parser.add_argument("--n1", type=int, required=True, help="size of part 1")
    parser.add_argument("--k0", type=int, help="marked count in part 0 (canonical set {0..k0-1})")
    parser.add_argument("--k1", type=int, help="marked count in part 1 (canonical set {0..k1-1})")
    parser.add_argument("--marked0", help="explicit marked vertices in part 0, e.g. 1,3")
    parser.add_argument("--marked1", help="explicit marked vertices in part 1, e.g. 0")


def _add_output_arguments(parser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
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


# main's parser, built on its first call, so in-process callers pay for the
# argparse tree once: the tree depends on no argument of main.
_parser = functools.cache(build_parser)


def _parse_vertex_list(text: str, name: str) -> frozenset[int]:
    try:
        return frozenset(int(item) for item in text.split(",") if item.strip())
    except ValueError:
        raise ValueError(f"--{name} expects comma-separated integers, got {text!r}")


def _instance_from_args(args) -> BipartiteInstance:
    """The canonical instance of the counts, checked before any set is built,
    with each explicit ``--markedJ`` list put in place of its part's set."""
    listed = {}
    for part, count, text in ((0, args.k0, args.marked0), (1, args.k1, args.marked1)):
        if count is not None and text is not None:
            raise ValueError(f"--k{part} and --marked{part} are mutually exclusive")
        if text is not None:
            listed[f"marked{part}"] = _parse_vertex_list(text, f"marked{part}")
    inst = BipartiteInstance.from_counts(args.n0, args.n1, args.k0 or 0, args.k1 or 0)
    return dataclasses.replace(inst, **listed) if listed else inst


def _format_scalar(value, as_json: bool) -> str:
    """One CSV cell, or one JSON value when ``as_json``: None and strings differ."""
    if value is None:
        return "null" if as_json else ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return _FLOAT_SPEC % float(value)
    if isinstance(value, (int, np.integer)):
        return _INT_SPEC % value
    return json.dumps(str(value)) if as_json else _csv_field(str(value))


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes one field of a row (QUOTE_MINIMAL)."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((text, ""))
    return buffer.getvalue()[:-2]


def _format_numbers(values: np.ndarray) -> list[str]:
    """Every value of a numeric array, as ``_format_scalar`` prints it.

    A float64 array of at least ``_FLOAT_KERNEL_MIN`` values goes to
    :func:`_format_floats`, ``_FLOAT_KERNEL_PASS`` values at a time; any
    other in one ``%``.
    """
    if values.dtype != np.float64 or values.size < _FLOAT_KERNEL_MIN:
        return _format_each(values)
    cells = []
    for start in range(0, values.size, _FLOAT_KERNEL_PASS):
        cells += _format_floats(values[start:start + _FLOAT_KERNEL_PASS])
    return cells


def _format_each(values: np.ndarray) -> list[str]:
    """Every value of a numeric array, as ``_format_scalar`` prints it, in one ``%``."""
    spec = _FLOAT_SPEC if values.dtype.kind == "f" else _INT_SPEC
    return ((spec + "\n") * values.size % tuple(values.tolist())).split("\n")[:-1]


@functools.cache
def _power_of_ten(s: int) -> tuple[float, float, float, float]:
    """``10**s`` as ``hi + lo``, each the double nearest what it stands for, and
    the Dekker halves of ``hi``, from exact int arithmetic; one exponent at a time."""
    if s >= 0:
        hi = float(10**s)
        lo = float(10**s - int(hi))
    else:
        hi = 1 / 10**-s
        num, den = hi.as_integer_ratio()
        lo = (den - num * 10**-s) / (den * 10**-s)
    head = hi * _SPLIT
    head -= head - hi
    return hi, lo, head, hi - head


@functools.cache
def _digit_tables():
    """The lookup tables of :func:`_format_floats`, built on its first call.

    ``quads[v]`` is the four ASCII digits of ``v < 10**4`` as one uint32 and
    ``zeros[v]`` their trailing zeros (4 for 0).  Per exponent of
    ``_EXPONENTS``: ``suffixes`` holds the 8 bytes after the digits (``"\\n"``,
    or ``"e-05\\n"`` in ``%g``'s exponent form) and ``layouts`` the row of
    ``masks`` for 17 significant digits.  ``masks`` has a row per layout and
    digit count.
    """
    quad = np.arange(10**4)
    quads = (quad[:, None] // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8).view(np.uint32)
    zeros = sum((quad % 10**k == 0).astype(np.uint8) for k in range(1, 5))
    zeros[0] = 4
    suffixes = np.zeros((len(_EXPONENTS), 8), np.uint8)
    for row, x in zip(suffixes, _EXPONENTS):
        text = b"\n" if -4 <= x < 17 else b"e%+03d\n" % x
        row[:len(text)] = np.frombuffer(text, np.uint8)
    # A cell is 52 bytes: its 17 digits padded with zeros to 20 (the sign in
    # the second byte), ".", the padded digits again and the suffix; the mask
    # keeps the bytes the cell shows.  Layout c < 21 is the fixed form of
    # exponent c - 4 and layout 21 the exponent form.  The first copy shows
    # the digits before the point (or the "0" of "0.00ddd"), the second those
    # after it, from padded position ``first``, so with a fixed form's zeros.
    x = np.arange(-4, 17)
    point = np.append(np.maximum(x + 1, 0), 1)[:, None, None]
    first = np.append(x + 4, 4)[:, None, None]
    count, column = np.arange(18)[:, None], np.arange(52)
    masks = ((column == 1) | (column >= 44)
             | ((column == 2) & (point == 0))
             | ((column >= 3) & (column < 3 + point))
             | ((column == 20) & (count > point))
             | ((column >= 24 + first) & (column < 27 + count)))
    masks = masks.reshape(-1, 52)
    exponent = np.array(_EXPONENTS)
    layouts = 18 * np.where((exponent >= -4) & (exponent < 17), exponent + 4, 21) + 17
    return (quads.ravel(), zeros, np.ascontiguousarray(suffixes.view(np.uint32).T), layouts,
            np.ascontiguousarray((masks * np.uint8(255)).view(np.uint32).T))


def _format_floats(values: np.ndarray) -> list[str]:
    """``'%.17g' % v`` for every ``v`` of a float64 array, most without ``%``.

    ``y = |v|·10**(16 - e)``, ``e = floor(log10 |v|)``, is formed as ``p + t``:
    ``10**(16 - e)`` is the exact pair ``hi + lo`` (:func:`_power_of_ten`),
    ``|v|·hi = p + err`` exactly by Dekker's TwoProduct and ``t = err + |v|·lo``.
    ``t`` is within 4e-15 of ``y - p``: 2**-106·y from the pair, half an ulp
    of ``|v|·lo`` (below 12 in size) and half an ulp of ``t`` (below 20).  So
    ``round(y)``, the 17 significant digits ``%`` prints, is decided unless
    ``frac(t)`` is within ``_TIE_MARGIN`` of a half.  Such a value, one whose
    ``floor(y)`` has not 17 digits (``log10`` is off near a power of ten),
    zero, a non-finite value and one outside ``[1e-280, 1e290]`` go to ``%``.
    The digits are laid out for every row at once (:func:`_digit_tables`),
    bytes a cell does not show are zeroed, and the column is decoded once and
    split.  A row sent to ``%`` is laid out too, its bytes ending in the one
    newline of its suffix, and its cell is then replaced.
    """
    # Every index taken below is in range by construction; "clip" skips the check.
    quads, zeros, suffixes, layouts, masks = _digit_tables()
    size = values.size
    a = np.abs(values)
    ok = (a >= 1e-280) & (a <= 1e290)
    a[~ok] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    low = int(e.min())
    powers = np.array([_power_of_ten(16 - k) for k in range(low, int(e.max()) + 1)]).T
    hi, lo, hi_head, hi_tail = np.take(powers, e - low, axis=1, mode="clip")
    head = a * _SPLIT
    head -= head - a
    tail = a - head
    p = a * hi
    t = ((head * hi_head - p) + head * hi_tail + tail * hi_head) + tail * hi_tail + a * lo
    whole = np.floor(t)
    t -= whole
    digits = p.astype(np.int64) + whole.astype(np.int64)
    ok &= (digits >= 10**16) & (np.abs(t - 0.5) > _TIE_MARGIN)
    digits += t > 0.5
    ok &= digits < 10**17
    e -= _EXPONENTS.start
    upper = digits // 10**8
    lower = (digits - upper * 10**8).astype(np.uint32)
    upper = upper.astype(np.uint32)
    q = np.array([upper // 10**8, upper // 10**4 % 10**4, upper % 10**4,
                  lower // 10**4, lower % 10**4])
    # Trailing zeros: those of the last nonzero quad, and 4 per zero quad after it.
    trailing = np.zeros(size, np.uint8)
    zero_tail = np.ones(size, bool)
    for quad in q[:0:-1]:
        trailing += zero_tail * np.take(zeros, quad, mode="clip")
        zero_tail &= quad == 0
    mask_row = np.take(layouts, e, mode="clip") - trailing
    out = np.empty((13, size), np.uint32)
    np.take(quads, q, out=out[:5], mode="clip")
    out[5] = np.frombuffer(b".\0\0\0", np.uint32)
    out[6:11] = out[:5]
    np.take(suffixes, e, axis=1, out=out[11:], mode="clip")
    out[0].view(np.uint8)[1::4] = (values < 0) * np.uint8(ord("-"))
    out &= np.take(masks, mask_row, axis=1, mode="clip")
    cells = out.T.tobytes().translate(None, b"\0").decode("ascii").split("\n")
    cells.pop()
    bad = np.flatnonzero(~ok)
    for row, cell in zip(bad.tolist(), _format_each(values[bad])):
        cells[row] = cell
    return cells


def _text(values: np.ndarray) -> np.ndarray:
    """The text half of a ``(text, codes)`` pair: ``values`` formatted, as an object array."""
    return np.array(_format_numbers(values), dtype=object)


def _cells(column, as_json: bool):
    """A column's cells as a list of strings, or one string for a scalar column.

    A numeric array is formatted as it is; a ``(text, codes)`` pair gathers ``text[codes]``.
    """
    if isinstance(column, tuple):
        return column[0][column[1]].tolist()
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiu":
        return _format_numbers(column)
    if isinstance(column, np.ndarray):
        column = column.tolist()
    if isinstance(column, list):
        return [_format_scalar(value, as_json) for value in column]
    return _format_scalar(column, as_json)


def _write_table(handle, blocks, fieldnames, as_json: bool) -> None:
    heads = [""] + [", " if as_json else ","] * (len(fieldnames) - 1)
    if as_json:
        heads = [head + json.dumps(name) + ": " for head, name in zip(heads, fieldnames)]
        heads[0], end, row_gap, lead = "  {" + heads[0], "}", ",\n", "[\n"
    else:
        handle.write(",".join(_csv_field(name) for name in fieldnames) + "\n")
        end, row_gap, lead = "\n", "", ""
    for block in blocks:
        # A row is constant text around its varying cells: texts[j] precedes columns[j].
        texts, columns = [""], []
        for head, name in zip(heads, fieldnames):
            cells = _cells(block[name], as_json)
            texts[-1] += head
            if isinstance(cells, str):
                texts[-1] += cells
            else:
                columns.append(cells)
                texts.append("")
        if not columns:
            continue
        texts[-1] += end
        rows = [None] * 2 * len(columns)
        rows[1::2] = texts[1:]
        rows[-1] += row_gap + texts[0]
        rows *= len(columns[0])
        for offset, cells in enumerate(columns):
            rows[2 * offset::2 * len(columns)] = cells  # a ragged column raises ValueError
        if rows:
            rows[-1] = texts[-1]
            handle.write(lead + texts[0])
            handle.write("".join(rows))
            lead = row_gap
    if as_json:
        handle.write("[]\n" if lead == "[\n" else "\n]\n")


def emit(blocks, fieldnames, output_format: str, destination: str | None) -> None:
    """Write a table as CSV (fixed header) or JSON (array of objects), block by block.

    Each block maps every field name to a column: a numpy array, a list, one
    scalar repeated on every row, or a ``(text, codes)`` pair (:func:`_text`)
    whose row ``r`` shows ``text[codes[r]]``, all of one length within a block.
    A numeric array is formatted whole by :func:`_format_numbers`.  Blocks may
    come from a generator, so a large table is never held whole.
    """
    as_json = output_format == "json"
    if destination in (None, "-"):
        _write_table(sys.stdout, blocks, fieldnames, as_json)
        return
    with open(destination, "w", encoding="utf-8", newline="") as handle:
        _write_table(handle, blocks, fieldnames, as_json)


def _generate_seed() -> int:
    seed = int(np.random.SeedSequence().generate_state(1)[0])
    print(f"generated seed: {seed}", file=sys.stderr)
    return seed


def _cmd_spectrum(args):
    inst = _instance_from_args(args)
    angles = angles_from_instance(inst)
    mixture = eigenphase_table(angles)
    columns = {"label": list(EIGENPHASE_LABELS), "phase_radians": mixture.phases,
               "probability": mixture.weights, "theta0": angles.theta0,
               "theta1": angles.theta1, "mu": angles.mu, "sigma": angles.sigma}
    return [columns], SPECTRUM_FIELDS, 0


def _cmd_distribution(args):
    inst = _instance_from_args(args)
    if args.engine == "analytic":
        dist = exact_distribution(eigenphase_table(angles_from_instance(inst)), args.p)
    else:
        dist = circuit_distribution(build_evolution(inst), uniform_state(inst), args.p)
    columns = {"p": dist.p, "omega_index": np.arange(dist.n_points),
               "omega_radians": dist.omegas(), "mass": dist.mass}
    return _row_blocks(columns, dist.n_points), DISTRIBUTION_FIELDS, 0


def _distinct(values: np.ndarray):
    """The distinct bit patterns of ``values`` (``0.0`` and ``-0.0`` stay
    apart), read as its dtype, and the code of every entry among them."""
    bits, codes = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    return bits.view(values.dtype), codes


def _row_blocks(columns: dict, size: int):
    """A table of ``size`` rows in blocks of at most ``_BLOCK_ROWS`` rows.

    Scalars repeat on every row and strictly increasing arrays are sliced.
    Any other array becomes a pair over its :func:`_distinct` values, each
    formatted once per table, not once per row or per block.
    """
    for name, c in columns.items():
        if isinstance(c, np.ndarray) and not (c[1:] > c[:-1]).all():
            values, codes = _distinct(c)
            columns[name] = (_text(values), codes)
    for start in range(0, size, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        yield {name: (c[0], c[1][rows]) if isinstance(c, tuple) else
               c[rows] if isinstance(c, np.ndarray) else c for name, c in columns.items()}


def _part_blocks(dist):
    """The ``P`` rows of a part table.  ``theta_est`` and ``k_est`` are pairs
    over the fold: each cell ``c ≤ F`` folds onto itself, so ``theta_est``
    reads the text of ``omega`` and ``k_est`` that of ``k_est[:F + 1]``."""
    index = np.arange(dist.n_points)
    omega = _text(dist.omegas())
    classes = dist.k_est[:dist.fold.max() + 1]
    return _row_blocks({
        "p": dist.p, "part": dist.part, "n_part": dist.n_target, "k_part": dist.k_true,
        "omega_index": index, "omega_radians": (omega, index), "theta_est": (omega, dist.fold),
        "k_est": (_text(classes), dist.fold), "mass": dist.mass, "bound": dist.bound,
        "oracle_queries": dist.oracle_queries}, index.size)


def _check_joint_rows(p: int) -> None:
    # Same as 4**p > MAX_JOINT_ROWS, without building 4**p for a huge p.
    if 2 * p >= MAX_JOINT_ROWS.bit_length():
        raise ResourceLimitError(
            f"count --part both in exact mode limited to {MAX_JOINT_ROWS} rows, got 4**{p}")


def _joint_blocks(joint):
    """The ``P²`` rows of the joint table, whole runs of part-0 indices per block.

    Per-part columns are pairs formatted once per table.  A part's k̃ classes are
    its fold, over ``k_est[:F + 1]``; its mass classes are its :func:`_distinct`
    bits.  A float sum or product depends only on its operands' bits, so a
    block's ``k_est`` and ``mass`` are its part-0 classes combined with every
    part-1 class, with codes computed.
    """
    part0, part1 = joint.part0, joint.part1
    size = part1.n_points
    index = np.arange(size)
    k0, k1 = ((part.k_est[:part.fold.max() + 1], part.fold) for part in (part0, part1))
    m0, m1 = _distinct(part0.mass), _distinct(part1.mass)
    index_text, k0_text, k1_text = _text(index), _text(k0[0]), _text(k1[0])
    step = max(1, _BLOCK_ROWS // size)
    for start in range(0, size, step):
        rows = slice(start, min(start + step, size))
        block = {"p": joint.p, "bound": joint.bound, "oracle_queries": joint.oracle_queries,
                 "omega_index_0": (index_text, np.repeat(index[rows], size)),
                 "omega_index_1": (index_text, np.tile(index, rows.stop - start)),
                 "k_est_0": (k0_text, np.repeat(k0[1][rows], size)),
                 "k_est_1": (k1_text, np.tile(k1[1], rows.stop - start))}
        for name, op, (u0, c0), (u1, c1) in (("k_est", np.add, k0, k1),
                                             ("mass", np.multiply, m0, m1)):
            present, inverse = _distinct(c0[rows])
            block[name] = (_text(op.outer(u0[present], u1).ravel()),
                           (inverse[:, None] * u1.size + c1).ravel())
        yield block


def _cmd_count(args):
    inst = _instance_from_args(args)
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.trials > MAX_JOINT_ROWS:
        raise ResourceLimitError(f"--trials limited to {MAX_JOINT_ROWS}, got {args.trials}")
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    part = None if args.part == "both" else int(args.part)
    if args.mode == "sampled":
        seed = args.seed if args.seed is not None else _generate_seed()
    elif part is None:
        _check_joint_rows(args.p)
    dist = full_count(args.p, inst) if part is None else partial_count(args.p, inst, part)
    if args.mode == "exact":
        if part is None:
            return _joint_blocks(dist), TOTAL_COUNT_FIELDS, 0
        return _part_blocks(dist), PART_COUNT_FIELDS, 0

    # One pushforward per run.  Trial t takes uniform t·parts + j of one
    # stream for part j, the stream ``phase_estimation.sample`` draws.
    parts = (dist,) if part is not None else (dist.part0, dist.part1)
    uniforms = np.random.default_rng(seed).random((args.trials, len(parts)))
    picks = [grid_indices(np.cumsum(d.mass), uniforms[:, j]) for j, d in enumerate(parts)]
    k_parts = [d.k_est[pick] for d, pick in zip(parts, picks)]
    k_est = k_parts[0] if part is not None else k_parts[0] + k_parts[1]
    columns = {"trial": np.arange(args.trials), "p": dist.p, "k_est": k_est,
               "k_rounded": np.rint(k_est).astype(np.int64),
               "bound": dist.bound, "oracle_queries": dist.oracle_queries, "seed": seed}
    if part is None:
        columns.update(k_est_0=k_parts[0], k_est_1=k_parts[1])
        return _row_blocks(columns, args.trials), SAMPLED_TOTAL_FIELDS, 0
    columns.update(part=part, theta_est=dist.omegas()[dist.fold[picks[0]]])
    return _row_blocks(columns, args.trials), SAMPLED_PART_FIELDS, 0


def _cmd_sweep(args):
    try:
        cfg = load_sweep_config(args.config)
    except ValueError as exc:
        raise ValueError(f"invalid sweep config: {exc}")
    records = run_sweep(cfg)
    columns = {name: np.array([getattr(r, name) for r in records])
               for name in SweepRecord.FIELD_ORDER}
    status = 0 if all(record.all_passed() for record in records) else 2
    return [columns], SweepRecord.FIELD_ORDER, status


def _cmd_verify(args):
    inst = _instance_from_args(args)
    oracle = None
    if args.corrupt_oracle:
        oracle = build_oracle(inst)
        oracle[0, 0] = -oracle[0, 0]
    report = verify_suite(inst, args.p, oracle=oracle)
    columns = {field: np.array([getattr(c, attr) for c in report.checks])
               for field, attr in zip(VERIFY_FIELDS, ("name", "value", "limit", "kind", "passed"))}
    return [columns], VERIFY_FIELDS, 0 if report.all_passed else 2


# Each command returns (blocks for emit, field names, exit status).
_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "distribution": _cmd_distribution,
    "count": _cmd_count,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    try:
        args = _parser().parse_args(argv)
        blocks, fieldnames, status = _COMMANDS[args.command](args)
        emit(blocks, fieldnames, args.format, args.output)
        return status
    except (ValueError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
