"""The four benchmark workloads: seeded op generators, op execution and checks.

Every generator draws its inputs from ``random.Random("<workload>:<seed>")``
only, so one seed gives one op list.  Ops are plain dicts.  Each workload
cycles through fixed *strata* (register sizes, instance size classes,
command kinds) in blocks of :attr:`Workload.block` ops and draws the free
parameters inside a stratum from the seed.  Every complete block therefore
carries the same mix of work whatever the seed, which keeps run-to-run
spread low; the trace run alternates whole blocks between traced and
untraced.

The program is reached only through its public entry points, looked up on
the package at call time so that the tracer's wrappers are used when
installed.  Checks read fields of the returned objects and never call
program methods, so checking adds no spans.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random

import numpy as np

import reference as ref
from reference import Mismatch, expect_close, expect_equal, expect_flag, expect_mass

# Ops with a register of at most this many qubits may be compared with mpmath.
MP_MAX_P = 12
# Largest number of rows `count --part both` may print (P² rows at p = 7).
MAX_JOINT_ROWS = 2**14


def _rng(workload: str, seed: int, stream: str = "ops") -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}")


def _instance(qw, op):
    return qw.walk.BipartiteInstance.from_counts(op["n0"], op["n1"], op["k0"], op["k1"])


class Workload:
    name = ""
    block = 1           # ops per stratum cycle
    trace_rate = 10.0   # ops per second the trace run is sized for (2-core Xeon)
    max_ops = 4000

    def ops(self, seed: int):
        raise NotImplementedError

    def warmup(self, seed: int) -> list[dict]:
        """A few ops whose inputs cannot occur in :meth:`ops`."""
        raise NotImplementedError

    def peak(self, seed: int) -> list[dict]:
        """The largest op of every stratum, for the peak-memory pass."""
        raise NotImplementedError

    def tiny(self) -> dict:
        """The set-up op: smaller than anything in :meth:`ops`."""
        raise NotImplementedError

    def run(self, qw, op):
        raise NotImplementedError

    def check(self, op, out) -> dict:
        """Raise :class:`Mismatch` unless ``out`` agrees with the reference."""
        raise NotImplementedError

    def mp_masses(self, op, out, rng: random.Random) -> list[tuple[float, object]]:
        """(reported mass, mpmath mass) pairs for a few masses of this op."""
        return []

    def recheck(self, qw, op, out) -> None:
        """An extra correctness check that runs the op again (outside timing)."""

    def describe(self, op) -> str:
        return " ".join(f"{k}={v}" for k, v in op.items() if k != "recheck")


def _mp_part_bound(n: int, k: int, p: int, got: float, grover: bool = False):
    part = ref.PartReference(n, k, p, grover=grover)
    mp_part = (ref.MpPart.for_grover if grover else ref.MpPart.for_part)(n, k, p)
    exact = sum(mp_part.masses(part.inside()).values())
    return got, exact


def _mp_folded(part: ref.PartReference, mp_part: ref.MpPart, folds) -> dict:
    """High-precision mass of each folded index in ``folds``."""
    wanted = set(int(b) for b in folds)
    members = np.flatnonzero(np.isin(part.folded, list(wanted)))
    masses = mp_part.masses(members)
    by_fold = {b: 0 for b in wanted}
    for m, value in masses.items():
        by_fold[int(part.folded[m])] += value
    return by_fold


# ---------------------------------------------------------------------------


class SweepGrid(Workload):
    """One ``analysis.run_sweep`` per ``(n0, n1, p)`` over all feasible ``(k0, k1)``."""

    name = "sweep_grid"
    P_VALUES = (4, 5, 6, 7)
    block = 16
    trace_rate = 17.0

    def ops(self, seed):
        # Each pass is a fresh permutation of all 256 (n0, n1, p) triples, so
        # a run longer than one pass sweeps the grid again.  Quadruples
        # (a,b), (9-a,b), (a,9-b), (9-a,9-b) sum to 121 grid points at any p,
        # so each block of 16 ops carries equal work.
        rng = _rng(self.name, seed)
        for _ in range(self.max_ops // 256):
            quads = [[(a, b), (9 - a, b), (a, 9 - b), (9 - a, 9 - b)]
                     for a in range(1, 5) for b in range(1, 5)]
            rng.shuffle(quads)
            for quad in quads:
                rng.shuffle(quad)
                for p in self.P_VALUES:
                    for n0, n1 in quad:
                        yield {"n0": n0, "n1": n1, "p": p}

    def warmup(self, seed):
        rng = _rng(self.name, seed, "warmup")
        return [{"n0": 8, "n1": 8, "p": 3},
                {"n0": rng.randint(1, 8), "n1": rng.randint(1, 8), "p": 3}]

    def peak(self, seed):
        return [{"n0": 8, "n1": 8, "p": p} for p in self.P_VALUES]

    def tiny(self):
        return {"n0": 2, "n1": 2, "p": 2}

    def run(self, qw, op):
        n0, n1 = op["n0"], op["n1"]
        cfg = qw.analysis.SweepConfig((n0,), (n1,), tuple(range(n0 + 1)), tuple(range(n1 + 1)),
                                      (op["p"],))
        return qw.analysis.run_sweep(cfg)

    def check(self, op, records):
        n0, n1, p = op["n0"], op["n1"], op["p"]
        expect_equal("number of sweep records", len(records), (n0 + 1) * (n1 + 1))
        parts: dict[tuple[int, int], ref.PartReference] = {}

        def part(n, k):
            if (n, k) not in parts:
                parts[(n, k)] = ref.PartReference(n, k, p)
            return parts[(n, k)]

        points = ((k0, k1) for k0 in range(n0 + 1) for k1 in range(n1 + 1))
        for record, (k0, k1) in zip(records, points):
            where = f"sweep point n0={n0} n1={n1} k0={k0} k1={k1} p={p}"
            expect_equal(f"{where}: key", (record.n0, record.n1, record.k0, record.k1, record.p),
                         (n0, n1, k0, k1, p))
            theta0, theta1 = ref.part_angle(n0, k0), ref.part_angle(n1, k1)
            expect_close(f"{where}: angles", (record.theta0, record.theta1, record.mu, record.sigma),
                         (theta0, theta1, (theta0 + theta1) / 2, (theta0 - theta1) / 2),
                         ref.VALUE_TOL)
            ref0, ref1 = part(n0, k0), part(n1, k1)
            for j, pref in ((0, ref0), (1, ref1)):
                interval = pref.bound_interval()
                expect_close(f"{where}: part{j}_bound", getattr(record, f"part{j}_bound"),
                             pref.radius, ref.VALUE_TOL)
                expect_mass(f"{where}: part{j}_mass", getattr(record, f"part{j}_mass"), interval)
                expect_flag(f"{where}: part{j}_pass", getattr(record, f"part{j}_pass"), interval,
                            ref.PART_THRESHOLD)
            interval = ref.joint_interval(ref0, ref1)
            expect_close(f"{where}: total_bound", record.total_bound, ref0.radius + ref1.radius,
                         ref.VALUE_TOL)
            expect_mass(f"{where}: total_mass", record.total_mass, interval)
            expect_flag(f"{where}: total_pass", record.total_pass, interval, ref.TOTAL_THRESHOLD)
        return {}

    def mp_masses(self, op, records, rng):
        record = records[rng.randrange(len(records))]
        p = record.p
        pairs = [_mp_part_bound(record.n0, record.k0, p, record.part0_mass),
                 _mp_part_bound(record.n1, record.k1, p, record.part1_mass)]
        ref0 = ref.PartReference(record.n0, record.k0, p)
        ref1 = ref.PartReference(record.n1, record.k1, p)
        b0, b1 = ref.joint_inside(ref0, ref1)
        mp0 = _mp_folded(ref0, ref.MpPart.for_part(record.n0, record.k0, p), b0)
        mp1 = _mp_folded(ref1, ref.MpPart.for_part(record.n1, record.k1, p), b1)
        pairs.append((record.total_mass, sum(mp0[int(i)] * mp1[int(j)] for i, j in zip(b0, b1))))
        return pairs


# ---------------------------------------------------------------------------


class LargeRegister(Workload):
    """Exact verdicts at large P on instances whose part cases never repeat."""

    name = "large_register"
    # Stratum i % 2 pairs the larger single-part register with the smaller
    # joint one, so every op costs about the same; the Grover register
    # cycles with period 3, so a block holds all 6 combinations.
    P_BOUND = (12, 13)
    P_JOINT = (10, 9)
    P_GROVER = (12, 13, 14)
    block = 6
    trace_rate = 9.0
    # Each op takes two (n, k) part cases at each of its two registers, out
    # of 2144 pairs with n <= 64, so the list must end before they run out.
    max_ops = 2000

    @staticmethod
    def _draw(rng, used, ps):
        while True:
            n = rng.randint(1, 64)
            k = rng.randint(0, n)
            keys = [(n, k, p) for p in ps]
            if not any(key in used for key in keys):
                used.update(keys)
                return n, k

    def _op(self, rng, used, p_bound, p_joint, p_grover):
        n0, k0 = self._draw(rng, used, (p_bound, p_joint))
        n1, k1 = self._draw(rng, used, (p_bound, p_joint))
        return {"n0": n0, "k0": k0, "n1": n1, "k1": k1,
                "p_bound": p_bound, "p_joint": p_joint, "p_grover": p_grover}

    def ops(self, seed):
        rng, used = _rng(self.name, seed), set()
        for i in range(self.max_ops):
            s = i % 2
            yield self._op(rng, used, self.P_BOUND[s], self.P_JOINT[s], self.P_GROVER[(i // 2) % 3])

    def warmup(self, seed):
        # Register sizes outside every timed range, so no part case is shared.
        rng, used = _rng(self.name, seed, "warmup"), set()
        return [self._op(rng, used, 7, 6, 7) for _ in range(2)]

    def peak(self, seed):
        rng, used = _rng(self.name, seed, "peak"), set()
        return [self._op(rng, used, max(self.P_BOUND), max(self.P_JOINT), max(self.P_GROVER))]

    def tiny(self):
        return {"n0": 3, "k0": 1, "n1": 2, "k1": 1, "p_bound": 4, "p_joint": 3, "p_grover": 4}

    def run(self, qw, op):
        inst = _instance(qw, op)
        part0 = qw.analysis.bound_satisfaction_mass(inst, 0, op["p_bound"])
        part1 = qw.analysis.bound_satisfaction_mass(inst, 1, op["p_bound"])
        joint = qw.analysis.joint_success_mass(inst, op["p_joint"])
        grover = qw.counting.grover_count(op["p_grover"], op["n0"] + op["n1"], op["k0"] + op["k1"],
                                          "exact")
        return part0, part1, joint, grover.bound, grover.mass_within(grover.bound)

    def check(self, op, out):
        part0, part1, joint, grover_bound, grover_mass = out
        pb, pj = op["p_bound"], op["p_joint"]
        for j, report in ((0, part0), (1, part1)):
            pref = ref.PartReference(op[f"n{j}"], op[f"k{j}"], pb)
            expect_close(f"part{j} bound", report.bound_value, pref.radius, ref.VALUE_TOL)
            expect_close(f"part{j} threshold", report.threshold, ref.PART_THRESHOLD, 1e-15)
            expect_mass(f"part{j} bound mass", report.satisfied_mass, pref.bound_interval())
        ref0 = ref.PartReference(op["n0"], op["k0"], pj)
        ref1 = ref.PartReference(op["n1"], op["k1"], pj)
        expect_close("total bound", joint.bound_value, ref0.radius + ref1.radius, ref.VALUE_TOL)
        expect_close("total threshold", joint.threshold, ref.TOTAL_THRESHOLD, 1e-15)
        expect_mass("total bound mass", joint.satisfied_mass, ref.joint_interval(ref0, ref1))
        gref = ref.PartReference(op["n0"] + op["n1"], op["k0"] + op["k1"], op["p_grover"],
                                 grover=True)
        expect_close("grover bound", grover_bound, gref.radius, ref.VALUE_TOL)
        expect_mass("grover bound mass", grover_mass, gref.bound_interval())
        return {}

    def mp_masses(self, op, out, rng):
        part0, part1, _, _, grover_mass = out
        pairs = []
        if op["p_bound"] <= MP_MAX_P:
            pairs.append(_mp_part_bound(op["n0"], op["k0"], op["p_bound"], part0.satisfied_mass))
            pairs.append(_mp_part_bound(op["n1"], op["k1"], op["p_bound"], part1.satisfied_mass))
        if op["p_grover"] <= MP_MAX_P:
            pairs.append(_mp_part_bound(op["n0"] + op["n1"], op["k0"] + op["k1"], op["p_grover"],
                                        grover_mass, grover=True))
        return pairs


# ---------------------------------------------------------------------------


class FullSpaceVerify(Workload):
    """One ``analysis.verify_suite(inst, p)`` on an arc space of dimension <= 128."""

    name = "full_space_verify"
    P_VALUES = (8, 9, 10, 11)
    MAX_EDGES = 64
    # Edge-count classes, one op of each per register size in every block.
    CLASSES = ((1, 16), (17, 36), (37, 64))
    block = 12
    trace_rate = 18.0

    def _pool(self, lo, hi):
        return [(a, b) for a in range(1, self.MAX_EDGES + 1) for b in range(1, self.MAX_EDGES + 1)
                if lo <= a * b <= hi]

    def ops(self, seed):
        rng = _rng(self.name, seed)
        pools = [self._pool(lo, hi) for lo, hi in self.CLASSES]
        queues: list[list] = [[] for _ in pools]
        for _ in range(self.max_ops // self.block):
            for p in self.P_VALUES:
                for pool, queue in zip(pools, queues):
                    if not queue:
                        queue.extend(rng.sample(pool, len(pool)))
                    n0, n1 = queue.pop()
                    yield {"n0": n0, "n1": n1, "k0": rng.randint(0, n0), "k1": rng.randint(0, n1),
                           "p": p}

    def warmup(self, seed):
        rng = _rng(self.name, seed, "warmup")
        return [{"n0": 8, "n1": 8, "k0": rng.randint(0, 8), "k1": rng.randint(0, 8), "p": 6},
                {"n0": 3, "n1": 4, "k0": rng.randint(0, 3), "k1": rng.randint(0, 4), "p": 6}]

    def peak(self, seed):
        rng = _rng(self.name, seed, "peak")
        return [{"n0": 8, "n1": 8, "k0": rng.randint(0, 8), "k1": rng.randint(0, 8), "p": p}
                for p in self.P_VALUES]

    def tiny(self):
        return {"n0": 2, "n1": 2, "k0": 1, "k1": 1, "p": 3}

    def run(self, qw, op):
        return qw.analysis.verify_suite(_instance(qw, op), op["p"])

    BOUND_CHECKS = ("part0_bound_mass", "part1_bound_mass", "total_bound_mass")

    def check(self, op, report):
        checks = {c.name: c for c in report.checks}
        for required in (*self.BOUND_CHECKS, "analytic_circuit_tv"):
            if required not in checks:
                raise Mismatch(f"verify report lacks check {required!r}")
        p = op["p"]
        ref0 = ref.PartReference(op["n0"], op["k0"], p)
        ref1 = ref.PartReference(op["n1"], op["k1"], p)
        expected = {
            "part0_bound_mass": (ref0.bound_interval(), ref.PART_THRESHOLD),
            "part1_bound_mass": (ref1.bound_interval(), ref.PART_THRESHOLD),
            "total_bound_mass": (ref.joint_interval(ref0, ref1), ref.TOTAL_THRESHOLD),
        }
        for name, c in checks.items():
            if name in expected:
                interval, threshold = expected[name]
                expect_mass(f"verify {name}", c.value, interval)
                expect_close(f"verify {name} limit", c.limit, threshold, 1e-15)
                expect_flag(f"verify {name} passed", c.passed, interval, threshold)
            elif not (c.passed is True and c.kind == "max" and c.value <= c.limit):
                # Structural identities hold exactly on a correctly built walk.
                raise Mismatch(f"verify {name}: value {c.value!r} against limit {c.limit!r} "
                               f"reported passed={c.passed!r} on an uncorrupted instance")
        return {}

    def mp_masses(self, op, report, rng):
        if op["p"] > MP_MAX_P:
            return []
        checks = {c.name: c for c in report.checks}
        j = rng.randrange(2)
        return [_mp_part_bound(op[f"n{j}"], op[f"k{j}"], op["p"], checks[f"part{j}_bound_mass"].value)]


# ---------------------------------------------------------------------------


PART_FIELDS = ("p", "part", "n_part", "k_part", "omega_index", "omega_radians",
               "theta_est", "k_est", "mass", "bound", "oracle_queries")
TOTAL_FIELDS = ("p", "omega_index_0", "omega_index_1", "k_est_0", "k_est_1",
                "k_est", "mass", "bound", "oracle_queries")
DISTRIBUTION_FIELDS = ("p", "omega_index", "omega_radians", "mass")
SAMPLED_TOTAL_FIELDS = ("trial", "p", "k_est_0", "k_est_1", "k_est", "k_rounded",
                        "bound", "oracle_queries", "seed")
SPECTRUM_FIELDS = ("label", "phase_radians", "probability", "theta0", "theta1", "mu", "sigma")

_FIELDS = {"both": TOTAL_FIELDS, "part": PART_FIELDS, "dist": DISTRIBUTION_FIELDS,
           "sampled": SAMPLED_TOTAL_FIELDS, "spectrum": SPECTRUM_FIELDS}


def _parse_output(text: str, fmt: str, fields: tuple[str, ...]) -> dict:
    """Columns of a CSV or JSON table: numpy arrays, or lists for labels."""
    if fmt == "json":
        rows = json.loads(text)
        if rows and tuple(rows[0]) != fields:
            raise Mismatch(f"json keys {tuple(rows[0])} differ from {fields}")
        return {name: [row[name] for row in rows] if name == "label"
                else np.array([row[name] for row in rows], dtype=float) for name in fields}
    header, _, body = text.partition("\n")
    if tuple(header.split(",")) != fields:
        raise Mismatch(f"csv header {header!r} differs from {','.join(fields)!r}")
    if "label" in fields:
        rows = list(csv.reader(io.StringIO(body)))
        return {name: [row[i] for row in rows] if name == "label"
                else np.array([float(row[i]) for row in rows]) for i, name in enumerate(fields)}
    values = np.array(body.replace("\n", ",").rstrip(",").split(","), dtype=float) if body else \
        np.empty(0)
    if values.size % len(fields):
        raise Mismatch(f"csv body has {values.size} values, not a multiple of {len(fields)}")
    table = values.reshape(-1, len(fields))
    return {name: table[:, i] for i, name in enumerate(fields)}


class CliEmit(Workload):
    """One in-process ``qwcount.cli.main(argv)`` with stdout captured in memory."""

    name = "cli_emit"
    # (kind, p, format) in a fixed order that spreads the heavy specs; every
    # spec runs in both formats in each block, the sampled one twice in each.
    # Ranked by cost, a block holds 6 cheaper ops (spectrum, both at p = 6,
    # part), then the 4 sampled ones, then 4 dearer ones (dist, both at
    # p = 7), so the median op lies inside the sampled class and the 90th
    # percentile inside the csv `both` at p = 7, not between two classes.
    SPECS = (("both", 6, "csv"), ("part", 12, "json"), ("sampled", 8, "csv"), ("dist", 14, "csv"),
             ("sampled", 8, "json"), ("spectrum", None, "csv"), ("both", 7, "json"),
             ("part", 12, "csv"), ("dist", 14, "json"), ("sampled", 8, "csv"),
             ("both", 6, "json"), ("sampled", 8, "json"), ("spectrum", None, "json"),
             ("both", 7, "csv"))
    TRIALS = (50, 60)
    block = 14
    trace_rate = 5.0
    RECHECK_SHARE = 0.0625

    def _op(self, rng, kind, p, fmt, n_range=(1, 64)):
        n0, n1 = rng.randint(*n_range), rng.randint(*n_range)
        op = {"kind": kind, "p": p, "fmt": fmt, "n0": n0, "n1": n1,
              "k0": rng.randint(0, n0), "k1": rng.randint(0, n1)}
        if kind == "part":
            op["part"] = rng.randint(0, 1)
        if kind == "sampled":
            op["trials"] = rng.randint(*self.TRIALS)
            op["seed"] = rng.randrange(2**32)
        op["recheck"] = rng.random() < self.RECHECK_SHARE
        return op

    def ops(self, seed):
        rng = _rng(self.name, seed)
        for i in range(self.max_ops):
            yield self._op(rng, *self.SPECS[i % len(self.SPECS)])

    def warmup(self, seed):
        # Register sizes outside each timed one; the spectrum instance has a
        # part of 65 vertices, outside the timed 1..64.
        rng = _rng(self.name, seed, "warmup")
        ops = [self._op(rng, *spec) for spec in
               (("both", 5, "csv"), ("part", 11, "json"), ("dist", 13, "csv"), ("sampled", 7, "json"))]
        ops.append(self._op(rng, "spectrum", None, "csv", n_range=(65, 65)))
        return ops

    def peak(self, seed):
        rng = _rng(self.name, seed, "peak")
        return [self._op(rng, kind, max(p for k, p, _ in self.SPECS if k == kind), "json")
                for kind in ("both", "part", "dist", "sampled")]

    def tiny(self):
        return {"kind": "part", "p": 3, "fmt": "csv", "n0": 2, "n1": 3, "k0": 1, "k1": 1,
                "part": 0, "recheck": False}

    @staticmethod
    def argv(op) -> list[str]:
        inst = ["--n0", str(op["n0"]), "--n1", str(op["n1"]),
                "--k0", str(op["k0"]), "--k1", str(op["k1"])]
        kind = op["kind"]
        if kind == "spectrum":
            args = ["spectrum", *inst]
        elif kind == "dist":
            args = ["distribution", *inst, "--p", str(op["p"]), "--engine", "analytic"]
        elif kind == "both":
            args = ["count", *inst, "--p", str(op["p"]), "--part", "both", "--mode", "exact"]
        elif kind == "part":
            args = ["count", *inst, "--p", str(op["p"]), "--part", str(op["part"]),
                    "--mode", "exact"]
        else:
            args = ["count", *inst, "--p", str(op["p"]), "--mode", "sampled",
                    "--trials", str(op["trials"]), "--seed", str(op["seed"])]
        return [*args, "--format", op["fmt"]]

    def describe(self, op):
        return "qwcount " + " ".join(self.argv(op))

    def run(self, qw, op):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = qw.cli.main(self.argv(op))
        return status, buffer.getvalue()

    def recheck(self, qw, op, out):
        if op.get("recheck") and self.run(qw, op) != out:
            raise Mismatch("the same argv printed different bytes on a second run")

    def check(self, op, out):
        status, text = out
        expect_equal("exit status", status, 0)
        kind = op["kind"]
        cols = _parse_output(text, op["fmt"], _FIELDS[kind])
        getattr(self, f"_check_{kind}")(op, cols)
        return {"rows": len(cols[_FIELDS[kind][0]]), "bytes": len(text)}

    @staticmethod
    def _expect_column(cols, name, want, tol=0.0):
        expect_close(f"column {name}", cols[name], np.broadcast_to(want, np.shape(cols[name])), tol)

    def _check_both(self, op, cols):
        p, size = op["p"], 2 ** op["p"]
        ref0 = ref.PartReference(op["n0"], op["k0"], p)
        ref1 = ref.PartReference(op["n1"], op["k1"], p)
        expect_equal("row count", len(cols["p"]), size * size)
        i0, i1 = np.repeat(np.arange(size), size), np.tile(np.arange(size), size)
        self._expect_column(cols, "p", p)
        self._expect_column(cols, "omega_index_0", i0)
        self._expect_column(cols, "omega_index_1", i1)
        self._expect_column(cols, "k_est_0", ref0.k_est[i0], ref.VALUE_TOL)
        self._expect_column(cols, "k_est_1", ref1.k_est[i1], ref.VALUE_TOL)
        self._expect_column(cols, "k_est", ref0.k_est[i0] + ref1.k_est[i1], ref.VALUE_TOL)
        self._expect_column(cols, "mass", np.outer(ref0.mass, ref1.mass).ravel(), ref.MASS_TOL)
        self._expect_column(cols, "bound", ref0.radius + ref1.radius, ref.VALUE_TOL)
        self._expect_column(cols, "oracle_queries", 2 * (size - 1))

    def _check_part(self, op, cols):
        p, size, j = op["p"], 2 ** op["p"], op["part"]
        n, k = op[f"n{j}"], op[f"k{j}"]
        pref = ref.PartReference(n, k, p)
        expect_equal("row count", len(cols["p"]), size)
        for name, want in (("p", p), ("part", j), ("n_part", n), ("k_part", k),
                           ("omega_index", np.arange(size)), ("oracle_queries", size - 1)):
            self._expect_column(cols, name, want)
        self._expect_column(cols, "omega_radians", ref.TWO_PI * np.arange(size) / size, ref.VALUE_TOL)
        self._expect_column(cols, "theta_est", pref.theta_est, ref.VALUE_TOL)
        self._expect_column(cols, "k_est", pref.k_est, ref.VALUE_TOL)
        self._expect_column(cols, "mass", pref.mass, ref.MASS_TOL)
        self._expect_column(cols, "bound", pref.radius, ref.VALUE_TOL)

    def _check_dist(self, op, cols):
        p, size = op["p"], 2 ** op["p"]
        phases, weights = ref.eigen_mixture(ref.part_angle(op["n0"], op["k0"]),
                                            ref.part_angle(op["n1"], op["k1"]))
        expect_equal("row count", len(cols["p"]), size)
        self._expect_column(cols, "p", p)
        self._expect_column(cols, "omega_index", np.arange(size))
        self._expect_column(cols, "omega_radians", ref.TWO_PI * np.arange(size) / size, ref.VALUE_TOL)
        self._expect_column(cols, "mass", ref.grid_masses(phases, weights, p), ref.MASS_TOL)

    def _check_sampled(self, op, cols):
        p, size, trials = op["p"], 2 ** op["p"], op["trials"]
        expect_equal("row count", len(cols["trial"]), trials)
        for name, want in (("trial", np.arange(trials)), ("p", p), ("oracle_queries", 2 * (size - 1)),
                           ("seed", op["seed"])):
            self._expect_column(cols, name, want)
        radius = 0.0
        for j in (0, 1):
            pref = ref.PartReference(op[f"n{j}"], op[f"k{j}"], p)
            radius += pref.radius
            # A draw must be an estimate the run can produce with real probability.
            reachable = pref.k_by_fold[pref.mass_by_fold > 1e-12]
            gap = np.abs(cols[f"k_est_{j}"][:, None] - reachable[None, :]).min(axis=1)
            if gap.size and gap.max() > ref.VALUE_TOL:
                raise Mismatch(f"sampled k_est_{j} {cols[f'k_est_{j}'][int(gap.argmax())]!r} "
                               f"is not a reachable estimate")
        self._expect_column(cols, "k_est", cols["k_est_0"] + cols["k_est_1"], ref.VALUE_TOL)
        self._expect_column(cols, "k_rounded", [round(v) for v in cols["k_est"]])
        self._expect_column(cols, "bound", radius, ref.VALUE_TOL)

    def _check_spectrum(self, op, cols):
        theta0, theta1 = ref.part_angle(op["n0"], op["k0"]), ref.part_angle(op["n1"], op["k1"])
        phases, weights = ref.eigen_mixture(theta0, theta1)
        expect_equal("labels", tuple(cols["label"]), ref.EIGENPHASE_LABELS)
        wrapped = (cols["phase_radians"] - phases + math.pi) % ref.TWO_PI - math.pi
        expect_close("column phase_radians mod 2pi", wrapped, np.zeros(8), ref.VALUE_TOL)
        self._expect_column(cols, "probability", weights, ref.MASS_TOL)
        for name, want in (("theta0", theta0), ("theta1", theta1),
                           ("mu", (theta0 + theta1) / 2), ("sigma", (theta0 - theta1) / 2)):
            self._expect_column(cols, name, want, ref.VALUE_TOL)

    MP_ROWS = 16

    def mp_masses(self, op, out, rng):
        kind, p = op["kind"], op["p"]
        if kind == "sampled" or (p is not None and p > MP_MAX_P):
            return []
        cols = _parse_output(out[1], op["fmt"], _FIELDS[kind])
        if kind == "spectrum":
            mp_inst = ref.MpPart.for_instance(op["n0"], op["k0"], op["n1"], op["k1"], 1)
            return list(zip(cols["probability"], mp_inst.weights))
        rows = [rng.randrange(len(cols["mass"])) for _ in range(self.MP_ROWS)]
        if kind == "dist":
            mp_inst = ref.MpPart.for_instance(op["n0"], op["k0"], op["n1"], op["k1"], p)
            return [(cols["mass"][r], mp_inst.mass(r)) for r in rows]
        if kind == "part":
            j = op["part"]
            mp_part = ref.MpPart.for_part(op[f"n{j}"], op[f"k{j}"], p)
            return [(cols["mass"][r], mp_part.mass(r)) for r in rows]
        size = 2**p
        mp0 = ref.MpPart.for_part(op["n0"], op["k0"], p)
        mp1 = ref.MpPart.for_part(op["n1"], op["k1"], p)
        return [(cols["mass"][r], mp0.mass(r // size) * mp1.mass(r % size)) for r in rows]


WORKLOADS = {w.name: w for w in (SweepGrid(), LargeRegister(), FullSpaceVerify(), CliEmit())}
