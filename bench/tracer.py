"""Outside-in tracer: wraps qwcount's public functions and methods from here.

Layers are the package modules in :data:`LAYERS`.  A span is attributed to
the module that *defines* the wrapped function, so ``counting.partial_count``
calling ``phase_estimation.exact_distribution`` splits between the two.
Wrapping replaces every reference to the original function held by any
``qwcount`` module (``from .x import f`` copies included), so calls between
modules go through the wrapper too.  Names that do not exist are skipped:
the tracer discovers what a module defines instead of listing it.

Spans are ``[id, parent, op, name, layer, start, end, error]`` lists
(:data:`SPAN_FIELDS`) kept in memory; :meth:`Tracer.write` saves them as
JSON lines at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

PACKAGE = "qwcount"
LAYERS = ("linalg", "walk", "reduced", "phase_estimation", "counting", "analysis", "cli")
BENCH_LAYER = "bench"

# Scalar helpers that counting calls once per grid outcome.  Their time
# belongs to counting either way; wrapping them would multiply spans and
# tracer overhead by P.
NOT_WRAPPED = frozenset({
    "counting.fold_phase",
    "counting.reflect_phase",
    "counting.estimate_k",
})


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index]


def _count_kernel(tracer, args, kwargs, result):
    mixture, p = _arg(args, kwargs, 0, "mixture"), _arg(args, kwargs, 1, "p")
    tracer.counters["phase_estimation.kernel_evals"] += int((mixture.weights > 0).sum()) * 2**p


def _count_circuit(tracer, args, kwargs, result):
    # Computed, not measured: p squarings of a dim x dim complex matrix,
    # p half-register updates of (P/2) x dim by dim x dim, one FFT of
    # length P per system coordinate.  One complex multiply-add is 8 flops.
    psi, p = _arg(args, kwargs, 1, "psi"), _arg(args, kwargs, 2, "p")
    dim, size = len(psi), 2**p
    flops = p * 8 * dim**3 + p * 8 * (size // 2) * dim**2 + 5 * size * p * dim
    tracer.counters["phase_estimation.circuit_flops"] += flops


def _count_partial(tracer, args, kwargs, result):
    p, inst, part = (_arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "inst"),
                     _arg(args, kwargs, 2, "part"))
    tracer.counters["counting.outcomes"] += 2**p
    key = (inst.n0, inst.k0, p) if part == 0 else (inst.n1, inst.k1, p)
    tracer.counters["counting.partial_calls"] += 1
    if key in tracer.part_cases:
        tracer.counters["counting.partial_repeats"] += 1
    tracer.part_cases.add(key)


def _count_grover(tracer, args, kwargs, result):
    tracer.counters["counting.outcomes"] += 2 ** _arg(args, kwargs, 0, "p")


def _count_joint(tracer, args, kwargs, result):
    tracer.counters["counting.joint_pairs"] += (2 ** args[0].p) ** 2


def _count_matrix(tracer, args, kwargs, result):
    if getattr(result, "ndim", 0) == 2:
        tracer.counters["walk.matrix_bytes"] += result.nbytes


# Counters keyed by qualified name; every function of a layer in
# LAYER_HOOKS gets that layer's counter unless it has its own.
HOOKS = {
    "phase_estimation.exact_distribution": _count_kernel,
    "phase_estimation.circuit_distribution": _count_circuit,
    "counting.partial_count": _count_partial,
    "counting.grover_count": _count_grover,
    "counting.FullCountDistribution.mass_within": _count_joint,
}
LAYER_HOOKS = {"walk": _count_matrix}

COUNTERS = (
    "phase_estimation.kernel_evals", "phase_estimation.circuit_flops",
    "counting.outcomes", "counting.joint_pairs", "counting.partial_calls",
    "counting.partial_repeats", "walk.matrix_bytes",
)


SPAN_FIELDS = ("id", "parent", "op", "name", "layer", "start", "end", "error")


class Tracer:
    """Records spans for the op set by :meth:`begin_op`; idle otherwise."""

    def __init__(self, hooks=None):
        self.hooks = HOOKS if hooks is None else hooks
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.part_cases: set = set()
        self.wrapped: list[str] = []
        self.failed_hooks: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        hook = self.hooks.get(name, LAYER_HOOKS.get(layer))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = [len(tracer.spans), tracer.stack[-1], tracer.op, name, layer, 0.0, 0.0, False]
            tracer.spans.append(span)
            tracer.stack.append(span[0])
            span[5] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[7] = True
                raise
            finally:
                span[6] = time.perf_counter()
                tracer.stack.pop()
            if hook is not None and name not in tracer.failed_hooks:
                try:
                    hook(tracer, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    tracer.failed_hooks.add(name)
                    print(f"trace: counter for {name} disabled: {exc!r}", file=sys.stderr)
            return result

        return wrapper

    def _targets(self):
        """Yield (owner, attribute, function, qualified name, layer) to wrap."""
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield module, attr, obj, f"{layer}.{attr}", layer
                elif inspect.isclass(obj):
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                            yield obj, meth, raw, f"{layer}.{attr}.{meth}", layer

    def install(self) -> None:
        """Wrap every public function and method, everywhere it is referenced."""
        if self._undo:
            return
        importlib.import_module(PACKAGE)
        replacements: dict[int, object] = {}
        self.wrapped = []
        for owner, attr, obj, name, layer in self._targets():
            if name in NOT_WRAPPED:
                continue
            if isinstance(obj, (classmethod, staticmethod)):
                wrapped = type(obj)(self._wrap(obj.__func__, name, layer))
                self._undo.append((owner, attr, obj))
                setattr(owner, attr, wrapped)
            elif inspect.isclass(owner):
                self._undo.append((owner, attr, obj))
                setattr(owner, attr, self._wrap(obj, name, layer))
            else:
                replacements[id(obj)] = self._wrap(obj, name, layer)
            self.wrapped.append(name)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op_id: int, name: str) -> None:
        span = [len(self.spans), None, op_id, name, BENCH_LAYER, 0.0, 0.0, False]
        self.spans.append(span)
        self.stack = [span[0]]
        self.op = op_id
        span[5] = time.perf_counter()

    def end_op(self, error: bool = False) -> float:
        span = self.spans[self.stack[0]]
        span[6] = time.perf_counter()
        span[7] = error
        self.op = None
        self.stack = []
        return span[6] - span[5]

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Self time, calls and errors per layer; self = duration minus children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[1] is not None:
                child_time[span[1]] += span[6] - span[5]
        totals = {layer: {"self_s": 0.0, "calls": 0, "errors": 0}
                  for layer in (*LAYERS, BENCH_LAYER)}
        for span in self.spans:
            entry = totals.setdefault(span[4], {"self_s": 0.0, "calls": 0, "errors": 0})
            entry["self_s"] += (span[6] - span[5]) - child_time[span[0]]
            if span[1] is not None:
                entry["calls"] += 1
                entry["errors"] += int(span[7])
        return totals

    def root_time(self) -> float:
        return sum(s[6] - s[5] for s in self.spans if s[1] is None)

    def write(self, path) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(SPAN_FIELDS) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
