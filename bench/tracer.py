"""Span tracer that wraps the package's public functions from outside.

While installed, the tracer replaces each traced name in every ``bnineq``
module namespace that bound it (``sampling`` imports
``schmidt_decompose`` by name, ``cli`` imports ``scan``, and so on), the
``__init__`` of the traced classes, and the ``numpy.linalg`` functions
the package calls (the ``kernel`` layer).  Every call records a span:
name, start, end, parent span and operation id.  Spans stay in memory
until :meth:`Tracer.write` dumps them.

A traced name that the package no longer defines is listed in
:attr:`Tracer.absent` and otherwise ignored.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

import numpy as np

#: Layers named after the modules of ``bnineq``, with their traced names.
LAYERS = {
    "tensor": ("PureState", "DensityMatrix", "partial_trace", "permute_factors"),
    "spectra": ("svd", "von_neumann_entropy", "entropy_from_eigenvalues"),
    "schmidt": ("schmidt_decompose", "verify_decomposition", "degenerate_blocks"),
    "inequality": ("bn_lhs", "bn_rhs", "bn_gap", "maximize_rhs"),
    "sampling": ("haar_state", "haar_unitary", "scan"),
    "cli": ("main", "run_scan"),
}

#: ``numpy.linalg`` functions counted as the ``kernel`` layer.
KERNEL = ("svd", "eigvalsh", "eigh", "qr", "norm")


def kernel_flops(name: str, shape: tuple[int, ...], is_complex: bool, with_vectors: bool) -> float:
    """Floating-point operations estimated from the matrix shape.

    Standard dense-factorization counts (Golub & Van Loan, *Matrix
    Computations*), with a complex operation counted as four real ones.
    Computed, not measured.
    """
    factor = 4.0 if is_complex else 1.0
    if name == "norm":
        return factor * float(np.prod(shape))
    m, n = (shape[-2], shape[-1]) if len(shape) >= 2 else (shape[0], 1)
    m, n = max(m, n), min(m, n)
    if name == "svd":
        count = 14 * m * n * n + 8 * n**3 if with_vectors else 4 * m * n * n - 4 * n**3 / 3
    elif name == "eigvalsh":
        count = 4 * n**3 / 3
    elif name == "eigh":
        count = 9 * n**3
    else:  # qr, with the thin Q formed
        count = 4 * m * n * n - 4 * n**3 / 3
    return factor * count


class Tracer:
    """In-memory spans for the public functions of ``bnineq``.

    ``op_marker`` is the span name that starts a new operation (one scan
    sample or one maximize call); ``op_scope`` is the span whose end
    closes the current operation.  Spans outside any operation get
    operation id None.
    """

    def __init__(self, op_marker: str, op_scope: str) -> None:
        self.op_marker = op_marker
        self.op_scope = op_scope
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._ops_started = 0
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = {"": importlib.import_module("bnineq")}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"bnineq.{layer}")
            except ImportError:
                self._note_absent(layer)
        for layer, names in LAYERS.items():
            for name in names:
                target = getattr(modules.get(layer), name, None)
                if target is None:
                    self._note_absent(f"{layer}.{name}")
                elif isinstance(target, type):
                    self._patch(target, "__init__", self._wrap(target.__init__, f"{layer}.{name}"))
                else:
                    wrapper = self._wrap(target, f"{layer}.{name}")
                    for mod in modules.values():
                        for attr, value in list(vars(mod).items()):
                            if value is target:
                                self._patch(mod, attr, wrapper)
        for name in KERNEL:
            self._patch(np.linalg, name, self._wrap(getattr(np.linalg, name), f"kernel.{name}", True))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _note_absent(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name: str, kernel: bool = False):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        is_marker = name == self.op_marker
        is_scope = name == self.op_scope
        tracer = self

        def traced(*args, **kwargs):
            if is_marker:
                tracer._ops_started += 1
                tracer._op = tracer._ops_started
            extra = None
            if kernel and args:
                a = args[0]
                extra = (
                    tuple(getattr(a, "shape", ())),
                    bool(np.iscomplexobj(a)),
                    kwargs.get("compute_uv", True),
                )
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            op = tracer._op
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, op, extra)
                if is_scope:
                    tracer._op = None

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time, and for kernel names, flops."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "flops_est": 0.0}
        )
        for i, (name, start, end, _, _, extra) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += end - start - child_time[i]
            if extra is not None:
                row["flops_est"] += kernel_flops(name[len("kernel."):], *extra)
        return dict(out)

    def write(self, path) -> None:
        """A header line naming the fields, then one JSON array per span.

        Times are seconds after the start of the first span; ``parent``
        is the line index (from 0, header excluded) of the parent span.
        """
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for name, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent, op]) + "\n")
