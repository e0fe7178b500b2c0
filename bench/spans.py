"""Span recording for the traced benchmark run, taken from outside the library.

Every span is recorded from the benchmark's own code: around the calls it
makes into the library, inside a `FactorizationCache` subclass and a
factorization proxy, and around `psi`, which is re-bound in `diagsweep.ddm`
for the duration of a traced op only.  No library source is edited.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span in `Tracer.spans` (-1 at the top) and `op` names the op or
set-up phase it belongs to.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import diagsweep.ddm as ddm_module
from diagsweep import FactorizationCache


class Tracer:
    """In-memory span and counter store; records nothing while `on` is False."""

    def __init__(self, tracing: bool):
        self.tracing = tracing  # whether this run records spans at all
        self.on = False
        self.phase = None
        self.spans: list[tuple[str, float, float, int, object]] = []
        self.counters: dict = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.on:
            yield
            return
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, self._parent(), self.phase))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent, phase = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent, phase)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span under the currently open one."""
        if self.on:
            self.spans.append((name, start, end, self._parent(), self.phase))

    def count(self, name: str, value: float = 1) -> None:
        if self.on:
            self.counters[self.phase][name] += value

    def _parent(self) -> int:
        return self._stack[-1] if self._stack else -1

    @contextmanager
    def traced(self, phase):
        """Trace everything inside under the label `phase`, with psi re-bound."""
        original_psi = ddm_module.psi

        def traced_psi(*args, **kwargs):
            with self.span("transfer.psi"):
                return original_psi(*args, **kwargs)

        self.on, self.phase = True, phase
        ddm_module.psi = traced_psi
        try:
            yield
        finally:
            ddm_module.psi = original_psi
            self.on, self.phase = False, None

    def totals(self, phase_scale: dict):
        """Per-phase {name: [count, total seconds, self seconds]}, with each
        phase's seconds multiplied by `phase_scale[phase]`.

        A span's self time is its duration minus that of its direct children;
        spans run on one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for i, (name, start, end, _, phase) in enumerate(self.spans):
            entry = out[phase][name]
            entry[0] += 1
            entry[1] += (end - start) * phase_scale[phase]
            entry[2] += (end - start - child[i]) * phase_scale[phase]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, phase in self.spans:
                fh.write(json.dumps([name, start, end, parent, phase]) + "\n")


def solve_flops(fact) -> float:
    """Computed real flop count of one subdomain solve (complex madd = 8 flops).

    Separable 2D: four GEMM transforms plus one triangular Sylvester solve.
    Separable 3D: six axis transforms, one Sylvester solve per slab and the
    slab-coupling updates.  SuperLU: one multiply-add per factor nonzero.
    """
    if fact.backend == "splu":
        return 8.0 * fact.factor_nnz
    shape = fact.shape
    n = float(np.prod(shape))
    if len(shape) == 2:
        m1, m2 = shape
        return 20.0 * n * (m1 + m2)
    m1, m2, m3 = shape
    return 16.0 * n * (m1 + m2 + m3) + 4.0 * n * (m1 + m3) + 4.0 * n * (m2 - 1)


class TracedFactorization:
    """Proxy that records a span and a flop count around every solve."""

    def __init__(self, fact, tracer: Tracer):
        self._fact = fact
        self._tracer = tracer
        self._flops = solve_flops(fact)

    def solve(self, rhs):
        self._tracer.count("subdomain.solve_flop", self._flops)
        with self._tracer.span("subdomain.solve"):
            return self._fact.solve(rhs)

    def __getattr__(self, name):
        return getattr(self._fact, name)


class TracedCache(FactorizationCache):
    """Factorization cache that records a span for every miss and hands out
    solve-recording proxies while its tracer is on."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.tracer = tracer

    def get(self, op):
        if not self.tracer.on:
            return super().get(op)
        misses, start = self.misses, time.perf_counter()
        fact = super().get(op)
        if self.misses > misses:
            self.tracer.record("subdomain.factorize", start, time.perf_counter())
        return TracedFactorization(fact, self.tracer)
