"""Span wrappers installed around sempower's public functions.

A :class:`Tracer` rebinds each traced function, in every ``sempower``
module that binds it (module globals and module-level dicts such as the
solver dispatch table), to a wrapper that records one span per call:
name, start, end, parent span and query id. ``solvers`` imports
``eval_surface``, ``q_inverse`` and others with ``from ... import``, so
patching only the defining module would miss most calls. Spans stay in
memory until :meth:`Tracer.write_spans`; :meth:`Tracer.remove` restores
every original binding.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import importlib
import itertools
import sys
import time
from dataclasses import dataclass, field

# (module, attribute, span name). A missing attribute is skipped, so the
# benchmark keeps running when a later version deletes a function; its
# counts then read 0.
TRACED = (
    ("sempower.numerics", "q_inverse", "numerics.q_inverse"),
    ("sempower.numerics", "bisect_root", "numerics.bisect_root"),
    ("sempower.numerics", "bisect_root_many", "numerics.bisect_root_many"),
    ("sempower.numerics", "nelder_mead_minimize", "numerics.nelder_mead_minimize"),
    ("sempower.perception", "eval_surface", "perception.eval_surface"),
    ("sempower.perception", "solve_psi2_on_constraint", "perception.solve_psi2_on_constraint"),
    ("sempower.perception", "solve_psi2_many", "perception.solve_psi2_many"),
    ("sempower.perception", "constraint_line_endpoints", "perception.constraint_line_endpoints"),
    ("sempower.perception", "fit_surface", "perception.fit_surface"),
    ("sempower.modulation", "power_from_ber", "modulation.power_from_ber"),
    ("sempower.solvers", "solve_equal_snr", "solvers.equal_snr"),
    ("sempower.solvers", "solve_proportional", "solvers.proportional"),
    ("sempower.solvers", "solve_bisection", "solvers.bisection"),
    ("sempower.solvers", "solve_grid_oracle", "solvers.grid_oracle"),
    ("sempower.solvers", "sweep_targets", "solvers.sweep_targets"),
    ("sempower.simulator", "simulate_ber", "simulator.simulate_ber"),
    ("sempower.config", "load_config", "config.load_config"),
    ("sempower.config", "write_manifest", "config.write_manifest"),
    ("sempower.svgchart", "line_chart", "svgchart.line_chart"),
)

SOLVER_SPANS = ("solvers.equal_snr", "solvers.proportional", "solvers.bisection", "solvers.grid_oracle")


@dataclass
class Tracer:
    """Records spans while installed; one instance per traced pass."""

    spans: list = field(default_factory=list)  # (id, parent, query, name, start_ns, end_ns)
    solver_results: list = field(default_factory=list)  # (query, span name, target, Allocation)
    sim_bits: int = 0
    query: int = -1
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)
    _ids: itertools.count = field(default_factory=itertools.count)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a query or command."""
        sid, parent, start = self._open(name)
        try:
            yield
        finally:
            self._close(sid, parent, name, start)

    def _open(self, name: str) -> tuple[int, int, int]:
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent, time.perf_counter_ns()

    def _close(self, sid: int, parent: int, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((sid, parent, self.query, name, start, end))

    def _wrap(self, fn, name: str):
        tracer = self
        is_solver = name in SOLVER_SPANS
        is_sim = name == "simulator.simulate_ber"

        def wrapper(*args, **kwargs):
            sid, parent, start = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, name, start)
            if is_solver:
                problem = args[0] if args else kwargs["p"]
                tracer.solver_results.append((tracer.query, name, float(problem.target), out))
            elif is_sim:
                scheme = args[0] if args else kwargs["m"]
                cfg = args[3] if len(args) > 3 else kwargs["cfg"]
                k = scheme.bits_per_symbol
                tracer.sim_bits += -(-cfg.n_bits // k) * k
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Rebind every traced function in all loaded sempower modules."""
        for mod_name, attr, span_name in TRACED:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                continue
            original = getattr(mod, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, span_name)
            for name, module in list(sys.modules.items()):
                if name != "sempower" and not name.startswith("sempower."):
                    continue
                space = vars(module)
                for key, value in list(space.items()):
                    if value is original:
                        self._patches.append((space, key, original))
                        space[key] = wrapper
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._patches.append((value, dkey, original))
                                value[dkey] = wrapper

    def remove(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        for space, key, original in reversed(self._patches):
            space[key] = original
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ns and self ns.

        Self time is a span's duration minus the durations of its direct
        children; spans are sequential within one thread, so children
        never overlap.
        """
        child_ns: dict[int, int] = {}
        for _sid, parent, _q, _name, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        out: dict[str, dict[str, float]] = {}
        for sid, _parent, _q, name, start, end in self.spans:
            agg = out.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
            dur = end - start
            agg["calls"] += 1
            agg["ns"] += dur
            agg["self_ns"] += dur - child_ns.get(sid, 0)
        return out

    def write_spans(self, path) -> None:
        """All spans as gzipped CSV, ordered by span id."""
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "query", "name", "start_ns", "end_ns"])
            w.writerows(sorted(self.spans))

