"""Seeded workloads: input generators, the queries they send, and the
checks that decide whether each query's output is correct.

Every workload is a closed loop with one client. ``make(i)`` builds the
i-th query from the seed (queries must be made in order), ``run`` sends
it to sempower through its public API or its CLI, and ``check`` returns
how many operations the query attempted and one record, with the query's
inputs and every reason, per failed operation. A failed operation is
one that raised (an expected ``SempowerError`` counts as refused),
missed the target by more than 1e-6, returned a non-finite or negative
power, did not converge, or (where both ran) put bisection more than
0.5% away from the grid oracle.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import yaml

# Acceptance tolerances (c03 and c04 in the acceptance suite).
TARGET_ATOL = 1e-6
ORACLE_RTOL = 0.005

SOLVERS = ("equal_snr", "proportional", "bisection", "grid_oracle")

# Documented CSV schemas (README "File formats").
SWEEP_HEADER = "p_bar,solver,total_cost_w,q1_w,q2_w,psi1,psi2,achieved_p,iterations,feasible"
SIM_HEADER = "stream,q_w,snr_db,psi_analytic,psi_empirical,n_bits,ci_low,ci_high"

# README link: -30 dB at 1 m, 100 m, exponent 3.4, -110 dBm noise.
LINK = {"h0_db": -30.0, "d_m": 100.0, "d0_m": 1.0, "alpha": 3.4, "noise_dbm": -110.0}
BUNDLED_SURFACE = {"p0": 0.30, "pmax": 0.95, "tau1": 5e-3, "tau2": 1e-3, "beta1": 1.0, "beta2": 1.0}
# name -> (M, a, b): the three presets and one custom scheme.
MODULATIONS = {
    "bpsk": (2, 1.0, 2.0),
    "8qam": (8, 2.0, 6.0 / 7.0),
    "16qam": (16, 3.0, 0.2),
    "custom_m4_a1_b1": (4, 1.0, 1.0),
}


def achievable_range(surface: dict, mod1: tuple, mod2: tuple) -> tuple[float, float]:
    """``(p0, P(box))`` from the surface formula, independent of sempower.

    The box corner is each stream's zero-power BER
    ``min(0.5, a / (2 log2 M))``, so the inputs stay the same on every
    version of the program under test.
    """
    u = 0.0
    for (m, a, _b), tau, beta in zip((mod1, mod2), ("tau1", "tau2"), ("beta1", "beta2")):
        box = min(0.5, 0.5 * a / math.log2(m))
        u += (box / surface[tau]) ** surface[beta]
    p0, pmax = surface["p0"], surface["pmax"]
    return p0, p0 + (pmax - p0) * -math.expm1(-u)


def check_allocation(alloc, target: float) -> str | None:
    """Reason an allocation fails the benchmark's checks, or None."""
    if not all(math.isfinite(q) and q >= 0.0 for q in alloc.q):
        return f"power not finite and non-negative: {alloc.q}"
    if abs(alloc.achieved_p - target) > TARGET_ATOL:
        return f"|achieved_p - target| = {abs(alloc.achieved_p - target):.3g} > {TARGET_ATOL:g}"
    if not alloc.converged:
        return "not converged"
    return None


def oracle_gap(cost_bisection: float, cost_oracle: float) -> float:
    return abs(cost_bisection - cost_oracle) / cost_oracle if cost_oracle > 0.0 else 0.0


@dataclass
class Query:
    index: int
    inputs: dict  # JSON-ready record of what was generated
    payload: object = None


class FadingBlocks:
    name = "fading_blocks"
    params = {
        "solver": "bisection",
        "surface": "bundled",
        "modulations": list(MODULATIONS),
        "bits": "2^k, k uniform in 8..15, per stream",
        "fading": "unit-mean Rayleigh power per stream, shared or independent with p=0.5",
        "target": "uniform over the middle 90% of the achievable range",
        "link": LINK,
    }

    def __init__(self, seed: int):
        import sempower as sp

        self.sp = sp
        self.rng = random.Random(seed)
        self.schemes = {n: sp.ModulationScheme(n, *v) for n, v in MODULATIONS.items()}
        self.surface = sp.SurfaceParams(**BUNDLED_SURFACE)
        self.link = sp.ChannelParams(**LINK)

    def stream(self, bits: int, scheme, fading: float, curve):
        sp = self.sp
        return sp.StreamSpec(bits=bits, modulation=scheme,
                             channel=sp.make_channel_state(self.link, fading), curve=curve)

    def make(self, i: int) -> Query:
        r = self.rng
        m1, m2 = r.choice(list(MODULATIONS)), r.choice(list(MODULATIONS))
        shared = r.random() < 0.5
        f1 = r.expovariate(1.0)
        f2 = f1 if shared else r.expovariate(1.0)
        bits = (2 ** r.randint(8, 15), 2 ** r.randint(8, 15))
        lo, hi = achievable_range(BUNDLED_SURFACE, MODULATIONS[m1], MODULATIONS[m2])
        target = lo + (hi - lo) * (0.05 + 0.9 * r.random())  # middle 90% of the range
        sp = self.sp
        spec = sp.ProblemSpec(
            streams=(
                self.stream(bits[0], self.schemes[m1], f1, sp.default_prompt_curve()),
                self.stream(bits[1], self.schemes[m2], f2, sp.default_edge_curve()),
            ),
            surface=self.surface,
            target=target,
        )
        inputs = {"modulations": [m1, m2], "fading": [f1, f2], "bits": list(bits), "target": target}
        return Query(i, inputs, spec)

    def run(self, q: Query, tracer=None):
        try:
            return self.sp.solve(q.payload, "bisection")
        except Exception as exc:  # any raise fails the query; the run goes on
            return exc

    def check(self, q: Query, result) -> tuple[int, list, dict]:
        if isinstance(result, Exception):
            reason = f"raised {type(result).__name__}: {result}"
        else:
            reason = check_allocation(result, q.inputs["target"])
        return 1, ([] if reason is None else [{"query": q.index, "inputs": q.inputs,
                                               "reasons": [reason]}]), {}


# The four README commands. ``simulate`` keeps the README config's own
# seed: a correct simulator misses its 3-sigma band with probability
# 0.27% per row, about 5% for its 20 rows (3 of seeds 1-40 do), so a
# fresh seed per run would fail correct code on about one run in twenty.
CLI_COMMANDS = (
    ("solve", ["solve", "--config", "configs/default.yaml"], True),
    ("sweep", ["sweep", "--config", "configs/sweep_modulations.yaml"], True),
    ("simulate", ["simulate", "--config", "configs/simulate_bpsk.yaml"], False),
    ("fit", ["fit", "src/sempower/data/surface_samples_example.csv"], False),
)
SOLVE_TARGET = 0.6  # configs/default.yaml
FIT_RTOL = 0.05  # c09 recovery tolerance under noise
COMMAND_TIMEOUT_S = 60  # a README command takes seconds; keeps a run under its time limit


class CliReadme:
    name = "cli_readme"
    params = {
        "commands": [" ".join(argv) for _n, argv, _s in CLI_COMMANDS],
        "runner": "python -m sempower.cli with src on PYTHONPATH, one process at a time",
        "seed": "a seeded --seed for solve and sweep; simulate keeps its config seed",
        "query": "one pass of the four commands",
    }

    def __init__(self, seed: int, root: Path, scratch: Path, env: dict):
        self.rng = random.Random(seed)
        self.root = root
        self.scratch = scratch
        self.env = env
        self.in_process = False  # the traced run calls sempower.cli.main instead

    def make(self, i: int) -> Query:
        pass_dir = self.scratch / f"pass{i}"
        argvs = {}
        for name, argv, seeded in CLI_COMMANDS:
            extra = ["--seed", str(self.rng.randint(1, 2**31 - 1))] if seeded else []
            argvs[name] = [*argv, *extra, "--out", str(pass_dir / name)]
        return Query(i, {"argv": argvs}, pass_dir)

    def run(self, q: Query, tracer=None) -> dict:
        """Per command: ``(exit code, seconds, stderr tail)``.

        Each command is a fresh ``python -m sempower.cli`` process timed
        from spawn to exit, or, when ``in_process`` is set,
        ``sempower.cli.main`` in this process (under a ``cli.<command>``
        span when a tracer is given).
        """
        out = {}
        for name, argv in q.inputs["argv"].items():
            if not self.in_process:
                t0 = time.perf_counter()
                try:
                    proc = subprocess.run([sys.executable, "-m", "sempower.cli", *argv],
                                          cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                                          stderr=subprocess.PIPE, text=True,
                                          timeout=COMMAND_TIMEOUT_S)
                    rc, err = proc.returncode, proc.stderr
                except subprocess.TimeoutExpired:
                    rc, err = "timeout", f"killed after {COMMAND_TIMEOUT_S} s"
                out[name] = (rc, time.perf_counter() - t0, err[-2000:])
            else:
                from sempower.cli import main

                err = io.StringIO()
                t0 = time.perf_counter()
                span = tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext()
                with span, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    try:
                        rc = main(argv)
                    except Exception as exc:  # fails the command; the run goes on
                        rc = f"raised {type(exc).__name__}: {exc}"
                out[name] = (rc, time.perf_counter() - t0, err.getvalue()[-2000:])
        return out

    def check(self, q: Query, result: dict) -> tuple[int, list, dict]:
        failures = []
        stats = {"ci_violations": 0}
        for name, (rc, _secs, stderr) in result.items():
            out_dir = q.payload / name
            if rc != 0:
                reasons = [f"exit code {rc}: {stderr.strip()}"]
            else:
                try:
                    reasons = getattr(self, f"_check_{name}")(out_dir, stats)
                    json.loads((out_dir / "manifest.json").read_text())
                except (OSError, ValueError, KeyError, yaml.YAMLError) as exc:
                    reasons = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if reasons:
                failures.append({"query": q.index, "command": name,
                                 "argv": q.inputs["argv"][name], "reasons": reasons})
        return len(result), failures, stats

    @staticmethod
    def _read_csv(path: Path, header: str) -> tuple[list[dict], list[str]]:
        text = path.read_text()
        first = text.split("\n", 1)[0]
        if first != header:
            return [], [f"{path.name}: header {first!r} differs from {header!r}"]
        return list(csv.DictReader(io.StringIO(text))), []

    def _check_sweep_rows(self, path: Path, n_targets: int, target: float | None = None) -> list[str]:
        rows, reasons = self._read_csv(path, SWEEP_HEADER)
        if reasons:
            return reasons
        if len(rows) != n_targets * len(SOLVERS):
            reasons.append(f"{path.name}: {len(rows)} rows, expected {n_targets * len(SOLVERS)}")
        costs: dict[str, dict[str, float]] = {}
        for row in rows:
            where = f"{path.name} p_bar={row['p_bar']} {row['solver']}"
            if target is not None and abs(float(row["p_bar"]) - target) > 1e-12:
                reasons.append(f"{where}: p_bar is not the configured {target}")
            if row["feasible"] != "true":
                reasons.append(f"{where}: refused")
                continue
            q = (float(row["q1_w"]), float(row["q2_w"]))
            if not all(math.isfinite(v) and v >= 0.0 for v in q):
                reasons.append(f"{where}: power not finite and non-negative")
            if abs(float(row["achieved_p"]) - float(row["p_bar"])) > TARGET_ATOL:
                reasons.append(f"{where}: misses the target by more than {TARGET_ATOL:g}")
            costs.setdefault(row["p_bar"], {})[row["solver"]] = float(row["total_cost_w"])
        for p_bar, by_solver in costs.items():
            if "bisection" in by_solver and "grid_oracle" in by_solver:
                gap = oracle_gap(by_solver["bisection"], by_solver["grid_oracle"])
                if gap > ORACLE_RTOL:
                    reasons.append(f"{path.name} p_bar={p_bar}: oracle gap {gap:.3%}")
        return reasons

    def _check_solve(self, out_dir: Path, stats: dict) -> list[str]:
        return self._check_sweep_rows(out_dir / "solve.csv", 1, SOLVE_TARGET)

    def _check_sweep(self, out_dir: Path, stats: dict) -> list[str]:
        reasons = []
        for mod in ("8qam", "16qam"):
            reasons += self._check_sweep_rows(out_dir / f"sweep_{mod}.csv", 10)
        if "<svg" not in (out_dir / "sweep.svg").read_text():
            reasons.append("sweep.svg holds no <svg> element")
        return reasons

    def _check_simulate(self, out_dir: Path, stats: dict) -> list[str]:
        rows, reasons = self._read_csv(out_dir / "simulate.csv", SIM_HEADER)
        if reasons:
            return reasons
        if len(rows) != 20:
            reasons.append(f"simulate.csv: {len(rows)} rows, expected 20")
        bad = [r for r in rows
               if not float(r["ci_low"]) <= float(r["psi_empirical"]) <= float(r["ci_high"])]
        stats["ci_violations"] += len(bad)
        if bad:
            reasons.append(f"simulate.csv: {len(bad)} ci_violations on BPSK")
        return reasons

    def _check_fit(self, out_dir: Path, stats: dict) -> list[str]:
        doc = yaml.safe_load((out_dir / "surface.yaml").read_text())
        if doc.get("family") != "exp-power-sum":
            return [f"surface.yaml: family {doc.get('family')!r}"]
        return [f"surface.yaml: {k}={doc[k]:.6g} not within {FIT_RTOL:.0%} of {v:g}"
                for k, v in BUNDLED_SURFACE.items() if abs(doc[k] - v) > FIT_RTOL * v]


def make_workload(name: str, seed: int, root: Path, scratch: Path, env: dict):
    if name == CliReadme.name:
        return CliReadme(seed, root, scratch, env)
    return FadingBlocks(seed)


_CLASSES = (FadingBlocks, CliReadme)
WORKLOADS = tuple(c.name for c in _CLASSES)
PARAMS = {c.name: c.params for c in _CLASSES}
