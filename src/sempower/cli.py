"""Command-line frontend.

Subcommands: ``fit`` (surface fitting from sample CSVs), ``solve`` (one
target, all selected solvers), ``sweep`` (cost versus target curves with
CSV and SVG output), ``simulate`` (Monte Carlo BER validation). Each
command computes all its outputs first and then hands them to one run
writer, which writes them and a JSON manifest listing them under the
output directory; a run that fails before that writes nothing.
Re-running ``solve``, ``sweep`` or ``simulate`` with its manifest as the
config reproduces the CSV/SVG outputs byte for byte.

Exit codes: 0 success, 2 input error, 3 numerical warning (result
written but flagged), 4 infeasible target.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import astuple, fields
from functools import partial
from pathlib import Path
from typing import Callable

from ._version import __version__
from .config import SNR_POINTS_MAX, ExperimentConfig, build_manifest, load_config, write_manifest
from .errors import ConfigError, InfeasibleError, SempowerError, SempowerWarning
from .modulation import preset
from .perception import fit_surface, load_sample_set, save_surface
from .simulator import StreamSimResult, simulate_stream_report
from .solvers import SweepRow, achievable_range, sweep_targets
from .numerics import derive_seed

SWEEP_HEADER = "p_bar,solver,total_cost_w,q1_w,q2_w,psi1,psi2,achieved_p,iterations,feasible"
SIM_HEADER = ",".join(f.name for f in fields(StreamSimResult))


def _cell(v) -> str:
    """One CSV cell: floats to 12 significant digits, booleans in lower case."""
    if isinstance(v, bool):
        return "true" if v else "false"
    return f"{v:.12g}" if isinstance(v, float) else str(v)


def _csv(header: str, rows) -> str:
    return "\n".join([header, *(",".join(map(_cell, row)) for row in rows)]) + "\n"


def _sweep_csv(rows: list[SweepRow]) -> str:
    def cells(row: SweepRow) -> list:
        a = row.allocation
        if a is None:
            return [row.p_bar, row.solver, *[""] * 7, False]
        return [row.p_bar, row.solver, a.total_cost, *a.q, *a.psi, a.achieved_p, a.iterations,
                a.feasible]

    return _csv(SWEEP_HEADER, map(cells, rows))


def _print_alloc_table(rows: list[SweepRow]) -> None:
    cols = ["solver", "total_cost_w", "q1_w", "q2_w", "psi1", "psi2", "achieved_p", "iters"]
    print(f"{cols[0]:<14}" + "".join(f"{c:>14}" for c in cols[1:]))
    for row in rows:
        a = row.allocation
        if a is None:
            print(f"{row.solver:<14}infeasible: {row.error or 'failed'}")
            continue
        print(
            f"{row.solver:<14}"
            f"{a.total_cost:>14.6g}{a.q[0]:>14.6g}{a.q[1]:>14.6g}"
            f"{a.psi[0]:>14.6g}{a.psi[1]:>14.6g}{a.achieved_p:>14.6g}"
            f"{a.iterations:>14d}"
        )


def _checked_sweep(problem, cfg: ExperimentConfig, targets) -> tuple[list[SweepRow], bool]:
    """:func:`sweep_targets` plus whether its result is numerically in doubt.

    Doubt means a surface fitted from samples without converging, an
    allocation that did not converge, or a :class:`SempowerWarning` (the
    bisection/oracle cross-check); warnings still reach stderr as usual.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SempowerWarning)
        rows = sweep_targets(problem, targets, cfg.solvers, cfg.grid_n)
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    unfit = cfg.surface_fit is not None and not cfg.surface_fit.converged
    if unfit:
        print("warning: the surface fit did not converge", file=sys.stderr)
    doubt = unfit or any(issubclass(w.category, SempowerWarning) for w in caught) or any(
        r.allocation is not None and not r.allocation.converged for r in rows
    )
    return rows, doubt


def _write_text(text: str, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_run(command: str, out_dir: Path, files: dict[str, Callable[[Path], object]],
               config_echo: dict, seed: int, inputs, doubt: bool = False) -> int:
    """Write a run's ``files`` and its ``manifest.json`` under ``out_dir``; the exit code.

    ``files`` maps each output name to a writer taking its path; the
    manifest lists exactly those names. The code is 0, or 3 when the
    result is in numerical ``doubt``.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, write in files.items():
        write(out_dir / name)
    manifest = build_manifest(command, config_echo, seed, inputs, list(files))
    write_manifest(out_dir / "manifest.json", manifest)
    if doubt:
        print(f"{command}: warning: numerical doubt, result flagged", file=sys.stderr)
        return 3
    return 0


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None, help="config YAML (or run manifest JSON)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", type=str, default=None, help="override the output directory")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sempower",
        description="Semantic-aware power allocation: fit, solve, sweep, simulate.",
    )
    ap.add_argument("--version", action="version", version=f"sempower {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a perception surface to psi1,psi2,P samples")
    p_fit.add_argument("samples", type=str, help="sample CSV with header psi1,psi2,P")
    p_fit.add_argument("--out", type=str, default="out", help="output directory (default: out)")

    for name, help_text in [
        ("solve", "solve one target with the selected solvers"),
        ("sweep", "sweep targets and write CSV (and SVG) curves"),
        ("simulate", "Monte Carlo BER validation against the analytic model"),
    ]:
        _common_flags(sub.add_parser(name, help=help_text))
    # only sweep writes an SVG
    sub.choices["sweep"].add_argument("--format", choices=["csv", "csv+svg"], default=None,
                                      help="override the output format")
    return ap


def _load(args) -> ExperimentConfig:
    if args.config is None:
        raise ConfigError("--config is required for this command")
    return load_config(
        args.config,
        seed_override=args.seed,
        out_override=args.out,
        format_override=getattr(args, "format", None),
    )


def cmd_fit(args) -> int:
    samples_path = Path(args.samples).resolve()
    result = fit_surface(load_sample_set(samples_path))
    out_dir = Path(args.out)
    s = result.params
    print(
        f"fit: n={result.n_samples} rmse={result.rmse:.6g} "
        f"iterations={result.iterations} evaluations={result.evaluations} "
        f"p0={s.p0:.6g} pmax={s.pmax:.6g} tau1={s.tau1:.6g} tau2={s.tau2:.6g} "
        f"beta1={s.beta1:.6g} beta2={s.beta2:.6g} -> {out_dir / 'surface.yaml'}"
    )
    # an exhausted iteration budget is the fit's numerical doubt
    return _write_run("fit", out_dir, {"surface.yaml": partial(save_surface, result)},
                      {"samples": str(samples_path), "output": {"dir": str(out_dir)}},
                      0, (samples_path,), not result.converged)


def cmd_solve(args) -> int:
    cfg = _load(args)
    if cfg.target is None:
        raise ConfigError("target: required for solve")
    problem = cfg.problem(cfg.target)
    lo, hi = achievable_range(problem)
    if cfg.target <= lo:
        raise InfeasibleError(
            f"target {cfg.target:g} is unreachable; achievable range is ({lo:g}, {hi:g})"
        )
    rows, doubt = _checked_sweep(problem, cfg, [cfg.target])
    _print_alloc_table(rows)
    return _write_run("solve", cfg.out_dir, {"solve.csv": partial(_write_text, _sweep_csv(rows))},
                      cfg.raw, cfg.seed, cfg.input_files, doubt)


def cmd_sweep(args) -> int:
    from .svgchart import line_chart

    cfg = _load(args)
    variants = list(cfg.modulations) if cfg.modulations else [None]
    files: dict[str, Callable[[Path], object]] = {}
    series = []
    any_doubt = False
    for variant in variants:
        scheme = preset(variant) if variant else None
        mod1, mod2 = (s.modulation.name for s in cfg.streams)
        label = variant or (mod1 if mod1 == mod2 else "mixed")
        template = cfg.problem(cfg.targets[0], scheme)
        rows, doubt = _checked_sweep(template, cfg, cfg.targets)
        any_doubt = any_doubt or doubt
        name = f"sweep_{label}.csv"
        files[name] = partial(_write_text, _sweep_csv(rows))
        for solver in cfg.solvers:
            points = [(r.p_bar, r.allocation.total_cost) for r in rows
                      if r.solver == solver and r.allocation is not None]
            if points:
                tag = f"{solver} {label}" if len(variants) > 1 else solver
                series.append((tag, [x for x, _ in points], [y for _, y in points]))
        n_err = sum(1 for r in rows if r.allocation is None)
        print(f"sweep[{label}]: {len(rows)} rows, {n_err} infeasible -> {cfg.out_dir / name}")
    if not series:
        raise InfeasibleError("no target was solvable by any solver")
    if cfg.out_format == "csv+svg":
        svg = line_chart(
            series,
            xlabel="perception target",
            ylabel="total power cost (W)",
            title="total cost vs perception target",
        )
        files["sweep.svg"] = partial(_write_text, svg)
    return _write_run("sweep", cfg.out_dir, files, cfg.raw, cfg.seed, cfg.input_files, any_doubt)


def cmd_simulate(args) -> int:
    cfg = _load(args)
    results = [
        simulate_stream_report(s.name, s.modulation, s.channel, snr_db, cfg.sim.n_bits,
                               derive_seed(cfg.sim.seed, i * SNR_POINTS_MAX + j))
        for i, s in enumerate(cfg.streams)
        for j, snr_db in enumerate(cfg.sim.snr_db)
    ]
    violations = sum(not r.within_ci for r in results)
    print(f"simulate: rows={len(results)} ci_violations={violations} "
          f"-> {cfg.out_dir / 'simulate.csv'}")
    csv_text = _csv(SIM_HEADER, map(astuple, results))
    return _write_run("simulate", cfg.out_dir, {"simulate.csv": partial(_write_text, csv_text)},
                      cfg.raw, cfg.seed, cfg.input_files)


_COMMANDS = {
    "fit": cmd_fit,
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InfeasibleError as exc:
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return 4
    except SempowerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # inputs are read through ConfigError: this is an output
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # threads only slow start-up: the one BLAS call is tiny
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
