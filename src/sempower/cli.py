"""Command-line frontend.

Subcommands: ``fit`` (surface fitting from sample CSVs), ``solve`` (one
target, all selected solvers), ``sweep`` (cost versus target curves with
CSV and SVG output), ``simulate`` (Monte Carlo BER validation). Every
run writes a JSON manifest; re-running with the manifest as the config
reproduces the CSV/SVG outputs byte for byte.

Exit codes: 0 success, 2 input error, 3 numerical warning (result
written but flagged), 4 infeasible target.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from ._version import __version__
from .config import (
    SIM_MIN_BITS,
    ExperimentConfig,
    build_manifest,
    load_config,
    write_manifest,
)
from .errors import (
    ConfigError,
    DomainError,
    InfeasibleError,
    SempowerError,
    SempowerWarning,
)
from .modulation import preset
from .perception import fit_surface, load_sample_set, save_surface
from .simulator import simulate_stream_report
from .solvers import SweepRow, achievable_range, sweep_targets
from .numerics import derive_seed

SWEEP_HEADER = "p_bar,solver,total_cost_w,q1_w,q2_w,psi1,psi2,achieved_p,iterations,feasible"
SIM_HEADER = "stream,q_w,snr_db,psi_analytic,psi_empirical,n_bits,ci_low,ci_high"


def _g(v: float) -> str:
    return f"{float(v):.12g}"


def _sweep_csv(rows: list[SweepRow]) -> str:
    lines = [SWEEP_HEADER]
    for row in rows:
        a = row.allocation
        if a is None:
            lines.append(f"{_g(row.p_bar)},{row.solver},,,,,,,,false")
        else:
            lines.append(
                ",".join(
                    [
                        _g(row.p_bar),
                        row.solver,
                        _g(a.total_cost),
                        _g(a.q[0]),
                        _g(a.q[1]),
                        _g(a.psi[0]),
                        _g(a.psi[1]),
                        _g(a.achieved_p),
                        str(a.iterations),
                        "true" if a.feasible else "false",
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def _print_alloc_table(rows: list[SweepRow], file=None) -> None:
    file = file or sys.stdout
    cols = ["solver", "total_cost_w", "q1_w", "q2_w", "psi1", "psi2", "achieved_p", "iters"]
    print(
        f"{cols[0]:<14}" + "".join(f"{c:>14}" for c in cols[1:]),
        file=file,
    )
    for row in rows:
        a = row.allocation
        if a is None:
            print(f"{row.solver:<14}infeasible: {row.error or 'failed'}", file=file)
            continue
        print(
            f"{row.solver:<14}"
            f"{a.total_cost:>14.6g}{a.q[0]:>14.6g}{a.q[1]:>14.6g}"
            f"{a.psi[0]:>14.6g}{a.psi[1]:>14.6g}{a.achieved_p:>14.6g}"
            f"{a.iterations:>14d}",
            file=file,
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


def _flagged(command: str) -> int:
    print(f"{command}: warning: numerical doubt, result flagged", file=sys.stderr)
    return 3


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None, help="config YAML (or run manifest JSON)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", type=str, default=None, help="override the output directory")
    p.add_argument(
        "--format", choices=["csv", "csv+svg"], default=None, help="override the output format"
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sempower",
        description="Semantic-aware power allocation: fit, solve, sweep, simulate.",
    )
    ap.add_argument("--version", action="version", version=f"sempower {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a perception surface to psi1,psi2,P samples")
    p_fit.add_argument("samples", type=str, help="sample CSV with header psi1,psi2,P")
    _common_flags(p_fit)

    for name, help_text in [
        ("solve", "solve one target with the selected solvers"),
        ("sweep", "sweep targets and write CSV (and SVG) curves"),
        ("simulate", "Monte Carlo BER validation against the analytic model"),
    ]:
        p_cmd = sub.add_parser(name, help=help_text)
        _common_flags(p_cmd)
    return ap


def _load(args) -> ExperimentConfig:
    if args.config is None:
        raise ConfigError("--config is required for this command")
    return load_config(
        args.config,
        seed_override=args.seed,
        out_override=args.out,
        format_override=args.format,
    )


def cmd_fit(args) -> int:
    samples_path = Path(args.samples).resolve()
    data = load_sample_set(samples_path)
    result = fit_surface(data)
    out_dir = Path(args.out or "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "surface.yaml"
    save_surface(result, out_path)
    manifest = build_manifest(
        "fit",
        {"samples": str(samples_path), "output": {"dir": str(out_dir)}},
        seed=0,
        inputs=(samples_path,),
        outputs=[out_path.name],
    )
    write_manifest(out_dir / "manifest.json", manifest)
    s = result.params
    print(
        f"fit: n={result.n_samples} rmse={result.rmse:.6g} "
        f"p0={s.p0:.6g} pmax={s.pmax:.6g} tau1={s.tau1:.6g} tau2={s.tau2:.6g} "
        f"beta1={s.beta1:.6g} beta2={s.beta2:.6g} -> {out_path}"
    )
    if not result.converged:
        print("fit: warning: iteration budget exhausted, result flagged", file=sys.stderr)
        return 3
    return 0


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
    out_dir = cfg.out_dir
    _write_text(out_dir / "solve.csv", _sweep_csv(rows))
    manifest = build_manifest("solve", cfg.raw, cfg.seed, cfg.input_files, ["solve.csv"])
    write_manifest(out_dir / "manifest.json", manifest)
    return _flagged("solve") if doubt else 0


def cmd_sweep(args) -> int:
    from .svgchart import line_chart

    cfg = _load(args)
    variants = list(cfg.modulations) if cfg.modulations else [None]
    outputs: list[str] = []
    series = []
    any_solved = False
    any_doubt = False
    out_dir = cfg.out_dir
    for variant in variants:
        scheme = preset(variant) if variant else None
        label = variant or (
            cfg.streams[0].scheme.name
            if cfg.streams[0].scheme.name == cfg.streams[1].scheme.name
            else "mixed"
        )
        template = cfg.problem(cfg.targets[0], scheme)
        rows, doubt = _checked_sweep(template, cfg, cfg.targets)
        any_doubt = any_doubt or doubt
        name = f"sweep_{label}.csv"
        _write_text(out_dir / name, _sweep_csv(rows))
        outputs.append(name)
        for solver in cfg.solvers:
            xs = [r.p_bar for r in rows if r.solver == solver and r.allocation is not None]
            ys = [
                r.allocation.total_cost
                for r in rows
                if r.solver == solver and r.allocation is not None
            ]
            if xs:
                any_solved = True
                tag = f"{solver} {label}" if len(variants) > 1 else solver
                series.append((tag, xs, ys))
        n_err = sum(1 for r in rows if r.allocation is None)
        print(f"sweep[{label}]: {len(rows)} rows, {n_err} infeasible -> {out_dir / name}")
    if not any_solved:
        raise InfeasibleError("no target was solvable by any solver")
    if cfg.out_format == "csv+svg":
        svg = line_chart(
            series,
            xlabel="perception target",
            ylabel="total power cost (W)",
            title="total cost vs perception target",
            log_y=True,
        )
        _write_text(out_dir / "sweep.svg", svg)
        outputs.append("sweep.svg")
    manifest = build_manifest("sweep", cfg.raw, cfg.seed, cfg.input_files, outputs)
    write_manifest(out_dir / "manifest.json", manifest)
    return _flagged("sweep") if any_doubt else 0


def cmd_simulate(args) -> int:
    cfg = _load(args)
    if cfg.sim.n_bits < SIM_MIN_BITS:
        raise ConfigError(
            f"simulation.n_bits: need at least {SIM_MIN_BITS} bits for CI-based "
            f"validation, got {cfg.sim.n_bits}"
        )
    states = cfg.channel_states()
    lines = [SIM_HEADER]
    violations = 0
    total = 0
    for i, (stream, state) in enumerate(zip(cfg.streams, states)):
        for j, snr_db in enumerate(cfg.sim.snr_db):
            snr_lin = 10.0 ** (snr_db / 10.0)
            q = snr_lin * state.noise_w / state.gain
            row = simulate_stream_report(
                stream.name,
                stream.scheme,
                state,
                q,
                cfg.sim.n_bits,
                derive_seed(cfg.sim.seed, i * 1000 + j),
            )
            total += 1
            if not row.within_ci:
                violations += 1
            lines.append(
                ",".join(
                    [
                        row.stream,
                        _g(row.q_w),
                        _g(row.snr_db),
                        _g(row.psi_analytic),
                        _g(row.psi_empirical),
                        str(row.n_bits),
                        _g(row.ci_low),
                        _g(row.ci_high),
                    ]
                )
            )
    out_dir = cfg.out_dir
    _write_text(out_dir / "simulate.csv", "\n".join(lines) + "\n")
    manifest = build_manifest("simulate", cfg.raw, cfg.seed, cfg.input_files, ["simulate.csv"])
    write_manifest(out_dir / "manifest.json", manifest)
    print(f"simulate: rows={total} ci_violations={violations} -> {out_dir / 'simulate.csv'}")
    return 0


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
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SempowerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
