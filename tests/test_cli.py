import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import sempower
from sempower.cli import SIM_HEADER, SWEEP_HEADER, main
from sempower.config import ExperimentConfig, load_config
from sempower.errors import SempowerWarning
from sempower.perception import (
    SampleSet,
    SurfaceParams,
    default_surface,
    load_surface,
    save_sample_set,
    save_surface,
    synthetic_sample_set,
)

from conftest import assert_rel


def write_config(tmp_path, name="config.yaml", **overrides):
    path = tmp_path / name
    with open(path, "w") as fh:
        yaml.safe_dump(overrides, fh)
    return path


def write_unreachable_proportional(tmp_path, **overrides):
    """A config on which the proportional rule cannot be met above P = 0.258.

    Stream 1 barely moves the surface but its curve is very BER-tolerant,
    so there the rule needs a BER beyond what 16-QAM shows at zero power;
    the other solvers solve.
    """
    from sempower.perception import StreamCurve, SurfaceParams, save_curve, save_surface

    save_surface(SurfaceParams(p0=0.25, pmax=0.9999, tau1=50.0, tau2=1e-3, beta1=1.0,
                               beta2=1.0), tmp_path / "surface.yaml")
    streams = []
    for name, tau in (("tolerant", 10.0), ("fragile", 1e-4)):
        save_curve(StreamCurve(p0=0.3, pmax=0.95, tau=tau, beta=1.0), tmp_path / f"{name}.yaml")
        streams.append({"name": name, "bits": 1000, "modulation": "16qam",
                        "curve": f"{name}.yaml"})
    return write_config(tmp_path, surface="surface.yaml", streams=streams, grid_n=512, **overrides)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestFit:
    def test_recovers_truth_from_synthetic_csv(self, tmp_path, capsys):
        truth = default_surface()
        samples = tmp_path / "samples.csv"
        save_sample_set(synthetic_sample_set(truth, seed=42, noise_sigma=0.01), samples)
        code = main(["fit", str(samples), "--out", str(tmp_path / "out")])
        assert code == 0
        fitted = load_surface(tmp_path / "out" / "surface.yaml")
        for name in ("p0", "pmax", "tau1", "tau2", "beta1", "beta2"):
            assert_rel(getattr(fitted, name), getattr(truth, name), 0.05, name)
        assert "rmse" in capsys.readouterr().out

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("psi1,psi2,P\n0,0,0.4\n0.1,zzz,0.5\n")
        code = main(["fit", str(bad), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--config", "/nonexistent.yaml"], ["--seed", "5"],
                                      ["--format", "csv"]], ids=["config", "seed", "format"])
    def test_unread_flags_rejected(self, tmp_path, flag):
        # fit reads only its samples and --out; these flags were ignored
        samples = tmp_path / "samples.csv"
        save_sample_set(synthetic_sample_set(default_surface(), seed=3), samples)
        with pytest.raises(SystemExit) as exc:
            main(["fit", str(samples), *flag, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content, message", [
        (None, "No such file"),
        (b"psi1,psi2,P\n\xff\xfe,0,0.4\n", "can't decode"),
        (b"", "empty file"),
        (b"psi1,psi2,P\n0.7,0,0.4\n", "psi1 must lie in [0, 0.5]"),
        (b"psi1,psi2,P\n0,0,0.4\n0.1,0.2,nan\n", "P must lie in [0, 1]"),
    ], ids=["missing", "not-utf8", "empty", "psi1-outside", "p-nan"])
    def test_unreadable_csv_exit_2(self, tmp_path, capsys, content, message):
        samples = tmp_path / "samples.csv"
        if content is not None:
            samples.write_bytes(content)
        code = main(["fit", str(samples), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "samples.csv" in err and message in err
        assert not (tmp_path / "out").exists()

    def test_nonconverged_fit_exit_3_still_writes(self, tmp_path, monkeypatch, capsys):
        import sempower.cli as cli_mod
        from sempower.perception import FitResult, fit_surface as real_fit

        def flagged_fit(data):
            res = real_fit(data)
            return FitResult(res.params, res.rmse, res.n_samples, converged=False)

        monkeypatch.setattr(cli_mod, "fit_surface", flagged_fit)
        samples = tmp_path / "samples.csv"
        save_sample_set(synthetic_sample_set(default_surface(), seed=3, noise_sigma=0.0), samples)
        code = main(["fit", str(samples), "--out", str(tmp_path / "out")])
        assert code == 3
        assert (tmp_path / "out" / "surface.yaml").is_file()
        assert "flagged" in capsys.readouterr().err

    def test_exhausted_step_budget_exit_3(self, tmp_path, monkeypatch, capsys):
        import sempower.perception as perception_mod

        monkeypatch.setattr(perception_mod, "_FIT_MAX_STEPS", 1)
        samples = tmp_path / "samples.csv"
        save_sample_set(synthetic_sample_set(default_surface(), seed=3, noise_sigma=0.01), samples)
        code = main(["fit", str(samples), "--out", str(tmp_path / "out")])
        assert code == 3
        doc = yaml.safe_load((tmp_path / "out" / "surface.yaml").read_text())
        assert doc["fit"]["converged"] is False
        out, err = capsys.readouterr()
        assert "iterations=1 evaluations=" in out and "flagged" in err

    def test_constant_samples_exit_2(self, tmp_path, capsys):
        samples = tmp_path / "constant.csv"
        psi = np.geomspace(1e-4, 0.5, 10)
        save_sample_set(SampleSet(psi1=psi, psi2=psi[::-1], p=np.full(10, 0.4)), samples)
        code = main(["fit", str(samples), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "constant" in capsys.readouterr().err

    def test_falling_samples_exit_2(self, tmp_path, capsys):
        samples = tmp_path / "falling.csv"
        psi = np.linspace(0.01, 0.5, 10)
        save_sample_set(SampleSet(psi1=psi, psi2=psi, p=np.linspace(0.9, 0.1, 10)), samples)
        code = main(["fit", str(samples), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "surface fit failed" in capsys.readouterr().err
        assert not (tmp_path / "out" / "surface.yaml").exists()

    def test_refit_is_stable(self, tmp_path):
        truth = default_surface()
        samples = tmp_path / "samples.csv"
        save_sample_set(synthetic_sample_set(truth, seed=1, noise_sigma=0.0), samples)
        assert main(["fit", str(samples), "--out", str(tmp_path / "a")]) == 0
        first = load_surface(tmp_path / "a" / "surface.yaml")
        exact = tmp_path / "exact.csv"
        save_sample_set(synthetic_sample_set(first, seed=2, noise_sigma=0.0), exact)
        assert main(["fit", str(exact), "--out", str(tmp_path / "b")]) == 0
        second = load_surface(tmp_path / "b" / "surface.yaml")
        for name in ("p0", "pmax", "tau1", "tau2", "beta1", "beta2"):
            assert_rel(getattr(second, name), getattr(first, name), 1e-3, name)


def imported_modules(*argv, cwd=None):
    """Modules a fresh ``python -X importtime`` process loads, in order."""
    src = str(Path(sempower.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True)
    return [line.split("|")[-1].strip() for line in proc.stderr.splitlines() if "|" in line]


# Float solves leave numpy unloaded; the array call given loads it.
FIRST_USE = """
import sys
import sempower, sempower.cli
from sempower import (ChannelState, ProblemSpec, StreamSpec, default_edge_curve,
                      default_prompt_curve, default_surface, preset, solve)
link = ChannelState(gain=1e-10, noise_w=1e-14)
p = ProblemSpec((StreamSpec(1024, preset("bpsk"), link, default_prompt_curve()),
                 StreamSpec(8192, preset("16qam"), link, default_edge_curve())),
                default_surface(), 0.6)
for name in ("bisection", "proportional", "equal_snr"):
    solve(p, name)
print("numpy" not in sys.modules and "numpy-free")
print({call})
print("numpy" in sys.modules and "numpy")
"""


class TestStartup:
    """No command loads scipy: it is a test-only dependency."""

    @pytest.mark.parametrize("argv", [["-c", "import sempower"],
                                      ["-m", "sempower.cli", "--version"],
                                      ["-m", "sempower.cli", "solve", "--config", "config.yaml"]],
                             ids=["import", "version", "solve"])
    def test_scipy_not_imported(self, tmp_path, argv):
        write_config(tmp_path, target=0.6, output={"dir": str(tmp_path / "run")})
        loaded = imported_modules(*argv, cwd=tmp_path)
        assert "sempower" in loaded
        assert not [m for m in loaded if m.split(".")[0] == "scipy"]

    @pytest.mark.parametrize("argv, output", [(["fit", "samples.csv"], "surface.yaml"),
                                              (["solve", "--config", "config.yaml"], "solve.csv")],
                             ids=["fit", "solve-csv-surface"])
    def test_fit_runs_without_scipy(self, tmp_path, argv, output):
        save_sample_set(synthetic_sample_set(default_surface(), seed=3), tmp_path / "samples.csv")
        write_config(tmp_path, surface="samples.csv", target=0.6, grid_n=512)
        loaded = imported_modules("-m", "sempower.cli", *argv, "--out", "out", cwd=tmp_path)
        assert "sempower.perception" in loaded
        assert not [m for m in loaded if m.split(".")[0] == "scipy"]
        assert (tmp_path / "out" / output).is_file()

    @pytest.mark.parametrize("argv", [
        ["-c", "import sempower.cli"],
        ["-m", "sempower.cli", "--version"],
        ["-m", "sempower.cli", "solve", "--config", "configs/default.yaml"],
        ["-m", "sempower.cli", "sweep", "--config", "configs/sweep_modulations.yaml"],
    ], ids=["import", "version", "readme-solve", "readme-sweep"])
    def test_numpy_not_imported(self, tmp_path, argv):
        out = ["--out", str(tmp_path / "run")] if "--config" in argv else []
        loaded = imported_modules(*argv, *out, cwd=REPO)
        assert "sempower.solvers" in loaded
        assert not [m for m in loaded if m.split(".")[0] == "numpy"]

    def test_entrypoint_sets_only_unset_thread_counts(self, monkeypatch):
        # BLAS threads slow a fresh process that loads numpy; a count set already stays.
        import sempower.cli as cli_mod

        names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        for name in names:
            monkeypatch.setenv(name, "3")  # so that teardown restores what was there before
        monkeypatch.delenv("OMP_NUM_THREADS")
        monkeypatch.delenv("MKL_NUM_THREADS")
        monkeypatch.setattr(cli_mod, "main", lambda: 0)
        with pytest.raises(SystemExit) as exc:
            cli_mod.entrypoint()
        assert exc.value.code == 0
        assert [os.environ[name] for name in names] == ["1", "3", "1"]

    @pytest.mark.parametrize("call, printed", [
        ("sempower.eval_curve(default_edge_curve(), [0.0]).shape", "(1,)"),
        ("sempower.q_inverse([0.5, 0.5]).tolist()", "[0.0, 0.0]"),
        ("len(sempower.Rng(1).normal_at(0, 4))", "4"),
    ], ids=["eval_curve", "q_inverse", "rng"])
    def test_numpy_loads_on_first_use(self, call, printed):
        # A fresh process, as this one has numpy loaded already.
        src = str(Path(sempower.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", FIRST_USE.format(call=call)], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["numpy-free", printed, "numpy"]


class TestSolve:
    def test_solver_ordering_and_schema(self, tmp_path, capsys):
        cfg = write_config(tmp_path, target=0.6)
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "solve.csv")
        with open(out / "solve.csv") as fh:
            assert fh.readline().strip() == SWEEP_HEADER
        cost = {r["solver"]: float(r["total_cost_w"]) for r in rows}
        assert cost["bisection"] <= cost["proportional"] * 1.001
        assert cost["bisection"] <= cost["equal_snr"] * 1.001
        assert "bisection" in capsys.readouterr().out

    def test_infeasible_target_exit_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path, target=0.25)
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 4
        err = capsys.readouterr().err
        assert "achievable range" in err and "0.3" in err

    def test_repeated_run_identical_csv(self, tmp_path):
        cfg = write_config(tmp_path, target=0.55)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "solve.csv").read_bytes() == (
            tmp_path / "b" / "solve.csv"
        ).read_bytes()

    def test_failed_solver_printed_as_infeasible(self, tmp_path, capsys):
        cfg = write_unreachable_proportional(tmp_path, target=0.8)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        printed = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()[1:]}
        assert printed["proportional"].startswith(
            f"{'proportional':<14}infeasible: proportional rule cannot be met: stream tolerant")
        assert "infeasible" not in printed["bisection"]

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.yaml")]) == 2

    def test_oracle_disagreement_exit_3_still_writes(self, tmp_path, monkeypatch, capsys):
        import sempower.solvers as solvers_mod

        real = solvers_mod._SOLVERS["bisection"]

        def inflated(p):
            alloc = real(p)
            return replace(alloc, total_cost=alloc.total_cost * 1.02)

        monkeypatch.setitem(solvers_mod._SOLVERS, "bisection", inflated)
        cfg = write_config(tmp_path, target=0.6, grid_n=512)
        out = tmp_path / "run"
        with pytest.warns(SempowerWarning, match="unimodal"):
            code = main(["solve", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert len(read_rows(out / "solve.csv")) == 4
        assert "flagged" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_small_beta1_surface_not_flagged(self, tmp_path, command):
        # beta1 = 0.069: twelve decades of psi1 below its top are under one
        # decade of stream 1's share, where a grid over them sat 9% above
        # bisection and flagged the cost as not unimodal.
        save_surface(SurfaceParams(0.3, 0.95, 5.6029223416311225e-192, 1.3597206671358468,
                                   0.06905819716309045, 0.18360094535316446),
                     tmp_path / "surface.yaml")
        streams = [{"name": name, "bits": bits, "modulation": "bpsk", "curve": f"default-{name}"}
                   for name, bits in (("prompt", 1024), ("edge", 8192))]
        cfg = write_config(tmp_path, surface="surface.yaml", streams=streams,
                           target=0.6643066782379515, targets=[0.6643066782379515])
        with warnings.catch_warnings(record=True) as caught:
            code = main([command, "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 0
        assert not [w for w in caught if issubclass(w.category, SempowerWarning)]


class TestSweep:
    def test_modulation_comparison(self, tmp_path):
        cfg = write_config(
            tmp_path,
            modulations=["8qam", "16qam"],
            targets={"start": 0.35, "stop": 0.9, "count": 6},
            grid_n=1024,
        )
        out = tmp_path / "run"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows8 = read_rows(out / "sweep_8qam.csv")
        rows16 = read_rows(out / "sweep_16qam.csv")
        for r8, r16 in zip(rows8, rows16):
            assert (r8["p_bar"], r8["solver"]) == (r16["p_bar"], r16["solver"])
            assert float(r16["total_cost_w"]) > float(r8["total_cost_w"])
        for rows in (rows8, rows16):
            for solver in ("equal_snr", "proportional", "bisection", "grid_oracle"):
                costs = [float(r["total_cost_w"]) for r in rows if r["solver"] == solver]
                assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_step_range(self, tmp_path):
        cfg = write_config(tmp_path, targets={"start": 0.4, "stop": 0.8, "step": 0.1},
                           solvers=["bisection"], grid_n=512)
        out = tmp_path / "run"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        p_bars = [r["p_bar"] for r in read_rows(out / "sweep_16qam.csv")]
        assert p_bars == ["0.4", "0.5", "0.6", "0.7", "0.8"]
        echo = json.loads((out / "manifest.json").read_text())["config"]["targets"]
        assert echo == {"start": 0.4, "stop": 0.8, "step": 0.1}

    def test_csv_format_writes_no_svg(self, tmp_path):
        cfg = write_config(tmp_path, targets=[0.4, 0.7], grid_n=512)
        out = tmp_path / "run"
        assert main(["sweep", "--config", str(cfg), "--format", "csv", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "sweep_16qam.csv"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["output"]["format"] == "csv"

    def test_svg_well_formed_one_polyline_per_series(self, tmp_path):
        cfg = write_config(
            tmp_path,
            modulations=["8qam", "16qam"],
            targets=[0.4, 0.6, 0.8],
            solvers=["equal_snr", "bisection"],
            grid_n=1024,
        )
        out = tmp_path / "run"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        tree = ET.parse(out / "sweep.svg")  # raises on malformed XML
        polylines = [e for e in tree.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 4  # 2 solvers x 2 modulations

    def test_infeasible_targets_recorded_not_fatal(self, tmp_path):
        cfg = write_config(tmp_path, targets=[0.2, 0.6], solvers=["bisection"], grid_n=1024)
        out = tmp_path / "run"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "sweep_16qam.csv")
        assert rows[0]["feasible"] == "false" and rows[0]["total_cost_w"] == ""
        assert rows[1]["feasible"] == "true"

    def test_nonconverged_allocation_exit_3_still_writes(self, tmp_path, monkeypatch, capsys):
        import sempower.solvers as solvers_mod

        real = solvers_mod._SOLVERS["bisection"]
        monkeypatch.setitem(
            solvers_mod._SOLVERS, "bisection", lambda p: replace(real(p), converged=False)
        )
        cfg = write_config(tmp_path, targets=[0.5, 0.7], solvers=["bisection"])
        out = tmp_path / "run"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 3
        assert len(read_rows(out / "sweep_16qam.csv")) == 2
        assert (out / "sweep.svg").is_file()
        assert "flagged" in capsys.readouterr().err

    def test_unreachable_proportional_target_leaves_error_row(self, tmp_path):
        cfg = write_unreachable_proportional(tmp_path, targets=[0.255, 0.8])
        out = tmp_path / "run"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "sweep_16qam.csv")
        assert len(rows) == 8
        assert [(r["p_bar"], r["solver"]) for r in rows if r["feasible"] == "false"] == [
            ("0.8", "proportional")
        ]

    def test_exhausted_searches_exit_3_still_write(self, tmp_path, monkeypatch, capsys):
        import sempower.solvers as solvers_mod

        monkeypatch.setattr(solvers_mod, "SEARCH_TOL", replace(solvers_mod.SEARCH_TOL, max_iter=3))
        cfg = write_config(tmp_path, targets=[0.5, 0.7], solvers=["equal_snr", "proportional"])
        out = tmp_path / "run"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 3
        rows = read_rows(out / "sweep_16qam.csv")
        assert len(rows) == 4
        # equal_snr also counts its evaluation at the lower end of its bracket
        assert [(r["solver"], r["feasible"], r["iterations"]) for r in rows] == [
            ("equal_snr", "true", "4"), ("proportional", "true", "3")] * 2
        assert (out / "sweep.svg").is_file()
        assert "flagged" in capsys.readouterr().err

    def test_byte_identical_outputs(self, tmp_path):
        cfg = write_config(tmp_path, targets=[0.45, 0.7], grid_n=512, seed=7)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        for name in ("sweep_16qam.csv", "sweep.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_replay(self, tmp_path):
        cfg = write_config(tmp_path, targets=[0.5, 0.75], grid_n=512)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        manifest = tmp_path / "a" / "manifest.json"
        doc = json.loads(manifest.read_text())
        assert doc["manifest_version"] == 1 and doc["command"] == "sweep"
        assert main(["sweep", "--config", str(manifest), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "sweep_16qam.csv").read_bytes() == (
            tmp_path / "b" / "sweep_16qam.csv"
        ).read_bytes()


class TestSimulate:
    def test_bpsk_no_ci_violations(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            streams=[
                {"name": "prompt", "bits": 1024, "modulation": "bpsk"},
                {"name": "edge", "bits": 8192, "modulation": "bpsk"},
            ],
            simulation={"n_bits": 1_000_000, "snr_db": list(range(10)), "seed": 1234},
        )
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert "ci_violations=0" in capsys.readouterr().out
        with open(out / "simulate.csv") as fh:
            assert fh.readline().strip() == SIM_HEADER
        rows = read_rows(out / "simulate.csv")
        assert len(rows) == 20

    def test_seed_changes_empirical_only(self, tmp_path):
        base = dict(
            streams=[
                {"name": "prompt", "bits": 1024, "modulation": "bpsk"},
                {"name": "edge", "bits": 8192, "modulation": "bpsk"},
            ],
        )
        cfg1 = write_config(
            tmp_path, "one.yaml", simulation={"n_bits": 100_000, "snr_db": [3], "seed": 1}, **base
        )
        cfg2 = write_config(
            tmp_path, "two.yaml", simulation={"n_bits": 100_000, "snr_db": [3], "seed": 2}, **base
        )
        assert main(["simulate", "--config", str(cfg1), "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", "--config", str(cfg2), "--out", str(tmp_path / "b")]) == 0
        rows_a = read_rows(tmp_path / "a" / "simulate.csv")
        rows_b = read_rows(tmp_path / "b" / "simulate.csv")
        for ra, rb in zip(rows_a, rows_b):
            assert ra["psi_analytic"] == rb["psi_analytic"]
            assert ra["psi_empirical"] != rb["psi_empirical"]

    def test_low_bit_budget_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, simulation={"n_bits": 5000, "snr_db": [0], "seed": 1})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "n_bits" in capsys.readouterr().err

    def test_overflowing_snr_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, simulation={"snr_db": [4000]})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "simulation.snr_db: 4000.0" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path):
        # with simulation.seed unset, the sub-seed derives from the master
        # seed, so --seed moves the empirical draw
        cfg = write_config(tmp_path, simulation={"n_bits": 50_000, "snr_db": [2], "seed": None})
        assert main(["simulate", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", "--config", str(cfg), "--seed", "2", "--out", str(tmp_path / "b")]) == 0
        rows_a = read_rows(tmp_path / "a" / "simulate.csv")
        rows_b = read_rows(tmp_path / "b" / "simulate.csv")
        assert rows_a[0]["psi_empirical"] != rows_b[0]["psi_empirical"]


class TestConfig:
    def test_bad_yaml_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("streams: [only-one]\n")
        assert main(["solve", "--config", str(path)]) == 2

    def test_config_not_utf8_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"target: \xff\xfe\n")
        assert main(["solve", "--config", str(path)]) == 2
        assert "bad.yaml" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"targets": {"start": 0.4, "stop": 0.8, "count": 0}}, "targets.count"),
            ({"solvers": ["newton"]}, "solvers"),
            ({"cost_basis": "joules"}, "cost_basis"),
            ({"grid_n": 32}, "grid_n"),
            ({"modulations": ["8qam", "64qam"]}, "modulations"),
            ({"output": {"format": "pdf"}}, "output.format"),
            ({"channel": {"fading": "nakagami"}}, "channel.fading"),
            (
                {"streams": [{"bits": 8, "modulation": "custom", "a": 1.0, "b": 1.0}, {}]},
                "streams[0]",
            ),
            ({"streams": [{}, {}, {}]}, "streams"),
            ({"target": 1.5}, "target"),
            ({"targets": {"start": 0.4, "stop": 0.8, "step": 0.0}}, "targets.step"),
            ({"targets": {"start": 0.4, "step": 0.1}}, "targets.stop"),
            ({"targets": {"start": 0.4, "stop": 0.8, "count": 5, "step": 0.1}}, "targets"),
            ({"channel": {"independent_fades": "abc"}}, "channel.independent_fades"),
            ({"simulation": {"snr_db": []}}, "simulation.snr_db"),
            ({"channel": {"h0_db": True}}, "channel.h0_db"),
            ({"grid_n": 64.5}, "grid_n"),
            ({"streams": [{"M": 4}, {}]}, "streams[0].M"),
            ({"channel": 5}, "channel: expected a mapping"),
            ({"targets": "abc"}, "targets: expected a list or a start/stop range"),
            ({"surface": "missing.yaml"}, "surface: file not found"),
            ({"target": None}, "target: required for solve"),
            ({"targets": [0.5] * 10_001}, "targets: more than 10000 targets"),
            ({"streams": [{"modulation": "custom", "M": 3, "a": 1.0, "b": 1.0}, {}]},
             "streams[0]: M must be a power of two >= 2, got 3"),
            ({"simulation": {"snr_db": [0.0] * 1001}}, "simulation.snr_db: more than 1000 points"),
            ({"solvers": ["bisection", "bisection"]}, "solvers: 'bisection' is repeated"),
            ({"modulations": ["8qam", "8qam"]}, "modulations: '8qam' is repeated"),
            ({"targets": {"start": 0.5, "stop": 0.5, "count": 3}}, "targets: 0.5 is repeated"),
            ({"simulation": {"snr_db": [1, 2.0, 1.0]}}, "simulation.snr_db: 1.0 is repeated"),
            ({"streams": [{"curve": "prompt"}, {}]}, "streams[0].curve: file not found"),
        ],
    )
    def test_invalid_value_exit_2(self, tmp_path, capsys, overrides, key):
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"error: {key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    def test_format_flag_only_on_sweep(self, tmp_path, command):
        # only sweep writes an SVG: solve --format csv+svg wrote none
        cfg = write_config(tmp_path, target=0.6)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--format", "csv", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_empty_config_is_the_defaults(self, tmp_path):
        empty = tmp_path / "empty.yaml"
        empty.write_text("")
        default = REPO / "configs" / "default.yaml"  # every key at its built-in default
        assert (replace(load_config(empty), input_files=())
                == replace(load_config(default), input_files=()))
        assert main(["solve", "--config", str(empty), "--out", str(tmp_path / "run")]) == 0

    @pytest.mark.parametrize("content, message", [
        (None, "error: --config is required"),
        ("- 0.6\n", "expected a mapping at the top level"),
        ('{"manifest_version": 1, "config": 3}', "manifest 'config' is not a mapping"),
    ], ids=["no-config", "list", "manifest-config"])
    def test_unusable_config_exit_2(self, tmp_path, capsys, content, message):
        out = tmp_path / "run"
        argv = ["solve", "--out", str(out)]
        if content is not None:
            (tmp_path / "config.yaml").write_text(content)
            argv += ["--config", str(tmp_path / "config.yaml")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_null_section_keeps_its_defaults(self, tmp_path):
        for name, overrides in (("null", {"channel": None}), ("absent", {})):
            cfg = write_config(tmp_path, f"{name}.yaml", target=0.6, grid_n=512, **overrides)
            assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        null, absent = (json.loads((tmp_path / name / "manifest.json").read_text())["config"]
                        for name in ("null", "absent"))
        assert null["channel"] == absent["channel"]
        assert (tmp_path / "null" / "solve.csv").read_bytes() == (
            tmp_path / "absent" / "solve.csv").read_bytes()

    def test_default_yaml_is_the_defaults(self, tmp_path):
        # Its header says every key it shows is the built-in default.
        shown = load_config(REPO / "configs" / "default.yaml")
        empty = load_config(write_config(tmp_path))
        for f in fields(ExperimentConfig):
            if f.name != "input_files":
                assert getattr(shown, f.name) == getattr(empty, f.name), f.name

    @pytest.mark.parametrize(
        "key, value", [("h0_db", 4000), ("noise_dbm", 4000), ("d0_m", 1.0e300)]
    )
    def test_overflowing_link_exit_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, channel={key: value}, target=0.6)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: channel:") and f"{key}={float(value)}" in err

    @pytest.mark.parametrize("command", ["solve", "sweep", "simulate"])
    def test_overflowing_power_exit_2(self, tmp_path, capsys, command):
        # A representable link whose power at the BER floor (or at 30 dB
        # SNR) is not: every cost and power used to come out infinite in
        # rows marked feasible, and simulate named neither stream nor SNR.
        cfg = write_config(tmp_path, channel={"noise_dbm": 3000}, target=0.6,
                           simulation={"snr_db": [30]})
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: stream prompt:") and "overflows" in err and "1e+297 W" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"taget": 0.45}, "taget"),
            ({"channel": {"nosie_dbm": -100}}, "channel.nosie_dbm"),
            ({"simulation": {"nbits": 20000}}, "simulation.nbits"),
            ({"streams": [{"bitz": 8}, {}]}, "streams[0].bitz"),
            ({"targets": {"start": 0.4, "stop": 0.8, "count": 5, "cnt": 3}}, "targets.cnt"),
        ],
    )
    def test_unknown_key_exit_2(self, tmp_path, capsys, overrides, key):
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"error: {key}: unknown key" in capsys.readouterr().err
        assert not out.exists()

    # Each document has both kinds' fields; the messages are the surface's and the curve's.
    @pytest.mark.parametrize("content, messages", [
        (b"p0: [0.3\npmax: 0.95\n", ("", "")),
        (b"p0: \xff\xfe\n", ("", "")),
        (b"- 0.3\n- 0.95\n", ("expected a mapping",) * 2),
        (b"{p0: 0.3, pmax: 0.95, tau1: 5.0e-3, tau2: 1.0e-3, beta1: 1.0, tau: 5.0e-3}",
         ("missing field 'beta2'", "missing field 'beta'")),
        (b"{p0: 0.3, pmax: 0.95, tau1: -1, tau2: 1.0e-3, beta1: 1.0, beta2: 1.0,"
         b" tau: -1, beta: 1.0}",
         ("tau1 must be finite and > 0", "tau must be finite and > 0")),
    ], ids=["bad-yaml", "not-utf8", "list", "missing-field", "negative-tau"])
    @pytest.mark.parametrize("kind", ["surface", "curve"])
    def test_malformed_document_exit_2(self, tmp_path, capsys, kind, content, messages):
        (tmp_path / "doc.yaml").write_bytes(content)
        overrides = (
            {"surface": "doc.yaml"} if kind == "surface"
            else {"streams": [{"curve": "doc.yaml"}, {}]}
        )
        cfg = write_config(tmp_path, **overrides)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "doc.yaml" in err and messages[kind == "curve"] in err

    def test_custom_modulation(self, tmp_path):
        cfg = write_config(
            tmp_path,
            streams=[
                {"name": "p", "bits": 1000, "modulation": "custom", "M": 4, "a": 1.0, "b": 1.0},
                {"name": "e", "bits": 2000, "modulation": "custom", "M": 4, "a": 1.0, "b": 1.0,
                 "label": "qpsk"},
            ],
            target=0.6,
        )
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "solve.csv")
        assert len(rows) == 4
        # the manifest echoes the custom keys, and replaying it accepts them
        replay = tmp_path / "replay"
        assert main(["solve", "--config", str(out / "manifest.json"), "--out", str(replay)]) == 0
        assert (replay / "solve.csv").read_bytes() == (out / "solve.csv").read_bytes()

    def test_label_cannot_leave_out_dir(self, tmp_path, capsys):
        # both streams share the label, so it names the sweep CSV
        custom = {"modulation": "custom", "M": 4, "a": 1.0, "b": 1.0, "label": "x/../../escaped"}
        cfg = write_config(tmp_path, streams=[custom, custom])
        out = tmp_path / "run"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error: streams[0].label" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "escaped.csv").exists()

    def test_name_cannot_split_csv_row(self, tmp_path, capsys):
        cfg = write_config(tmp_path, streams=[{"name": "p,x"}, {}],
                           simulation={"n_bits": 10_000, "snr_db": [0.0]})
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error: streams[0].name" in capsys.readouterr().err
        assert not out.exists()

    def test_surface_from_file_and_curves_from_file(self, tmp_path):
        from sempower.perception import default_edge_curve, save_curve, save_surface

        save_surface(default_surface(), tmp_path / "surf.yaml")
        save_curve(default_edge_curve(), tmp_path / "edge.yaml")
        cfg = write_config(
            tmp_path,
            surface="surf.yaml",
            streams=[
                {"name": "p", "bits": 1024, "modulation": "16qam", "curve": "default-prompt"},
                {"name": "e", "bits": 8192, "modulation": "16qam", "curve": "edge.yaml"},
            ],
            target=0.6,
        )
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0

    @pytest.mark.parametrize("command, output", [("solve", "solve.csv"), ("sweep", "sweep_16qam.csv")])
    def test_nonconverged_surface_fit_exit_3_still_writes(
        self, tmp_path, monkeypatch, capsys, command, output
    ):
        import sempower.config as config_mod
        from sempower.perception import fit_surface as real_fit

        monkeypatch.setattr(
            config_mod, "fit_surface", lambda data: replace(real_fit(data), converged=False)
        )
        save_sample_set(synthetic_sample_set(default_surface(), seed=3, noise_sigma=0.0),
                        tmp_path / "samples.csv")
        cfg = write_config(tmp_path, surface="samples.csv", target=0.6, targets=[0.5, 0.7],
                           grid_n=512)
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        assert (out / output).is_file() and (out / "manifest.json").is_file()
        err = capsys.readouterr().err
        assert "surface fit did not converge" in err and "flagged" in err

    def test_rayleigh_seeded_fading(self, tmp_path):
        cfg = write_config(
            tmp_path,
            channel={"fading": "rayleigh", "seed": 99},
            target=0.6,
        )
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["solve", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["solve", "--config", str(cfg), "--out", str(b)]) == 0
        assert (a / "solve.csv").read_bytes() == (b / "solve.csv").read_bytes()


REPO = Path(__file__).resolve().parents[1]
# SHA-256 of every CSV/SVG/surface output of the four README commands. An
# intended change to one of these outputs updates its pin here.
README_PINS = {
    "solve/solve.csv": "cc79c4741d31b7359596501f5504da9fcccb746cafebf2e58e76cc7877c1fb4e",
    "sweep/sweep_8qam.csv": "4692561be73212baaf625718150bf5aa48b044455ef03f3f2ab4df44f34b69dc",
    "sweep/sweep_16qam.csv": "8b822128d8a2dc92f0f332e5d27b261a82377deddad4bb0f74f2ee030815e3f5",
    "sweep/sweep.svg": "c2e7269a4365e7d08772ec757f52444fb45e0892ff5cdef02ef6c15055b062bf",
    "simulate/simulate.csv": "04a282fa124d37ab35cb3b1b39057bb61e193a9330a76adf653a2728dd64f550",
    "fit/surface.yaml": "2e4479cd0bb4a52283ece89ae12063764f2d1d8e8f96be7cb0472d07a74300c1",
}


class TestOutputs:
    @pytest.mark.parametrize("command", ["solve", "fit"])
    def test_out_at_existing_file_exit_2(self, tmp_path, capsys, command):
        save_sample_set(synthetic_sample_set(default_surface(), seed=3), tmp_path / "samples.csv")
        cfg = write_config(tmp_path, target=0.6, grid_n=512)
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = ["fit", str(tmp_path / "samples.csv")] if command == "fit" else [
            "solve", "--config", str(cfg)]
        assert main([*argv, "--out", str(taken)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {taken}:")

    @pytest.mark.parametrize("command", ["solve", "sweep", "simulate", "fit"])
    def test_manifest_lists_exactly_the_files_written(self, tmp_path, command):
        samples = tmp_path / "samples.csv"
        save_sample_set(synthetic_sample_set(default_surface(), seed=3), samples)
        cfg = write_config(tmp_path, target=0.6, targets=[0.4, 0.7], grid_n=512,
                           modulations=["8qam", "16qam"],
                           simulation={"n_bits": 10_000, "snr_db": [0.0, 3.0]})
        out = tmp_path / "run"
        argv = ["fit", str(samples)] if command == "fit" else [command, "--config", str(cfg)]
        assert main([*argv, "--out", str(out)]) == 0
        written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert json.loads((out / "manifest.json").read_text())["outputs"] == written
        assert written

    def test_infeasible_sweep_writes_nothing(self, tmp_path):
        # Outputs are written only once every variant has run, so a sweep
        # that exits 4 leaves no CSV, SVG or manifest behind.
        cfg = write_config(tmp_path, targets=[0.2, 0.25], modulations=["8qam", "16qam"])
        out = tmp_path / "run"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 4
        assert not out.exists()

    def test_sweep_of_targets_an_ulp_apart(self, tmp_path):
        cfg = write_config(tmp_path, targets=[0.5, 0.5000000000000001], grid_n=512)
        out = tmp_path / "run"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        ticks = (out / "sweep.svg").read_text().count('text-anchor="middle">0.5</text>')
        assert 1 <= ticks <= 6

    def test_readme_outputs_pinned(self, tmp_path):
        runs = {
            "solve": ["solve", "--config", str(REPO / "configs" / "default.yaml")],
            "sweep": ["sweep", "--config", str(REPO / "configs" / "sweep_modulations.yaml")],
            "simulate": ["simulate", "--config", str(REPO / "configs" / "simulate_bpsk.yaml")],
            "fit": ["fit", str(REPO / "src" / "sempower" / "data" / "surface_samples_example.csv")],
        }
        for name, argv in runs.items():
            assert main([*argv, "--out", str(tmp_path / name)]) == 0, name
        for name, digest in README_PINS.items():
            got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert got == digest, f"{name} moved: sha256 {got}"
