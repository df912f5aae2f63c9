import csv
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import sempower
from sempower.cli import SIM_HEADER, SWEEP_HEADER, main
from sempower.errors import SempowerWarning
from sempower.perception import (
    SampleSet,
    default_surface,
    load_surface,
    save_sample_set,
    synthetic_sample_set,
)

from conftest import assert_rel


def write_config(tmp_path, name="config.yaml", **overrides):
    path = tmp_path / name
    with open(path, "w") as fh:
        yaml.safe_dump(overrides, fh)
    return path


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


class TestStartup:
    """Only ``fit`` needs ``scipy.optimize``; start-up must not load it."""

    @pytest.mark.parametrize("argv", [["-c", "import sempower"],
                                      ["-m", "sempower.cli", "--version"]],
                             ids=["import", "version"])
    def test_scipy_optimize_not_imported(self, argv):
        src = str(Path(sempower.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-X", "importtime", *argv], env=env,
                              capture_output=True, text=True, check=True)
        loaded = [line.split("|")[-1].strip() for line in proc.stderr.splitlines()]
        assert "sempower" in loaded
        assert not [m for m in loaded if m.startswith("scipy.optimize")]


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
        # Curves saturating at pmax = 1: the proportional ratio cannot
        # degrade the streams far enough for 0.92; the other cells solve.
        from sempower.perception import L_EDGE, L_PROMPT, StreamCurve, save_curve

        streams = []
        for name, bits, value in (("prompt", 1024, L_PROMPT), ("edge", 8192, L_EDGE)):
            save_curve(StreamCurve(p0=1.0 - value, pmax=1.0, tau=1e-4, beta=1.0),
                       tmp_path / f"{name}.yaml")
            streams.append({"name": name, "bits": bits, "modulation": "16qam",
                            "curve": f"{name}.yaml"})
        cfg = write_config(tmp_path, streams=streams, targets=[0.6, 0.92], grid_n=512)
        out = tmp_path / "run"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "sweep_16qam.csv")
        assert len(rows) == 8
        assert [(r["p_bar"], r["solver"]) for r in rows if r["feasible"] == "false"] == [
            ("0.92", "proportional")
        ]

    def test_exhausted_searches_exit_3_still_write(self, tmp_path, monkeypatch, capsys):
        import sempower.solvers as solvers_mod

        for name in ("SEARCH_TOL", "RHO_TOL"):
            monkeypatch.setattr(solvers_mod, name, replace(getattr(solvers_mod, name), max_iter=3))
        cfg = write_config(tmp_path, targets=[0.5, 0.7], solvers=["equal_snr", "proportional"])
        out = tmp_path / "run"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 3
        rows = read_rows(out / "sweep_16qam.csv")
        assert len(rows) == 4
        assert all(r["feasible"] == "true" and r["iterations"] == "3" for r in rows)
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

    def test_custom_modulation(self, tmp_path):
        cfg = write_config(
            tmp_path,
            streams=[
                {"name": "p", "bits": 1000, "modulation": "custom", "M": 4, "a": 1.0, "b": 1.0},
                {"name": "e", "bits": 2000, "modulation": "custom", "M": 4, "a": 1.0, "b": 1.0},
            ],
            target=0.6,
        )
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "solve.csv")
        assert len(rows) == 4

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
