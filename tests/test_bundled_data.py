import importlib.util
from importlib import resources
from pathlib import Path

from sempower.perception import (
    default_edge_curve,
    default_prompt_curve,
    default_surface,
    fit_surface,
    load_curve,
    load_sample_set,
    load_surface,
    semantic_value_transmitted,
)

from conftest import assert_rel


def data_path(name):
    return resources.files("sempower").joinpath("data", name)


def test_surface_document_matches_defaults():
    assert load_surface(data_path("default_surface.yaml")) == default_surface()


def test_curve_documents_match_defaults():
    prompt = load_curve(data_path("curve_prompt.yaml"))
    edge = load_curve(data_path("curve_edge.yaml"))
    assert prompt == default_prompt_curve()
    assert edge == default_edge_curve()
    assert semantic_value_transmitted(prompt) == 0.5887
    assert semantic_value_transmitted(edge) == 0.3596


def test_example_samples_fit_back_to_truth():
    data = load_sample_set(data_path("surface_samples_example.csv"))
    assert len(data) == 400
    res = fit_surface(data)
    truth = default_surface()
    for name in ("p0", "pmax", "tau1", "tau2", "beta1", "beta2"):
        assert_rel(getattr(res.params, name), getattr(truth, name), 0.05, name)
    assert res.rmse <= 0.012


def test_generator_script_reproduces_every_file(tmp_path, monkeypatch):
    # regenerating replays the counter-based Rng and its Box-Muller
    # normals, which the Monte Carlo simulator shares, so a drift in
    # either shows here as a byte difference
    script_path = Path(__file__).resolve().parents[1] / "scripts" / "make_bundled_data.py"
    spec = importlib.util.spec_from_file_location("make_bundled_data", script_path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "DATA", tmp_path)
    script.main()
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(p.name for p in resources.files("sempower").joinpath("data").iterdir())
    assert len(names) == 4
    for name in names:
        assert (tmp_path / name).read_bytes() == data_path(name).read_bytes(), name
