"""Property tests of the config loader over hostile documents.

One or two leaves of the default config are replaced by values of the
wrong type, out of range or not finite (derandomised, see
``conftest.py``); every command must end in an exit code, never an
exception. The size keys at huge values are checked on the loader alone,
and the target ranges in a subprocess under an address-space limit, so a
loader that builds what it is given fails fast instead of exhausting
memory.
"""

import copy
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from sempower.cli import main
from sempower.config import _DEFAULTS, load_config
from sempower.errors import ConfigError

HOSTILE = ["abc", [], {}, -1, 0, math.inf, math.nan, True, None, [1, "x"], 10**30]
HUGE_SIZES = {("grid_n",), ("targets", "count"), ("simulation", "n_bits")}
# small and fast wherever a leaf is left alone
BASE = {
    "solvers": ["bisection"],
    "grid_n": 64,
    "targets": {"start": 0.35, "stop": 0.92, "count": 3},
    "simulation": {"n_bits": 10_000, "snr_db": [0.0, 6.0]},
    "output": {"dir": "run"},
}


def _leaves(doc, path=()):
    if isinstance(doc, dict):
        for key, val in doc.items():
            yield from _leaves(val, path + (key,))
    elif isinstance(doc, list) and doc and isinstance(doc[0], dict):
        for i, val in enumerate(doc):
            yield from _leaves(val, path + (i,))
    else:
        yield path


LEAVES = list(_leaves(_DEFAULTS))


def _set_leaf(doc, path, value):
    for key in path[:-1]:
        if isinstance(doc, dict) and key not in doc:
            doc[key] = [{}, {}] if key == "streams" else {}
        doc = doc[key]
    doc[path[-1]] = value


mutations = st.sampled_from(LEAVES).flatmap(
    lambda path: st.tuples(st.just(path),
                           st.sampled_from(HOSTILE[:-1] if path in HUGE_SIZES else HOSTILE))
)


@given(st.lists(mutations, min_size=1, max_size=2),
       st.sampled_from(["solve", "sweep", "simulate"]))
def test_hostile_leaves_end_in_an_exit_code(muts, command):
    doc = copy.deepcopy(BASE)
    for path, value in muts:
        _set_leaf(doc, path, value)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a mutated output.dir stays inside
        try:
            Path("config.yaml").write_text(yaml.safe_dump(doc))
            assert main([command, "--config", "config.yaml"]) in (0, 2, 3, 4)
        finally:
            os.chdir(cwd)


def test_whole_floats_read_as_integers(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({"grid_n": 512.0, "simulation": {"n_bits": 1e6}}))
    cfg = load_config(path)
    assert (cfg.grid_n, cfg.sim.n_bits) == (512, 1_000_000)
    assert isinstance(cfg.grid_n, int) and isinstance(cfg.sim.n_bits, int)


@pytest.mark.parametrize("overrides, key", [({"grid_n": 10**30}, "grid_n"),
                                            ({"simulation": {"n_bits": 10**30}}, "simulation.n_bits")])
def test_huge_size_refused_on_load(tmp_path, overrides, key):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(overrides))
    with pytest.raises(ConfigError, match=rf"^{key}: "):
        load_config(path)


_LOAD_UNDER_1_GIB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from sempower.config import load_config
from sempower.errors import ConfigError
try:
    load_config(sys.argv[1])
except ConfigError as exc:
    print(exc)
"""


@pytest.mark.parametrize("targets", [{"start": 0.35, "stop": 0.92, "count": 10**30},
                                     {"start": 0.35, "stop": 0.92, "step": 1e-13}],
                         ids=["count", "step"])
def test_huge_target_range_refused_unbuilt(tmp_path, targets):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({"targets": targets}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _LOAD_UNDER_1_GIB, str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("targets")
