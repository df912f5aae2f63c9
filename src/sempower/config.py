"""Experiment configuration and run manifests.

Configurations are YAML documents of nested sections; every key has a
default, so a config file only states what it changes, and a key with no
default (a misspelt one) is a :class:`ConfigError` naming its path. A
``targets`` range (``{start, stop, count}`` or ``{start, stop, step}``)
replaces the default range whole. Paths inside the document resolve
relative to the document's own directory. :func:`load_config` resolves
the document once into the objects the solvers take: each stream is a
:class:`StreamSpec` carrying its realised link, the surface a
:class:`SurfaceParams`. A run manifest (JSON) echoes the fully resolved
configuration together with input digests, and is itself accepted
wherever a config file is, which makes any recorded run repeatable byte
for byte.

Default parameter set: 100 m link with -30 dB reference loss and
exponent 3.4 (a -98 dB channel), -110 dBm noise, two 16-QAM streams of
1024 prompt bits and 8192 edge bits, the bundled perception surface and
curves, and ten sweep targets across the achievable range.
"""

from __future__ import annotations

import copy
import datetime as _dt
import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import yaml

from ._version import __version__
from .channel import ChannelParams, ChannelState, make_channel_state, sample_fading
from .errors import ConfigError, DomainError
from .modulation import ModulationScheme, preset
from .numerics import derive_seed
from .perception import (
    FitResult,
    SurfaceParams,
    default_curve,
    default_surface,
    fit_surface,
    load_curve,
    load_sample_set,
    load_surface,
)
from .solvers import SOLVER_ORDER, ProblemSpec, StreamSpec

__all__ = [
    "ExperimentConfig",
    "SimSettings",
    "load_config",
    "sha256_file",
    "build_manifest",
    "write_manifest",
]

_DEFAULTS: dict = {
    "seed": 1,
    "channel": {
        "h0_db": -30.0,
        "d_m": 100.0,
        "d0_m": 1.0,
        "alpha": 3.4,
        "noise_dbm": -110.0,
        "fading": "deterministic",
        "seed": None,
        "independent_fades": False,
    },
    "streams": [
        {"name": "prompt", "bits": 1024, "modulation": "16qam", "curve": "default-prompt"},
        {"name": "edge", "bits": 8192, "modulation": "16qam", "curve": "default-edge"},
    ],
    "surface": "default",
    "target": 0.6,
    "targets": {"start": 0.35, "stop": 0.92, "count": 10},
    "solvers": list(SOLVER_ORDER),
    "cost_basis": "bits",
    "grid_n": 4096,
    "modulations": None,
    "simulation": {
        "n_bits": 1_000_000,
        "snr_db": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        "seed": None,
    },
    "output": {"dir": "out", "format": "csv+svg"},
}

SIM_MIN_BITS = 10_000

# Keys a stream entry may carry beyond its defaults: those of a custom modulation.
_CUSTOM_MODULATION_KEYS = ("M", "a", "b", "label")


def _merge(base: dict, override, path: str = "", extra: tuple[str, ...] = ()) -> dict:
    """``base`` overlaid with ``override``, every key of which must be in ``base`` or ``extra``.

    Sections (mapping defaults) merge key by key and a null section keeps its
    defaults; any other value, a ``targets`` range included, replaces its default.
    """
    if override is None:
        return copy.deepcopy(base)
    if not isinstance(override, dict):
        raise ConfigError(f"{path}: expected a mapping")
    out = copy.deepcopy(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else str(key)
        if key not in base and key not in extra:
            raise ConfigError(f"{where}: unknown key")
        if isinstance(base.get(key), dict) and (val is None or key != "targets"):
            out[key] = _merge(base[key], val, where)
        else:
            out[key] = copy.deepcopy(val)
    return out


@dataclass(frozen=True)
class SimSettings:
    n_bits: int
    snr_db: tuple[float, ...]
    seed: int


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment: model objects plus the raw echo.

    Each stream carries its link, realised once per the configured fading.
    """

    raw: dict
    seed: int
    streams: tuple[StreamSpec, StreamSpec]
    surface: SurfaceParams
    surface_fit: FitResult | None
    target: float | None
    targets: tuple[float, ...]
    solvers: tuple[str, ...]
    cost_basis: str
    grid_n: int
    modulations: tuple[str, ...] | None
    sim: SimSettings
    out_dir: Path
    out_format: str
    input_files: tuple[Path, ...] = field(default_factory=tuple)

    def problem(self, target: float, scheme_override: ModulationScheme | None = None) -> ProblemSpec:
        """The allocation problem for one target.

        ``scheme_override`` swaps the modulation of both streams, used by
        sweeps that compare modulation orders.
        """
        streams = tuple(replace(s, modulation=scheme_override or s.modulation) for s in self.streams)
        return ProblemSpec(
            streams=streams,
            surface=self.surface,
            target=float(target),
            cost_basis=self.cost_basis,
        )


def _expand_targets(spec, path: str) -> tuple[float, ...]:
    if isinstance(spec, (list, tuple)):
        vals = [float(v) for v in spec]
    elif isinstance(spec, dict):
        for key in spec:
            if key not in ("start", "stop", "count", "step"):
                raise ConfigError(f"{path}.{key}: unknown key")
        if ("count" in spec) == ("step" in spec):
            raise ConfigError(f"{path}: a range takes exactly one of 'count' and 'step'")
        try:
            start = float(spec["start"])
            stop = float(spec["stop"])
        except KeyError as exc:
            raise ConfigError(f"{path}.{exc.args[0]}: required in a target range") from None
        if "count" in spec:
            count = int(spec["count"])
            if count < 1:
                raise ConfigError(f"{path}.count: must be >= 1")
            if count == 1:
                vals = [start]
            else:
                step = (stop - start) / (count - 1)
                vals = [start + k * step for k in range(count)]
        else:
            step = float(spec["step"])
            if step <= 0.0:
                raise ConfigError(f"{path}.step: must be > 0")
            n = int(round((stop - start) / step)) + 1
            vals = [start + k * step for k in range(max(n, 1)) if start + k * step <= stop + 1e-12]
    else:
        raise ConfigError(f"{path}: expected a list or a start/stop range")
    if not vals:
        raise ConfigError(f"{path}: no targets")
    for v in vals:
        if not (0.0 < v < 1.0):
            raise ConfigError(f"{path}: target {v} outside (0, 1)")
    return tuple(vals)


def _input_file(base_dir: Path, ref, where: str, inputs: list[Path]) -> Path:
    path = (base_dir / str(ref)).resolve()
    if not path.is_file():
        raise ConfigError(f"{where}: file not found: {path}")
    inputs.append(path)
    return path


def _resolve_stream(entry, idx: int, link: ChannelState, base_dir: Path,
                    inputs: list[Path]) -> StreamSpec:
    where = f"streams[{idx}]"
    doc = _merge(_DEFAULTS["streams"][idx], entry, where, _CUSTOM_MODULATION_KEYS)
    try:
        bits = int(doc["bits"])
    except (TypeError, ValueError):
        raise ConfigError(f"{where}.bits: required positive integer") from None
    mod = str(doc["modulation"]).lower()
    if mod == "custom":
        try:
            scheme = ModulationScheme(
                name=str(doc.get("label", "custom")),
                M=int(doc["M"]),
                a=float(doc["a"]),
                b=float(doc["b"]),
            )
        except KeyError as exc:
            raise ConfigError(f"{where}: custom modulation needs M, a, b (missing {exc})") from None
        except DomainError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    else:
        try:
            scheme = preset(mod)
        except DomainError as exc:
            raise ConfigError(f"{where}.modulation: {exc}") from None
    try:
        curve = default_curve(str(doc["curve"]))
    except DomainError:  # not a bundled curve: a path to a curve document
        curve = load_curve(_input_file(base_dir, doc["curve"], f"{where}.curve", inputs))
    try:
        return StreamSpec(bits=bits, modulation=scheme, channel=link, curve=curve,
                          name=str(doc["name"] or f"stream{idx + 1}"))
    except DomainError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def load_config(
    path,
    seed_override: int | None = None,
    out_override: str | None = None,
    format_override: str | None = None,
) -> ExperimentConfig:
    """Load a config document (or a run manifest) and resolve it against the defaults."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a mapping at the top level")
    if "manifest_version" in doc and "config" in doc:
        doc = doc["config"]
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: manifest 'config' is not a mapping")
    merged = _merge(_DEFAULTS, doc)
    if seed_override is not None:
        merged["seed"] = int(seed_override)
    if out_override is not None:
        merged["output"]["dir"] = str(out_override)
    if format_override is not None:
        merged["output"]["format"] = str(format_override)

    base_dir = path.parent
    inputs = [path.resolve()]
    seed = int(merged["seed"])
    ch = merged["channel"]
    fading_mode = str(ch["fading"]).lower()
    if fading_mode not in ("deterministic", "rayleigh"):
        raise ConfigError("channel.fading: must be 'deterministic' or 'rayleigh'")
    fades = [1.0, 1.0]
    if fading_mode == "rayleigh":
        fading_seed = int(ch["seed"]) if ch["seed"] is not None else derive_seed(seed, 1001)
        fades = sample_fading(fading_seed, 2)
        if not ch["independent_fades"]:
            fades = [fades[0], fades[0]]
    try:
        params = ChannelParams(**{f.name: float(ch[f.name]) for f in fields(ChannelParams)})
        links = [make_channel_state(params, float(f)) for f in fades]
    except (TypeError, ValueError, DomainError) as exc:
        raise ConfigError(f"channel: {exc}") from None

    entries = merged["streams"]
    if not isinstance(entries, list) or len(entries) != 2:
        raise ConfigError("streams: exactly two stream sections are required")
    streams = tuple(_resolve_stream(entries[i], i, links[i], base_dir, inputs) for i in range(2))

    surface_ref = merged["surface"]
    surface_fit: FitResult | None = None
    if surface_ref in (None, "default"):
        surface = default_surface()
    else:
        surface_path = _input_file(base_dir, surface_ref, "surface", inputs)
        if surface_path.suffix.lower() == ".csv":
            surface_fit = fit_surface(load_sample_set(surface_path))
            surface = surface_fit.params
        else:
            surface = load_surface(surface_path)

    target = merged["target"]
    if target is not None:
        target = float(target)
        if not (0.0 < target < 1.0):
            raise ConfigError(f"target: {target} outside (0, 1)")
    targets = _expand_targets(merged["targets"], "targets")

    solvers = merged["solvers"]
    if not isinstance(solvers, list) or not solvers:
        raise ConfigError("solvers: need a non-empty list")
    for s in solvers:
        if s not in SOLVER_ORDER:
            raise ConfigError(f"solvers: unknown solver {s!r}; choose from {list(SOLVER_ORDER)}")

    cost_basis = str(merged["cost_basis"])
    if cost_basis not in ("bits", "symbols"):
        raise ConfigError("cost_basis: must be 'bits' or 'symbols'")
    grid_n = int(merged["grid_n"])
    if grid_n < 64:
        raise ConfigError(f"grid_n: must be >= 64, got {grid_n}")

    modulations = merged["modulations"]
    if modulations is not None:
        if not isinstance(modulations, list) or not modulations:
            raise ConfigError("modulations: need a non-empty list when given")
        for m in modulations:
            try:
                preset(str(m))
            except DomainError as exc:
                raise ConfigError(f"modulations: {exc}") from None
        modulations = tuple(str(m).lower() for m in modulations)

    sim_doc = merged["simulation"]
    try:
        sim = SimSettings(
            n_bits=int(sim_doc["n_bits"]),
            snr_db=tuple(float(v) for v in sim_doc["snr_db"]),
            seed=int(sim_doc["seed"]) if sim_doc["seed"] is not None else derive_seed(seed, 2001),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"simulation: {exc}") from None
    for v in sim.snr_db:
        try:
            10.0 ** (v / 10.0)
        except OverflowError:
            raise ConfigError(f"simulation.snr_db: {v} dB overflows the linear SNR") from None

    out_doc = merged["output"]
    out_format = str(out_doc["format"])
    if out_format not in ("csv", "csv+svg"):
        raise ConfigError("output.format: must be 'csv' or 'csv+svg'")

    return ExperimentConfig(
        raw=merged,
        seed=seed,
        streams=streams,
        surface=surface,
        surface_fit=surface_fit,
        target=target,
        targets=targets,
        solvers=tuple(solvers),
        cost_basis=cost_basis,
        grid_n=grid_n,
        modulations=modulations,
        sim=sim,
        out_dir=Path(out_doc["dir"]),
        out_format=out_format,
        input_files=tuple(inputs),
    )


# ---------------------------------------------------------------------------
# Run manifests
# ---------------------------------------------------------------------------


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def build_manifest(command: str, config_echo: dict, seed: int,
                   inputs: tuple[Path, ...], outputs: list[str]) -> dict:
    """Everything needed to reproduce a run (the config echo is itself a
    valid config document; the manifest can be passed to ``--config``)."""
    return {
        "manifest_version": 1,
        "tool": "sempower",
        "version": __version__,
        "command": command,
        "seed": int(seed),
        "created_utc": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "config": config_echo,
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": sorted(outputs),
    }


def write_manifest(path, manifest: dict) -> None:
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
