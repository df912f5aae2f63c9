"""Experiment configuration and run manifests.

Configurations are YAML documents of nested sections; every key has a
default, so a config file only states what it changes. Paths inside the
document resolve relative to the document's own directory. A run
manifest (JSON) echoes the fully resolved configuration together with
input digests, and is itself accepted wherever a config file is, which
makes any recorded run repeatable byte for byte.

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
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from ._version import __version__
from .channel import ChannelParams, ChannelState, make_channel_state, sample_fading
from .errors import ConfigError, DomainError
from .modulation import ModulationScheme, preset
from .numerics import derive_seed
from .perception import (
    FitResult,
    StreamCurve,
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


def _merge(base, override):
    # dicts merge key-wise; a non-dict override (e.g. a list where the
    # default is a range mapping) replaces the default outright
    if override is None and isinstance(base, dict):
        return copy.deepcopy(base)
    if isinstance(base, dict) and isinstance(override, dict):
        out = copy.deepcopy(base)
        for key, val in override.items():
            if key in base and isinstance(base[key], dict):
                out[key] = _merge(base[key], val)
            else:
                out[key] = copy.deepcopy(val)
        return out
    return copy.deepcopy(override)


@dataclass(frozen=True)
class SimSettings:
    n_bits: int
    snr_db: tuple[float, ...]
    seed: int


@dataclass(frozen=True)
class ResolvedStream:
    name: str
    bits: int
    scheme: ModulationScheme
    curve: StreamCurve


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment: model objects plus the raw echo."""

    raw: dict
    seed: int
    channel_params: ChannelParams
    fading_mode: str
    independent_fades: bool
    channel_seed: int
    streams: tuple[ResolvedStream, ResolvedStream]
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

    def channel_states(self) -> tuple[ChannelState, ChannelState]:
        """Realise both links per the configured fading mode."""
        if self.fading_mode == "rayleigh":
            fades = sample_fading(self.channel_seed, 2)
            if not self.independent_fades:
                fades = [fades[0], fades[0]]
        else:
            fades = [1.0, 1.0]
        return tuple(
            make_channel_state(self.channel_params, float(f)) for f in fades
        )

    def problem(self, target: float, scheme_override: ModulationScheme | None = None) -> ProblemSpec:
        """Build a :class:`ProblemSpec` for one target.

        ``scheme_override`` swaps the modulation of both streams, used by
        sweeps that compare modulation orders.
        """
        states = self.channel_states()
        specs = tuple(
            StreamSpec(
                bits=s.bits,
                modulation=scheme_override or s.scheme,
                channel=st,
                curve=s.curve,
                name=s.name,
            )
            for s, st in zip(self.streams, states)
        )
        return ProblemSpec(
            streams=specs,
            surface=self.surface,
            target=float(target),
            cost_basis=self.cost_basis,
        )


def _expand_targets(spec, path: str) -> tuple[float, ...]:
    if isinstance(spec, (list, tuple)):
        vals = [float(v) for v in spec]
    elif isinstance(spec, dict):
        try:
            start = float(spec["start"])
            stop = float(spec["stop"])
        except KeyError as exc:
            raise ConfigError(f"{path}: missing {exc} in target range") from None
        if "count" in spec:
            count = int(spec["count"])
            if count < 1:
                raise ConfigError(f"{path}.count: must be >= 1")
            if count == 1:
                vals = [start]
            else:
                step = (stop - start) / (count - 1)
                vals = [start + k * step for k in range(count)]
        elif "step" in spec:
            step = float(spec["step"])
            if step <= 0.0:
                raise ConfigError(f"{path}.step: must be > 0")
            n = int(round((stop - start) / step)) + 1
            vals = [start + k * step for k in range(max(n, 1)) if start + k * step <= stop + 1e-12]
        else:
            raise ConfigError(f"{path}: range needs 'count' or 'step'")
    else:
        raise ConfigError(f"{path}: expected a list or a start/stop range")
    if not vals:
        raise ConfigError(f"{path}: no targets")
    for v in vals:
        if not (0.0 < v < 1.0):
            raise ConfigError(f"{path}: target {v} outside (0, 1)")
    return tuple(vals)


def _resolve_stream(doc: dict, base_dir: Path, idx: int, inputs: list[Path]) -> ResolvedStream:
    where = f"streams[{idx}]"
    name = str(doc.get("name") or f"stream{idx + 1}")
    try:
        bits = int(doc["bits"])
    except (KeyError, TypeError, ValueError):
        raise ConfigError(f"{where}.bits: required positive integer") from None
    mod = str(doc.get("modulation", "")).lower()
    if not mod:
        raise ConfigError(f"{where}.modulation: required")
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
    curve_ref = doc.get("curve", "default-prompt" if idx == 0 else "default-edge")
    if curve_ref in ("default-prompt", "default-edge", "prompt", "edge"):
        curve = default_curve(curve_ref.removeprefix("default-"))
    else:
        curve_path = (base_dir / str(curve_ref)).resolve()
        if not curve_path.is_file():
            raise ConfigError(f"{where}.curve: file not found: {curve_path}")
        curve = load_curve(curve_path)
        inputs.append(curve_path)
    try:
        return ResolvedStream(name=name, bits=bits, scheme=scheme, curve=curve)
    except DomainError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def load_config(
    path,
    seed_override: int | None = None,
    out_override: str | None = None,
    format_override: str | None = None,
) -> ExperimentConfig:
    """Load and resolve a config document (or a run manifest)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a mapping at the top level")
    if "manifest_version" in doc and "config" in doc:
        doc = doc["config"]
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: manifest 'config' is not a mapping")
    return build_config(
        doc,
        base_dir=path.parent,
        seed_override=seed_override,
        out_override=out_override,
        format_override=format_override,
        config_path=path,
    )


def build_config(
    doc: dict,
    base_dir: Path | str = ".",
    seed_override: int | None = None,
    out_override: str | None = None,
    format_override: str | None = None,
    config_path: Path | None = None,
) -> ExperimentConfig:
    """Resolve a config mapping against the defaults."""
    base_dir = Path(base_dir)
    merged = _merge(_DEFAULTS, doc)
    if seed_override is not None:
        merged["seed"] = int(seed_override)
    if out_override is not None:
        merged["output"]["dir"] = str(out_override)
    if format_override is not None:
        merged["output"]["format"] = str(format_override)

    inputs: list[Path] = []
    if config_path is not None:
        inputs.append(config_path.resolve())

    seed = int(merged["seed"])
    ch = merged["channel"]
    try:
        params = ChannelParams(
            h0_db=float(ch["h0_db"]),
            d_m=float(ch["d_m"]),
            d0_m=float(ch["d0_m"]),
            alpha=float(ch["alpha"]),
            noise_dbm=float(ch["noise_dbm"]),
        )
    except (TypeError, ValueError, DomainError) as exc:
        raise ConfigError(f"channel: {exc}") from None
    fading_mode = str(ch["fading"]).lower()
    if fading_mode not in ("deterministic", "rayleigh"):
        raise ConfigError(f"channel.fading: must be 'deterministic' or 'rayleigh'")
    channel_seed = int(ch["seed"]) if ch["seed"] is not None else derive_seed(seed, 1001)

    streams_doc = merged["streams"]
    if not isinstance(streams_doc, list) or len(streams_doc) != 2:
        raise ConfigError("streams: exactly two stream sections are required")
    streams = tuple(
        _resolve_stream(_merge(_DEFAULTS["streams"][i], streams_doc[i]), base_dir, i, inputs)
        for i in range(2)
    )

    surface_ref = merged["surface"]
    surface_fit: FitResult | None = None
    if surface_ref in (None, "default"):
        surface = default_surface()
    else:
        surface_path = (base_dir / str(surface_ref)).resolve()
        if not surface_path.is_file():
            raise ConfigError(f"surface: file not found: {surface_path}")
        inputs.append(surface_path)
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
    except (KeyError, TypeError, ValueError) as exc:
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
        channel_params=params,
        fading_mode=fading_mode,
        independent_fades=bool(ch["independent_fades"]),
        channel_seed=channel_seed,
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
