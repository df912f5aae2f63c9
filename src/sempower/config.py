"""Experiment configuration and run manifests.

Configurations are YAML documents of nested sections; every key has a
default, so a config file only states what it changes, and a key with no
default (a misspelt one) is a :class:`ConfigError` naming its path. A
``targets`` range (``{start, stop, count}`` or ``{start, stop, step}``)
replaces the default range whole. Paths inside the document resolve
relative to the document's own directory. :func:`load_config` reads
every value once, whatever the command, through one typed reader: a
number is a finite int or float (YAML ``true`` is not one), a flag a
real boolean, a stream name or modulation label a ``[A-Za-z0-9_+-]``
word, no list repeats an entry, and ``grid_n``, the target count and
``simulation.n_bits`` have upper bounds; every failure is a
:class:`ConfigError` that starts with the key path. It resolves the
document into the objects the solvers take: each stream is a
:class:`StreamSpec` carrying its realised link, the surface a
:class:`SurfaceParams`. A run manifest (JSON) echoes the
fully resolved configuration together with input digests, and is itself
accepted wherever a config file is, which makes any recorded run
repeatable byte for byte.

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
import math
import re
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import yaml

from ._version import __version__
from .channel import ChannelParams, ChannelState, make_channel_state, sample_fading
from .errors import ConfigError, DomainError
from .modulation import PRESETS, ModulationScheme, preset
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

SIM_MIN_BITS = 10_000  # for simulate's 3-sigma check
# Upper size bounds: beyond them a run exhausts memory or takes minutes.
SIM_MAX_BITS = 10**9
GRID_N_MAX = 10**6
TARGETS_MAX = 10**4
# also simulate's seed stride per stream, so no two of its rows share a seed
SNR_POINTS_MAX = 1000
# 10^(v/10) overflows binary64 above 3082.5 dB
_SNR_DB_MAX = 3080.0
_FLOAT_MAX = sys.float_info.max
# Stream names and modulation labels reach file names and CSV rows.
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_+-]*")
# Keys a stream entry may carry beyond its defaults: those of a custom modulation.
_CUSTOM_MODULATION_KEYS = ("M", "a", "b", "label")
_KINDS = {float: "a finite number", int: "an integer", bool: "true or false", str: "a string"}


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


def _key_path(doc, key, where: str) -> str:
    # the elements of a list share the list's path
    return where if isinstance(doc, list) else f"{where}.{key}" if where else key


def _value(doc, key, where: str, kind=float, lo=-math.inf, hi=math.inf, optional=False):
    """``doc[key]`` read as a ``kind``: ``float``, ``int``, ``bool`` or ``str``.

    A number is a real int or float (not a boolean) no larger in magnitude
    than the largest binary64; an ``int`` may be given as a whole float. It
    must lie in ``[lo, hi]`` for an ``int`` and in ``(lo, hi)`` for a
    ``float``. ``optional`` lets a null through as ``None``. Every failure,
    a missing key included, is a :class:`ConfigError` that starts with the
    key path.
    """
    path = _key_path(doc, key, where)
    if isinstance(doc, dict) and key not in doc:
        raise ConfigError(f"{path}: required")
    v = doc[key]
    if v is None and optional:
        return None
    if kind in (bool, str):
        if isinstance(v, kind):
            return v
    elif (isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= _FLOAT_MAX
          and (kind is float or v == int(v))):
        v = kind(v)
        if lo <= v <= hi if kind is int else lo < v < hi:
            return v
        raise ConfigError(f"{path}: {v!r} outside "
                          + (f"[{lo}, {hi}]" if kind is int else f"({lo:g}, {hi:g})"))
    raise ConfigError(f"{path}: expected {_KINDS[kind]}, got {v!r}")


def _choice(doc, key, where: str, options) -> str:
    """``doc[key]``, a string among ``options`` or matching the pattern ``options``."""
    v = _value(doc, key, where, str)
    pattern = isinstance(options, re.Pattern)
    if options.fullmatch(v) if pattern else v in options:
        return v
    want = f"match {options.pattern}" if pattern else f"be one of {', '.join(options)}"
    raise ConfigError(f"{_key_path(doc, key, where)}: {v!r} must {want}")


def _each(doc, key, where: str, read, *args, **kwargs) -> tuple:
    """``read(items, i, path, ...)`` of every element of the non-empty list ``doc[key]``;
    a value read twice is a :class:`ConfigError`."""
    items = doc[key]
    path = _key_path(doc, key, where)
    if not isinstance(items, list) or not items:
        raise ConfigError(f"{path}: expected a non-empty list")
    seen = {}
    for i in range(len(items)):
        v = read(items, i, path, *args, **kwargs)
        if v in seen:
            raise ConfigError(f"{path}: {v!r} is repeated")
        seen[v] = None
    return tuple(seen)


def _expand_targets(spec) -> tuple[float, ...]:
    if isinstance(spec, dict):
        for key in spec:
            if key not in ("start", "stop", "count", "step"):
                raise ConfigError(f"targets.{key}: unknown key")
        if ("count" in spec) == ("step" in spec):
            raise ConfigError("targets: a range takes exactly one of 'count' and 'step'")
        start = _value(spec, "start", "targets")
        stop = _value(spec, "stop", "targets")
        if "count" in spec:
            n = _value(spec, "count", "targets", int, 1, TARGETS_MAX)
            step = (stop - start) / max(n - 1, 1)
            spec = [start + k * step for k in range(n)]
        else:
            step = _value(spec, "step", "targets", lo=0.0)
            # at most TARGETS_MAX + 1 values, which the length check refuses
            n = round(min(max((stop - start) / step, 0.0), TARGETS_MAX)) + 1
            spec = [start + k * step for k in range(n) if start + k * step <= stop + 1e-12]
    if not isinstance(spec, list):
        raise ConfigError("targets: expected a list or a start/stop range")
    if len(spec) > TARGETS_MAX:
        raise ConfigError(f"targets: more than {TARGETS_MAX} targets")
    return _each({"targets": spec}, "targets", "", _value, lo=0.0, hi=1.0)


def _input_file(base_dir: Path, ref: str, where: str, inputs: list[Path]) -> Path:
    path = (base_dir / ref).resolve()
    if not path.is_file():
        raise ConfigError(f"{where}: file not found: {path}")
    inputs.append(path)
    return path


def _resolve_stream(entry, idx: int, link: ChannelState, base_dir: Path,
                    inputs: list[Path]) -> StreamSpec:
    where = f"streams[{idx}]"
    doc = _merge(_DEFAULTS["streams"][idx], entry, where, _CUSTOM_MODULATION_KEYS)
    mod = _choice(doc, "modulation", where, (*PRESETS, "custom"))
    if mod == "custom":
        try:
            scheme = ModulationScheme(
                name=_choice(doc, "label", where, _NAME) if "label" in doc else "custom",
                M=_value(doc, "M", where, int),
                a=_value(doc, "a", where),
                b=_value(doc, "b", where),
            )
        except DomainError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    else:
        for key in _CUSTOM_MODULATION_KEYS:
            if key in doc:
                raise ConfigError(f"{where}.{key}: only a custom modulation takes it")
        scheme = preset(mod)
    curve_ref = _value(doc, "curve", where, str)
    try:
        curve = default_curve(curve_ref)
    except DomainError:  # not a bundled curve: a path to a curve document
        curve = load_curve(_input_file(base_dir, curve_ref, f"{where}.curve", inputs))
    return StreamSpec(bits=_value(doc, "bits", where, int, lo=1), modulation=scheme, channel=link,
                      curve=curve, name=_choice(doc, "name", where, _NAME))


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
        merged["seed"] = seed_override
    if out_override is not None:
        merged["output"]["dir"] = out_override
    if format_override is not None:
        merged["output"]["format"] = format_override

    base_dir = path.parent
    inputs = [path.resolve()]
    seed = _value(merged, "seed", "", int)
    ch = merged["channel"]
    fading_mode = _choice(ch, "fading", "channel", ("deterministic", "rayleigh"))
    fading_seed = _value(ch, "seed", "channel", int, optional=True)
    independent_fades = _value(ch, "independent_fades", "channel", bool)
    fades = [1.0, 1.0]
    if fading_mode == "rayleigh":
        fades = sample_fading(derive_seed(seed, 1001) if fading_seed is None else fading_seed,
                              2).tolist()
        if not independent_fades:
            fades = [fades[0], fades[0]]
    params = {f.name: _value(ch, f.name, "channel") for f in fields(ChannelParams)}
    try:
        links = [make_channel_state(ChannelParams(**params), f) for f in fades]
    except DomainError as exc:
        raise ConfigError(f"channel: {exc}") from None

    entries = merged["streams"]
    if not isinstance(entries, list) or len(entries) != 2:
        raise ConfigError("streams: exactly two stream sections are required")
    streams = tuple(_resolve_stream(entries[i], i, links[i], base_dir, inputs) for i in range(2))

    surface_ref = _value(merged, "surface", "", str, optional=True)
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

    sim_doc = merged["simulation"]
    sim_seed = _value(sim_doc, "seed", "simulation", int, optional=True)
    if isinstance(sim_doc["snr_db"], list) and len(sim_doc["snr_db"]) > SNR_POINTS_MAX:
        raise ConfigError(f"simulation.snr_db: more than {SNR_POINTS_MAX} points")
    sim = SimSettings(
        n_bits=_value(sim_doc, "n_bits", "simulation", int, SIM_MIN_BITS, SIM_MAX_BITS),
        snr_db=_each(sim_doc, "snr_db", "simulation", _value, hi=_SNR_DB_MAX),
        seed=derive_seed(seed, 2001) if sim_seed is None else sim_seed,
    )
    out_doc = merged["output"]
    return ExperimentConfig(
        raw=merged,
        seed=seed,
        streams=streams,
        surface=surface,
        surface_fit=surface_fit,
        target=_value(merged, "target", "", lo=0.0, hi=1.0, optional=True),
        targets=_expand_targets(merged["targets"]),
        solvers=_each(merged, "solvers", "", _choice, SOLVER_ORDER),
        cost_basis=_choice(merged, "cost_basis", "", ("bits", "symbols")),
        grid_n=_value(merged, "grid_n", "", int, 64, GRID_N_MAX),
        modulations=None if merged["modulations"] is None
        else _each(merged, "modulations", "", _choice, tuple(PRESETS)),
        sim=sim,
        out_dir=Path(_value(out_doc, "dir", "output", str)),
        out_format=_choice(out_doc, "format", "output", ("csv", "csv+svg")),
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
