"""Run configuration: INI-style file with strict key checking.

Grammar (all sections and keys optional; unknown ones are rejected):

    [device]
    well_width_h = 4.5        ; nm
    barrier_l = 7.0           ; nm
    depth_e_dot1 = 239.0      ; meV
    depth_e_dot2 = 203.0
    depth_h_dot1 = 119.5
    depth_h_dot2 = 101.5
    binding_energy = 25.0
    reference_offset = 0.0

    [electron]
    mass_ratio = 0.03
    lateral_quantum = 30.0    ; meV

    [hole]
    mass_ratio = 0.06
    lateral_quantum = 15.0

    [solver]
    grid_step = 0.01          ; nm
    padding = 20.0            ; nm
    vertical_cap = 4
    lateral_quanta = 6

    [sweep]
    l_values = 3, 5, 7, 9.5   ; nm, or l_start/l_stop/l_step
    b_values = 0, 2, 4, 6, 8  ; T, or b_start/b_stop/b_step

The [device] and [solver] keys are the fields of core.DeviceSpec and
core.SolverOptions, read as their annotated int or float. Comma lists and
start/stop/step ranges are mutually exclusive per axis.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .core import DeviceSpec, ParticleSpecies, SolverOptions, default_device, \
    ELECTRON, HOLE
from .errors import ConfigError

DEFAULT_L_VALUES = tuple(float(x) for x in np.round(np.arange(2.5, 15.01, 0.25), 6))
DEFAULT_B_VALUES = tuple(float(x) for x in np.round(np.arange(0.0, 8.01, 0.25), 6))


@dataclass(frozen=True)
class RunConfig:
    device: DeviceSpec = field(default_factory=default_device)
    electron: ParticleSpecies = ELECTRON
    hole: ParticleSpecies = HOLE
    options: SolverOptions = SolverOptions()
    l_values: tuple[float, ...] = DEFAULT_L_VALUES
    b_values: tuple[float, ...] = DEFAULT_B_VALUES


def _float(section, key, raw):
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not a finite number")
    return value


def _int(section, key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer")


def _parsers(cls) -> dict:
    """Key readers from the fields of `cls`: int or float as annotated."""
    return {f.name: _int if f.type in (int, "int") else _float
            for f in fields(cls)}


# name and hyz_sign are fixed per carrier, so not config
_SPECIES_KEYS = {"mass_ratio": _float, "lateral_quantum": _float}
_SWEEP_KEYS = ("l_values", "l_start", "l_stop", "l_step",
               "b_values", "b_start", "b_stop", "b_step")
_SECTIONS = {"device": _parsers(DeviceSpec), "electron": _SPECIES_KEYS,
             "hole": _SPECIES_KEYS, "solver": _parsers(SolverOptions),
             "sweep": _SWEEP_KEYS}


def _axis_values(section, prefix):
    explicit = section.get(f"{prefix}_values")
    bounds = [section.get(f"{prefix}_{k}") for k in ("start", "stop", "step")]
    if explicit is not None:
        if any(b is not None for b in bounds):
            raise ConfigError(
                f"[sweep] {prefix}_values excludes {prefix}_start/stop/step")
        vals = [_float("sweep", f"{prefix}_values", tok)
                for tok in explicit.split(",") if tok.strip()]
        if not vals:
            raise ConfigError(f"[sweep] {prefix}_values is empty")
        return tuple(vals)
    if any(b is not None for b in bounds):
        if any(b is None for b in bounds):
            raise ConfigError(
                f"[sweep] {prefix}_start, {prefix}_stop and {prefix}_step "
                f"must be given together")
        start, stop, step = (_float("sweep", f"{prefix}_{k}", b)
                             for k, b in zip(("start", "stop", "step"), bounds))
        if step <= 0 or stop < start:
            raise ConfigError(f"[sweep] bad {prefix} range")
        return tuple(np.round(np.arange(start, stop + step / 2, step), 9))
    return None


def parse_config(path) -> RunConfig:
    """Load and validate a config file; unknown sections or keys fail."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")

    def values(section):
        """The section's given keys, each parsed by its key's reader."""
        if not parser.has_section(section):
            return {}
        return {key: _SECTIONS[section][key](section, key, raw)
                for key, raw in parser[section].items()}

    try:
        device = replace(default_device(), **values("device"))
        electron = replace(ELECTRON, **values("electron"))
        hole = replace(HOLE, **values("hole"))
        options = SolverOptions(**values("solver"))

        l_values = DEFAULT_L_VALUES
        b_values = DEFAULT_B_VALUES
        if parser.has_section("sweep"):
            found_l = _axis_values(parser["sweep"], "l")
            found_b = _axis_values(parser["sweep"], "b")
            l_values = found_l if found_l is not None else l_values
            b_values = found_b if found_b is not None else b_values
        for l in l_values:
            if l <= 0:
                raise ConfigError(f"[sweep] interdot distance {l} must be > 0")
        for b in b_values:
            if b < 0:
                raise ConfigError(f"[sweep] magnetic field {b} must be >= 0")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(device=device, electron=electron, hole=hole,
                     options=options, l_values=tuple(sorted(l_values)),
                     b_values=tuple(sorted(b_values)))
