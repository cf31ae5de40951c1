"""Line-oriented experiment configuration.

Format: `key = value` lines grouped under `[section]` headers. Blank lines
and lines starting with `#` are ignored; a trailing `# comment` after a
value is stripped. Unknown sections or keys, duplicate keys, type
mismatches, and constraint violations are reported with their line number;
all errors in a file are collected before parsing fails.

Sections and keys (defaults in parentheses):

    [grid]        n (128), length (2*pi)
    [model]       nu (0), mu (1), k (1), alpha (1), beta (0), b (0),
                  q_enabled (true), variant (full)
    [stepping]    scheme (ifrk4), cfl (0.5), dt_min (1e-8), dt_max (0.05),
                  t_end (1)
    [initial]     kind (taylor_green), amplitude (1), band_lo (1),
                  band_hi (8), seed, delta, snapshot
    [initial_tau] kind (zero), amplitude (1), band_lo (1), band_hi (8), seed
    [output]      dir (out), observe_every (0.1), snapshot_times ()
    [diagnostics] eps (0.5), hs (3), n_functional_m (10)

Every real value and list element must be finite. Each section builds one
spec type (`_SECTIONS`), whose constructor checks the values: among others
`observe_every > 0`, `eps` in (0, 1), `n_functional_m > 0`, and `hs`
holding finite exponents, one above 2 (the Beale-Kato-Majda check needs an
H^s norm with s > 2). Random or single-mode initial data must fit under
the grid's dealias cutoff, and each snapshot time must differ from the
others and not lie past t_end (both to within
`stepping.landing_tolerance`). Overrides (`with_override`), `oldroyd2d
sweep` values and `oldroyd2d norms --eps` pass the same conversions and
checks as a config file; a non-string override value must have the key's
type.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

from .diagnostics import DiagnosticsOptions
from .errors import ConfigError
from .grid import Grid
from .initial_data import InitialSpec, TauInitialSpec
from .model import ModelParams
from .stepping import StepConfig, landing_tolerance

OUTPUT_ROOT_ENV = "OLDROYD2D_OUT"


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "out"
    observe_every: float = 0.1
    snapshot_times: tuple = ()

    def __post_init__(self):
        if not self.observe_every > 0.0:
            raise ConfigError(f"observe_every must be > 0, got {self.observe_every}")

    def resolved_dir(self) -> Path:
        root = os.environ.get(OUTPUT_ROOT_ENV)
        path = Path(self.directory)
        if root and not path.is_absolute():
            return Path(root) / path
        return path


@dataclass(frozen=True)
class ExperimentConfig:
    grid: Grid
    params: ModelParams
    step: StepConfig
    initial: InitialSpec
    tau_initial: TauInitialSpec
    output: OutputSpec
    diag: DiagnosticsOptions


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _finite(raw) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value}")
    return value


def _parse_float_list(raw) -> tuple:  # a comma-separated string, or a tuple
    if isinstance(raw, str):
        raw = raw.split(",") if raw.strip() else ()
    return tuple(map(_finite, raw))


class _Section(NamedTuple):
    attr: str             # ExperimentConfig attribute
    spec: type            # built from the section; its constructor checks the values
    keys: dict            # config key -> converter from the raw string
    fields: dict = {}     # config key -> spec field, where the names differ
    defaults: dict = {}   # spec fields whose config default differs from the spec's

    def field(self, key: str) -> str:
        return self.fields.get(key, key)


_SECTIONS = {
    "grid": _Section("grid", Grid, {"n": int, "length": _finite}, defaults={"n": 128}),
    "model": _Section("params", ModelParams, {
        "nu": _finite, "mu": _finite, "k": _finite, "alpha": _finite, "beta": _finite,
        "b": _finite, "q_enabled": _parse_bool, "variant": str,
    }, fields={"k": "K"}),
    "stepping": _Section("step", StepConfig, {
        "scheme": str, "cfl": _finite, "dt_min": _finite, "dt_max": _finite, "t_end": _finite,
    }),
    "initial": _Section("initial", InitialSpec, {
        "kind": str, "amplitude": _finite, "band_lo": int, "band_hi": int,
        "seed": int, "delta": _finite, "snapshot": str,
    }),
    "initial_tau": _Section("tau_initial", TauInitialSpec, {
        "kind": str, "amplitude": _finite, "band_lo": int, "band_hi": int, "seed": int,
    }),
    "output": _Section("output", OutputSpec, {
        "dir": str, "observe_every": _finite, "snapshot_times": _parse_float_list,
    }, fields={"dir": "directory"}),
    "diagnostics": _Section("diag", DiagnosticsOptions, {
        "eps": _finite, "hs": _parse_float_list, "n_functional_m": _finite,
    }),
}


# What a non-string override value must be, by the key's converter
_VALUE_TYPES = {
    int: (numbers.Integral, "an integer"),
    _finite: (numbers.Real, "a real number"),
    str: (str, "a string"),
    _parse_bool: (bool, "a boolean"),
    _parse_float_list: (tuple, "a tuple"),
}


def _typed(convert, value):
    """The value a key holds: a string converted as in a config file, or a
    value of the key's type (an int counts as a real number)."""
    if isinstance(value, str):
        return convert(value)
    kind, what = _VALUE_TYPES[convert]
    if not isinstance(value, kind) or isinstance(value, bool) != (convert is _parse_bool):
        raise ValueError(f"expected {what}, got {type(value).__name__}")
    return value if convert in (str, _parse_bool) else convert(value)


def _scan(text: str):
    """First pass: {section: {key: (raw value, lineno)}} plus syntax errors."""
    sections: dict[str, dict] = {}
    errors: list[str] = []
    current = None  # name of the section being read; None outside a known one
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip()
            if current in _SECTIONS:
                sections.setdefault(current, {})
            else:
                errors.append(f"line {lineno}: unknown section [{current}]")
                current = None
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        if current is None:
            errors.append(f"line {lineno}: key outside of a known section")
            continue
        key, raw = (part.strip() for part in stripped.split("=", 1))
        entries = sections[current]
        if key not in _SECTIONS[current].keys:
            errors.append(f"line {lineno}: unknown key {key!r} in [{current}]")
            continue
        if key in entries:
            errors.append(
                f"line {lineno}: duplicate key {key!r} in [{current}] "
                f"(first set on line {entries[key][1]})"
            )
            continue
        entries[key] = (raw, lineno)
    return sections, errors


def _build(name: str, entries: dict, errors: list):
    """Second pass: the section's spec from its entries, or None on an error."""
    section = _SECTIONS[name]
    kwargs = dict(section.defaults)
    for key, (raw, lineno) in entries.items():
        try:
            kwargs[section.field(key)] = section.keys[key](raw)
        except ValueError as exc:
            errors.append(f"line {lineno}: bad value for {key!r}: {exc}")
    try:
        return section.spec(**kwargs)
    except ConfigError as exc:
        # the line of the key the message starts with, else the section's first
        message = exc.messages[0]
        named = [lineno for key, (_, lineno) in entries.items()
                 if section.field(key) == message.split()[0]]
        linenos = named or [lineno for _, lineno in entries.values()]
        where = f"line {linenos[0]}" if linenos else f"section [{name}]"
        errors.append(f"{where}: {message}")
        return None


def _cross_errors(config: ExperimentConfig) -> list[tuple[str, str, str]]:
    """(section, key, message) for values that another section makes
    invalid: initial data the grid's dealias cutoff would cut, and snapshot
    times that repeat or lie past t_end, to within the landing tolerance."""
    grid = config.grid
    errors = []
    for name, what, spec in (("initial", "initial", config.initial),
                             ("initial_tau", "tau", config.tau_initial)):
        key = {"random_band_limited": "band_hi", "single_mode": "band_lo"}.get(spec.kind)
        if key is not None and getattr(spec, key) > grid.dealias_cutoff:
            errors.append((name, key, f"{what} band exceeds dealias cutoff "
                                      f"{grid.dealias_cutoff} at n={grid.n}"))
    times, t_end = sorted(config.output.snapshot_times), config.step.t_end
    eps = landing_tolerance(t_end)
    errors += [("output", "snapshot_times", f"snapshot time {t:g} is repeated")
               for before, t in zip(times, times[1:]) if t - before <= eps]
    errors += [("output", "snapshot_times", f"snapshot time {t:g} lies past t_end = {t_end:g}")
               for t in times if t > t_end + eps]
    return errors


def parse_config(text: str) -> ExperimentConfig:
    sections, errors = _scan(text)
    specs = {section.attr: _build(name, sections.get(name, {}), errors)
             for name, section in _SECTIONS.items()}
    if not errors:
        config = ExperimentConfig(**specs)
        for name, key, message in _cross_errors(config):
            lineno = sections.get(name, {}).get(key, (None, "?"))[1]
            errors.append(f"line {lineno}: {message}")
    if errors:
        raise ConfigError(errors)
    return config


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_config(text)


def _target(name: str) -> tuple[_Section, str]:
    section, _, key = name.partition(".")
    if section not in _SECTIONS or key not in _SECTIONS[section].keys:
        raise ConfigError(f"unknown override target {name!r} (expected section.key)")
    return _SECTIONS[section], key


def with_override(config: ExperimentConfig, name: str, value) -> ExperimentConfig:
    """Return a copy of the config with `section.key` set to `value`.

    A string value is converted by the key's converter, as in a config file;
    any other value must have the key's type (a float for an integer key is
    rejected). The new config passes the file's checks; ConfigError otherwise.
    """
    section, key = _target(name)
    try:
        typed = _typed(section.keys[key], value)
        spec = replace(getattr(config, section.attr), **{section.field(key): typed})
        new = replace(config, **{section.attr: spec})
        cross = _cross_errors(new)
        if cross:
            raise ConfigError([message for *_, message in cross])
    except ValueError as exc:  # from a converter, a spec or the cross-section check
        raise ConfigError(f"{name} = {value!r}: {exc}") from None
    return new


def override_value(config: ExperimentConfig, name: str):
    """The value that `section.key` holds in the config."""
    section, key = _target(name)
    return getattr(getattr(config, section.attr), section.field(key))
