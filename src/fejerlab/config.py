"""YAML scenario configuration: parse, validate, serialize.

The config file is a single YAML document mirroring :class:`ScenarioSpec`:
named sets, named operator expression trees (which may reference sets by
name), trajectory definitions, and checks with expected verdicts.  Parsing
errors raise :class:`ConfigError` with the offending field path.
"""

from __future__ import annotations

import dataclasses
import inspect
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError, UnsupportedSetError
from .geometry import (
    AffineSubspace,
    Ball,
    Box,
    ConvexSet,
    Halfspace,
    Hyperplane,
    LinearSubspace,
    MinkowskiSum,
    Orthant,
    Point,
    Ray,
)
from .operators import (
    AffineMap,
    Composition,
    ConvexCombination,
    DouglasRachford,
    Identity,
    Linear,
    Negation,
    OperatorExpr,
    Projector,
    Reflector,
    ScalarPiecewiseLinear,
    Translation,
)
from .scenarios import CheckDef, ScenarioSpec, TrajectoryDef

__all__ = [
    "SET_KINDS",
    "OPERATOR_KINDS",
    "parse_scenario",
    "load_scenario",
    "serialize_scenario",
    "dump_scenario",
    "set_from_config",
    "set_to_config",
    "operator_from_config",
    "operator_to_config",
]

# One entry per kind; both directions of the conversion are derived from the
# class's fields and constructor signature.
SET_KINDS = {
    "point": Point,
    "ball": Ball,
    "halfspace": Halfspace,
    "hyperplane": Hyperplane,
    "affine_subspace": AffineSubspace,
    "linear_subspace": LinearSubspace,
    "box": Box,
    "ray": Ray,
    "orthant": Orthant,
    "minkowski_sum": MinkowskiSum,
}

OPERATOR_KINDS = {
    "identity": Identity,
    "negation": Negation,
    "translation": Translation,
    "linear": Linear,
    "affine_map": AffineMap,
    "projector": Projector,
    "reflector": Reflector,
    "convex_combination": ConvexCombination,
    "composition": Composition,
    "douglas_rachford": DouglasRachford,
    "scalar_piecewise_linear": ScalarPiecewiseLinear,
}

# Fields whose YAML key is not the field name.
_KEYS = {"target": "set", "set_name": "set"}


def _need(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}: missing field {key!r}")
    return d[key]


def _floats(value, path: str) -> list:
    try:
        return np.asarray(value, dtype=float).tolist()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: expected numbers, got {value!r}") from exc


def _mapping(d, path: str) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(d).__name__}")
    return d


def _check_keys(d: dict, allowed, path: str) -> None:
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown field {key!r}")


# ---------------------------------------------------------------------------
# ConvexSet / OperatorExpr <-> dict (set operands may be named references)
# ---------------------------------------------------------------------------


def _operand_set(value, sets: dict, path: str) -> ConvexSet:
    if isinstance(value, str):
        if value not in sets:
            raise ConfigError(f"{path}: unknown set reference {value!r}")
        return sets[value]
    return set_from_config(value, path)


def _from_config(d, kinds: dict, noun: str, sets: dict, path: str):
    kind = _need(_mapping(d, path), "kind", path)
    if kind not in kinds:
        raise ConfigError(f"{path}: unknown {noun} kind {kind!r}")
    cls = kinds[kind]
    params = {
        _KEYS.get(name, name): p
        for name, p in inspect.signature(cls).parameters.items()
    }
    _check_keys(d, ["kind", *params], path)
    args = {}
    for key, p in params.items():
        if key not in d:
            if p.default is p.empty:
                raise ConfigError(f"{path}: missing field {key!r}")
            continue
        value = d[key]
        if p.annotation == "ConvexSet":
            value = _operand_set(value, sets, f"{path}.{key}")
        elif p.annotation == "OperatorExpr":
            value = operator_from_config(value, sets, f"{path}.{key}")
        args[p.name] = value
    try:
        return cls(**args)
    except (TypeError, ValueError, UnsupportedSetError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _to_config(obj, kinds: dict, noun: str) -> dict:
    kind = next((k for k, cls in kinds.items() if isinstance(obj, cls)), None)
    if kind is None:
        raise ConfigError(f"cannot serialize {noun} of type {type(obj).__name__}")
    out = {"kind": kind}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, ConvexSet):
            value = set_to_config(value)
        elif isinstance(value, OperatorExpr):
            value = operator_to_config(value)
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        out[_KEYS.get(f.name, f.name)] = value
    return out


def set_from_config(d: dict, path: str = "set") -> ConvexSet:
    return _from_config(d, SET_KINDS, "set", {}, path)


def set_to_config(s: ConvexSet) -> dict:
    return _to_config(s, SET_KINDS, "set")


def operator_from_config(d: dict, sets: dict, path: str = "operator") -> OperatorExpr:
    return _from_config(d, OPERATOR_KINDS, "operator", sets, path)


def operator_to_config(op: OperatorExpr) -> dict:
    return _to_config(op, OPERATOR_KINDS, "operator")


# ---------------------------------------------------------------------------
# ScenarioSpec <-> dict / YAML
# ---------------------------------------------------------------------------


def _def_from_config(cls, d, path: str):
    """A TrajectoryDef or CheckDef from its mapping; kinds are checked later."""
    name = _need(_mapping(d, path), "name", path)
    path = f"{path}.{name}"
    _need(d, "kind", path)
    fields = {_KEYS.get(f.name, f.name): f.name for f in dataclasses.fields(cls)}
    _check_keys(d, fields, path)
    args = {fields[key]: value for key, value in d.items()}
    for key in ("start", "partner", "shift"):
        value = args.get(key)
        if value is not None and not (key == "shift" and isinstance(value, str)):
            args[key] = _floats(value, f"{path}.{key}")
    return cls(**args)


# Top-level numbers: the coercion for each field type, and each least value
# (a limit check needs a tail of two points; RNG seeds are nonnegative).
_CASTS = {"int": int, "float": float}
_LEAST = {"n_steps": 1, "seed": 0, "tol": 0.0, "tail_window": 2}


def _number(value, f: dataclasses.Field, path: str):
    cast = _CASTS[f.type]
    # int() would turn true into 1 and truncate 12.7 to 12
    truncates = cast is int and isinstance(value, float) and not value.is_integer()
    try:
        if isinstance(value, bool) or truncates:
            raise ValueError
        out = cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        noun = "an integer" if cast is int else "a number"
        raise ConfigError(f"{path}: expected {noun}, got {value!r}") from exc
    least = _LEAST[f.name]
    if not out >= least:  # NaN fails the comparison too
        raise ConfigError(f"{path}: must be at least {least}, got {out}")
    return out


def _def_to_config(obj) -> dict:
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if value is not None and not (isinstance(value, dict) and not value):
            out[_KEYS.get(f.name, f.name)] = value
    return out


def parse_scenario(data: dict) -> ScenarioSpec:
    """Build a validated ScenarioSpec from a plain config mapping."""
    if not isinstance(data, dict):
        raise ConfigError("scenario: expected a mapping at the top level")
    _check_keys(data, [f.name for f in dataclasses.fields(ScenarioSpec)], "scenario")
    name = _need(data, "name", "scenario")
    sets = {
        key: set_from_config(val, f"sets.{key}")
        for key, val in data.get("sets", {}).items()
    }
    operators = {
        key: operator_from_config(val, sets, f"operators.{key}")
        for key, val in data.get("operators", {}).items()
    }
    trajectories = [
        _def_from_config(TrajectoryDef, t, "trajectories")
        for t in data.get("trajectories", [])
    ]
    checks = [_def_from_config(CheckDef, c, "checks") for c in data.get("checks", [])]
    numbers = {
        f.name: _number(data.get(f.name, f.default), f, f"scenario.{f.name}")
        for f in dataclasses.fields(ScenarioSpec)
        if f.type in _CASTS
    }
    spec = ScenarioSpec(
        name=name,
        description=data.get("description", ""),
        topic=data.get("topic", ""),
        **numbers,
        sets=sets,
        operators=operators,
        trajectories=trajectories,
        checks=checks,
    )
    spec.validate()
    return spec


def serialize_scenario(spec: ScenarioSpec) -> dict:
    out = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    out["sets"] = {key: set_to_config(val) for key, val in spec.sets.items()}
    out["operators"] = {key: operator_to_config(val) for key, val in spec.operators.items()}
    out["trajectories"] = [_def_to_config(t) for t in spec.trajectories]
    out["checks"] = [_def_to_config(c) for c in spec.checks]
    return out


def load_scenario(path) -> ScenarioSpec:
    """Parse a scenario from a YAML file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    return parse_scenario(data)


def dump_scenario(spec: ScenarioSpec, path=None) -> str:
    """Serialize a scenario to YAML; optionally write it to ``path``."""
    text = yaml.safe_dump(serialize_scenario(spec), sort_keys=False)
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
