"""Strict JSON problem configs with bit-exact numeric round-trips.

A config holds the data of the SDE dX = (A X + B u - alpha X^3) dt + Sigma dW
and of its cost <Q x, x> + <R u, u>, and nothing derived from them: ``A``
(n, n), ``B`` (n, l), the constant ``Sigma`` (n, d), the symmetric PSD ``Q``
(n, n) and ``R`` (l, l), ``control_set`` in R^l (``{"kind": "box", "lower",
"upper"}`` or ``{"kind": "ball", "center", "radius"}``) and, only when some
alpha_i > 0, ``cubic``: the (n,) nonnegative damping alpha.  A config
without ``cubic`` is linear-quadratic; n, l and d are read off the arrays.

Unknown keys are fatal: silent typos in scientific configs corrupt
experiments.  Serialization uses Python's shortest-round-trip float repr, so
parse(serialize(model)) reproduces every numeric bit.
"""

from __future__ import annotations

import json
from functools import partial

import numpy as np

from .model import ControlLaw, ConvexSet, ModelSpec

__all__ = [
    "ConfigError",
    "load_model_config",
    "parse_model_config",
    "model_config_dict",
    "save_model_config",
    "parse_control_law",
]


class ConfigError(ValueError):
    """Malformed configuration file or control specification."""


def _require_keys(obj: dict, required, optional=(), where="config"):
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ConfigError(f"{where}: missing key(s) {missing}")


def _parse_control_set(obj, where="control_set") -> ConvexSet:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    kind = obj.get("kind")
    if kind == "box":
        _require_keys(obj, ("kind", "lower", "upper"), where=where)
        return ConvexSet.box(obj["lower"], obj["upper"])
    if kind == "ball":
        _require_keys(obj, ("kind", "center", "radius"), where=where)
        return ConvexSet.ball(obj["center"], obj["radius"])
    raise ConfigError(f"{where}: kind must be 'box' or 'ball', got {kind!r}")


def parse_model_config(obj: dict, where="config") -> ModelSpec:
    """Model from a config object; without `cubic`, alpha = 0 (the LQ model)."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    _require_keys(obj, ("A", "B", "Sigma", "Q", "R", "control_set"), ("cubic",), where=where)
    try:
        build = partial(ModelSpec.cubic, obj["cubic"]) if "cubic" in obj else ModelSpec.lq
        return build(A=obj["A"], B=obj["B"], S=obj["Sigma"], Q=obj["Q"], R=obj["R"],
                     control_set=_parse_control_set(obj["control_set"]))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_model_config(path: str) -> ModelSpec:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return parse_model_config(obj, where=path)


def model_config_dict(model: ModelSpec) -> dict:
    cs = model.control_set
    if cs.kind == "box":
        control_set = {"kind": "box", "lower": cs.lower.tolist(), "upper": cs.upper.tolist()}
    else:
        control_set = {"kind": "ball", "center": cs.center.tolist(), "radius": cs.radius}
    obj = {
        "A": model.A.tolist(),
        "B": model.B.tolist(),
        "Sigma": model.S.tolist(),
        "Q": model.Q.tolist(),
        "R": model.R.tolist(),
        "control_set": control_set,
    }
    if model.has_cubic:
        obj["cubic"] = model.alpha.tolist()
    return obj


def save_model_config(model: ModelSpec, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(model_config_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_control_law(spec, control_set: ConvexSet, where="control") -> ControlLaw:
    """Control law from a JSON object/string; None means the zero control."""
    if spec is None:
        return ControlLaw.constant(np.zeros(control_set.dim), control_set)
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{where}: invalid JSON: {exc.msg}") from exc
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    kind = spec.get("kind")
    try:
        if kind == "constant":
            _require_keys(spec, ("kind", "value"), where=where)
            return ControlLaw.constant(spec["value"], control_set)
        if kind == "affine_feedback":
            _require_keys(spec, ("kind", "gain", "offset"), where=where)
            return ControlLaw.affine(spec["gain"], spec["offset"], control_set)
        if kind == "tabulated_feedback":
            _require_keys(spec, ("kind", "edges", "values"), where=where)
            return ControlLaw.tabulated(spec["edges"], spec["values"], control_set)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown control kind {kind!r}")
