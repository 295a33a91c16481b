"""Configuration ingestion for the verification suites.

Config files are JSON with keys {curve, functions, mode, bounds, seed}; see
the README for the full schema.  Validation is strict: every referenced point
must satisfy the curve equation and every function divisor must pass Abel's
criterion, with errors naming the offending entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .curves import CurveError, CurvePoint, EllipticCurve
from .cycles import UserFunction
from .divisors import DivisorError, FormalDivisor, is_principal
from .fields import FieldError, field_from_tag
from .fixtures import standard_functions


class ConfigError(ValueError):
    """Invalid input; the CLI maps this to exit code 2."""


@dataclass
class Bounds:
    n_max: int = 2
    r_max: int = 2
    random_trials: int = 20

    @staticmethod
    def from_dict(data: dict) -> "Bounds":
        return Bounds(
            n_max=_int(data, "n_max", 2),
            r_max=_int(data, "r_max", 2),
            random_trials=_int(data, "random_trials", 20),
        )


def _int(data: dict, key: str, default: int) -> int:
    try:
        return int(data.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be an integer, not {data[key]!r}") from exc


@dataclass
class Config:
    curve: EllipticCurve
    functions: list  # list of UserFunction
    mode: str = "fbar"
    bounds: Bounds = field(default_factory=Bounds)
    seed: int = 0
    raw: dict = field(default_factory=dict)


def parse_point(curve: EllipticCurve, payload) -> CurvePoint:
    if payload == "inf":
        return CurvePoint.at_infinity(curve)
    if not isinstance(payload, (list, tuple)) or len(payload) != 2:
        raise ConfigError(f"point payload {payload!r} must be [x, y] or \"inf\"")
    try:
        return CurvePoint.affine(curve, Fraction(str(payload[0])), Fraction(str(payload[1])))
    except (CurveError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"point {payload!r} rejected: {exc}") from exc


def _expect(value, kind, what: str):
    """value, checked to have the JSON type kind (dict or list)."""
    if not isinstance(value, kind):
        name = "object" if kind is dict else "list"
        raise ConfigError(f"{what} must be a JSON {name}, not {type(value).__name__}")
    return value


def config_from_dict(data: dict) -> Config:
    _expect(data, dict, "config")
    try:
        cdata = data["curve"]
        fld = field_from_tag(cdata.get("field", "rational"))
        curve = EllipticCurve.from_coeffs(
            fld,
            Fraction(str(cdata.get("a1", 0))),
            Fraction(str(cdata.get("a2", 0))),
            Fraction(str(cdata.get("a3", 0))),
            Fraction(str(cdata.get("a4", 0))),
            Fraction(str(cdata.get("a6", 0))),
        )
    except (KeyError, AttributeError, FieldError, CurveError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad curve spec: {exc}") from exc

    functions = []
    for fdata in _expect(data.get("functions", []), list, "functions"):
        name = _expect(fdata, dict, "every function entry").get("name")
        if not name or not isinstance(name, str):
            raise ConfigError(f"every function needs a name string, not {name!r}")
        if any(g.name == name for g in functions):
            raise ConfigError(f"function name {name!r} is repeated")
        items = []
        for term in _expect(fdata.get("divisor", []), list, f"divisor of {name}"):
            try:
                payload, coeff = term["point"], Fraction(str(term["coeff"]))
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise ConfigError(
                    f"divisor term {term!r} of {name} needs a point and a rational coeff"
                ) from exc
            items.append((parse_point(curve, payload), coeff))
        div = FormalDivisor.of(curve, items)
        try:
            if not is_principal(div):
                raise ConfigError(
                    f"divisor of {name} fails Abel's criterion "
                    "(degree zero and group-law sum equal to the identity)"
                )
        except DivisorError as exc:
            raise ConfigError(f"divisor of {name}: {exc}") from exc
        functions.append(UserFunction(name, div))

    mode = data.get("mode", "fbar")
    if mode not in ("fbar", "fn"):
        raise ConfigError(f"mode must be fbar or fn, not {mode!r}")
    bounds = Bounds.from_dict(_expect(data.get("bounds", {}), dict, "bounds"))
    seed = _int(data, "seed", 0)
    return Config(curve, functions, mode, bounds, seed, raw=data)


def load_config(path: str) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def default_config() -> Config:
    """The rank-1 rational fixture with two admissible functions."""
    curve, gs = standard_functions(2)
    raw = {
        "curve": {"a1": "0", "a2": "0", "a3": "1", "a4": "-1", "a6": "0", "field": "rational"},
        "functions": [
            {"name": g.name, "divisor": g.divisor.serialize()} for g in gs
        ],
        "mode": "fbar",
        "bounds": {"n_max": 2, "r_max": 2, "random_trials": 20},
        "seed": 0,
    }
    return Config(curve, list(gs), "fbar", Bounds(), 0, raw=raw)
