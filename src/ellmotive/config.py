"""Configuration ingestion for the verification suites.

Config files are JSON with keys {curve, functions, mode, bounds, seed}; see
the README for the full schema.  Validation is strict: every referenced point
must satisfy the curve equation and every function divisor must pass Abel's
criterion, with errors naming the offending entry.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .curves import CurveError, CurvePoint, EllipticCurve, full_two_torsion
from .cycles import UserFunction
from .divisors import DivisorError, FormalDivisor, is_principal
from .fields import FieldError, field_from_tag
from .fixtures import standard_functions


class ConfigError(ValueError):
    """Invalid input; the CLI maps this to exit code 2."""


class Bounds:
    def __init__(self, n_max: int = 2, r_max: int = 2, random_trials: int = 20):
        self.n_max = n_max
        self.r_max = r_max
        self.random_trials = random_trials

    @staticmethod
    def from_dict(data: dict) -> "Bounds":
        default = Bounds()
        return Bounds(
            n_max=_int(data, "n_max", default.n_max, least=1),
            r_max=_int(data, "r_max", default.r_max, least=0),
            random_trials=_int(data, "random_trials", default.random_trials, least=1),
        )


def _int(data: dict, key: str, default: int, least=None) -> int:
    """data[key] (default when absent) as an int of at least `least`; a bool
    or a number with a fractional part is rejected, not rounded."""
    value = data.get(key, default)
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError
        number = int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be an integer, not {value!r}") from exc
    if least is not None and number < least:
        raise ConfigError(f"{key} must be at least {least}, not {value!r}")
    return number


class Config:
    def __init__(
        self, curve: EllipticCurve, functions: list, mode: str, bounds: Bounds, seed: int, raw: dict
    ):
        self.curve = curve
        self.functions = functions  # list of UserFunction
        self.mode = mode
        self.bounds = bounds
        self.seed = seed
        self.raw = raw  # the input as given, which the report echoes


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
    if mode == "fn" and len(full_two_torsion(curve)) != 3:
        raise ConfigError("fn mode needs a curve with full rational 2-torsion")
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
    """The rank-1 rational fixture with two admissible functions, validated
    like a loaded file."""
    _, gs = standard_functions(2)
    raw = {
        "curve": {"a1": "0", "a2": "0", "a3": "1", "a4": "-1", "a6": "0", "field": "rational"},
        "functions": [
            {"name": g.name, "divisor": g.divisor.serialize()} for g in gs
        ],
        "mode": "fbar",
        "bounds": vars(Bounds()),
        "seed": 0,
    }
    return config_from_dict(raw)
