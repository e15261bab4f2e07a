"""CLI configuration: a single JSON document, schema-validated with unknown
keys rejected, plus flag overrides applied before validation.

Shape:

    {
      "field":   {"kind": "rational"} | {"kind": "prime", "p": 7},
      "alpha":   "3/1",
      "gram":    [["1", "2"], ["2", "1"]] | {"two_gen_mu": "2/1" | ["0", "1/2"]},
      "variant": "split_spin" | "cover",
      "budgets": {"norm_one": 100000, "idempotent_scan": 1000000,
                  "axet_cap": 500},
      "seeds":   {"default": 0},
      "output":  "json" | "text"
    }
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import ConfigError
from .fields import Field, Scalar
from .linalg import Matrix
from .quadratic import QuadraticSpace

DEFAULT_NORM_ONE_BUDGET = 100_000
DEFAULT_SCAN_BUDGET = 1_000_000

_TOP_KEYS = {"field", "alpha", "gram", "variant", "budgets", "seeds", "output"}
_FIELD_KEYS = {"kind", "p"}
_BUDGET_KEYS = {"norm_one", "idempotent_scan", "axet_cap"}
_SEED_KEYS = {"default"}
_VARIANTS = {"split_spin", "cover"}
_OUTPUTS = {"json", "text"}


@dataclass
class Budgets:
    norm_one: int = DEFAULT_NORM_ONE_BUDGET
    idempotent_scan: int = DEFAULT_SCAN_BUDGET
    axet_cap: int | None = None


@dataclass
class RunConfig:
    field: Field
    alpha: Scalar | None
    space: QuadraticSpace | None
    mu_values: tuple[Scalar, ...]  # empty unless the two-generated shortcut was used
    variant: str
    budgets: Budgets = dc_field(default_factory=Budgets)
    seed: int = 0
    output: str = "json"


def _reject_unknown(obj: dict, allowed: set, where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _parse_field(obj) -> Field:
    if not isinstance(obj, dict):
        raise ConfigError('"field" must be an object')
    _reject_unknown(obj, _FIELD_KEYS, '"field"')
    kind = obj.get("kind")
    if kind == "rational":
        if "p" in obj:
            raise ConfigError('"p" is only valid for prime fields')
        return Field.rationals()
    if kind == "prime":
        p = obj.get("p")
        if not isinstance(p, int):
            raise ConfigError('prime fields need an integer "p"')
        try:
            return Field.prime(p)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f'unknown field kind {kind!r}')


def _parse_scalar(field: Field, value, where: str) -> Scalar:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ConfigError(f"{where} must be an integer or a fraction string")
    try:
        return field.scalar(value)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"bad scalar for {where}: {exc}") from exc


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "the configuration")

    field = _parse_field(raw.get("field", {"kind": "rational"}))

    alpha = None
    if "alpha" in raw:
        alpha = _parse_scalar(field, raw["alpha"], '"alpha"')

    space = None
    mu_values: tuple[Scalar, ...] = ()
    gram = raw.get("gram")
    if isinstance(gram, list):
        if not gram or any(not isinstance(row, list) or len(row) != len(gram) for row in gram):
            raise ConfigError('"gram" must be a square array of scalars')
        entries = [
            [_parse_scalar(field, v, '"gram" entry') for v in row] for row in gram
        ]
        matrix = Matrix(field, entries)
        if not matrix.is_symmetric():
            raise ConfigError('"gram" must be symmetric')
        space = QuadraticSpace(matrix)
    elif isinstance(gram, dict):
        _reject_unknown(gram, {"two_gen_mu"}, '"gram"')
        mu = gram.get("two_gen_mu")
        if isinstance(mu, list):
            mu_values = tuple(_parse_scalar(field, v, '"two_gen_mu"') for v in mu)
        else:
            mu_values = (_parse_scalar(field, mu, '"two_gen_mu"'),)
        if not mu_values:
            raise ConfigError('"two_gen_mu" must list at least one value')
    elif gram is not None:
        raise ConfigError('"gram" must be an array or a {"two_gen_mu": ...} object')

    variant = raw.get("variant", "split_spin")
    if variant not in _VARIANTS:
        raise ConfigError(f'unknown variant {variant!r}')

    budgets = Budgets()
    if "budgets" in raw:
        b = raw["budgets"]
        if not isinstance(b, dict):
            raise ConfigError('"budgets" must be an object')
        _reject_unknown(b, _BUDGET_KEYS, '"budgets"')
        for key in _BUDGET_KEYS:
            if key in b:
                value = b[key]
                if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                    raise ConfigError(f'budget "{key}" must be a positive integer')
                setattr(budgets, key, value)

    seed = 0
    if "seeds" in raw:
        s = raw["seeds"]
        if not isinstance(s, dict):
            raise ConfigError('"seeds" must be an object')
        _reject_unknown(s, _SEED_KEYS, '"seeds"')
        if "default" in s:
            if not isinstance(s["default"], int) or isinstance(s["default"], bool):
                raise ConfigError('seed must be an integer')
            seed = s["default"]

    output = raw.get("output", "json")
    if output not in _OUTPUTS:
        raise ConfigError(f'unknown output format {output!r}')

    return RunConfig(
        field=field,
        alpha=alpha,
        space=space,
        mu_values=mu_values,
        variant=variant,
        budgets=budgets,
        seed=seed,
        output=output,
    )


def apply_overrides(raw: dict, *, p=None, alpha=None, mu=None, gram=None,
                    variant=None, cap=None, seed=None, output=None) -> dict:
    """Merge command-line overrides into a raw config dict."""
    merged = dict(raw)
    if p is not None:
        merged["field"] = {"kind": "prime", "p": p}
    if alpha is not None:
        merged["alpha"] = alpha
    if mu is not None:
        values = [v.strip() for v in mu.split(",") if v.strip()]
        if not values:
            raise ConfigError("--mu must list at least one value")
        merged["gram"] = {"two_gen_mu": values if len(values) > 1 else values[0]}
    if gram is not None:
        merged["gram"] = gram
    if variant is not None:
        merged["variant"] = variant
    if cap is not None:
        merged.setdefault("budgets", {})
        merged["budgets"] = dict(merged["budgets"])
        merged["budgets"]["axet_cap"] = cap
    if seed is not None:
        merged.setdefault("seeds", {})
        merged["seeds"] = dict(merged["seeds"])
        merged["seeds"]["default"] = seed
    if output is not None:
        merged["output"] = output
    return merged
