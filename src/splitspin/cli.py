"""Command-line front end.

One JSON config file (see config.py for the schema) plus flag overrides;
every command emits a deterministic JSON report (or a text rendering of the
same data).  Exit codes: 0 on success, 2 on a ConfigError (a bad config
or parameters outside a command's domain), 1 on verification failure or
any other library error or ValueError (the report carries the failing
witness).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from . import serialize
from .algebra import exceptional_cover, split_spin
from .axial import algebra_radical, check_axis, class_axes, frobenius, is_simple
from .config import RunConfig, apply_overrides, parse_config
from .cover import MAX_WITNESSES, verify_cover
from .errors import BaricCase, ConfigError, SplitSpinError
from .idempotents import (
    classes,
    classify_idempotents,
    enumerate_idempotents_bruteforce,
    expected_count,
    family_axis,
)
from .two_gen import TwoGenConfig, axet, build_two_gen, default_two_gen_alpha, yabe_data


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "selftest":
        return _cmd_selftest(args)
    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report, ok = COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SplitSpinError, ValueError) as exc:
        report = {"error": {"code": type(exc).__name__, "message": str(exc)}}
        _emit(report, cfg.output)
        return 1
    _emit(report, cfg.output)
    return 0 if ok else 1


@functools.cache  # built on the first call, not at import, and reused by every later one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="splitspin", description="Exact computations in split spin factor algebras.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*COMMANDS, "selftest"):
        cmd = sub.add_parser(name)
        cmd.add_argument("-c", "--config", help="path to a JSON config file")
        cmd.add_argument("--p", type=int, help="use the prime field F_p")
        cmd.add_argument("--alpha", help="alpha as an integer or fraction string")
        cmd.add_argument("--mu", help="two-generated mu, or a comma-separated sweep")
        cmd.add_argument("--gram", help="Gram matrix as a JSON array string")
        cmd.add_argument("--variant", choices=["split_spin", "cover"])
        cmd.add_argument("--cap", type=int, help="axet enumeration cap")
        cmd.add_argument("--seed", type=int, help="seed for sampling")
        cmd.add_argument("--workers", type=int, default=1, help="parallel sweep workers")
        cmd.add_argument("--format", dest="output", choices=["json", "text"])
        if name == "selftest":
            cmd.add_argument("--only", type=int, help="run a single criterion by number")
    return parser


def _load_config(args) -> RunConfig:
    if args.workers < 1:
        raise ConfigError("--workers must be at least 1")
    raw = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    gram = None
    if args.gram is not None:
        try:
            gram = json.loads(args.gram)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--gram is not valid JSON: {exc}") from exc
    raw = apply_overrides(raw, p=args.p, alpha=args.alpha, mu=args.mu, gram=gram, variant=args.variant,
                          cap=args.cap, seed=args.seed, output=args.output)
    return parse_config(raw)


def _emit(report, output: str):
    text = _render_text(report) if output == "text" else _dumps(report)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`| head`); send the exit-time flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _dumps(report) -> str:
    """`json.dumps(report, indent=2)`, byte for byte.  With an indent the
    json module always takes its pure-Python encoder.  Reports hold dicts
    with str keys, lists, str, int, bool and None; anything else raises
    TypeError in `_write`, and the whole report goes to json.dumps."""
    try:
        return _write(report, "\n")
    except TypeError:
        return json.dumps(report, indent=2)


def _write(doc, pad: str) -> str:
    kind = type(doc)
    if kind in _SCALARS:
        return _SCALARS[kind](doc)
    if kind is not list and kind is not dict:
        raise TypeError(f"{kind.__name__} is not written here")
    if not doc:
        return "[]" if kind is list else "{}"
    inner = pad + "  "
    if kind is list:
        try:  # a list of scalars is joined in one step
            items = [_SCALARS[type(v)](v) for v in doc]
        except KeyError:
            items = [_write(v, inner) for v in doc]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    # a key that is not a str raises TypeError in encode_basestring_ascii
    items = [encode_basestring_ascii(key) + ": " + _write(v, inner) for key, v in doc.items()]
    return "{" + inner + ("," + inner).join(items) + pad + "}"


def _render_text(doc, indent=0) -> str:
    pad = "  " * indent
    if not isinstance(doc, (dict, list)):
        return f"{pad}{doc}"
    lines = []
    labelled = ((f"{key}:", value) for key, value in doc.items()) if isinstance(doc, dict) else (("-", v) for v in doc)
    for label, value in labelled:
        if isinstance(value, (dict, list)):
            lines += [f"{pad}{label}", _render_text(value, indent + 1)]
        else:
            lines.append(f"{pad}{label} {value}")
    return "\n".join(lines)


# -- algebra assembly -----------------------------------------------------------


def _require_space(cfg: RunConfig):
    if cfg.space is not None:
        return cfg.space
    if cfg.mu_values:
        if len(cfg.mu_values) > 1:
            raise ConfigError("this command takes a single mu, not a sweep")
        return TwoGenConfig(cfg.field, mu=cfg.mu_values[0], alpha=cfg.alpha, variant=cfg.variant).space()
    raise ConfigError('a "gram" matrix or "two_gen_mu" is required')


def _build_algebra(cfg: RunConfig):
    space = _require_space(cfg)
    if cfg.variant == "cover":
        return exceptional_cover(space)
    if cfg.alpha is None:
        raise ConfigError('"alpha" is required for the split spin variant')
    return split_spin(space, cfg.alpha)


# -- commands --------------------------------------------------------------------


def _cmd_build(args, cfg: RunConfig):
    algebra = _build_algebra(cfg)
    return serialize.algebra_to_json(algebra), True


def _cmd_idempotents(args, cfg: RunConfig):
    algebra = _build_algebra(cfg)
    space = algebra.meta.space
    search = space.find_norm_one(budget=cfg.budgets.norm_one, seed=cfg.seed)
    report = {
        "algebra": {"kind": algebra.meta.kind, "dimension": algebra.dim},
        "norm_one": serialize.norm_one_to_json(search),
    }
    ok = True
    feasible = algebra.field.is_finite and algebra.field.p ** algebra.dim <= cfg.budgets.idempotent_scan
    if feasible:
        found = enumerate_idempotents_bruteforce(algebra, cfg.budgets.idempotent_scan)
        counts: dict[str, int] = {}
        classified = []
        for x, verdict in zip(found, classify_idempotents(algebra, found)):
            counts[verdict.tag] = counts.get(verdict.tag, 0) + 1
            entry = {"coords": serialize.element_to_json(x), "class": verdict.tag}
            if verdict.raw_e is not None:
                entry["e"] = list(verdict.raw_e)
            classified.append(entry)
        # the count and the absence of "other" need alpha outside {0, 1, 1/2}
        special = algebra.meta.jordan_special
        expected = None
        if search.status == "exhaustive" and not special:
            expected = expected_count(algebra, len(search.vectors))
        ok = special or (counts.get("other", 0) == 0 and (expected is None or expected == len(found)))
        report["enumeration"] = {
            "feasible": True,
            "nonzero_count": len(found),
            "expected_count": expected,
            "counts": dict(sorted(counts.items())),
            "idempotents": classified,
        }
    else:
        families = [family for family, *_ in classes(algebra).values() if family]
        members = []
        for e in search.vectors:
            for fam in families:
                x = family_axis(algebra, e, fam)
                members.append({"family": fam, "e": serialize.vector_to_json(e),
                                "coords": serialize.element_to_json(x)})
        report["enumeration"] = {"feasible": False}
        report["family_members"] = members
    return report, ok


def _cmd_axis_check(args, cfg: RunConfig):
    algebra = _build_algebra(cfg)
    search = algebra.meta.space.find_norm_one(budget=cfg.budgets.norm_one, seed=cfg.seed)
    reports = [{"axis_name": tag, **serialize.axis_report_to_json(check_axis(algebra, x, law))}
               for tag, x, law in class_axes(algebra, search.vectors[:MAX_WITNESSES])]
    ok = all(r["ok"] for r in reports)
    return {"axes": reports, "norm_one": serialize.norm_one_to_json(search)}, ok


def _cmd_frobenius(args, cfg: RunConfig):
    algebra = _build_algebra(cfg)
    form = frobenius(algebra)
    return serialize.frobenius_to_json(form), True


def _cmd_radical(args, cfg: RunConfig):
    algebra = _build_algebra(cfg)
    try:
        baric, basis = None, algebra_radical(algebra)
    except BaricCase as exc:
        baric, basis = exc.tag, exc.radical
    return {"baric": baric, "radical": [serialize.element_to_json(v) for v in basis]}, True


def _cmd_simple(args, cfg: RunConfig):
    algebra = _build_algebra(cfg)
    space = algebra.meta.space
    evidence = space.find_norm_one(budget=cfg.budgets.norm_one, seed=cfg.seed)
    simple, reason = is_simple(algebra, evidence=evidence)
    return {"simple": simple, "reason": reason, "norm_one": serialize.norm_one_to_json(evidence)}, True


def _cmd_yabe(args, cfg: RunConfig):
    if not cfg.mu_values:
        raise ConfigError('"two_gen_mu" is required for the yabe command')
    if len(cfg.mu_values) > 1:
        raise ConfigError("yabe takes a single mu, not a sweep")
    two = TwoGenConfig(cfg.field, mu=cfg.mu_values[0], alpha=cfg.alpha, variant=cfg.variant)
    algebra, x, y = build_two_gen(two)
    data = yabe_data(algebra, x, y)
    return serialize.yabe_to_json(data), True


def _axet_entry(cfg: RunConfig, mu) -> dict:
    """The sweep entry of one mu, or its error; cfg and mu reach a pool worker pickled."""
    try:
        alpha = cfg.alpha
        if alpha is None and cfg.variant == "split_spin":
            alpha = default_two_gen_alpha(cfg.field)  # axet size is alpha-independent
        algebra, x, y = build_two_gen(TwoGenConfig(cfg.field, mu=mu, alpha=alpha, variant=cfg.variant))
        result = axet(algebra, x, y, cap=cfg.budgets.axet_cap)
    except ConfigError:
        raise  # the whole sweep is misconfigured, not this entry
    except (SplitSpinError, ValueError) as exc:
        return {"mu": mu.to_json(), "error": {"code": type(exc).__name__, "message": str(exc)}}
    return {"mu": mu.to_json(), **serialize.axet_to_json(result)}


def _cmd_axet(args, cfg: RunConfig):
    if not cfg.mu_values:
        raise ConfigError('"two_gen_mu" is required for the axet command')
    sweep_entry = functools.partial(_axet_entry, cfg)
    workers = min(args.workers, len(cfg.mu_values), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a sweep on several cores pays for the import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(sweep_entry, cfg.mu_values))
    else:
        entries = list(map(sweep_entry, cfg.mu_values))
    ok = all("error" not in entry for entry in entries)
    if len(entries) == 1:
        return entries[0], ok
    return {"sweep": entries}, ok


def _cmd_cover(args, cfg: RunConfig):
    space = _require_space(cfg)
    report = verify_cover(space, norm_one_budget=cfg.budgets.norm_one, seed=cfg.seed)
    return serialize.cover_report_to_json(report), report.all_ok


def _cmd_selftest(args) -> int:
    from .acceptance import CRITERIA, run_all

    only = getattr(args, "only", None)
    if only is not None and only not in {number for number, _, _ in CRITERIA}:
        print(f"config error: no criterion {only}", file=sys.stderr)
        return 2
    return 0 if run_all(only=only) else 1


COMMANDS = {  # the parser adds "selftest", which takes no config
    "build": _cmd_build,
    "idempotents": _cmd_idempotents,
    "axis-check": _cmd_axis_check,
    "frobenius": _cmd_frobenius,
    "radical": _cmd_radical,
    "simple": _cmd_simple,
    "yabe": _cmd_yabe,
    "axet": _cmd_axet,
    "cover": _cmd_cover,
}


if __name__ == "__main__":
    sys.exit(main())
