"""Command-line interface: point evaluations, sweeps, figures, validation.

Every subcommand also accepts ``--config FILE`` with ``key = value`` lines
(keys named like the long flags); explicit flags win over the file.  A
value a subcommand needs may come from either, so it is checked only once
the file has been read.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import _version
from .spin_models import critical_point
from .sweeps import (
    ENGINES,
    MODELS,
    SWEEP_VARIABLES,
    SweepSpec,
    evaluate_point,
    reproduce_figure,
    run_sweep,
    validate,
    write_sweep_csv,
)

_PARAM_FLAGS = (
    ("--jx", "jx"), ("--jy", "jy"), ("--jz", "jz"), ("--ha", "ha"), ("--hb", "hb"),
    ("--lambda", "lam"), ("--zeta", "zeta"),
    ("--bigj", "bigj"), ("--delta", "delta"), ("--field", "field"),
)


def _add_model_args(parser):
    parser.add_argument("--model", choices=MODELS, default=None)
    for flag, dest in _PARAM_FLAGS:
        parser.add_argument(flag, dest=dest, type=float, default=None)
    parser.add_argument("--kt", type=float, default=None, help="temperature kT (k=1)")


def _add_common(parser):
    parser.add_argument("--config", type=Path, default=None,
                        help="key=value file supplying flag defaults")
    parser.add_argument("--engine", choices=ENGINES, default="closed")
    parser.add_argument("--seed", type=int, default=20260810)


def build_parser():
    """Returns (parser, {command: subparser}) for default lookups."""
    parser = argparse.ArgumentParser(
        prog="thermotele",
        description="Teleportation efficiencies through thermal two-qubit "
                    "Heisenberg channels",
    )
    parser.add_argument("--version", action="version", version=_version.__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="evaluate one parameter point")
    _add_model_args(p_point)
    _add_common(p_point)
    p_point.add_argument("--out", type=Path, default=None, help="write CSV here")

    p_sweep = sub.add_parser("sweep", help="sweep one variable")
    _add_model_args(p_sweep)
    _add_common(p_sweep)
    p_sweep.add_argument("--var", choices=SWEEP_VARIABLES, default=None)
    p_sweep.add_argument("--from", dest="start", type=float, default=None)
    p_sweep.add_argument("--to", dest="stop", type=float, default=None)
    p_sweep.add_argument("--steps", type=int, default=None)
    p_sweep.add_argument("--out", type=Path, default=None, help="write CSV here")

    p_fig = sub.add_parser("figure", help="regenerate a figure dataset")
    p_fig.add_argument("id", choices=[f"fig{i}" for i in range(2, 8)])
    _add_common(p_fig)
    p_fig.add_argument("--steps", type=int, default=60)
    p_fig.add_argument("--out", type=Path, default=Path("figures"))

    p_val = sub.add_parser("validate", help="run the acceptance battery")
    _add_common(p_val)
    p_val.add_argument("--cases", type=int, default=200)
    p_val.add_argument("--out", type=Path, default=None, help="JSON report path")

    p_crit = sub.add_parser("critical", help="locate a ground-level crossing")
    p_crit.add_argument("model", choices=["xy", "xxx_field", "xxz_field"])
    p_crit.add_argument("--field", type=float, default=None)
    p_crit.add_argument("--bigj", type=float, default=None)

    commands = {
        "point": p_point, "sweep": p_sweep, "figure": p_fig,
        "validate": p_val, "critical": p_crit,
    }
    return parser, commands


# destinations of the values each subcommand needs from the command line or
# the config file
_REQUIRED = {"point": ("model", "kt"), "sweep": ("model", "var", "start", "stop", "steps")}


def _apply_config(args, actions):
    """Fill flag values from the config file wherever the flag kept its
    parser default (explicit flags therefore win).  Each value is parsed
    with its flag's own type and checked against its choices; a bad file
    raises ValueError."""
    if getattr(args, "config", None) is None:
        return args
    try:
        text = args.config.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line not of form key=value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    for key, value in values.items():
        action = actions.get(key)
        if action is None or not hasattr(args, action.dest):
            raise ValueError(f"unknown config key {key!r}")
        if getattr(args, action.dest) != action.default:
            continue
        try:
            parsed = action.type(value) if action.type else value
        except ValueError:
            raise ValueError(f"config key {key!r}: invalid value {value!r}") from None
        if action.choices is not None and parsed not in action.choices:
            raise ValueError(
                f"config key {key!r}: {value!r} is not one of {', '.join(action.choices)}"
            )
        setattr(args, action.dest, parsed)
    return args


def _fixed_from_args(args) -> dict:
    fixed = {}
    for _, dest in _PARAM_FLAGS:
        value = getattr(args, dest)
        if value is not None:
            fixed[dest] = value
    if args.kt is not None:
        fixed["kt"] = args.kt
    return fixed


def _cmd_point(args) -> int:
    fixed = _fixed_from_args(args)
    record = evaluate_point(args.model, fixed, fixed["kt"], engine=args.engine)
    payload = asdict(record)
    payload["params"] |= payload.pop("native")
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        write_sweep_csv([record], args.out)
    return 0


def _cmd_sweep(args) -> int:
    spec = SweepSpec(
        model=args.model, fixed=_fixed_from_args(args), swept=args.var,
        start=args.start, stop=args.stop, steps=args.steps, engine=args.engine,
    )
    records = run_sweep(spec)
    if args.out:
        write_sweep_csv(records, args.out)
        print(f"wrote {len(records)} records to {args.out}")
    else:
        for r in records:
            print(
                f"{r.kt if spec.swept == 'kt' else r.native[spec.swept]:.6g}"
                f"  det={r.det_value:.9f}  prob={r.prob_value:.9f}"
                f"  success={r.success_rate:.6f}"
            )
    return 0


def _cmd_figure(args) -> int:
    written = reproduce_figure(args.id, args.out, engine=args.engine, steps=args.steps)
    for path in written:
        print(path)
    return 0


def _cmd_validate(args) -> int:
    status, report = validate(seed=args.seed, cases=args.cases, report_path=args.out)
    for check in report["checks"]:
        mark = "PASS" if check["passed"] else "FAIL"
        margin = f", margin={check['margin']:.3e}" if "margin" in check else ""
        print(
            f"{mark}  {check['name']}  (max_error={check['max_error']:.3e}"
            f"{margin}, {check['wall_s']:.2f} s)"
        )
    grid = report["grid"]
    print(f"quadrature grid: {grid['n_alpha']}x{grid['n_gamma']}")
    rec = report["reconciliation"]
    print(
        f"reconciliation: {rec['mapping']} "
        f"({'cached' if rec['cached'] else 'computed'}, {rec['wall_s']:.2f} s)"
    )
    if args.out:
        print(f"report written to {args.out}")
    return status


# the flags each crossing needs
_CRITICAL_FLAGS = {"xxx_field": ("--field",), "xxz_field": ("--bigj", "--field")}


def _cmd_critical(args) -> int:
    flags = _CRITICAL_FLAGS.get(args.model, ())
    if any(getattr(args, flag[2:]) is None for flag in flags):
        raise ValueError(f"critical {args.model} needs {' and '.join(flags)}")
    value = critical_point(args.model, field_h=args.field, exchange_j=args.bigj)
    print(f"{value:.12f}")
    return 0


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    # config keys name a destination (lam) or a long flag (lambda)
    actions = {}
    for action in commands[args.command]._actions:
        actions |= {f[2:]: action for f in action.option_strings if f.startswith("--")}
        actions[action.dest] = action
    handler = {
        "point": _cmd_point,
        "sweep": _cmd_sweep,
        "figure": _cmd_figure,
        "validate": _cmd_validate,
        "critical": _cmd_critical,
    }[args.command]
    try:
        args = _apply_config(args, actions)
        for dest in _REQUIRED.get(args.command, ()):
            if getattr(args, dest) is None:
                flag = actions[dest].option_strings[0]
                raise ValueError(f"{args.command} needs {flag}, as a flag or in the config file")
        return handler(args)
    except ValueError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
