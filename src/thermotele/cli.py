"""Command-line interface: point evaluations, sweeps, figures, validation,
critical points.

``point``, ``sweep``, ``figure`` and ``validate`` also accept ``--config
FILE`` with ``key = value`` lines (keys named like the long flags);
explicit flags, each given once, win over the file.  A value a subcommand
needs may come from either, so it is checked only once the file has been
read.  Every error, argparse's own and an output path that cannot be
written included, is one ``thermotele: error:`` line with exit status 2,
and an unwritable ``--out`` fails before any work.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import _version
from .spin_models import CRITICAL_PARAMS, critical_keys, critical_point, reject_keys
from .sweeps import (
    ENGINES,
    MODELS,
    SWEEP_VARIABLES,
    SweepSpec,
    evaluate_point,
    model_keys,
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


def _add_common(parser, engine=True):
    parser.add_argument("--config", type=Path, default=None,
                        help="key=value file supplying flag defaults")
    if engine:
        parser.add_argument("--engine", choices=ENGINES, default="closed")


class _StoreOnce(argparse.Action):
    """Stores a value once, noting its destination in ``_given``."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            parser.error(f"{option_string} is given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """Reports its own errors as one line; sub-parsers share the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _StoreOnce)

    def error(self, message):
        self.exit(2, f"thermotele: error: {message}\n")


def build_parser():
    """Returns (parser, {command: subparser}) for default lookups."""
    parser = _Parser(
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
    _add_common(p_val, engine=False)
    p_val.add_argument("--seed", type=int, default=20260810)
    p_val.add_argument("--cases", type=int, default=200)
    p_val.add_argument("--out", type=Path, default=None, help="JSON report path")

    p_crit = sub.add_parser("critical", help="locate a ground-level crossing")
    p_crit.add_argument("model", choices=CRITICAL_PARAMS)
    # stored under critical_point's keywords
    p_crit.add_argument("--field", dest="field_h", metavar="FIELD", type=float, default=None)
    p_crit.add_argument("--bigj", dest="exchange_j", metavar="BIGJ", type=float, default=None)
    p_crit.add_argument("--zeta", type=float, default=None)

    commands = {
        "point": p_point, "sweep": p_sweep, "figure": p_fig,
        "validate": p_val, "critical": p_crit,
    }
    return parser, commands


# destinations of the values each subcommand needs from the command line or
# the config file
_REQUIRED = {"point": ("model", "kt"), "sweep": ("model", "var", "start", "stop", "steps")}


def _apply_config(args, actions):
    """Fill flag values from the config file wherever the command line did
    not give the flag (explicit flags therefore win).  Each value is parsed
    with its flag's own type and checked against its choices; a bad file,
    or one that gives a value twice (``lam`` and ``lambda``), raises
    ValueError."""
    if getattr(args, "config", None) is None:
        return args
    try:
        text = args.config.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    entries = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line not of form key=value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        entries.append((key.replace("-", "_"), value))
    given = set()
    for key, value in entries:
        action = actions.get(key)
        if action is None or not hasattr(args, action.dest):
            raise ValueError(f"unknown config key {key!r}")
        if action.dest in given:
            raise ValueError(f"config key {key!r} repeats a value the file already gives")
        given.add(action.dest)
        if action.dest in args._given:
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


def _check_model_flags(args, actions) -> None:
    """Name by flag, all at once, the parameters the model needs and the
    flags lack, and the flags it does not read.  A sweep's swept variable
    counts as given, as ``--var NAME``, and may not also have its flag."""
    flags = {dest: actions[dest].option_strings[0] for dest in _fixed_from_args(args)}
    if args.command == "sweep":
        swept = actions[args.var].dest
        if swept in flags:
            raise ValueError(f"{flags[swept]} fixes what --var {args.var} sweeps; give one of them")
        flags[swept] = f"--var {args.var}"
    missing, unread = model_keys(args.model, flags)
    reject_keys(
        args.model, [actions[k].option_strings[0] for k in missing], [flags[k] for k in unread]
    )


def _check_output(path: Path) -> None:
    """Raise, before any work, the ``OSError`` that writing the file
    ``path`` would end with for want of a writable directory.  (A figure
    makes its directory before it computes anything.)"""
    for ok, code in (
        (path.parent.exists(), errno.ENOENT),
        (path.parent.is_dir(), errno.ENOTDIR),
        (os.access(path.parent, os.W_OK), errno.EACCES),
    ):
        if not ok:
            raise OSError(code, os.strerror(code), str(path))


def _fixed_from_args(args) -> dict:
    dests = [dest for _, dest in _PARAM_FLAGS] + ["kt"]
    return {dest: getattr(args, dest) for dest in dests if getattr(args, dest) is not None}


def _cmd_point(args) -> int:
    values = _fixed_from_args(args)
    record = evaluate_point(args.model, values, values.pop("kt"), engine=args.engine)
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


def _crossing_values(args) -> dict:
    """The crossing parameters given, by ``critical_point``'s keywords."""
    keys = ("field_h", "exchange_j", "zeta")
    return {k: getattr(args, k) for k in keys if getattr(args, k) is not None}


def _check_critical_flags(args, actions) -> None:
    """Name by flag the parameters the crossing needs and the flags it
    does not read, as :func:`critical_point` names them by keyword."""
    keys = critical_keys(args.model, _crossing_values(args))
    reject_keys(args.model, *([actions[k].option_strings[0] for k in ks] for ks in keys))


def _cmd_critical(args) -> int:
    # repr keeps every digit of a crossing at any scale
    print(repr(critical_point(args.model, **_crossing_values(args))))
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
        if args.command in _REQUIRED:
            _check_model_flags(args, actions)
        if args.command == "critical":
            _check_critical_flags(args, actions)
        if args.command != "figure" and getattr(args, "out", None) is not None:
            _check_output(args.out)
        return handler(args)
    except ValueError as exc:
        parser.error(str(exc))
    except OSError as exc:
        parser.error(f"cannot write {exc.filename}: {exc.strerror}")


if __name__ == "__main__":
    sys.exit(main())
