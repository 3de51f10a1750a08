"""Parameter sweeps, figure datasets, and the validation entry point.

Sweeps evaluate the optimal deterministic and probabilistic efficiencies
on a grid of one swept variable (kT, lambda, J, or Delta) with either the
quadrature oracle, the reconciled closed forms, or both (recording their
disagreement).  Figure reproduction emits CSV datasets plus a gnuplot
script per figure; ``validate`` runs the whole acceptance battery and
writes a JSON report.
"""

from __future__ import annotations

import json
import math
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import _version, closed_form
from ._optimize import SET_FAMILY, labeled, maximize_ratio, select
from .averaging import DEFAULT_GRID, HarmonicAverages, QuadratureGrid
from .closed_form import (
    MIN_PAIR_PROBABILITY,
    RESOLVED_MAPPING,
    SUCCESS_TIE_TOL,
    default_reconciliation,
    reconciled_det_optimal,
    reconciled_pair_rate,
    reconciled_prob_optimal,
)
from .spin_models import (
    HeisenbergParams,
    XXZFieldParams,
    XYFieldParams,
    from_xxz_field,
    from_xy_field,
    reject_keys,
    require_temperature,
    thermal_state,
)
from .teleport import OUTCOME_PAIRS, CorrectionLabel

CSV_SCHEMA_VERSION = 1
CLASSICAL_LIMIT = 2.0 / 3.0

SWEEP_VARIABLES = ("kt", "lambda", "bigj", "delta")
ENGINES = ("oracle", "closed", "both")

# ---------------------------------------------------------------------------
# model parameter resolution

_KEY_ALIASES = {"lambda": "lam", "kT": "kt"}


def _canonical_key(key: str) -> str:
    return _KEY_ALIASES.get(key, key)


def _canonical_values(values: dict) -> dict:
    """``values`` as floats under canonical keys; an alias given beside
    its canonical key (``lambda`` and ``lam``) is a ValueError."""
    canonical = {_canonical_key(k): float(v) for k, v in values.items()}
    if len(canonical) < len(values):
        twice = [k for k in values if _canonical_key(k) in values.keys() - {k}]
        raise ValueError("; ".join(f"{k} and {_canonical_key(k)} name one value" for k in twice))
    return canonical


_SWEPT = tuple(map(_canonical_key, SWEEP_VARIABLES))


# per model: its coupling family ("xy", "xxz" or "raw"), the parameters it
# reads besides kt, and the defaults of read parameters and pinned values
# of the rest
ModelParams = namedtuple("ModelParams", "family reads preset")
_RAW_COUPLINGS = ("jx", "jy", "jz", "ha", "hb")
MODEL_PARAMS = {
    "ising": ModelParams("xy", ("lam",), {"zeta": 1.0}),
    "xx": ModelParams("xy", ("lam",), {"zeta": 0.0}),
    "xy": ModelParams("xy", ("lam", "zeta"), {"zeta": 0.5}),
    "xxx": ModelParams("xxz", ("bigj", "field"), {"delta": 1.0}),
    "xxz": ModelParams("xxz", ("bigj", "delta", "field"), {}),
    "raw": ModelParams("raw", _RAW_COUPLINGS, dict.fromkeys(_RAW_COUPLINGS, 0.0)),
}
MODELS = tuple(MODEL_PARAMS)


def model_keys(model: str, keys) -> tuple:
    """(missing, unread): the parameters ``model`` needs and ``keys``
    lacks, in table order, and the keys besides kt it does not read,
    pinned ones included, in the order given."""
    if model not in MODEL_PARAMS:
        raise ValueError(f"unknown model {model!r}")
    _, reads, preset = MODEL_PARAMS[model]
    missing = [k for k in reads if k not in preset and k not in keys]
    return missing, [k for k in keys if k != "kt" and k not in reads]


def _params_for(model: str, values: dict):
    """Raw couplings plus the model-native parameter dict for one point.
    ``values`` has canonical keys that :func:`model_keys` accepts, kt
    not among them, and float values."""
    family, reads, preset = MODEL_PARAMS[model]
    v = {**preset, **values}
    if family == "xy":
        q = XYFieldParams(lam=v["lam"], zeta=v["zeta"])
        return from_xy_field(q), {"lam": q.lam, "zeta": q.zeta}
    if family == "xxz":
        q = XXZFieldParams(v["bigj"], v["delta"], v["field"])
        return from_xxz_field(q), {"bigj": q.exchange_j, "delta": q.delta, "field": q.field_h}
    return HeisenbergParams(**{k: v[k] for k in reads}), {}


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a model, its fixed parameters, and one swept variable.

    ``fixed`` holds the model parameters and, unless kT is swept, kt; it
    must not give the swept variable a value.  The range is finite, and
    every kT is positive with a finite 1/kT.
    """

    model: str
    fixed: dict
    swept: str
    start: float
    stop: float
    steps: int
    engine: str = "closed"
    grid: QuadratureGrid = DEFAULT_GRID

    def __post_init__(self):
        object.__setattr__(self, "fixed", _canonical_values(self.fixed))
        object.__setattr__(self, "swept", _canonical_key(self.swept))
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.swept not in _SWEPT:
            raise ValueError(f"unknown sweep variable {self.swept!r}")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"sweep range must be finite, got {self.start} to {self.stop}")
        if not (self.start < self.stop):
            raise ValueError("sweep range must have start < stop")
        if self.steps < 2:
            raise ValueError("sweep needs at least 2 steps")
        if self.swept in self.fixed:
            raise ValueError(f"the swept variable {self.swept} also has a fixed value")
        if self.swept == "kt":
            require_temperature(self.start)
        else:
            if "kt" not in self.fixed:
                raise ValueError("sweeps over model parameters need a fixed kt")
            require_temperature(self.fixed["kt"])

    def grid_values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class SweepRecord:
    """One sweep point: parameters, optima, and bookkeeping flags."""

    model: str
    params: HeisenbergParams
    native: dict
    kt: float
    engine: str
    det_value: float
    det_phi: float
    det_set: str
    prob_value: float
    prob_phi: float
    prob_set: str
    prob_pair: str
    success_rate: float
    above_classical_det: bool
    above_classical_prob: bool
    engine_disagreement: float | None = None


# ---------------------------------------------------------------------------
# oracle engine


# the oracle's set columns as (family, angle sign), in CorrectionLabel order
_SET_FAMILIES = tuple(SET_FAMILY[label] for label in CorrectionLabel)


def _oracle_point(p: HeisenbergParams, kt: float, grid: QuadratureGrid):
    """Oracle optima of one point as (deterministic, probabilistic)
    results: every set, and for the probabilistic protocol every outcome
    pair, is optimized over phi by ``maximize_ratio`` (D = 1 for the
    deterministic protocol), then the shared rule picks one.

    The probabilistic candidates follow the closed-form optimizer's rules:
    angles below MIN_PAIR_PROBABILITY are unreachable, and fidelity ties
    go to the larger success rate.
    """
    harmonics = HarmonicAverages(thermal_state(p, kt).rho, grid)
    q, joint = harmonics.q_coef, harmonics.joint_coef
    # the sets' deterministic optima, D = 1
    dets = [maximize_ratio(num, (1.0, 1.0, 0.0)) for num in joint.sum(axis=1).T.tolist()]
    # both pairs' (u, v, s) tables at once, one column per OUTCOME_PAIRS entry
    first, second = np.subtract(OUTCOME_PAIRS, 1).T
    dens = (q[:, first] + q[:, second]).T.tolist()
    nums = (joint[:, first] + joint[:, second]).transpose(1, 2, 0).tolist()
    probs = [
        maximize_ratio(num, den, floor=MIN_PAIR_PROBABILITY, tie_tol=SUCCESS_TIE_TOL)
        for den, pair_nums in zip(dens, nums)
        for num in pair_nums
    ]
    # candidate k is set k % 4 of pair k // 4; the deterministic protocol
    # keeps every outcome, and its D = 1 is its success rate
    results = []
    for opts, pairs in ((dets, (None,)), (probs, OUTCOME_PAIRS)):
        k = select([opt.value for opt in opts])
        results.append(labeled(*_SET_FAMILIES[k % 4], pairs[k // 4], *opts[k]))
    return tuple(results)


def _record(model, p, native, kt, engine, det, prob) -> SweepRecord:
    """The record of one point's two optima; a family is reported by its
    + set."""
    return SweepRecord(
        model=model,
        params=p,
        native=native,
        kt=kt,
        engine=engine,
        det_value=det.best_value,
        det_phi=det.best_phi,
        det_set=f"{det.best_branch.value}+",
        prob_value=prob.best_value,
        prob_phi=prob.best_phi,
        prob_set=f"{prob.best_branch.value}+",
        prob_pair="+".join(map(str, prob.outcome_pair)),
        success_rate=prob.success_rate,
        above_classical_det=det.best_value > CLASSICAL_LIMIT,
        above_classical_prob=prob.best_value > CLASSICAL_LIMIT,
    )


def _closed_records(points, oracle) -> list:
    """Closed-engine records of (model, params, native, kt) points, with
    every closed form run once on the whole batch.

    ``oracle`` holds each point's oracle record, or ``None``.  A point
    without one gets its closed record; a point with one gets that record
    as engine "both", carrying its worst absolute gap to the closed forms.
    The success rate is compared at the oracle's angle: optimal angles
    themselves are sqrt-conditioned on flat maxima, but the averaged
    quantities at any common angle are not.  The batch's inputs are built
    once, so each branch's terms are too.
    """
    if not points:
        return []
    betas = 1.0 / np.asarray([kt for *_, kt in points], dtype=float)
    inp = RESOLVED_MAPPING.inputs([p for _, p, _, _ in points], betas)
    optima = zip(reconciled_det_optimal(inp, betas), reconciled_prob_optimal(inp, betas))
    checked = [k for k, r in enumerate(oracle) if r is not None]
    if checked:
        rows = inp if len(checked) == len(points) else inp.take(checked)
        rates = iter(reconciled_pair_rate(
            rows,
            betas[checked],
            [oracle[k].prob_phi for k in checked],
            [tuple(int(s) for s in oracle[k].prob_pair.split("+")) for k in checked],
        ))
    records = []
    for (model, p, native, kt), r, (det, prob) in zip(points, oracle, optima):
        if r is None:
            records.append(_record(model, p, native, kt, "closed", det, prob))
        else:
            records.append(replace(
                r,
                engine="both",
                engine_disagreement=max(
                    abs(r.det_value - det.best_value),
                    abs(r.prob_value - prob.best_value),
                    abs(r.success_rate - next(rates)),
                ),
            ))
    return records


def evaluate_point(
    model: str,
    values: dict,
    kt: float,
    engine: str = "closed",
    grid: QuadratureGrid = DEFAULT_GRID,
) -> SweepRecord:
    """One sweep point.  ``values`` holds the model-native parameters
    only; kT is ``kt``.  The closed engine treats it as a batch of one."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    require_temperature(kt)
    values = _canonical_values(values)
    if "kt" in values:
        raise ValueError("values holds model parameters only; kT is the kt argument")
    reject_keys(model, *model_keys(model, values))
    p, native = _params_for(model, values)
    if engine == "closed":
        return _closed_records([(model, p, native, kt)], [None])[0]
    record = _record(model, p, native, kt, "oracle", *_oracle_point(p, kt, grid))
    if engine == "both":
        return _closed_records([(model, p, native, kt)], [record])[0]
    return record


def _grid_points(spec: SweepSpec) -> list:
    """(values, kt) of every grid point, ordered by the swept value;
    ``values`` holds the model parameters only."""
    values = {k: v for k, v in spec.fixed.items() if k != "kt"}
    if spec.swept == "kt":
        return [(values, float(x)) for x in spec.grid_values()]
    return [({**values, spec.swept: float(x)}, spec.fixed["kt"]) for x in spec.grid_values()]


def run_sweep(spec: SweepSpec):
    """Evaluate the sweep, one record per grid point, ordered by the swept
    value: ``run_sweeps([spec])[0]``.  With engine "both" the record
    carries the oracle numbers and the worst absolute oracle/closed-form
    disagreement.
    """
    return run_sweeps([spec])[0]


def run_sweeps(specs) -> list:
    """Evaluate several sweeps, one record list per spec, each as
    :func:`run_sweep` gives it.

    The oracle half calls ``evaluate_point`` once per point.  The closed
    half of every spec (engine "closed", and the check of engine "both")
    runs in one pass over all their points, so the curves of a figure
    panel share one batch.  A spec whose model lacks a parameter, does not
    read a fixed one, or does not read or pins the swept variable, raises
    ValueError before any point is evaluated.
    """
    specs = list(specs)
    for spec in specs:
        sweepable = ("kt", *(k for k in MODEL_PARAMS[spec.model].reads if k in _SWEPT))
        if spec.swept not in sweepable:
            raise ValueError(
                f"model {spec.model!r} cannot sweep {spec.swept}; "
                f"it sweeps {', '.join(sweepable)}"
            )
        reject_keys(spec.model, *model_keys(spec.model, {**spec.fixed, spec.swept: None}))
    grids = [_grid_points(spec) for spec in specs]
    runs = []  # per spec: its oracle records, or None per point
    points, oracle = [], []  # the closed half's points, all specs in turn
    for spec, grid in zip(specs, grids):
        if spec.engine == "closed":
            records = [None] * len(grid)
            # grid values are canonical floats already (SweepSpec)
            points += [(spec.model, *_params_for(spec.model, v), kt) for v, kt in grid]
        else:
            records = [evaluate_point(spec.model, v, kt, "oracle", spec.grid) for v, kt in grid]
            if spec.engine == "both":
                points += [(r.model, r.params, r.native, r.kt) for r in records]
        if spec.engine != "oracle":
            oracle += records
        runs.append(records)
    closed = iter(_closed_records(points, oracle))
    return [
        records if spec.engine == "oracle" else [next(closed) for _ in records]
        for spec, records in zip(specs, runs)
    ]


# ---------------------------------------------------------------------------
# CSV emission

SWEEP_COLUMNS = (
    "schema_version", "model", "lam", "zeta", "bigj", "delta", "field",
    "jx", "jy", "jz", "ha", "hb", "kt", "engine",
    "det_value", "det_phi", "det_set",
    "prob_value", "prob_phi", "prob_set", "prob_pair", "success_rate",
    "above_classical_det", "above_classical_prob", "engine_disagreement",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _record_row(r: SweepRecord) -> str:
    """One CSV line; the fields that are always floats skip ``_fmt``."""
    p = r.params
    native = ",".join(_fmt(r.native.get(k)) for k in ("lam", "zeta", "bigj", "delta", "field"))
    return (
        f"{CSV_SCHEMA_VERSION},{r.model},{native},"
        f"{p.jx:.17g},{p.jy:.17g},{p.jz:.17g},{p.ha:.17g},{p.hb:.17g},{r.kt:.17g},{r.engine},"
        f"{r.det_value:.17g},{r.det_phi:.17g},{r.det_set},"
        f"{r.prob_value:.17g},{r.prob_phi:.17g},{r.prob_set},{r.prob_pair},"
        f"{r.success_rate:.17g},{_fmt(r.above_classical_det)},"
        f"{_fmt(r.above_classical_prob)},{_fmt(r.engine_disagreement)}"
    )


def write_sweep_csv(records, path) -> None:
    """UTF-8, LF, comma-separated; floats carry 17 significant digits so
    files diff byte-stably across runs."""
    lines = [",".join(SWEEP_COLUMNS)]
    lines.extend(_record_row(r) for r in records)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# figure reproduction


# per figure: the parameters the source figure states explicitly (the
# metadata lists everything else under "implementer_chosen"), and its
# panels as (prefix, model, fixed values, swept variable, start, stop,
# curve key, curve values)
_KT_XY, _KT_XXZ = ("kt", 0.05, 3.0), ("kt", 0.05, 10.0)
_FIGURES = {
    "fig2": ({"model": "ising", "lam": [0.7, 1.3]}, [
        ("ising", "ising", {}, *_KT_XY, "lam", (0.7, 1.3)),
    ]),
    "fig3": ({"model": "xx"}, [("xx", "xx", {}, *_KT_XY, "lam", (0.7, 1.3))]),
    "fig4": ({"model": "xy"}, [("xy", "xy", {"zeta": 0.5}, *_KT_XY, "lam", (0.7, 1.3))]),
    "fig5": ({"model": "xxx", "field": 8.0}, [
        ("xxx", "xxx", {"field": 8.0}, *_KT_XXZ, "bigj", (0.5, 1.5, 2.0)),
    ]),
    # the below-critical curve sits at small |Delta|, where only the
    # probabilistic protocol beats the classical limit
    "fig6": ({"model": "xxz", "field": 4.0, "bigj": 1.0}, [
        ("xxz", "xxz", {"field": 4.0, "bigj": 1.0}, *_KT_XXZ, "delta", (-0.1, 1.0, 2.0)),
    ]),
    "fig7": ({"kt_xy_family": [0.1, 0.3], "kt_xxz_family": [0.1, 1.0]}, [
        ("ising_lambda", "ising", {"kt": 1.0}, "lam", 0.02, 2.5, "kt", (0.1, 0.3)),
        ("xx_lambda", "xx", {"kt": 1.0}, "lam", 0.02, 2.5, "kt", (0.1, 0.3)),
        ("xy_lambda", "xy", {"kt": 1.0, "zeta": 0.5}, "lam", 0.02, 2.5, "kt", (0.1, 0.3)),
        ("xxx_bigj", "xxx", {"kt": 1.0, "field": 8.0}, "bigj", 0.05, 2.5, "kt", (0.1, 1.0)),
        ("xxz_delta", "xxz", {"kt": 1.0, "field": 4.0, "bigj": 1.0},
         "delta", -2.0, 3.0, "kt", (0.1, 1.0)),
    ]),
}

# a figure panel: its curves are ``spec`` at each of ``curve_values`` of
# the fixed parameter ``curve_key``
_Panel = namedtuple("_Panel", "prefix spec curve_key curve_values")


def _write_curve_csvs(outdir: Path, panel: _Panel, curves) -> list:
    """Long-format CSVs: one row per (curve, x) for det, prob, success."""
    det = ["schema_version,curve,x_name,x,value,branch,phi"]
    prob = ["schema_version,curve,x_name,x,value,branch,phi,pair"]
    succ = ["schema_version,curve,x_name,x,value,pair"]
    swept = panel.spec.swept
    for label, records in curves:
        for r in records:
            x = r.kt if swept == "kt" else r.native[swept]
            head = f"{CSV_SCHEMA_VERSION},{label},{swept},{x:.17g}"
            det.append(f"{head},{r.det_value:.17g},{r.det_set},{r.det_phi:.17g}")
            prob.append(
                f"{head},{r.prob_value:.17g},{r.prob_set},{r.prob_phi:.17g},{r.prob_pair}"
            )
            succ.append(f"{head},{r.success_rate:.17g},{r.prob_pair}")
    paths = []
    for name, lines in (("det", det), ("prob", prob), ("success", succ)):
        path = outdir / f"{panel.prefix}_{name}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
        paths.append(path)
    return paths


def _gnuplot_script(fig_id: str, panels, curve_labels) -> str:
    lines = [
        f"# {fig_id}: efficiencies vs the swept variable, one panel per model",
        "set datafile separator ','",
        "set key bottom left",
        "set style data lines",
        f"set terminal pngcairo size {900 if len(panels) == 1 else 1400},{600 if len(panels) <= 3 else 900}",
        f"set output '{fig_id}.png'",
    ]
    if len(panels) > 1:
        cols = 3 if len(panels) > 3 else len(panels)
        rows = (len(panels) + cols - 1) // cols
        lines.append(f"set multiplot layout {rows},{cols}")
    for panel in panels:
        labels = curve_labels[panel.prefix]
        lines += [
            f"set title '{panel.prefix}'",
            f"set xlabel '{panel.spec.swept}'",
            "set ylabel 'efficiency'",
        ]
        plot_parts = []
        for label in labels:
            for kind, style in (("det", ""), ("prob", " dashtype '-'")):
                plot_parts.append(
                    f"'{panel.prefix}_{kind}.csv' using 4:(strcol(2) eq '{label}' ? $5 : 1/0) "
                    f"title '{kind} {label}'{style}"
                )
        plot_parts.append("2.0/3.0 title 'classical limit' dashtype '.-' lc rgb 'red'")
        lines.append("plot \\\n  " + ", \\\n  ".join(plot_parts))
    if len(panels) > 1:
        lines.append("unset multiplot")
    return "\n".join(lines) + "\n"


def reproduce_figure(fig_id: str, outdir, engine: str = "closed", steps: int = 60):
    """Regenerate one figure's datasets into ``outdir``.

    Writes det/prob/success CSVs per panel, a gnuplot script, and a
    metadata file separating parameters stated by the source figure from
    implementer-chosen ones.  Returns the list of written paths.
    """
    if fig_id not in _FIGURES:
        raise ValueError(f"unknown figure id {fig_id!r}")
    stated, table = _FIGURES[fig_id]
    panels = [
        _Panel(prefix, SweepSpec(model, fixed, swept, start, stop, steps, engine), key, values)
        for prefix, model, fixed, swept, start, stop, key, values in table
    ]
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    curve_labels = {}
    implementer_chosen = {}
    for panel in panels:
        # one closed pass per panel: a pass holds every point's objects at
        # once, and fig7's 600 points in one pass raised the peak memory of
        # repeated figure runs by ~5%, while in one process it was no faster
        # than five 120-point passes
        specs = [
            replace(panel.spec, fixed={**panel.spec.fixed, panel.curve_key: value})
            for value in panel.curve_values
        ]
        curves = [
            (f"{panel.curve_key}={value:g}", records)
            for value, records in zip(panel.curve_values, run_sweeps(specs))
        ]
        curve_labels[panel.prefix] = [label for label, _ in curves]
        implementer_chosen[panel.prefix] = {
            "curve_values": list(panel.curve_values),
            "x_range": [panel.spec.start, panel.spec.stop],
            "steps": panel.spec.steps,
            **panel.spec.fixed,
        }
        written.extend(_write_curve_csvs(outdir, panel, curves))

    script = outdir / f"{fig_id}.gp"
    script.write_text(
        _gnuplot_script(fig_id, panels, curve_labels), encoding="utf-8", newline="\n"
    )
    written.append(script)

    meta = outdir / f"{fig_id}_meta.json"
    meta.write_text(
        json.dumps(
            {
                "figure": fig_id,
                "schema_version": CSV_SCHEMA_VERSION,
                "tool_version": _version.__version__,
                "engine": engine,
                "stated_by_source": stated,
                "implementer_chosen": implementer_chosen,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    written.append(meta)
    return written


# ---------------------------------------------------------------------------
# validation entry point


def validate(seed: int = 20260810, cases: int = 200, report_path=None):
    """Run reconciliation plus the full acceptance battery.

    Returns (exit_status, report_dict); nonzero status on any failure.
    Writes the JSON report (including the reconciliation section) when
    ``report_path`` is given.  The reconciliation section records its wall
    time and whether this process had already computed it (``cached``);
    ``grid`` is the quadrature grid of the oracle wherever a check does
    not name its own in its details.  ``cases`` must be at least 1 and
    ``seed`` at least 0.
    """
    from . import _checks

    if cases < 1:
        raise ValueError(f"validate needs at least 1 case, got {cases}")
    if seed < 0:
        raise ValueError(f"validate needs a seed of at least 0, got {seed}")
    cached = closed_form._DEFAULT_REPORT is not None
    start = time.perf_counter()
    reconciliation = default_reconciliation()
    reconciliation_s = time.perf_counter() - start
    results = _checks.run_all(seed=seed, cases=cases)
    report = {
        "report_version": 1,
        "tool_version": _version.__version__,
        "seed": seed,
        "cases": cases,
        "grid": asdict(DEFAULT_GRID),
        "reconciliation": {
            **reconciliation.to_dict(), "wall_s": reconciliation_s, "cached": cached,
        },
        "checks": [r.to_dict() for r in results],
        "passed": all(r.passed for r in results),
    }
    status = 0 if report["passed"] else 1
    if report_path is not None:
        Path(report_path).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return status, report
