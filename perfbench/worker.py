"""One benchmark process: set-up, the timed workload loop, then the gates.

``run.py`` starts this script in a fresh interpreter with one JSON
argument and reads the JSON object it prints as its last line.  The
workloads call thermotele only through its public module functions.
"""

from __future__ import annotations

import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

from spans import SpanRecorder, covered_seconds, layer_metrics

FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")
# curves per panel, keyed by the panel's file prefix; fixed by the paper's
# figures, so a figure that drops a panel or a curve fails the file gate
FIGURE_PANELS = {
    "fig2": {"ising": 2},
    "fig3": {"xx": 2},
    "fig4": {"xy": 2},
    "fig5": {"xxx": 3},
    "fig6": {"xxz": 3},
    "fig7": {
        "ising_lambda": 2, "xx_lambda": 2, "xy_lambda": 2,
        "xxx_bigj": 2, "xxz_delta": 2,
    },
}
RECONCILED_MAPPING = "flip_jz+swap_phi_psi"
RECONCILIATION_TOL = 1e-8  # criterion 10
ENGINE_TOL = 1e-8  # criterion 1
CLASSICAL_LOW_TOL = 1e-10  # criterion 3, below 2/3
CLASSICAL_HIGH_TOL = 1e-9  # criterion 3, above 2/3


@dataclass
class Rep:
    """One repetition of a workload: its calls' wall and CPU time, both
    raw and scaled to the reference host speed, and their outputs."""

    wall_s: float
    cpu_s: float
    scaled_wall_s: float
    scaled_cpu_s: float
    output: list  # one entry per call


def _figure_expected(steps: int):
    names, points = [], 0
    for fig, panels in FIGURE_PANELS.items():
        names += [fig + ".gp", fig + "_meta.json"]
        for prefix, curves in panels.items():
            names += [f"{prefix}_{kind}.csv" for kind in ("det", "prob", "success")]
            points += curves * steps
    return sorted(names), points


def _csv_rows(path: Path) -> list:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


# ---------------------------------------------------------------------------
# figures_closed: reproduce_figure fig2..fig7 with the closed engine


def figures_inputs(seed: int, tiny: bool) -> dict:
    return {"steps": 2 if tiny else 60, "checked_points": 2 if tiny else 12}


def figures_calls(tt, inputs, outdir: Path):
    def call(fig):
        return lambda: [
            str(p) for p in tt.sweeps.reproduce_figure(fig, outdir, steps=inputs["steps"])
        ]

    return [call(fig) for fig in FIGURES]


def _paths(rep: Rep) -> list:
    return [path for paths in rep.output for path in paths]


def _figure_point(tt, rep_dir: Path, prefix: str, row: int) -> float:
    """Worst gap between the closed CSV values at one point and the oracle's.

    The oracle rate is taken at the closed angle: optimal angles are
    sqrt-conditioned on flat maxima, so rates at each engine's own
    optimum differ by up to ~3e-8 while both are right; the averaged
    quantities at a common angle agree to roundoff.
    """
    fig = next(f for f, panels in FIGURE_PANELS.items() if prefix in panels)
    meta = json.loads((rep_dir / f"{fig}_meta.json").read_text())
    chosen = meta["implementer_chosen"][prefix]
    curve_values = chosen["curve_values"]
    values = {
        k: v for k, v in chosen.items() if k not in ("curve_values", "x_range", "steps")
    }
    det = _csv_rows(rep_dir / f"{prefix}_det.csv")[row]
    prob = _csv_rows(rep_dir / f"{prefix}_prob.csv")[row]
    succ = _csv_rows(rep_dir / f"{prefix}_success.csv")[row]
    curve_key, curve_text = det[1].split("=")
    values[curve_key] = next(v for v in curve_values if f"{v:g}" == curve_text)
    values[det[2]] = float(det[3])
    kt = values.pop("kt")
    model = prefix.split("_")[0]
    oracle = tt.sweeps.evaluate_point(model, values, kt, engine="oracle")
    pair = tuple(int(k) for k in prob[7].split("+"))
    state = tt.thermal_state(oracle.params, kt)
    rate_at = float(tt.HarmonicAverages(state.rho).pair_probability(float(prob[6]), pair))
    return max(
        abs(float(det[4]) - oracle.det_value),
        abs(float(prob[4]) - oracle.prob_value),
        abs(float(succ[4]) - rate_at),
    )


def figures_gate(tt, inputs, reps, seed, outdir: Path):
    """(evaluations per rep, failed evaluations, notes)."""
    names, points = _figure_expected(inputs["steps"])
    first = outdir / "rep0"
    for k, rep in enumerate(reps):
        rep_dir = outdir / f"rep{k}"
        written = [Path(p) for p in _paths(rep)]
        if sorted(p.name for p in written) != names or not all(
            p.is_file() and p.stat().st_size > 0 for p in written
        ):
            return points, points * len(reps), [f"{rep_dir}: wrong file set"]
        rows = sum(
            len(_csv_rows(rep_dir / name)) for name in names if name.endswith("_det.csv")
        )
        if rows != points:
            return points, points * len(reps), [f"{rep_dir}: {rows} points, not {points}"]
        for name in names:
            same = (rep_dir / name).read_bytes() == (first / name).read_bytes()
            if name.endswith(".csv") and not same:
                return points, points * len(reps), [f"{name} differs between reps"]
    rng = random.Random(seed)
    steps = inputs["steps"]
    cells = [
        (prefix, row)
        for panels in FIGURE_PANELS.values()
        for prefix, curves in panels.items()
        for row in range(curves * steps)
    ]
    failed, notes = 0, []
    for prefix, row in rng.sample(cells, inputs["checked_points"]):
        err = _figure_point(tt, first, prefix, row)
        if not err <= ENGINE_TOL:
            failed += len(reps)
            notes.append(f"{prefix} row {row}: closed vs oracle {err:.3g}")
    return points, failed, notes


# ---------------------------------------------------------------------------
# oracle_sweeps: run_sweep(engine="both") on five models at the default grid


# ranges the seed draws the fixed parameters from; the swept ranges are
# the figures' own
LAMBDA = (0.3, 1.7)
BIGJ = (0.5, 2.0)
FIELD = (2.0, 8.0)


def sweeps_inputs(seed: int, tiny: bool) -> dict:
    rng = random.Random(seed)
    u = rng.uniform
    specs = [
        ("ising", {"lam": u(*LAMBDA)}, "kt", 0.05, 3.0),
        ("xx", {"lam": u(*LAMBDA)}, "kt", 0.05, 3.0),
        ("xy", {"lam": u(*LAMBDA), "zeta": u(0.1, 0.9)}, "kt", 0.05, 3.0),
        ("xxx", {"bigj": u(*BIGJ), "field": u(*FIELD)}, "kt", 0.05, 10.0),
        ("xxz", {"bigj": u(*BIGJ), "field": u(*FIELD), "kt": u(0.1, 1.0)},
         "delta", -2.0, 3.0),
    ]
    return {"specs": specs, "steps": 2 if tiny else 12, "nodes": 8 if tiny else None}


def sweeps_calls(tt, inputs, outdir: Path):
    grid = {}
    if inputs["nodes"]:
        grid["grid"] = tt.QuadratureGrid(inputs["nodes"], inputs["nodes"])

    def call(model, fixed, swept, start, stop):
        spec = tt.sweeps.SweepSpec(
            model, fixed, swept, start, stop, inputs["steps"], engine="both", **grid
        )
        return lambda: [r.engine_disagreement for r in tt.sweeps.run_sweep(spec)]

    return [call(*spec) for spec in inputs["specs"]]


def sweeps_gate(tt, inputs, reps, seed, outdir: Path):
    points = len(inputs["specs"]) * inputs["steps"]
    failed, notes = 0, []
    for rep in reps:
        found = [d for sweep in rep.output for d in sweep]
        bad = [d for d in found if not (d is not None and d <= ENGINE_TOL)]
        failed += len(bad) + max(points - len(found), 0)
        notes += [f"engine disagreement {d}" for d in bad[:3]]
    return points, failed, notes


# ---------------------------------------------------------------------------
# classical_bound: verify_classical_bound(1000, seed) at its own 16x16 grid


def bound_inputs(seed: int, tiny: bool) -> dict:
    return {"samples": 1000, "seed": seed, "nodes": 8 if tiny else None}


def bound_calls(tt, inputs, outdir: Path):
    grid = tt.QuadratureGrid(inputs["nodes"], inputs["nodes"]) if inputs["nodes"] else None
    return [
        lambda: tt.classical_limit.verify_classical_bound(
            inputs["samples"], inputs["seed"], grid
        )
    ]


def bound_gate(tt, inputs, reps, seed, outdir: Path):
    points = inputs["samples"] + 1  # the saturating pole channel is always added
    limit = 2.0 / 3.0
    bad = [
        r.output[0] for r in reps
        if not (limit - CLASSICAL_LOW_TOL <= r.output[0] <= limit + CLASSICAL_HIGH_TOL)
    ]
    if bad:
        return points, points * len(reps), [f"classical maximum {bad[0]!r}"]
    return points, 0, []


@dataclass(frozen=True)
class Workload:
    inputs: object  # (seed, tiny) -> inputs
    calls: object  # (library, inputs, outdir) -> the calls of one repetition
    gate: object  # -> (evaluations per repetition, failed evaluations, notes)
    reconciles: bool  # the engine needs default_reconciliation() at set-up
    writes_files: bool  # each call returns the paths it wrote


WORKLOADS = {
    "figures_closed": Workload(figures_inputs, figures_calls, figures_gate, True, True),
    "oracle_sweeps": Workload(sweeps_inputs, sweeps_calls, sweeps_gate, True, False),
    "classical_bound": Workload(bound_inputs, bound_calls, bound_gate, False, False),
}


# ---------------------------------------------------------------------------
# host-speed scaling
#
# The shared host runs the same code up to ~1.8x slower for stretches of
# seconds to minutes.  So a timer interrupts the workload every
# SLICE_S, and the signal handler times a fixed calibration kernel of the
# same kind of work (small einsum and matmul calls from a Python loop).
# Each slice of workload time is scaled by CALIBRATION_S over the mean of
# the kernel times at its two ends; the kernel's own time is left out.
# Interleaving between calls (a slice per call) halved the spread of
# per-call times on the 2-core reference host; fixed slices also cover
# classical_bound, which is one long call.

CALIBRATION_S = 0.0110  # the kernel's median time on the reference host
SLICE_S = 0.2


def calibration_kernel():
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 2, 2))
    y = rng.standard_normal((2, 2, 2, 2))
    a = rng.standard_normal((4, 4))

    def kernel() -> float:
        start = perf_counter()
        acc = 0.0
        for _ in range(100):
            acc += float(np.einsum("akm,lwnv->awv", x, y)[0, 0, 0])
            acc += float((a @ a.T)[0, 0]) + sum(j * 0.5 for j in range(20))
        return perf_counter() - start

    return kernel


class HostClock:
    """Wall and CPU time of the workload, raw and scaled to the reference
    host speed.  Without a kernel it only measures (scale 1, no timer)."""

    def __init__(self, kernel=None):
        self.kernel = kernel
        self._busy = False
        self._acc = [0.0, 0.0, 0.0, 0.0]

    def start(self):
        self._kernel_s = self.kernel() if self.kernel else CALIBRATION_S
        self.first_scale = CALIBRATION_S / self._kernel_s
        self._w0, self._c0 = perf_counter(), process_time()
        if self.kernel:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SLICE_S, SLICE_S)

    def stop(self):
        if self.kernel:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _close_slice(self):
        wall, cpu = perf_counter() - self._w0, process_time() - self._c0
        kernel_s = self.kernel() if self.kernel else CALIBRATION_S
        scale = CALIBRATION_S / (0.5 * (self._kernel_s + kernel_s))
        for i, value in enumerate((wall, cpu, wall * scale, cpu * scale)):
            self._acc[i] += value
        self._kernel_s = kernel_s
        self._w0, self._c0 = perf_counter(), process_time()

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self._busy = True
            try:
                self._close_slice()
            finally:
                self._busy = False

    def cut(self) -> list:
        """[wall, cpu, scaled wall, scaled cpu] since the previous cut."""
        self._busy = True
        try:
            self._close_slice()
            acc, self._acc = self._acc, [0.0, 0.0, 0.0, 0.0]
        finally:
            self._busy = False
        return acc


# ---------------------------------------------------------------------------


class _Library:
    """The thermotele modules the workloads and the span recorder use."""

    def __init__(self):
        import thermotele
        from thermotele import classical_limit, closed_form, sweeps

        self.sweeps = sweeps
        self.closed_form = closed_form
        self.classical_limit = classical_limit
        self.QuadratureGrid = thermotele.QuadratureGrid
        self.HarmonicAverages = thermotele.HarmonicAverages
        self.thermal_state = thermotele.thermal_state
        self.modules = {
            "sweeps": sweeps,
            "closed_form": closed_form,
            "classical_limit": classical_limit,
        }


def _environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _reconciliation_notes(tt) -> list:
    report = tt.closed_form.default_reconciliation()
    if report.mapping_name != RECONCILED_MAPPING or not (
        report.max_abs_error <= RECONCILIATION_TOL
    ):
        return [f"reconciliation {report.mapping_name} error {report.max_abs_error}"]
    return []


def run(config: dict) -> dict:
    """Set up, repeat the workload until ``seconds`` have passed, gate.

    Config keys: workload, seed, seconds, outdir, and optionally
    setup_only, trace, spans_path and tiny (small sizes for tests).  With
    ``trace`` the set-up and every second repetition run with the span
    recorder patched in, the others without, and nothing is scaled.
    """
    workload = WORKLOADS[config["workload"]]
    trace = bool(config.get("trace"))
    start = perf_counter()
    tt = _Library()
    import_s = perf_counter() - start
    recorder = SpanRecorder()
    clock = HostClock(None if trace else calibration_kernel())
    clock.start()
    try:
        with recorder.patched(tt.modules) if trace else nullcontext():
            if workload.reconciles:
                tt.closed_form.default_reconciliation()
        ready = clock.cut()
        setup_s = import_s + ready[0]
        scaled_setup_s = import_s * clock.first_scale + ready[2]
        if config.get("setup_only"):
            return {"setup_s": setup_s, "scaled_setup_s": scaled_setup_s}
        inputs = workload.inputs(config["seed"], config.get("tiny", False))
        outdir = Path(config["outdir"])
        reps, traced = [], []
        begin = perf_counter()
        while len(reps) < 1 + trace or perf_counter() - begin < config["seconds"]:
            k = len(reps)
            recorder.run_id = f"rep{k}"
            traced.append(trace and k % 2 == 1)
            calls = workload.calls(tt, inputs, outdir / f"rep{k}")
            with recorder.patched(tt.modules) if traced[-1] else nullcontext():
                output = [call() for call in calls]
            reps.append(Rep(*clock.cut(), output))
    finally:
        clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s,
        "scaled_setup_s": scaled_setup_s,
        "wall_s": [r.wall_s for r in reps],
        "cpu_s": [r.cpu_s for r in reps],
        "scaled_wall_s": [r.scaled_wall_s for r in reps],
        "scaled_cpu_s": [r.scaled_cpu_s for r in reps],
        "peak_rss_mb": peak_rss_mb,
        "env": _environment(),
    }
    evals, failed, notes = workload.gate(tt, inputs, reps, config["seed"], outdir)
    if workload.reconciles:
        setup_notes = _reconciliation_notes(tt)
        if setup_notes:
            failed, notes = evals * len(reps), setup_notes + notes
    result.update(evals=evals, failed=failed, notes=notes)
    if trace:
        on = [r for r, t in zip(reps, traced) if t]
        off = [r for r, t in zip(reps, traced) if not t]
        runs = {f"rep{k}" for k, t in enumerate(traced) if t}
        layers = layer_metrics(recorder.spans, len(on))
        layers["sweeps.reproduce_figure.bytes_written"] = statistics.median(
            sum(Path(p).stat().st_size for p in _paths(r)) if workload.writes_files else 0
            for r in on
        )
        layers["trace.overhead_frac"] = (
            statistics.median(r.wall_s for r in on) / statistics.median(r.wall_s for r in off)
            - 1.0
        )
        layers["trace.coverage_frac"] = covered_seconds(recorder.spans, runs) / sum(
            r.wall_s for r in on
        )
        result["layers"] = layers
        if config.get("spans_path"):
            Path(config["spans_path"]).write_text(json.dumps(recorder.to_rows()))
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
