"""thermotele benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload figures_closed --seed 1 --seconds 15 --trace 0

Every measurement happens in fresh interpreters started by this script
(``worker.py``), with ``src/`` on ``PYTHONPATH`` and the BLAS thread pool
pinned.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones from a traced run; the last line of standard output is the
JSON result.  See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic

from spans import LAYERS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("figures_closed", "oracle_sweeps", "classical_bound")
# set-up is timed in this many fresh processes per run, the timed one
# included, and reported as their median
SETUP_SAMPLES = 4
# pinned so that every commit is measured with the same thread setting;
# on the 2-core reference host a second OpenBLAS thread only spins
# (oracle_sweeps: CPU ~2x wall, wall no shorter) and adds noise
BLAS_THREADS = "1"
# a run must end within 180 s; workers that overrun are killed
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "evals_per_s": "1/s",
    "cpu_ms_per_eval": "ms",
    "peak_rss_mb": "MB",
    "passed_frac": "ratio",
}


def per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.total_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units["sweeps.reproduce_figure.bytes_written"] = "bytes"
    units["trace.overhead_frac"] = "ratio"
    units["trace.coverage_frac"] = "ratio"
    return units


class BenchError(Exception):
    pass


def git_rev(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = root / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(config: dict, env: dict, deadline: float) -> dict:
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {config['workload']} exceeded the time limit") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker for {config['workload']} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(main: dict) -> dict:
    evals = main["evals"]
    attempted = evals * len(main["wall_s"])
    return {
        "setup_s": statistics.median(s["scaled_setup_s"] for s in main["setups"]),
        "evals_per_s": statistics.median(evals / w for w in main["scaled_wall_s"]),
        "cpu_ms_per_eval": statistics.median(1e3 * c / evals for c in main["scaled_cpu_s"]),
        "peak_rss_mb": main["peak_rss_mb"],
        "passed_frac": (attempted - main["failed"]) / attempted,
    }


def unscaled(result: dict) -> dict:
    """The raw figures behind the scaled metrics, and the host speed."""
    evals = result["evals"]
    raw = {
        "evals_per_s": statistics.median(evals / w for w in result["wall_s"]),
        "cpu_ms_per_eval": statistics.median(1e3 * c / evals for c in result["cpu_s"]),
        "host_speed": statistics.median(
            s / w for w, s in zip(result["wall_s"], result["scaled_wall_s"])
        ),
    }
    raw["setup_s"] = statistics.median(s["setup_s"] for s in result["setups"])
    return raw


def measure(args, root: Path, workdir: Path) -> tuple:
    deadline = monotonic() + DEADLINE_S
    env = worker_env(root)
    base = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        spans_path = root / ".perfbench" / f"spans-{args.workload}-{args.seed}.json"
        traced = run_worker(
            {**base, "seconds": args.seconds, "outdir": str(workdir / "traced"),
             "trace": True, "spans_path": str(spans_path)},
            env, deadline,
        )
        return traced, traced["layers"], per_layer_units()
    setups = [
        run_worker({**base, "setup_only": True}, env, deadline)
        for _ in range(SETUP_SAMPLES - 1)
    ]
    main = run_worker(
        {**base, "seconds": args.seconds, "outdir": str(workdir / "main")}, env, deadline
    )
    main["setups"] = setups + [{k: main[k] for k in ("setup_s", "scaled_setup_s")}]
    return main, end_to_end(main), END_TO_END_UNITS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "thermotele" / "__init__.py").is_file():
        print("perfbench: run from the repository root (no src/thermotele here)", file=sys.stderr)
        return 2
    env_record = {
        "git_rev": git_rev(root),
        "nproc": os.cpu_count(),
        "load_1min_at_start": os.getloadavg()[0],
        "blas_threads_pinned": BLAS_THREADS,
    }
    (root / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".perfbench"))
    try:
        result, metrics, units = measure(args, root, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env_record.update(result["env"])
    attempted = result["evals"] * len(result["wall_s"])
    print("env " + json.dumps(env_record, sort_keys=True))
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} reps={len(result['wall_s'])} "
        f"evals/rep={result['evals']} failed={result['failed']}/{attempted}"
    )
    for note in result["notes"]:
        print("gate: " + note)
    if not args.trace:
        print("unscaled: " + json.dumps(unscaled(result)))
    for name, value in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": attempted,
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
