"""Self-tests of the benchmark: tiny smoke runs, the span wrapper, self times.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def _tiny(workload, tmp_path, **extra):
    config = {
        "workload": workload, "seed": 3, "seconds": 0,
        "outdir": str(tmp_path / "out"), "tiny": True, **extra,
    }
    return worker.run(config)


@pytest.mark.parametrize("workload", sorted(worker.WORKLOADS))
def test_tiny_run_passes_its_gates(workload, tmp_path):
    result = _tiny(workload, tmp_path)
    assert result["failed"] == 0, result["notes"]
    assert result["evals"] > 0
    assert len(result["wall_s"]) == len(result["cpu_s"]) == 1
    assert result["setup_s"] > 0 and result["peak_rss_mb"] > 0
    result["setups"] = [result]
    metrics = run.end_to_end(result)
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert metrics["passed_frac"] == 1.0


def test_patched_restores_the_original_functions():
    lib = worker._Library()
    originals = {
        (m, a): getattr(lib.modules[m], a) for m, a in spans.TRACED_NAMES
    }
    assert {spans.layer_name(fn) for fn in originals.values()} == set(spans.LAYERS)
    recorder = spans.SpanRecorder()
    with pytest.raises(RuntimeError):
        with recorder.patched(lib.modules):
            for (m, a), fn in originals.items():
                assert getattr(lib.modules[m], a) is not fn
            lib.sweeps.thermal_state(lib.sweeps.HeisenbergParams(1, 1, 1, 0, 0), 1.0)
            raise RuntimeError("leave the block early")
    for (m, a), fn in originals.items():
        assert getattr(lib.modules[m], a) is fn
    assert [s.name for s in recorder.spans] == ["spin_models.thermal_state"]


def test_self_time_never_exceeds_the_parent_span(tmp_path):
    path = tmp_path / "spans.json"
    result = _tiny("oracle_sweeps", tmp_path, trace=True, spans_path=str(path))
    rows = [spans.Span(*row) for row in json.loads(path.read_text())]
    assert {s.parent for s in rows} - {None}, "expected nested spans"
    own = spans.self_times(rows)
    for s, self_s in zip(rows, own):
        assert -1e-9 <= self_s <= s.end - s.start
        if s.parent is not None:
            parent = rows[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
            assert self_s <= parent.end - parent.start
    for layer in spans.LAYERS:
        assert result["layers"][f"{layer}.self_s"] <= result["layers"][f"{layer}.total_s"]
    assert result["layers"]["sweeps.evaluate_point.calls"] == 10
    assert 0.0 < result["layers"]["trace.coverage_frac"] <= 1.0
    assert set(result["layers"]) == set(run.per_layer_units())


def test_run_refuses_a_directory_without_the_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    args = ["--workload", "classical_bound", "--seed", "1", "--seconds", "1"]
    assert run.main(args) == 2
    assert capsys.readouterr().out == ""


def test_host_clock_scales_by_the_calibration_kernel():
    clock = worker.HostClock(lambda: worker.CALIBRATION_S / 2.0)  # a host twice as fast
    clock.start()
    try:
        sum(i * i for i in range(200_000))
        wall, cpu, scaled_wall, scaled_cpu = clock.cut()
    finally:
        clock.stop()
    assert wall > 0 and cpu > 0
    assert scaled_wall == pytest.approx(2.0 * wall)
    assert scaled_cpu == pytest.approx(2.0 * cpu)
