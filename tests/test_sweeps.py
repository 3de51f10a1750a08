import json
import math
import random

import numpy as np
import pytest

from thermotele.averaging import HarmonicAverages, QuadratureGrid
from thermotele.spin_models import thermal_state
from thermotele.sweeps import (
    ENGINES,
    SweepRecord,
    SweepSpec,
    evaluate_point,
    reproduce_figure,
    run_sweep,
    run_sweeps,
    write_sweep_csv,
)


class TestSweepSpec:
    def test_validates_range(self):
        with pytest.raises(ValueError):
            SweepSpec("ising", {"lam": 0.7}, "kt", 2.0, 1.0, 10)

    def test_validates_steps(self):
        with pytest.raises(ValueError):
            SweepSpec("ising", {"lam": 0.7}, "kt", 0.1, 1.0, 1)

    def test_validates_positive_kt(self):
        with pytest.raises(ValueError):
            SweepSpec("ising", {"lam": 0.7}, "kt", -0.1, 1.0, 5)
        with pytest.raises(ValueError):
            SweepSpec("ising", {"lam": 0.7, "kt": 0.0}, "lambda", 0.1, 1.0, 5)

    def test_validates_names(self):
        with pytest.raises(ValueError):
            SweepSpec("heisenberg3d", {}, "kt", 0.1, 1.0, 5)
        with pytest.raises(ValueError):
            SweepSpec("ising", {"lam": 1.0}, "kt", 0.1, 1.0, 5, engine="magic")

    def test_alias_normalization(self):
        spec = SweepSpec("xy", {"lambda": 0.9, "kT": 0.5}, "delta", 0.0, 1.0, 5)
        assert spec.fixed == {"lam": 0.9, "kt": 0.5}

    @pytest.mark.parametrize(
        "model, fixed, swept",
        [
            ("xx", {"lam": 0.7, "kt": 5.0}, "kt"),
            ("ising", {"lam": 0.3, "kt": 1.0}, "lambda"),
            ("ising", {"lambda": 0.3, "kt": 1.0}, "lam"),
        ],
    )
    def test_swept_variable_cannot_be_fixed(self, model, fixed, swept):
        # the grid once overrode the fixed value without a word
        with pytest.raises(ValueError, match="swept variable .* also has a fixed value"):
            SweepSpec(model, fixed, swept, 0.1, 1.0, 2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "fixed, swept, start, stop",
        [
            ({"lam": 0.7}, "kt", 0.1, math.inf),
            ({"kt": 1.0}, "lambda", -math.inf, 1.0),
        ],
    )
    def test_range_must_be_finite(self, fixed, swept, start, stop):
        with pytest.raises(ValueError, match="sweep range must be finite"):
            SweepSpec("ising", fixed, swept, start, stop, 3)

    @pytest.mark.parametrize(
        "fixed, swept, start",
        [({"lam": 0.7}, "kt", 1e-320), ({"zeta": 0.5, "kt": 1e-320}, "lambda", 0.1)],
    )
    def test_every_kt_has_a_finite_inverse(self, fixed, swept, start):
        with pytest.raises(ValueError, match="finite 1/kT"):
            SweepSpec("xy", fixed, swept, start, 1.0, 3)
        # kT = inf (beta = 0) stays valid
        SweepSpec("xy", {"zeta": 0.5, "kt": math.inf}, "lambda", 0.1, 1.0, 3)


class TestRunSweep:
    def test_ising_kt_sweep_shape(self):
        spec = SweepSpec("ising", {"lam": 0.7}, "kt", 0.05, 3.0, 40, engine="closed")
        records = run_sweep(spec)
        assert len(records) == 40
        kts = [r.kt for r in records]
        assert kts == sorted(kts)
        det = np.array([r.det_value for r in records])
        prob = np.array([r.prob_value for r in records])
        # deterministic efficiency decreases monotonically with kT
        assert np.all(np.diff(det) < 1e-12)
        # near-perfect probabilistic teleportation below kT = 0.2
        for r in records:
            if r.kt < 0.2:
                assert r.prob_value >= 0.99
        assert np.all(prob >= det - 1e-10)

    def test_xx_probabilistic_advantage(self):
        spec = SweepSpec("xx", {"lam": 0.7}, "kt", 0.05, 3.0, 40, engine="closed")
        records = run_sweep(spec)
        assert not any(r.above_classical_det for r in records)
        assert any(r.above_classical_prob for r in records)
        prob = np.array([r.prob_value for r in records])
        assert np.any(np.diff(prob) > 1e-9)  # grows with kT somewhere

    def test_infinite_temperature_point(self):
        for engine in ("closed", "oracle"):
            r = evaluate_point(
                "xxz",
                {"bigj": 1.0, "delta": 0.5, "field": 4.0},
                1e6,
                engine=engine,
                grid=QuadratureGrid(16, 16),
            )
            assert abs(r.det_value - 0.5) < 1e-5
            assert abs(r.prob_value - 0.5) < 1e-5

    def test_engine_both_agreement(self):
        spec = SweepSpec(
            "xy",
            {"lam": 0.8, "zeta": 0.5},
            "kt",
            0.1,
            2.0,
            8,
            engine="both",
            grid=QuadratureGrid(32, 32),
        )
        for r in run_sweep(spec):
            assert r.engine_disagreement is not None
            assert r.engine_disagreement <= 1e-8

    def test_near_degenerate_gap_at_low_temperature(self):
        # the phi-sector gap parameter eta is only 5e-9, but beta eta is 50,
        # far outside the small-argument range of sinh(beta x)/x
        r = evaluate_point(
            "raw", {"jx": 1 + 2.5e-9, "jy": 1 - 2.5e-9, "jz": -2}, 1e-10, engine="both"
        )
        assert r.engine_disagreement <= 1e-8

    def test_oracle_reports_angles_like_the_closed_engine(self):
        # five seeded sweeps of 12 points; where the mirror sets of a family
        # tie (phi+ at pi/4, phi- at 3pi/4) roundoff decides which set wins,
        # so the oracle must report both as the family at one angle
        rng = random.Random(101)
        u = rng.uniform
        specs = [
            ("ising", {"lam": u(0.3, 1.7)}, "kt", 0.05, 3.0),
            ("xx", {"lam": u(0.3, 1.7)}, "kt", 0.05, 3.0),
            ("xy", {"lam": u(0.3, 1.7), "zeta": u(0.1, 0.9)}, "kt", 0.05, 3.0),
            ("xxx", {"bigj": u(0.5, 2.0), "field": u(2.0, 8.0)}, "kt", 0.05, 10.0),
            ("xxz", {"bigj": u(0.5, 2.0), "field": u(2.0, 8.0), "kt": u(0.1, 1.0)},
             "delta", -2.0, 3.0),
        ]
        compared = 0
        for spec in specs:
            oracle = run_sweep(SweepSpec(*spec, 12, engine="both"))
            closed = run_sweep(SweepSpec(*spec, 12, engine="closed"))
            for o, c in zip(oracle, closed):
                rho = thermal_state(o.params, o.kt).rho
                det = HarmonicAverages(rho).joint_coef.sum(axis=1)
                amplitude = 0.5 * np.hypot(det[0] - det[1], det[2])
                best = np.argmax(0.5 * (det[0] + det[1]) + amplitude)
                if amplitude[best] <= 1e-9:
                    continue  # flat maximum: every angle is optimal
                assert o.det_set == c.det_set
                assert abs(o.det_phi - c.det_phi) <= 1e-9
                compared += 1
        assert compared >= 40

    def test_engines_pick_the_same_branch_on_a_tie(self):
        # uncoupled qubits in a field: both branches reach the
        # probabilistic optimum to 1e-13, and the two engines once reported
        # psi+ at success rate 0.731 and phi+ at 0.269
        values = {"ha": 0.5, "hb": -0.2}
        closed = evaluate_point("raw", values, 1.0, engine="closed")
        oracle = evaluate_point("raw", values, 1.0, engine="oracle")
        assert (closed.prob_set, closed.prob_pair) == (oracle.prob_set, oracle.prob_pair)
        assert abs(closed.success_rate - oracle.success_rate) <= 1e-6

    @pytest.mark.parametrize("engines", [[e] * 3 for e in ENGINES] + [list(ENGINES)])
    def test_many_sweeps_equal_one_sweep_at_a_time(self, engines):
        # the closed half runs once over every spec's points; each record
        # must come out as its own sweep gives it, also with engines mixed
        grid = QuadratureGrid(8, 8)
        specs = [
            SweepSpec(model, fixed, swept, start, stop, steps, engine=engine, grid=grid)
            for engine, (model, fixed, swept, start, stop, steps) in zip(engines, [
                ("ising", {"lam": 0.7}, "kt", 0.05, 3.0, 5),
                ("xxz", {"bigj": 1.0, "field": 4.0, "kt": 0.3}, "delta", -2.0, 3.0, 4),
                ("xy", {"kt": 1.0, "zeta": 0.5}, "lambda", 0.02, 2.5, 6),
            ])
        ]
        assert run_sweeps(specs) == [run_sweep(spec) for spec in specs]

    def test_raw_model(self):
        r = evaluate_point(
            "raw", {"jx": 1.0, "jy": -0.5, "jz": 0.3, "ha": 1.0, "hb": -0.2}, 0.5
        )
        assert isinstance(r, SweepRecord)
        assert 1.0 / 3.0 <= r.det_value <= 1.0
        assert r.prob_value >= r.det_value - 1e-10


class TestModelInput:
    @pytest.mark.parametrize(
        "model, values, missing",
        [
            ("xxz", {"bigj": 1.0, "field": 4.0}, "delta"),
            ("xy", {"zeta": 0.5}, "lam"),
            ("xxx", {"bigj": 1.0}, "field"),
        ],
    )
    def test_missing_parameter_is_named(self, model, values, missing):
        with pytest.raises(ValueError, match=f"{model!r} needs a value for {missing}$"):
            evaluate_point(model, values, 0.5, engine="oracle")
        with pytest.raises(ValueError, match=f"{model!r} needs a value for {missing}$"):
            run_sweep(SweepSpec(model, values, "kt", 0.1, 1.0, 3))

    @pytest.mark.parametrize(
        "model, values, unread",
        [
            ("xxx", {"bigj": 1.0, "field": 8.0, "delta": 0.3}, "delta"),  # pinned to 1
            ("ising", {"lam": 0.7, "zeta": 0.2}, "zeta"),  # pinned to 1
            ("raw", {"jx": 1.0, "lam": 0.7}, "lam"),
            ("xx", {"lam": 0.7, "field": 4.0}, "field"),
        ],
    )
    def test_unread_parameter_is_rejected(self, model, values, unread):
        # a value the model does not read was once evaluated with the pinned
        # or default value instead
        message = f"model {model!r} does not read {unread}$"
        with pytest.raises(ValueError, match=message):
            evaluate_point(model, values, 0.5, engine="oracle")
        with pytest.raises(ValueError, match=message):
            run_sweep(SweepSpec(model, values, "kt", 0.1, 1.0, 3))

    def test_alias_beside_its_key_is_rejected(self):
        # the later of the two once won without a word
        with pytest.raises(ValueError, match="^lambda and lam name one value$"):
            evaluate_point("xx", {"lam": 0.7, "lambda": 1.3}, 0.1)
        with pytest.raises(ValueError, match="^lambda and lam name one value$"):
            SweepSpec("xx", {"lambda": 0.7, "lam": 1.3}, "kt", 0.1, 1.0, 2)

    def test_only_lambda_and_kt_have_second_names(self):
        # j and h were once read as bigj and field
        message = "^model 'xxx' needs values for bigj and field; it does not read j and h$"
        with pytest.raises(ValueError, match=message):
            evaluate_point("xxx", {"j": 1.0, "h": 8.0}, 0.5)

    @pytest.mark.parametrize("key", ["kt", "kT"])
    def test_kt_is_not_a_value(self, key):
        # a kt in values was once ignored in favour of the kt argument
        with pytest.raises(ValueError, match="kT is the kt argument"):
            evaluate_point("xx", {"lam": 0.7, key: 5.0}, 0.1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("engine", ENGINES)
    def test_kt_with_an_overflowing_inverse_is_rejected(self, engine):
        with pytest.raises(ValueError, match="finite 1/kT"):
            evaluate_point("raw", {"jx": 1.0}, 1e-320, engine)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_couplings_are_rejected(self):
        # these once gave NaN efficiencies with exit status 0
        with pytest.raises(ValueError, match="couplings too large"):
            evaluate_point("raw", {"jx": 1e308, "jy": 1e308}, 1.0)

    def test_every_missing_and_unread_key_is_named(self):
        with pytest.raises(
            ValueError, match="'xxx' needs values for bigj and field; it does not read delta$"
        ):
            evaluate_point("xxx", {"delta": 1.0}, 0.5)

    @pytest.mark.parametrize(
        "model, fixed, swept",
        [
            ("ising", {"lam": 0.7}, "delta"),  # not read
            ("xx", {"lam": 0.7}, "bigj"),  # not read
            ("xxx", {"bigj": 1.0, "field": 8.0}, "delta"),  # pinned to 1
            ("raw", {"jx": 1.0}, "lambda"),  # raw sweeps only kt
        ],
    )
    def test_unusable_sweep_variable_is_rejected(self, model, fixed, swept):
        with pytest.raises(ValueError, match=f"{model!r} cannot sweep"):
            run_sweep(SweepSpec(model, {**fixed, "kt": 1.0}, swept, 0.0, 1.0, 3))

    @pytest.mark.parametrize(
        "bad",
        [
            SweepSpec("ising", {"lam": 0.7, "kt": 1.0}, "delta", 0.0, 1.0, 3),
            SweepSpec("xxz", {"bigj": 1.0, "field": 4.0}, "kt", 0.1, 1.0, 3),
            SweepSpec("xx", {"lam": 0.7, "delta": 3.0}, "kt", 0.1, 1.0, 3),
        ],
    )
    def test_bad_spec_fails_before_any_point(self, bad, monkeypatch):
        import thermotele.sweeps as sweeps

        calls = []
        monkeypatch.setattr(sweeps, "evaluate_point", lambda *args, **kw: calls.append(args))
        good = SweepSpec("xx", {"lam": 0.7}, "kt", 0.1, 1.0, 3, engine="oracle")
        with pytest.raises(ValueError):
            run_sweeps([good, bad])
        assert calls == []


class TestCsvOutput:
    def test_byte_stable(self, tmp_path):
        spec = SweepSpec("ising", {"lam": 1.3}, "kt", 0.1, 1.0, 6, engine="closed")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(run_sweep(spec), p1)
        write_sweep_csv(run_sweep(spec), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_format(self, tmp_path):
        spec = SweepSpec("xxx", {"bigj": 1.5, "field": 8.0}, "kt", 0.5, 2.0, 3)
        path = tmp_path / "out.csv"
        write_sweep_csv(run_sweep(spec), path)
        text = path.read_text(encoding="utf-8")
        assert "\r" not in text
        lines = text.splitlines()
        header = lines[0].split(",")
        assert header[0] == "schema_version"
        assert len(lines) == 4
        row = lines[1].split(",")
        assert len(row) == len(header)
        assert row[0] == "1"
        # lam/zeta columns empty for the xxz family
        assert row[header.index("lam")] == ""
        assert row[header.index("engine_disagreement")] == ""


class TestFigures:
    def test_fig2_outputs(self, tmp_path):
        written = reproduce_figure("fig2", tmp_path, steps=8)
        names = {p.name for p in written}
        assert {
            "ising_det.csv", "ising_prob.csv", "ising_success.csv",
            "fig2.gp", "fig2_meta.json",
        } <= names
        det_lines = (tmp_path / "ising_det.csv").read_text().splitlines()
        assert det_lines[0] == "schema_version,curve,x_name,x,value,branch,phi"
        assert len(det_lines) == 1 + 2 * 8  # two lambda curves
        meta = json.loads((tmp_path / "fig2_meta.json").read_text())
        assert meta["figure"] == "fig2"
        assert "implementer_chosen" in meta and "stated_by_source" in meta
        script = (tmp_path / "fig2.gp").read_text()
        assert "ising_det.csv" in script and "2.0/3.0" in script

    def test_fig6_probabilistic_only_crossing(self, tmp_path):
        reproduce_figure("fig6", tmp_path, steps=16)
        lines = (tmp_path / "xxz_det.csv").read_text().splitlines()[1:]
        plines = (tmp_path / "xxz_prob.csv").read_text().splitlines()[1:]
        limit = 2.0 / 3.0
        neg_det = [
            float(l.split(",")[4]) for l in lines if l.split(",")[1] == "delta=-0.1"
        ]
        neg_prob = [
            float(l.split(",")[4]) for l in plines if l.split(",")[1] == "delta=-0.1"
        ]
        assert max(neg_det) <= limit
        assert max(neg_prob) > limit

    def test_fig7_branch_switch_cusps(self, tmp_path):
        reproduce_figure("fig7", tmp_path, steps=24)
        lines = (tmp_path / "xy_lambda_det.csv").read_text().splitlines()[1:]
        branches = {
            l.split(",")[5] for l in lines if l.split(",")[1] == "kt=0.1"
        }
        assert len(branches) > 1  # optimal branch switches along the sweep

    @staticmethod
    def _compare_labels(engine, steps, outdir):
        """Points whose labels under ``engine`` equal the closed engine's."""
        for fig in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7"):
            reproduce_figure(fig, outdir / "closed", steps=steps)
            reproduce_figure(fig, outdir / engine, engine=engine, steps=steps)
        compared = 0
        for path in sorted((outdir / "closed").glob("*_*.csv")):
            if path.stem.endswith("_success"):
                continue
            closed = [row.split(",") for row in path.read_text().splitlines()]
            other = [row.split(",") for row in (outdir / engine / path.name)
                     .read_text().splitlines()]
            # branch (and pair) columns: 5 and, for prob files, 7
            labels = [5, 7] if path.stem.endswith("_prob") else [5]
            for c, o in zip(closed[1:], other[1:]):
                assert [c[k] for k in labels] == [o[k] for k in labels], (path.name, c[:4])
                compared += 1
        return compared

    def test_engines_report_the_same_labels(self, tmp_path):
        assert self._compare_labels("oracle", 6, tmp_path) == 2 * 22 * 6
        # engine "both" checks only values against the closed forms, so its
        # labels are compared here
        assert self._compare_labels("both", 8, tmp_path / "both") == 2 * 22 * 8

    def test_unknown_figure(self, tmp_path):
        with pytest.raises(ValueError):
            reproduce_figure("fig99", tmp_path)
