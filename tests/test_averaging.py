import math

import numpy as np
import pytest
from references import average_all_montecarlo, det_for

from thermotele.averaging import SET_ORDER, HarmonicAverages, QuadratureGrid, average_all
from thermotele.classical_limit import random_separable_channel
from thermotele.densmat import DensityMatrix, PureQubit
from thermotele.spin_models import HeisenbergParams, thermal_state
from thermotele.teleport import CorrectionLabel, bell_basis, correction_set, run_outcome

SINGLET = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)


def random_thermal(rng, field=True):
    vals = rng.uniform(-3, 3, 5)
    if not field:
        vals[3] = vals[4] = 0.0
    p = HeisenbergParams(*vals)
    return thermal_state(p, float(rng.uniform(0.05, 5.0))).rho


class TestQuadratureGrid:
    def test_alpha_weights_normalized(self):
        for n in (8, 17, 64):
            _, w = QuadratureGrid(n, 8).alpha_nodes()
            assert abs(w.sum() - 1.0) < 1e-14

    def test_gamma_uniform(self):
        g, w = QuadratureGrid(8, 16).gamma_nodes()
        assert np.allclose(w, 1 / 16)
        assert g[0] == 0.0 and g[-1] < 2 * math.pi

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError):
            average_all(DensityMatrix.maximally_mixed(4), 0.5, QuadratureGrid(4, 4))

    @pytest.mark.parametrize("nodes", [(4, 4), (7, 64), (64, 7)])
    def test_too_small_grid_rejected_at_construction(self, nodes):
        with pytest.raises(ValueError, match="at least 8 nodes"):
            QuadratureGrid(*nodes)


class TestAverageAll:
    def test_maximally_mixed_channel(self):
        av = average_all(DensityMatrix.maximally_mixed(4), 0.7)
        assert np.allclose(av.qbar, 0.25, atol=1e-14)
        assert np.allclose(av.fbar_cond, 0.5, atol=1e-13)
        assert np.allclose(av.fbar_det, 0.5, atol=1e-13)

    def test_ideal_singlet_protocol(self):
        av = average_all(DensityMatrix.from_pure(SINGLET), math.pi / 4)
        assert abs(det_for(av, CorrectionLabel.PSI_MINUS) - 1.0) < 1e-13
        assert np.allclose(av.qbar, 0.25, atol=1e-14)

    def test_wrong_set_average_is_one_third(self):
        # E[4 a2 (1-a2) sin^2 g] = 4 * (1/6) * (1/2)
        av = average_all(DensityMatrix.from_pure(SINGLET), math.pi / 4)
        assert abs(det_for(av, CorrectionLabel.PHI_PLUS) - 1.0 / 3.0) < 1e-13

    def test_law_of_total_expectation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            av = average_all(random_thermal(rng), float(rng.uniform(0, math.pi)))
            recon = (av.qbar[:, None] * av.fbar_cond).sum(axis=0)
            assert np.max(np.abs(recon - av.fbar_det)) < 1e-10

    def test_outcome_pair_symmetries(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            av = average_all(random_thermal(rng), float(rng.uniform(0, math.pi)))
            assert abs(av.qbar[0] - av.qbar[3]) < 1e-10
            assert abs(av.qbar[1] - av.qbar[2]) < 1e-10
            assert abs(av.qbar.sum() - 1.0) < 1e-10
            assert np.max(np.abs(av.fbar_cond[0] - av.fbar_cond[3])) < 1e-10
            assert np.max(np.abs(av.fbar_cond[1] - av.fbar_cond[2])) < 1e-10

    def test_no_field_conditional_equals_deterministic(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            av = average_all(
                random_thermal(rng, field=False), float(rng.uniform(0, math.pi))
            )
            for j in range(4):
                assert np.max(np.abs(av.fbar_cond[j] - av.fbar_det)) < 1e-10

    def test_quadrature_already_exact_at_default(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            channel = random_thermal(rng)
            phi = float(rng.uniform(0, math.pi))
            a = average_all(channel, phi, QuadratureGrid(64, 64))
            b = average_all(channel, phi, QuadratureGrid(128, 128))
            assert np.max(np.abs(a.qbar - b.qbar)) < 1e-12
            assert np.max(np.abs(a.fbar_det - b.fbar_det)) < 1e-12
            assert np.nanmax(np.abs(a.fbar_cond - b.fbar_cond)) < 1e-12

    def test_undefined_entries_flagged(self):
        # |B1(pi/2)> = |11> never fires against a |00> channel
        ket = np.zeros(4, dtype=complex)
        ket[0] = 1.0
        av = average_all(DensityMatrix.from_pure(ket), math.pi / 2)
        assert not av.defined[0]
        assert np.isnan(av.fbar_cond[0]).all()
        assert av.defined[1]  # |B2(pi/2)> = |00> always fires

    def test_matches_literal_protocol_loop(self):
        # anchor the oracle to run_outcome on a small grid, for every set
        # and outcome, on a real thermal channel and a complex one
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        full_rank = a @ a.conj().T
        channels = (random_thermal(rng), DensityMatrix(full_rank / np.trace(full_rank)))
        grid = QuadratureGrid(8, 8)
        a2, wa = grid.alpha_nodes()
        gs, wg = grid.gamma_nodes()
        sets = [correction_set(label) for label in SET_ORDER]
        for channel in channels:
            h = HarmonicAverages(channel, grid)
            for phi in (0.0, 0.9, 2.0):
                av = average_all(channel, phi, grid)
                basis = bell_basis(phi)
                for j in (1, 2, 3, 4):
                    den = 0.0
                    num = np.zeros(4)
                    for x, w in zip(a2, wa):
                        for g in gs:
                            q = PureQubit(float(x), float(g))
                            for e, cs in enumerate(sets):
                                out = run_outcome(q, channel, basis, cs, j)
                                num[e] += w * wg[0] * out.probability * out.fidelity
                            # the outcome probability is the same for every set
                            den += w * wg[0] * out.probability
                    assert abs(den - av.qbar[j - 1]) < 1e-13
                    assert np.max(np.abs(num - h.joint(phi)[j - 1])) < 1e-13

    def test_rejects_invalid_channel(self):
        for bad in (2 * np.eye(4), np.triu(np.ones((4, 4))) / 4, np.eye(2) / 2):
            with pytest.raises(ValueError):
                average_all(bad, 0.3)
            with pytest.raises(ValueError):
                HarmonicAverages(bad, QuadratureGrid(8, 8))


class TestMonteCarlo:
    def test_mixed_channel_mean(self):
        av = average_all_montecarlo(DensityMatrix.maximally_mixed(4), 0.8, 10_000, 7)
        for e in range(4):
            tol = max(4 * av.fbar_det_stderr[e], 1e-12)
            assert abs(av.fbar_det[e] - 0.5) <= tol

    def test_matches_quadrature_within_four_sigma(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            channel = random_thermal(rng)
            phi = float(rng.uniform(0, math.pi))
            exact = average_all(channel, phi)
            mc = average_all_montecarlo(channel, phi, 20_000, int(rng.integers(1 << 31)))
            for j in range(4):
                tol = max(4 * mc.qbar_stderr[j], 1e-12)
                assert abs(mc.qbar[j] - exact.qbar[j]) <= tol
            for e in range(4):
                tol = max(4 * mc.fbar_det_stderr[e], 1e-12)
                assert abs(mc.fbar_det[e] - exact.fbar_det[e]) <= tol
                for j in range(4):
                    if exact.defined[j]:
                        tol = max(4 * mc.fbar_cond_stderr[j, e], 1e-12)
                        assert abs(mc.fbar_cond[j, e] - exact.fbar_cond[j, e]) <= tol

    def test_fixed_seed_reproducible(self):
        channel = DensityMatrix.maximally_mixed(4)
        a = average_all_montecarlo(channel, 0.3, 2000, 123)
        b = average_all_montecarlo(channel, 0.3, 2000, 123)
        assert np.array_equal(a.qbar, b.qbar)
        assert np.array_equal(a.fbar_cond, b.fbar_cond)
        assert np.array_equal(a.fbar_det, b.fbar_det)

    def test_rejects_few_samples(self):
        with pytest.raises(ValueError):
            average_all_montecarlo(DensityMatrix.maximally_mixed(4), 0.3, 10, 0)


class TestHarmonicAverages:
    def test_matches_average_all(self):
        # average_all reads the same tables, so compare across grids: the
        # smallest exact grid's map against the default grid's
        rng = np.random.default_rng(6)
        for _ in range(10):
            channel = random_thermal(rng)
            h = HarmonicAverages(channel)
            for phi in rng.uniform(0, math.pi, 4):
                a = average_all(channel, float(phi), QuadratureGrid(8, 8))
                b = h.at(float(phi))
                assert np.max(np.abs(a.qbar - b.qbar)) < 1e-13
                assert np.max(np.abs(a.fbar_det - b.fbar_det)) < 1e-13
                assert np.nanmax(np.abs(a.fbar_cond - b.fbar_cond)) < 1e-12

    def test_stacked_tables_equal_one_at_a_time(self):
        # the stack goes through the same matrix-vector product per channel
        rng = np.random.default_rng(11)
        channels = [random_thermal(rng).mat for _ in range(100)]
        channels += [random_separable_channel(rng).density().mat for _ in range(100)]
        for grid in (QuadratureGrid(16, 16), QuadratureGrid()):
            stacked = HarmonicAverages(np.array(channels), grid)
            assert stacked.q_coef.shape == (200, 3, 4)
            assert stacked.joint_coef.shape == (200, 3, 4, 4)
            for k, channel in enumerate(channels):
                alone = HarmonicAverages(channel, grid)
                assert np.array_equal(stacked.q_coef[k], alone.q_coef)
                assert np.array_equal(stacked.joint_coef[k], alone.joint_coef)

    def test_stacked_average_all_equals_one_at_a_time(self):
        # thermal and separable channels at random angles, plus product
        # channels at phi = 0 and pi/2, where two outcomes are unreachable
        # and their conditional fidelities NaN
        rng = np.random.default_rng(12)
        channels = [random_thermal(rng).mat for _ in range(60)]
        channels += [random_separable_channel(rng).density().mat for _ in range(60)]
        phis = list(rng.uniform(0, math.pi, len(channels)))
        for ket in np.eye(4, dtype=complex):
            channels += [DensityMatrix.from_pure(ket).mat] * 2
            phis += [0.0, math.pi / 2]
        phis = np.array(phis)
        for grid in (QuadratureGrid(), QuadratureGrid(8, 8)):
            stacked = average_all(np.array(channels), phis, grid)
            assert stacked.qbar.shape == (128, 4) and stacked.fbar_cond.shape == (128, 4, 4)
            assert np.array_equal(stacked.phi, phis)
            assert np.isnan(stacked.fbar_cond).any()
            for k, channel in enumerate(channels):
                alone = average_all(channel, phis[k], grid)
                for name in ("qbar", "fbar_det", "fbar_cond", "defined"):
                    row, want = getattr(stacked, name)[k], getattr(alone, name)
                    assert row.shape == want.shape and row.tobytes() == want.tobytes()

    def test_vectorized_over_phi(self):
        rng = np.random.default_rng(7)
        h = HarmonicAverages(random_thermal(rng))
        phis = np.linspace(0, math.pi, 11)
        q = h.qbar(phis)
        assert q.shape == (11, 4)
        joint = h.joint(phis)
        assert joint.shape == (11, 4, 4)
        for i, phi in enumerate(phis):
            assert np.allclose(q[i], h.qbar(float(phi)), atol=1e-15)
            assert np.allclose(joint[i], h.joint(float(phi)), atol=1e-15)

    def test_pair_quantities(self):
        rng = np.random.default_rng(8)
        channel = random_thermal(rng)
        h = HarmonicAverages(channel)
        phi = 0.77
        av = h.at(phi)
        assert abs(h.pair_probability(phi, (1, 4)) - (av.qbar[0] + av.qbar[3])) < 1e-14
        joint = h.joint(phi)
        pair = (joint[0] + joint[3]) / h.pair_probability(phi, (1, 4))
        # with F1 = F4 the pair-conditional equals the per-outcome value
        assert np.max(np.abs(pair - av.fbar_cond[0])) < 1e-10


class TestFullyEntangledFraction:
    """Independent physics: with inputs uniform on the Bloch sphere, the
    standard protocol with the corrections matched to Bell state B has
    average fidelity (2 <B|rho|B> + 1) / 3, where <B|rho|B> is the channel's
    overlap with B (its fully entangled fraction when B is the best Bell
    state; Horodecki, Horodecki & Horodecki, PRA 60, 1888 (1999))."""

    BELL = {
        CorrectionLabel.PHI_PLUS: np.array([1, 0, 0, 1]) / math.sqrt(2),
        CorrectionLabel.PHI_MINUS: np.array([1, 0, 0, -1]) / math.sqrt(2),
        CorrectionLabel.PSI_PLUS: np.array([0, 1, 1, 0]) / math.sqrt(2),
        CorrectionLabel.PSI_MINUS: np.array([0, 1, -1, 0]) / math.sqrt(2),
    }

    def test_deterministic_efficiency_at_quarter_pi(self):
        rng = np.random.default_rng(18)
        worst = 0.0
        for kt in np.logspace(-2, 2, 200):
            rho = thermal_state(HeisenbergParams(*rng.uniform(-3, 3, 5)), kt).rho
            av = average_all(rho, math.pi / 4, QuadratureGrid(8, 8))
            for e, label in enumerate(SET_ORDER):
                ket = self.BELL[label]
                overlap = float(np.real(ket @ rho.mat @ ket))
                worst = max(worst, abs(av.fbar_det[e] - (2.0 * overlap + 1.0) / 3.0))
        assert worst <= 1e-13
