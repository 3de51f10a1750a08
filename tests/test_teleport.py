import math
import re

import numpy as np
import pytest
from references import bell_basis_by_literals

from thermotele.averaging import HarmonicAverages
from thermotele.closed_form import reconciled_pair_rate
from thermotele.densmat import DensityMatrix, PureQubit
from thermotele.spin_models import HeisenbergParams, thermal_state
from thermotele.teleport import (
    OUTCOME_PAIRS,
    CorrectionLabel,
    bell_basis,
    correction_set,
    pair_index,
    run_outcome,
)

BELL_KETS = {
    CorrectionLabel.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
    CorrectionLabel.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2),
    CorrectionLabel.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2),
    CorrectionLabel.PSI_MINUS: np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2),
}


def random_input(rng):
    return PureQubit(float(rng.uniform()), float(rng.uniform(0, 2 * math.pi)))


def random_thermal_channel(rng):
    p = HeisenbergParams(*rng.uniform(-3, 3, 5))
    return thermal_state(p, float(rng.uniform(0.05, 5.0))).rho


class TestBellBasis:
    def test_standard_basis_at_quarter_pi(self):
        basis = bell_basis(math.pi / 4)
        for ket, expected in zip(basis.kets, BELL_KETS.values()):
            assert np.max(np.abs(np.abs(ket) - np.abs(expected))) < 1e-15

    def test_separable_at_zero(self):
        basis = bell_basis(0.0)
        e00 = np.zeros(4)
        e00[0] = 1
        assert np.allclose(basis.kets[0], e00)
        # |B2> = -|11> up to the printed sign; the projector is |11><11|
        p11 = np.zeros((4, 4))
        p11[3, 3] = 1
        assert np.allclose(basis.projectors[1], p11)

    def test_pairwise_orthogonality_at_third_pi(self):
        basis = bell_basis(math.pi / 3)
        assert abs(np.vdot(basis.kets[0], basis.kets[1])) < 1e-15

    @pytest.mark.parametrize("phi", np.linspace(-3.0, 6.0, 13))
    def test_projector_invariants(self, phi):
        basis = bell_basis(float(phi))
        total = np.zeros((4, 4), dtype=complex)
        for i, p in enumerate(basis.projectors):
            assert np.max(np.abs(p - p.conj().T)) < 1e-15
            assert np.max(np.abs(p @ p - p)) < 1e-12
            assert abs(np.trace(p) - 1.0) < 1e-12  # rank 1
            total += p
            for j, q in enumerate(basis.projectors):
                if i != j:
                    assert np.max(np.abs(p @ q)) < 1e-12
        assert np.max(np.abs(total - np.eye(4))) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            bell_basis(float("inf"))


class TestBellBasisBits:
    def test_kets_equal_the_literal_construction(self):
        # the kets come from the BELL_COS / BELL_SIN tables; the literal
        # kets they replaced must give the same bytes, projectors included
        rng = np.random.default_rng(22)
        angles = [0.0, math.pi / 4, math.pi / 2, 3.14159, math.pi, -0.0, -1e-300, 1e-300]
        angles += rng.uniform(0.0, math.pi, 300).tolist() + rng.uniform(-10, 10, 50).tolist()
        for phi in angles:
            new, old = bell_basis(phi), bell_basis_by_literals(phi)
            assert new.phi == old.phi
            for a, b in zip(new.kets + new.projectors, old.kets + old.projectors):
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes(), phi


class TestCorrectionSets:
    def test_phi_plus_starts_with_identity(self):
        cs = correction_set(CorrectionLabel.PHI_PLUS)
        assert np.allclose(cs.unitaries[0], np.eye(2))

    def test_psi_minus_ends_with_identity(self):
        cs = correction_set(CorrectionLabel.PSI_MINUS)
        assert np.allclose(cs.unitaries[3], np.eye(2))

    @pytest.mark.parametrize("label", list(CorrectionLabel))
    def test_unitarity_and_hilbert_schmidt_orthogonality(self, label):
        cs = correction_set(label)
        for i, u in enumerate(cs.unitaries):
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-14
            for j, v in enumerate(cs.unitaries):
                inner = np.trace(u @ v.conj().T)
                assert inner == (2.0 if i == j else 0.0)


class TestRunOutcome:
    def test_ideal_standard_protocol(self):
        rng = np.random.default_rng(0)
        basis = bell_basis(math.pi / 4)
        for label, ket in BELL_KETS.items():
            channel = DensityMatrix.from_pure(ket)
            cs = correction_set(label)
            for _ in range(5):
                q = random_input(rng)
                for j in (1, 2, 3, 4):
                    out = run_outcome(q, channel, basis, cs, j)
                    assert abs(out.probability - 0.25) < 1e-12
                    assert abs(out.fidelity - 1.0) < 1e-12

    def test_maximally_mixed_channel(self):
        rng = np.random.default_rng(1)
        channel = DensityMatrix.maximally_mixed(4)
        for phi in (0.3, math.pi / 4, 2.0):
            basis = bell_basis(phi)
            for label in CorrectionLabel:
                cs = correction_set(label)
                q = random_input(rng)
                for j in (1, 2, 3, 4):
                    out = run_outcome(q, channel, basis, cs, j)
                    assert abs(out.fidelity - 0.5) < 1e-12
                    assert np.max(np.abs(out.output_state.mat - np.eye(2) / 2)) < 1e-12
                    if phi == math.pi / 4:
                        assert abs(out.probability - 0.25) < 1e-12

    def test_wrong_set_on_singlet_phase_dependence(self):
        # a|0>+b|1| -> overlap (a* b - a b*): maximal for relative phase i,
        # zero for a real relative phase
        channel = DensityMatrix.from_pure(BELL_KETS[CorrectionLabel.PSI_MINUS])
        basis = bell_basis(math.pi / 4)
        cs = correction_set(CorrectionLabel.PHI_PLUS)
        out = run_outcome(PureQubit(0.5, math.pi / 2), channel, basis, cs, 1)
        assert abs(out.fidelity - 1.0) < 1e-12
        out = run_outcome(PureQubit(0.5, 0.0), channel, basis, cs, 1)
        assert abs(out.fidelity) < 1e-12

    def test_probability_completeness(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            q = random_input(rng)
            channel = random_thermal_channel(rng)
            basis = bell_basis(float(rng.uniform(0, math.pi)))
            cs = correction_set(CorrectionLabel.PHI_PLUS)
            total = sum(
                run_outcome(q, channel, basis, cs, j).probability for j in (1, 2, 3, 4)
            )
            assert abs(total - 1.0) < 1e-12

    def test_output_states_are_valid_density_matrices(self):
        # DensityMatrix construction inside run_outcome enforces the state
        # invariants; it must succeed for every reachable outcome
        rng = np.random.default_rng(3)
        for _ in range(100):
            q = random_input(rng)
            channel = random_thermal_channel(rng)
            basis = bell_basis(float(rng.uniform(0, math.pi)))
            cs = correction_set(CorrectionLabel.PSI_MINUS)
            for j in (1, 2, 3, 4):
                out = run_outcome(q, channel, basis, cs, j)
                if out.valid:
                    assert isinstance(out.output_state, DensityMatrix)
                    assert 0.0 <= out.fidelity <= 1.0 + 1e-12

    def test_pi_shift_leaves_fidelity_invariant(self):
        rng = np.random.default_rng(4)
        channel = random_thermal_channel(rng)
        cs = correction_set(CorrectionLabel.PHI_MINUS)
        q = random_input(rng)
        for phi in (0.2, 1.0, 2.7):
            f1 = run_outcome(q, channel, bell_basis(phi), cs, 2).fidelity
            f2 = run_outcome(q, channel, bell_basis(phi + math.pi), cs, 2).fidelity
            assert abs(f1 - f2) < 1e-13

    def test_unreachable_outcome_flagged(self):
        # |B1(pi/2)> = |11>, orthogonal to a |00> channel
        ket = np.zeros(4, dtype=complex)
        ket[0] = 1.0
        channel = DensityMatrix.from_pure(ket)
        out = run_outcome(
            PureQubit(1.0, 0.0),
            channel,
            bell_basis(math.pi / 2),
            correction_set(CorrectionLabel.PHI_PLUS),
            1,
        )
        assert not out.valid
        assert out.output_state is None
        assert out.fidelity == 0.0

    def test_rejects_bad_outcome_index(self):
        with pytest.raises(ValueError):
            run_outcome(
                PureQubit(0.5, 0.0),
                DensityMatrix.maximally_mixed(4),
                bell_basis(0.5),
                correction_set(CorrectionLabel.PHI_PLUS),
                5,
            )

    def test_rejects_invalid_channel(self):
        q, basis = PureQubit(0.5, 0.0), bell_basis(0.5)
        cs = correction_set(CorrectionLabel.PHI_PLUS)
        for bad in (2 * np.eye(4), np.triu(np.ones((4, 4))) / 4, np.eye(2) / 2):
            with pytest.raises(ValueError):
                run_outcome(q, bad, basis, cs, 1)


class TestOutcomePairs:
    """The postselected pairs are stated once, in ``OUTCOME_PAIRS``; every
    entry point that takes a pair reads it in either order and refuses any
    other pair."""

    P = HeisenbergParams(0.3, -1.2, 0.7, 0.5, 0.2)

    def test_either_order_names_one_pair(self):
        for k, (first, second) in enumerate(OUTCOME_PAIRS):
            assert pair_index((first, second)) == pair_index((second, first)) == k

    @pytest.mark.parametrize("pair", [(1, 2), (3, 4), (1, 3), (0, 4), (5, 1)])
    def test_other_pairs_are_refused(self, pair):
        harmonics = HarmonicAverages(thermal_state(self.P, 0.5).rho)
        calls = [
            lambda: reconciled_pair_rate(self.P, 2.0, 0.3, pair),
            lambda: reconciled_pair_rate(
                [self.P, self.P], [2.0, 1.0], [0.3, 0.4], [OUTCOME_PAIRS[0], pair]
            ),
            lambda: harmonics.pair_probability(0.3, pair),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(f"outcome pair {pair} ")) as info:
                call()
            assert "\n" not in str(info.value)

    def test_reversed_pairs_give_the_same_bits(self):
        harmonics = HarmonicAverages(thermal_state(self.P, 0.5).rho)
        phis = np.linspace(0.0, math.pi, 7)
        batch = ([self.P] * 7, np.full(7, 2.0), phis)
        for pair in OUTCOME_PAIRS:
            for rate in (
                lambda pair: reconciled_pair_rate(self.P, 2.0, 0.3, pair),
                lambda pair: reconciled_pair_rate(*batch, [pair] * 7),
                lambda pair: harmonics.pair_probability(phis, pair),
            ):
                assert np.array(rate(pair[::-1])).tobytes() == np.array(rate(pair)).tobytes()
