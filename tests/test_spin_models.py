import math

import numpy as np
import pytest
from references import build_hamiltonian, gibbs_density, hermitian_eigen

from thermotele.spin_models import (
    HeisenbergParams,
    XXZFieldParams,
    XYFieldParams,
    block_spectrum,
    critical_point,
    from_xxz_field,
    from_xy_field,
    thermal_state,
)

SINGLET = np.array([0, 1, -1, 0]) / math.sqrt(2)


def random_params(rng, lo=-5.0, hi=5.0):
    return HeisenbergParams(*rng.uniform(lo, hi, 5))


class TestHamiltonian:
    def test_all_zero(self):
        assert np.allclose(build_hamiltonian(HeisenbergParams(0, 0, 0, 0, 0)), 0.0)

    def test_pure_zz(self):
        h = build_hamiltonian(HeisenbergParams(0, 0, 1, 0, 0))
        assert np.allclose(h, np.diag([1, -1, -1, 1]))

    def test_xx_plus_yy_couples_psi_sector(self):
        # <10|H|01> = jx + jy by direct Pauli algebra
        h = build_hamiltonian(HeisenbergParams(1, 1, 0, 0, 0))
        expected = np.zeros((4, 4))
        expected[1, 2] = expected[2, 1] = 2.0
        assert np.allclose(h, expected)

    def test_hermitian_and_block_diagonal(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h = build_hamiltonian(random_params(rng))
            assert np.max(np.abs(h - h.conj().T)) < 1e-14
            # no coupling between {|00>,|11>} and {|01>,|10>}
            for i, j in [(0, 1), (0, 2), (3, 1), (3, 2)]:
                assert h[i, j] == 0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            HeisenbergParams(np.nan, 0, 0, 0, 0)


class TestModelMaps:
    def test_ising(self):
        p = from_xy_field(XYFieldParams(1.0, 1.0))
        assert (p.jx, p.jy, p.jz, p.ha, p.hb) == (-2.0, -0.0, 0.0, -1.0, -1.0)

    def test_zero_coupling(self):
        p = from_xy_field(XYFieldParams(0.0, 0.0))
        assert (p.jx, p.jy, p.jz, p.ha, p.hb) == (-0.0, -0.0, 0.0, -1.0, -1.0)

    def test_xx(self):
        p = from_xy_field(XYFieldParams(1.0, 0.0))
        assert (p.jx, p.jy, p.jz, p.ha, p.hb) == (-1.0, -1.0, 0.0, -1.0, -1.0)

    def test_xxx(self):
        p = from_xxz_field(XXZFieldParams(1.0, 1.0, 0.0))
        assert (p.jx, p.jy, p.jz, p.ha, p.hb) == (2.0, 2.0, 2.0, -0.0, -0.0)

    def test_zero_exchange(self):
        p = from_xxz_field(XXZFieldParams(0.0, 5.0, 2.0))
        assert (p.jx, p.jy, p.jz, p.ha, p.hb) == (0.0, 0.0, 0.0, -1.0, -1.0)

    def test_xxx_with_field(self):
        p = from_xxz_field(XXZFieldParams(2.0, 1.0, 8.0))
        assert (p.jx, p.jy, p.jz, p.ha, p.hb) == (4.0, 4.0, 4.0, -4.0, -4.0)

    def test_xy_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            XYFieldParams(-0.1, 0.0)

    def test_derived_roundtrips(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = from_xxz_field(
                XXZFieldParams(*rng.uniform(-3, 3, 3))
            ).derived()
            assert d.delta_j == 0.0 and d.delta_h == 0.0
            p = from_xy_field(
                XYFieldParams(float(rng.uniform(0, 3)), float(rng.uniform(-1, 1)))
            )
            assert p.jz == 0.0 and p.derived().delta_h == 0.0

    def test_gap_parameter_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = random_params(rng).derived()
            assert d.eta >= abs(d.delta_j) and d.chi >= abs(d.sigma_j)
            assert d.eta >= 0 and d.chi >= 0


class TestBlockSpectrum:
    def test_xxx_ground_is_singlet(self):
        levels = block_spectrum(HeisenbergParams(2, 2, 2, 0, 0))
        energies = sorted(lv.energy for lv in levels)
        assert np.allclose(energies, [-6, 2, 2, 2], atol=1e-12)
        ground = min(levels, key=lambda lv: lv.energy)
        overlap = abs(np.dot(ground.vector, SINGLET))
        assert abs(overlap - 1.0) < 1e-12

    def test_zero_hamiltonian(self):
        assert all(lv.energy == 0.0 for lv in block_spectrum(HeisenbergParams(0, 0, 0)))

    def test_anisotropic_phi_sector(self):
        # phi block [[0, delta_j], [delta_j, 0]] with delta_j = -2
        levels = block_spectrum(HeisenbergParams(-1.0, 1.0, 0.0, 0.0, 0.0))
        phi = [lv for lv in levels if lv.sector == "phi"]
        assert np.allclose(sorted(lv.energy for lv in phi), [-2, 2], atol=1e-14)
        ground = min(phi, key=lambda lv: lv.energy)
        plus = np.array([1, 0, 0, 1]) / math.sqrt(2)
        assert abs(abs(np.dot(ground.vector, plus)) - 1.0) < 1e-12

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            p = random_params(rng)
            analytic = sorted(lv.energy for lv in block_spectrum(p))
            dense, _ = hermitian_eigen(build_hamiltonian(p))
            assert np.max(np.abs(np.array(analytic) - dense)) < 1e-10

    def test_eigenvectors_diagonalize(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = random_params(rng)
            h = build_hamiltonian(p)
            for lv in block_spectrum(p):
                assert np.max(np.abs(h @ lv.vector - lv.energy * lv.vector)) < 1e-10


class TestThermalState:
    def test_infinite_temperature_limit(self):
        ts = thermal_state(HeisenbergParams(1.3, -0.4, 2.0, 0.7, -1.1), 1e9)
        assert np.max(np.abs(ts.rho.mat - np.eye(4) / 4)) < 1e-6

    def test_xxx_ground_state_limit(self):
        ts = thermal_state(from_xxz_field(XXZFieldParams(1.0, 1.0, 0.0)), 0.01)
        assert np.max(np.abs(ts.rho.mat - np.outer(SINGLET, SINGLET))) < 1e-6

    def test_zz_gibbs_weights(self):
        ts = thermal_state(HeisenbergParams(0, 0, 1, 0, 0), 1.0)
        z = 2 * math.e + 2 / math.e
        expected = np.diag([1 / math.e, math.e, math.e, 1 / math.e]) / z
        assert np.max(np.abs(ts.rho.mat - expected)) < 1e-14

    def test_commutes_with_hamiltonian_and_gibbs_ratios(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            p = random_params(rng)
            kt = float(rng.uniform(0.05, 5.0))
            ts = thermal_state(p, kt)
            h = build_hamiltonian(p)
            comm = h @ ts.rho.mat - ts.rho.mat @ h
            assert np.max(np.abs(comm)) < 1e-10
            levels = block_spectrum(p)
            occ = [
                float(np.real(lv.vector @ ts.rho.mat @ lv.vector)) for lv in levels
            ]
            for a in range(4):
                for b in range(4):
                    expected = math.exp(
                        -(levels[a].energy - levels[b].energy) / kt
                    )
                    # occupations below ~1e-6 carry matrix-assembly noise
                    # at the 1e-17 absolute level, too large relative to
                    # them for a 1e-8 relative comparison
                    if min(occ[a], occ[b]) > 1e-6:
                        assert abs(occ[a] / occ[b] - expected) <= 1e-8 * expected

    def test_matches_generic_eigendecomposition_path(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            p = random_params(rng)
            kt = float(rng.uniform(0.01, 100.0))
            block = thermal_state(p, kt).rho.mat
            generic, _ = gibbs_density(build_hamiltonian(p), 1.0 / kt)
            assert np.max(np.abs(block - generic)) < 1e-12

    def test_very_low_temperature_no_overflow(self):
        ts = thermal_state(HeisenbergParams(2, 2, 2, -4, -4), 1e-3)  # beta = 1000
        assert np.isfinite(ts.rho.mat).all()

    def test_tiny_couplings_do_not_underflow(self):
        # blocks whose entries square below the smallest double once
        # normalized their eigenvectors to 0/0
        for p in (HeisenbergParams(0, 1e-170, 0), HeisenbergParams(0, 0, 0, 0, 1e-200)):
            rho = thermal_state(p, 1.0).rho.mat
            assert np.max(np.abs(rho - np.eye(4) / 4)) <= 1e-15

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError, match="temperature must be positive"):
            thermal_state(HeisenbergParams(1, 1, 1), 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_a_temperature_whose_inverse_overflows(self):
        # 1/kT = inf once gave nan weights after a RuntimeWarning
        with pytest.raises(ValueError, match="finite 1/kT"):
            thermal_state(HeisenbergParams(1, 0, 0), 1e-320)
        assert thermal_state(HeisenbergParams(1, 0, 0), math.inf).beta == 0.0


class TestCouplingBound:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_energy_gap_is_rejected(self):
        for couplings in (
            (1e308, 1e308, 0.0),  # chi = |jx + jy| overflows
            (8e307, -8e307, 0.0),  # eta is finite, the phi-sector gap 2 eta is not
            (0.0, 0.0, 0.0, 8e307, -8e307),  # the psi-sector gap 2 chi
        ):
            with pytest.raises(ValueError, match="couplings too large"):
                HeisenbergParams(*couplings)
        # the largest gap that does not overflow, 2|jz| = 1.78e308, is kept
        p = HeisenbergParams(0.0, 0.0, 8.9e307)
        assert np.isfinite(thermal_state(p, 1.0).rho.mat).all()


class TestCriticalPoint:
    def test_xy(self):
        assert critical_point("xy") == 1.0

    def test_xxx_field(self):
        assert abs(critical_point("xxx_field", field_h=8.0) - 1.0) <= 1e-9

    def test_xxz_field(self):
        assert abs(critical_point("xxz_field", exchange_j=1.0, field_h=4.0)) <= 1e-9

    def test_scaling_with_field(self):
        # crossing sits at J = h/8 for the XXX family
        assert abs(critical_point("xxx_field", field_h=4.0) - 0.5) <= 1e-9

    def test_no_crossing(self):
        with pytest.raises(ValueError, match="no level crossing found"):
            critical_point("xxx_field", field_h=0.0)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            critical_point("bogus")

    @pytest.mark.parametrize(
        "model, values, message",
        [
            ("xy", {"field_h": 3.0}, "does not read field_h"),
            ("xxx_field", {"field_h": 8.0, "exchange_j": 5.0}, "does not read exchange_j"),
            ("xxz_field", {"field_h": 4.0}, "needs values for exchange_j and field_h"),
        ],
    )
    def test_names_what_the_crossing_needs_or_does_not_read(self, model, values, message):
        with pytest.raises(ValueError, match=f"^model {model!r} {message}$"):
            critical_point(model, **values)
