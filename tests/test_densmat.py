import math

import numpy as np
import pytest
from references import build_hamiltonian, gibbs_density, hermitian_eigen, kron

from thermotele.densmat import DensityMatrix, PureQubit, channel_matrix, partial_trace_first_two
from thermotele.spin_models import HeisenbergParams

I2 = np.eye(2, dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


def random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(I2, I2), np.eye(4))

    def test_sigma_z_pair_diagonal(self):
        assert np.allclose(kron(SZ, SZ), np.diag([1, -1, -1, 1]))

    def test_trace_multiplicative_on_states(self):
        rho_in = PureQubit(1.0, 0.0).density()
        total = kron(rho_in, np.eye(4, dtype=complex) / 4)
        assert abs(np.trace(total) - 1.0) < 1e-15

    def test_trace_multiplicative_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_hermitian(rng, 2)
            b = random_hermitian(rng, 4)
            assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12

    def test_associativity(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a, b, c = (random_hermitian(rng, 2) for _ in range(3))
            left = kron(kron(a, b), c)
            right = kron(a, kron(b, c))
            assert np.max(np.abs(left - right)) < 1e-13

    def test_dimension_overflow(self):
        with pytest.raises(ValueError, match="unsupported dimension"):
            kron(np.eye(4), np.eye(4))
        with pytest.raises(ValueError, match="unsupported dimension"):
            kron(np.eye(8), np.eye(2))


class TestPartialTrace:
    def test_product_state_factorization(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rho_a, rho_b, rho_c = (random_density(rng, 2) for _ in range(3))
            total = np.kron(np.kron(rho_a, rho_b), rho_c)
            assert np.max(np.abs(partial_trace_first_two(total) - rho_c)) < 1e-13

    def test_maximally_mixed(self):
        reduced = partial_trace_first_two(np.eye(8, dtype=complex) / 8)
        assert np.allclose(reduced, I2 / 2, atol=1e-15)

    def test_bell_marginal_is_maximally_mixed(self):
        # direct 8x8 construction: |psi><psi| (x) |Phi+><Phi+|
        psi = PureQubit(0.3, 1.2).density()
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / math.sqrt(2)
        total = np.kron(psi, np.outer(bell, bell.conj()))
        reduced = partial_trace_first_two(total)
        assert np.max(np.abs(reduced - I2 / 2)) < 1e-14

    def test_trace_preserving_and_linear(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = random_density(rng, 8)
            b = random_density(rng, 8)
            w = rng.uniform()
            mix = w * a + (1 - w) * b
            lhs = partial_trace_first_two(mix)
            rhs = w * partial_trace_first_two(a) + (1 - w) * partial_trace_first_two(b)
            assert np.max(np.abs(lhs - rhs)) < 1e-13
            assert abs(np.trace(lhs) - 1.0) < 1e-12

    def test_wraps_density_matrix(self):
        dm = DensityMatrix(np.eye(8, dtype=complex) / 8)
        out = partial_trace_first_two(dm)
        assert isinstance(out, DensityMatrix)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            partial_trace_first_two(np.eye(4) / 4)


class TestHermitianEigen:
    def test_pauli_x_spectrum(self):
        w, _ = hermitian_eigen(SX)
        assert np.allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_diagonal_sorted(self):
        w, _ = hermitian_eigen(np.diag([3.0, 1.0, 2.0, 0.0]).astype(complex))
        assert np.allclose(w, [0, 1, 2, 3], atol=1e-14)

    def test_xxx_hamiltonian_spectrum(self):
        # analytic 2x2 block eigenvalues jz +/- eta and -jz +/- chi
        h = build_hamiltonian(HeisenbergParams(2.0, 2.0, 2.0, 0.0, 0.0))
        w, _ = hermitian_eigen(h)
        assert np.allclose(w, [-6.0, 2.0, 2.0, 2.0], atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_reconstruction_and_orthonormality(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(20):
            m = random_hermitian(rng, dim)
            w, v = hermitian_eigen(m)
            assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - m)) < 1e-10
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-10
            assert np.all(np.diff(w) >= -1e-14)

    def test_rejects_non_hermitian(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="expected Hermitian"):
            hermitian_eigen(m)


class TestGibbsDensity:
    def test_gibbs_density_normalized(self):
        rng = np.random.default_rng(9)
        h = random_hermitian(rng, 4)
        rho, z = gibbs_density(h, 1000.0)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert z >= 1.0
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-12


class TestDensityMatrix:
    def test_accepts_valid(self):
        DensityMatrix(np.eye(4, dtype=complex) / 4)

    def test_rejects_non_hermitian(self):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(m)

    def test_from_pure(self):
        dm = DensityMatrix.from_pure([1 / math.sqrt(2), 1j / math.sqrt(2)])
        assert dm.dim == 2


class TestChannelStack:
    def test_accepts_valid_stack(self):
        stack = np.array([np.eye(4) / 4, np.diag([1.0, 0, 0, 0])], dtype=complex)
        assert np.array_equal(channel_matrix(stack), stack)

    @pytest.mark.parametrize(
        "bad, match",
        [
            (np.eye(4) / 4 + np.diag([1e-6, 0.0, 0.0], 1), "not Hermitian"),
            (np.eye(4) / 2, "trace"),
            (np.diag([1.5, -0.5, 0.0, 0.0]), "negative eigenvalue"),
        ],
    )
    def test_names_the_bad_channel(self, bad, match):
        stack = np.array([np.eye(4) / 4] * 5, dtype=complex)
        stack[3] = bad
        with pytest.raises(ValueError, match=f"^channel 3: density matrix.*{match}"):
            channel_matrix(stack)
        with pytest.raises(ValueError, match=match):
            channel_matrix(bad)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="4x4"):
            channel_matrix(np.array([np.eye(2) / 2] * 3, dtype=complex))


class TestPureQubit:
    def test_normalized_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            q = PureQubit(float(rng.uniform()), float(rng.uniform(-10, 10)))
            ket = q.ket()
            assert abs(np.vdot(ket, ket).real - 1.0) < 1e-15
            assert 0.0 <= q.gamma < 2 * math.pi

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            PureQubit(1.5, 0.0)
