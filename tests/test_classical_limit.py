import math

import numpy as np
import pytest
import references as ref
from references import product_avg_fidelity, product_opt_fidelity, random_bloch_vector

from thermotele import classical_limit
from thermotele._checks import check_classical_bound
from thermotele.averaging import QuadratureGrid, average_all
from thermotele.classical_limit import (
    MAX_TERMS,
    BlochVector,
    SeparableChannel,
    _ball_points,
    _classical_optima,
    _flat_dirichlet,
    _mixtures,
    _random_mixtures,
    oracle_det_optimum,
    random_separable_channel,
    verify_classical_bound,
)
from thermotele.densmat import DensityMatrix
from thermotele.teleport import CorrectionLabel

GRID16 = QuadratureGrid(16, 16)
SINGLET = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)


class TestBlochVector:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = random_bloch_vector(rng)
            back = ref.bloch_from_density(ref.bloch_density(v))
            assert abs(back.ax - v.ax) < 1e-13
            assert abs(back.ay - v.ay) < 1e-13
            assert abs(back.az - v.az) < 1e-13

    def test_density_is_valid_state(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            DensityMatrix(ref.bloch_density(random_bloch_vector(rng)))

    def test_rejects_long_vectors(self):
        with pytest.raises(ValueError):
            BlochVector(1.0, 0.5, 0.0)


class TestSeparableChannel:
    def test_assembled_density_valid(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            random_separable_channel(rng).density()

    def test_density_equals_kron_sum(self):
        # the broadcast outer product gives np.kron's bits exactly
        rng = np.random.default_rng(21)
        for _ in range(200):
            channel = random_separable_channel(rng)
            rho = np.zeros((4, 4), dtype=complex)
            for w, a, b in channel.terms:
                rho += w * np.kron(ref.bloch_density(a), ref.bloch_density(b))
            assert np.array_equal(channel.density().mat, rho)

    def test_batched_draw_keeps_the_stream(self):
        # one draw for the stack and for random_separable_channel, and the
        # densities the channel-by-channel code built
        stack = _random_mixtures(np.random.default_rng(22), 300)
        rng, old = np.random.default_rng(22), np.random.default_rng(22)
        for rho in stack:
            assert np.array_equal(rho, random_separable_channel(rng).density().mat)
            earlier = ref.separable_density(ref.random_separable_channel(old))
            assert np.array_equal(rho, earlier.mat)

    def test_rejects_bad_weights(self):
        pole = BlochVector(0, 0, 1)
        with pytest.raises(ValueError):
            SeparableChannel(((0.5, pole, pole),))
        with pytest.raises(ValueError):
            SeparableChannel(())


def reference_stack(rng, count):
    """Densities (count, 4, 4) of ``count`` channels drawn one at a time by
    the reference loop: ``dirichlet`` and a rejection loop per ball point."""
    weights = np.zeros((count, MAX_TERMS))
    a, b = np.zeros((2, count, MAX_TERMS, 3))
    for i in range(count):
        for k, (w, x, y) in enumerate(ref.random_separable_channel(rng).terms):
            weights[i, k], a[i, k], b[i, k] = w, (x.ax, x.ay, x.az), (y.ax, y.ay, y.az)
    return _mixtures(weights, a, b)


def reference_ball_points(rng, need):
    return np.array([(v.ax, v.ay, v.az) for v in (ref.random_bloch_vector(rng) for _ in range(need))])


class ScriptedGenerator:
    """Replays fixed rows as its ``uniform(-1, 1)`` draws; its bit
    generator's state is the position in the script."""

    def __init__(self, rows):
        self.values, self.bit_generator, self.state = np.ravel(rows), self, 0

    def uniform(self, low, high, size):
        count = int(np.prod(size))
        out = self.values[self.state:self.state + count].reshape(size)
        self.state += count
        return out

    def random(self, size):
        return self.uniform(0.0, 1.0, size)


# rows whose v @ v is 1.0 + 1 ulp or exactly 1.0, where another summation
# order (einsum, (v * v).sum()) or a strict < flips the rejection decision,
# and one row well outside the ball
BOUNDARY_ROWS = [
    [float.fromhex(x) for x in row]
    for row in (
        ("-0x1.4a43ddd51dd60p-4", "-0x1.30a5b270e23d0p-1", "0x1.996d16a1a496ap-1"),
        ("-0x1.c1be8d309b8eep-1", "-0x1.5293c604df410p-4", "-0x1.e201fa5f72164p-2"),
        ("0x1.ccccccccccccdp-1", "0x1.ccccccccccccdp-1", "0x1.ccccccccccccdp-1"),
        ("-0x1p+0", "0x0p+0", "0x0p+0"),
        ("0x1.bff0371ffaf20p-4", "-0x1.973e7e4e862c0p-2", "-0x1.d26b5442353dcp-1"),
    )
]


class TestStream:
    """The block draws keep the reference loop's stream bit for bit, and
    leave the generator where the loop leaves it."""

    @pytest.mark.parametrize("seed", [3, 22, 901, 20260813])
    def test_stack_keeps_the_reference_stream(self, seed):
        rng, old = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(_random_mixtures(rng, 5000), reference_stack(old, 5000))
        assert rng.integers(2**62) == old.integers(2**62)

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64])
    def test_any_bit_generator(self, bit_generator):
        rng, old = (np.random.Generator(bit_generator(7)) for _ in range(2))
        assert np.array_equal(_random_mixtures(rng, 2000), reference_stack(old, 2000))
        assert rng.integers(2**62) == old.integers(2**62)

    def test_interleaved_single_channels(self):
        rng, old = np.random.default_rng(24), np.random.default_rng(24)
        for count in (1, 7, 2, 30):
            assert np.array_equal(_random_mixtures(rng, count), reference_stack(old, count))
            single = random_separable_channel(rng).density().mat
            assert np.array_equal(single, reference_stack(old, 1)[0])
        assert rng.integers(2**62) == old.integers(2**62)

    @pytest.mark.parametrize("seed", [3, 22, 901])
    def test_ball_points_past_one_block(self, seed):
        # 30 points need more than one block of attempts
        rng, old = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(_ball_points(rng, 30), reference_ball_points(old, 30))
        assert rng.integers(2**62) == old.integers(2**62)

    @pytest.mark.parametrize("need", range(1, 7))
    def test_ball_points_keep_boundary_decisions(self, need):
        rows = BOUNDARY_ROWS + np.random.default_rng(25).uniform(-1.0, 1.0, (60, 3)).tolist()
        rng, old = ScriptedGenerator(rows), ScriptedGenerator(rows)
        assert np.array_equal(_ball_points(rng, need), reference_ball_points(old, need))
        assert rng.state == old.state


@pytest.mark.parametrize("n", range(1, MAX_TERMS + 1))
@pytest.mark.parametrize("seed", [3, 22, 901])
def test_flat_dirichlet_is_numpy_dirichlet(n, seed):
    # the identity the weights rest on: a numpy that breaks it fails here
    rng, old = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(10_000):
        assert np.array_equal(_flat_dirichlet(rng, n), old.dirichlet(np.ones(n)))
    assert rng.bit_generator.state == old.bit_generator.state


class TestProductFidelity:
    def test_maximally_mixed_pair(self):
        origin = BlochVector(0, 0, 0)
        for label in CorrectionLabel:
            for phi in (0.0, 0.7, math.pi / 4):
                assert product_avg_fidelity(origin, origin, label, phi) == 0.5

    def test_aligned_poles_phi_branch(self):
        pole = BlochVector(0, 0, 1)
        for phi in (0.0, 0.5, math.pi / 4):
            got = product_avg_fidelity(pole, pole, CorrectionLabel.PHI_PLUS, phi)
            assert abs(got - 2.0 / 3.0) < 1e-15

    def test_matches_oracle_on_product_channels(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = random_bloch_vector(rng), random_bloch_vector(rng)
            channel = SeparableChannel(((1.0, a, b),)).density()
            phi = float(rng.uniform(0, math.pi))
            av = average_all(channel, phi, GRID16)
            for e, label in enumerate(CorrectionLabel):
                got = product_avg_fidelity(a, b, label, phi)
                assert abs(got - av.fbar_det[e]) < 1e-10

    def test_opt_saturates_at_poles(self):
        pole = BlochVector(0, 0, 1)
        anti = BlochVector(0, 0, -1)
        assert product_opt_fidelity(pole, pole) == 2.0 / 3.0
        # anti-aligned poles reach 2/3 through the psi branch
        assert product_opt_fidelity(pole, anti) == 2.0 / 3.0

    def test_opt_diagonal_case(self):
        s = 1 / math.sqrt(3)
        v = BlochVector(s, s, s)
        assert abs(product_opt_fidelity(v, v) - 5.0 / 9.0) < 1e-15

    def test_opt_never_exceeds_classical_limit(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a, b = random_bloch_vector(rng), random_bloch_vector(rng)
            assert product_opt_fidelity(a, b) <= 2.0 / 3.0 + 1e-12

    def test_opt_matches_phi_optimized_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b = random_bloch_vector(rng), random_bloch_vector(rng)
            channel = SeparableChannel(((1.0, a, b),)).density()
            oracle = oracle_det_optimum(channel, GRID16)
            assert abs(oracle - product_opt_fidelity(a, b)) < 1e-9


class TestClassicalBound:
    def test_random_separable_channels_capped(self):
        best = verify_classical_bound(2000, seed=42)
        assert best <= 2.0 / 3.0 + 1e-9
        assert best >= 2.0 / 3.0 - 1e-10  # saturating case included

    def test_stack_equals_the_channel_by_channel_loop(self):
        optima = _classical_optima(1000, 23, GRID16)
        expected = ref.classical_optima(1000, 23, GRID16)
        assert optima.tolist() == expected
        assert verify_classical_bound(1000, 23, GRID16) == max(expected)

    @pytest.mark.parametrize("seed", [20260813, 23, 42, 4102])
    def test_the_pole_row_is_the_channel_alone(self, seed):
        pole = BlochVector(0.0, 0.0, 1.0)
        alone = oracle_det_optimum(SeparableChannel(((1.0, pole, pole),)).density(), GRID16)
        optima = _classical_optima(1000, seed, GRID16)
        assert repr(float(optima[0])) == repr(alone) == "0.6666666666666656"
        rest = oracle_det_optimum(_random_mixtures(np.random.default_rng(seed), 1000), GRID16)
        assert optima[1:].tobytes() == rest.tobytes()
        assert verify_classical_bound(1000, seed) == float(np.max(optima))

    def test_one_oracle_pass_per_run(self, monkeypatch):
        calls = {"oracle_det_optimum": 0, "HarmonicAverages": 0}

        def counted(name):
            original = getattr(classical_limit, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return call

        def refused(*args, **kwargs):
            raise AssertionError("a single channel was built")

        for name in calls:
            monkeypatch.setattr(classical_limit, name, counted(name))
        for name in ("BlochVector", "SeparableChannel"):
            monkeypatch.setattr(classical_limit, name, refused)
        verify_classical_bound(1000, 23)
        assert calls == {"oracle_det_optimum": 1, "HarmonicAverages": 1}
        result = check_classical_bound(23, samples=1000)
        assert calls == {"oracle_det_optimum": 2, "HarmonicAverages": 2}
        assert result.details["max_fidelity"] == verify_classical_bound(1000, 23)
        assert result.details["saturating"] == 0.6666666666666656

    def test_entangled_control_discriminates(self):
        singlet = DensityMatrix.from_pure(SINGLET)
        assert oracle_det_optimum(singlet, GRID16) > 0.99

    def test_mixture_convexity(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            channel = random_separable_channel(rng)
            phi = float(rng.uniform(0, math.pi))
            whole = average_all(channel.density(), phi, GRID16)
            parts = np.zeros(4)
            for w, a, b in channel.terms:
                term = SeparableChannel(((1.0, a, b),)).density()
                parts += w * average_all(term, phi, GRID16).fbar_det
            assert np.max(np.abs(whole.fbar_det - parts)) < 1e-10

    def test_rejects_few_samples(self):
        with pytest.raises(ValueError):
            verify_classical_bound(10, seed=0)
