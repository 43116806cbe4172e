"""Truncated Fock-space operators and states."""

import math

import numpy as np
import pytest

from qndsim.fock import (
    DensityMatrix,
    diagonal_state,
    dissipator_action,
    fock_state,
    ladder,
    product_state,
    suggest_dim,
    thermal_state,
)

from conftest import make_ref


def random_hermitian(dim: int, rng) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


class TestLadder:
    def test_matrix_elements(self):
        b, bdag, n_op = ladder(5)
        assert all(type(m) is np.ndarray for m in (b, bdag, n_op))
        # <n-1| b |n> = sqrt(n)
        for n in range(1, 5):
            assert b[n - 1, n] == pytest.approx(math.sqrt(n))
        assert np.count_nonzero(b) == 4
        assert np.array_equal(bdag, b.conj().T)
        assert np.allclose(n_op, np.diag(np.arange(5.0)))

    def test_commutator_on_interior(self):
        # [b, b†] = 1 away from the truncation edge
        b, bdag, _ = ladder(8)
        comm = b @ bdag - bdag @ b
        assert np.allclose(comm[:7, :7], np.eye(7))
        # the edge row absorbs the truncation: 1 - dim
        assert comm[7, 7] == pytest.approx(1.0 - 8.0)

    def test_minimum_dimension(self):
        with pytest.raises(ValueError):
            ladder(1)


class TestStates:
    def test_fock_state(self):
        rho = fock_state(4, 2)
        assert rho.populations()[2] == 1.0
        assert np.trace(rho.entries) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            fock_state(4, 4)
        with pytest.raises(ValueError):
            fock_state(4, -1)

    def test_thermal_state_geometric_populations(self):
        nbar = 0.25
        rho = thermal_state(30, nbar)
        p = rho.populations()
        # renormalized geometric distribution on the truncated space
        r = nbar / (nbar + 1.0)
        expect = (1 - r) * r ** np.arange(30)
        expect /= expect.sum()
        assert np.allclose(p, expect, rtol=1e-12)
        assert p @ np.arange(30) == pytest.approx(nbar, rel=1e-9)

    def test_thermal_state_zero_occupancy_is_ground(self):
        assert thermal_state(5, 0.0).populations()[0] == 1.0

    def test_diagonal_state(self):
        rho = diagonal_state([0.5, 0.25, 0.25])
        assert np.allclose(rho.populations(), [0.5, 0.25, 0.25])
        # unnormalized weights are renormalized, negative ones rejected
        assert np.allclose(diagonal_state([3.0, 1.0]).populations(), [0.75, 0.25])
        with pytest.raises(ValueError):
            diagonal_state([1.1, -0.1])
        with pytest.raises(ValueError):
            diagonal_state([0.0, 0.0])

    def test_product_state(self):
        rho = product_state(fock_state(2, 0), fock_state(3, 1))
        assert rho.dim == 6
        assert rho.populations()[1] == pytest.approx(1.0)

    def test_density_matrix_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))  # trace 2


class TestDissipator:
    def test_decay_channel_on_fock_state(self):
        # D[b] |n><n| = 2n |n-1><n-1| - 2n |n><n|
        b, _, _ = ladder(5)
        for n in range(5):
            out = dissipator_action(b, fock_state(5, n))
            expect = np.zeros((5, 5))
            if n > 0:
                expect[n - 1, n - 1] = 2.0 * n
            expect[n, n] = -2.0 * n
            assert np.allclose(out, expect)

    def test_traceless_and_hermitian(self):
        rng = np.random.default_rng(7)
        b, bdag, n_op = ladder(6)
        for o in (b, bdag, n_op, b @ b):
            rho = random_hermitian(6, rng)
            out = dissipator_action(o, rho)
            assert abs(np.trace(out)) < 1e-12 * np.linalg.norm(rho)
            assert np.allclose(out, out.conj().T)

    def test_number_channel_kills_coherences_only(self):
        # D[b†b] leaves populations alone and damps |n><m| as -(n-m)^2
        _, _, n_op = ladder(4)
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 3] = 1.0
        out = dissipator_action(n_op, rho)
        assert out[1, 3] == pytest.approx(-((1 - 3) ** 2))
        for n in range(4):
            assert dissipator_action(n_op, fock_state(4, n))[n, n] == 0.0

    def test_shape_mismatch(self):
        b, _, _ = ladder(3)
        with pytest.raises(ValueError):
            dissipator_action(b, fock_state(4, 0))


class TestSuggestDim:
    def test_reference_value(self):
        # 0.25 occupancy, 1e-9 tail: (1/5)^d < 1e-9 first at d = 13
        assert suggest_dim(0.25) == 13

    def test_tail_mass_bound_holds(self):
        for nbar in (0.1, 0.5, 2.0, 20.0):
            d = suggest_dim(nbar)
            r = nbar / (nbar + 1.0)
            assert r**d < 1e-9 <= r ** (d - 1)

    def test_zero_occupancy(self):
        assert suggest_dim(0.0) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            suggest_dim(-0.1)
        # nbar / (nbar + 1) rounds to 1: no finite dimension holds the tail
        with pytest.raises(ValueError, match="too large"):
            suggest_dim(1e17)


@pytest.mark.parametrize("nbar", [math.nan, math.inf])
def test_occupancy_must_be_finite(nbar):
    with pytest.raises(ValueError, match="finite"):
        suggest_dim(nbar)
    with pytest.raises(ValueError, match="finite"):
        thermal_state(12, nbar)


def test_empty_density_matrix_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        thermal_state(0, 0.25)
