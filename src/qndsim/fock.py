"""Truncated Fock-space operator algebra.

Dense complex matrices throughout; target sizes (phonon dim <= 40, cavity
dim <= 8) are small enough that sparse bookkeeping would cost more than it
saves. Hamiltonian matrices are stored as angular rates (divided by hbar),
so no physical constant ever enters the numerics.

Operators are plain complex ``ndarray``s. Tensor-product convention: the
cavity factor comes first in ``np.kron``, the mechanical factor second; a
product basis index is i_cavity * dim_m + n_mech.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# thermal probability mass a truncated state may leave out
TAIL_MASS = 1e-9


@dataclass(frozen=True)
class DensityMatrix:
    """Density matrix with construction-time sanity checks.

    Hermiticity (1e-12) and unit trace (1e-10) are enforced here;
    positivity is not, because a per-construction eigendecomposition would
    dominate the cost of time stepping. :func:`lindblad.evolve` reports
    the minimum eigenvalue at every grid point instead.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise ValueError("density matrix must be square and non-empty")
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix entries must be finite")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("density matrix must be Hermitian to 1e-12")
        if abs(np.trace(m).real - 1.0) > 1e-10 or abs(np.trace(m).imag) > 1e-10:
            raise ValueError("density matrix must have unit trace to 1e-10")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.entries)).copy()


def ladder(dim: int):
    """b, b† and b†b on dim Fock states, as complex arrays."""
    if dim < 2:
        raise ValueError("truncation dimension must be at least 2")
    b = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        b[n - 1, n] = math.sqrt(n)
    bdag = b.conj().T
    return b, bdag, bdag @ b


def fock_state(dim: int, n: int) -> DensityMatrix:
    """Pure number state |n><n|."""
    if not 0 <= n < dim:
        raise ValueError("Fock index out of range for dimension %d" % dim)
    m = np.zeros((dim, dim), dtype=complex)
    m[n, n] = 1.0
    return DensityMatrix(m)


def thermal_state(dim: int, nbar: float) -> DensityMatrix:
    """Truncated, renormalized Bose-Einstein state with mean nbar."""
    if not 0 <= nbar < math.inf:
        raise ValueError("thermal occupancy must be non-negative and finite")
    if nbar == 0:
        return fock_state(dim, 0)
    r = nbar / (nbar + 1.0)
    p = r ** np.arange(dim)
    p /= p.sum()
    return DensityMatrix(np.diag(p.astype(complex)))


def diagonal_state(probs) -> DensityMatrix:
    """Diagonal mixture from a probability vector (renormalized)."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("need a probability vector of length >= 2")
    if np.any(p < 0) or p.sum() <= 0:
        raise ValueError("probabilities must be non-negative with positive sum")
    p = p / p.sum()
    return DensityMatrix(np.diag(p.astype(complex)))


def product_state(rho_c: DensityMatrix, rho_m: DensityMatrix) -> DensityMatrix:
    """Cavity (x) mechanics product state."""
    return DensityMatrix(np.kron(rho_c.entries, rho_m.entries))


def dissipator_action(o, rho) -> np.ndarray:
    """Apply the dissipator D[o]rho = 2 o rho o† - o†o rho - rho o†o.

    ``rho`` may be a DensityMatrix or a bare array; returns a bare complex
    array. The result is traceless and Hermitian whenever rho is Hermitian.
    Every dissipative channel in the package goes through this one function.
    """
    om = np.asarray(o, dtype=complex)
    rm = (
        rho.entries
        if isinstance(rho, DensityMatrix)
        else np.asarray(rho, dtype=complex)
    )
    if om.shape != rm.shape:
        raise ValueError(
            "operator shape %s does not match state shape %s"
            % (om.shape, rm.shape)
        )
    odag = om.conj().T
    oo = odag @ om
    return 2.0 * (om @ rm @ odag) - oo @ rm - rm @ oo


def suggest_dim(nbar: float) -> int:
    """Smallest dimension, at least 2, whose Bose-Einstein tail mass is
    below TAIL_MASS.

    For occupancy nbar the probability mass outside the first d states is
    (nbar/(nbar+1))^d; zero occupancy needs only the floor value.
    """
    if not 0 <= nbar < math.inf:
        raise ValueError("occupancy must be non-negative and finite")
    if nbar == 0:
        return 2
    r = nbar / (nbar + 1.0)
    if r == 1.0:
        raise ValueError(
            "occupancy %r is too large to size a truncated state" % nbar
        )
    d = int(math.ceil(math.log(TAIL_MASS) / math.log(r)))
    return max(d, 2)
