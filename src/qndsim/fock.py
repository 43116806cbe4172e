"""Truncated Fock-space operator algebra.

Dense complex matrices throughout; target sizes (phonon dim <= 40, cavity
dim <= 8) are small enough that sparse bookkeeping would cost more than it
saves. Hamiltonian matrices are stored as angular rates (divided by hbar),
so no physical constant ever enters the numerics.

Tensor-product convention: the cavity factor comes first, the mechanical
factor second; a product basis index is i_cavity * dim_m + n_mech.
Operators are treated as immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .system import SystemParams


@dataclass(frozen=True)
class FockOperator:
    """Dense operator on a truncated Fock space."""

    entries: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator entries must be finite")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def dagger(self) -> "FockOperator":
        return FockOperator(self.entries.conj().T, label=self.label + "^dag")

    def __matmul__(self, other):
        o = other.entries if isinstance(other, FockOperator) else other
        return FockOperator(self.entries @ o)

    def __add__(self, other):
        o = other.entries if isinstance(other, FockOperator) else other
        return FockOperator(self.entries + o)

    def __sub__(self, other):
        o = other.entries if isinstance(other, FockOperator) else other
        return FockOperator(self.entries - o)

    def __rmul__(self, scalar):
        return FockOperator(scalar * self.entries, label=self.label)

    def __neg__(self):
        return FockOperator(-self.entries, label=self.label)


@dataclass(frozen=True)
class DensityMatrix:
    """Density matrix with construction-time sanity checks.

    Hermiticity (1e-12) and unit trace (1e-10) are enforced here;
    positivity is certified on demand through :meth:`min_eigenvalue`
    because a per-construction eigendecomposition would dominate the cost
    of time stepping.
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

    def min_eigenvalue(self) -> float:
        h = (self.entries + self.entries.conj().T) / 2.0
        return float(np.linalg.eigvalsh(h)[0])


def ladder(dim: int):
    """Annihilation, creation and number operators on dim Fock states."""
    if dim < 2:
        raise ValueError("truncation dimension must be at least 2")
    b = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        b[n - 1, n] = math.sqrt(n)
    bdag = b.conj().T
    n_op = bdag @ b
    return (
        FockOperator(b, label="b"),
        FockOperator(bdag, label="b^dag"),
        FockOperator(n_op, label="n"),
    )


def identity(dim: int) -> FockOperator:
    return FockOperator(np.eye(dim, dtype=complex), label="1")


def tensor(a: FockOperator, b: FockOperator) -> FockOperator:
    """Kronecker product; first factor is the cavity by convention."""
    return FockOperator(
        np.kron(a.entries, b.entries),
        label="(%s)x(%s)" % (a.label, b.label),
    )


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

    Accepts FockOperator/DensityMatrix wrappers or bare arrays; returns a
    bare complex array. The result is traceless and Hermitian whenever rho
    is Hermitian. Every dissipative channel in the package goes through
    this one function.
    """
    om = o.entries if isinstance(o, FockOperator) else np.asarray(o, dtype=complex)
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


def hamiltonian_split(
    params: SystemParams, dim_c: int, dim_m: int, omega_c: float = 0.0
):
    """Number-conserving and number-breaking Hamiltonian parts.

    H0 = [omega_c + g2 (b†b + 1/2)] a†a + omega_m b†b commutes with the
    phonon number; H' = g1 (b + b†) a†a + (g2/2)(bb + b†b†) a†a does not.
    Both live on the dim_c * dim_m product space in rad/s. The optical
    carrier omega_c only shifts diagonal entries and defaults to zero.
    """
    if dim_c < 2 or dim_m < 2:
        raise ValueError("both dimensions must be at least 2")
    p = params
    a, adag, n_a = ladder(dim_c)
    b, bdag, n_b = ladder(dim_m)
    eye_m = identity(dim_m)
    bb = b @ b
    bdbd = bdag @ bdag
    h0 = (
        tensor(n_a, (omega_c * eye_m) + p.g2 * (n_b + 0.5 * eye_m)).entries
        + p.omega_m * tensor(identity(dim_c), n_b).entries
    )
    hp = (
        p.g1 * tensor(n_a, b + bdag).entries
        + (p.g2 / 2.0) * tensor(n_a, bb + bdbd).entries
    )
    return FockOperator(h0, label="H0"), FockOperator(hp, label="Hprime")


def suggest_dim(nbar: float, tail_mass: float = 1e-6, minimum: int = 2) -> int:
    """Smallest dimension whose Bose-Einstein tail mass is below tail_mass.

    For occupancy nbar the probability mass outside the first d states is
    (nbar/(nbar+1))^d; zero occupancy needs only the floor value.
    """
    if not 0 <= nbar < math.inf:
        raise ValueError("occupancy must be non-negative and finite")
    if not 0 < tail_mass < 1:
        raise ValueError("tail_mass must lie in (0, 1)")
    if nbar == 0:
        return max(2, minimum)
    r = nbar / (nbar + 1.0)
    if r == 1.0:
        raise ValueError(
            "occupancy %r is too large to size a truncated state" % nbar
        )
    d = int(math.ceil(math.log(tail_mass) / math.log(r)))
    return max(d, 2, minimum)
