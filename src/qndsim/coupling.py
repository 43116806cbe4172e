"""Perturbative optomechanical coupling coefficients from 1D mode fields.

Given sampled electric-field profiles and a permittivity perturbation per
unit mechanical displacement, computes the linear pull G1 from the mode's
self-overlap and the quadratic pull G2 from the self term plus cross
terms over other (non-degenerate) modes. Includes the moving-boundary
surface form of the overlap and a symmetry classifier for whether a
geometry can host quadratic coupling without linear contamination.

Geometry is one-dimensional: volume integrals are line integrals
(trapezoidal on the supplied grid) and surface integrals collapse to sums
over interface points. Fields are transverse to the interfaces by
default, so the displacement-field term of the boundary form vanishes;
a "normal" polarization tag switches to the other branch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

_trapz = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class ModeField:
    """Sampled 1D optical mode: positions in meters, complex field values.

    ``frequency`` is the unperturbed eigenfrequency in rad/s. The overall
    field scale is irrelevant for every coefficient computed here.
    """

    grid: np.ndarray
    field: np.ndarray
    frequency: float
    label: str = ""
    polarization: str = "transverse"

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        f = np.asarray(self.field, dtype=complex)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "field", f)
        if g.ndim != 1 or len(g) < 3:
            raise ValueError("grid needs at least 3 samples")
        if not np.all(np.diff(g) > 0):
            raise ValueError("grid must be strictly increasing")
        if f.shape != g.shape:
            raise ValueError("field and grid lengths differ")
        if not np.all(np.isfinite(f.view(float))):
            raise ValueError("field samples must be finite")
        if self.frequency <= 0:
            raise ValueError("mode frequency must be positive")
        if self.polarization not in ("transverse", "normal"):
            raise ValueError("polarization must be 'transverse' or 'normal'")

    @property
    def span(self) -> float:
        return float(self.grid[-1] - self.grid[0])


@dataclass(frozen=True)
class Interface:
    """One dielectric surface point for the moving-boundary sum.

    ``qu`` is the mechanical modeshape dotted with the outward unit
    normal, per unit displacement of the reference point, so it carries
    the sign of the surface motion. ``normal_sign`` records the outward
    direction (+1 rightward) for bookkeeping.
    """

    position: float
    normal_sign: int
    eps_d: float
    eps_s: float
    qu: float

    def __post_init__(self):
        if self.normal_sign not in (-1, 1):
            raise ValueError("normal_sign must be +1 or -1")
        if self.eps_d <= 0 or self.eps_s <= 0:
            raise ValueError("permittivities must be positive")


@dataclass(frozen=True)
class PermittivityPerturbation:
    """Permittivity profile and its displacement derivative on the grid.

    ``depsilon_dx`` has units 1/m: the change of relative permittivity at
    each point per meter of mechanical displacement. ``interfaces`` lists
    dielectric surfaces for the boundary form; each must sit on a grid
    point.
    """

    epsilon: np.ndarray
    depsilon_dx: np.ndarray
    interfaces: tuple = field(default_factory=tuple)

    def __post_init__(self):
        e = np.asarray(self.epsilon, dtype=float)
        de = np.asarray(self.depsilon_dx, dtype=float)
        object.__setattr__(self, "epsilon", e)
        object.__setattr__(self, "depsilon_dx", de)
        object.__setattr__(self, "interfaces", tuple(self.interfaces))
        if e.ndim != 1 or de.shape != e.shape:
            raise ValueError("epsilon and depsilon_dx must share one grid")
        if np.any(e <= 0):
            raise ValueError("epsilon must be positive everywhere")
        if not np.all(np.isfinite(de)):
            raise ValueError("depsilon_dx must be finite")

    def check_grid(self, grid: np.ndarray) -> None:
        if self.epsilon.shape != grid.shape:
            raise ValueError("perturbation sampled on a different grid")
        for itf in self.interfaces:
            if not (grid[0] <= itf.position <= grid[-1]):
                raise ValueError(
                    "interface at %g m lies outside the grid" % itf.position
                )


def _require_shared_grid(a: ModeField, b: ModeField) -> None:
    if a.grid.shape != b.grid.shape or not np.array_equal(a.grid, b.grid):
        raise ValueError("mode fields must share one grid")


def inner_product(a: ModeField, weight, b: ModeField) -> complex:
    """Trapezoidal <a| w |b> = integral of conj(E_a) w E_b dx."""
    _require_shared_grid(a, b)
    w = np.asarray(weight, dtype=float)
    if w.ndim == 0:
        w = np.full(a.grid.shape, float(w))
    if w.shape != a.grid.shape:
        raise ValueError("weight sampled on a different grid")
    integrand = np.conj(a.field) * w * b.field
    return complex(_trapz(integrand, a.grid))


def g1_coefficient(mode: ModeField, pert: PermittivityPerturbation) -> float:
    """Linear frequency pull, rad/s per meter of displacement.

    G1 = -(omega/2) <E|de/dx|E> / <E|e|E>. The ratio is free of the field
    normalization; the matrix element of a real weight against the mode
    with itself is real up to roundoff, which is asserted and discarded.
    """
    pert.check_grid(mode.grid)
    denom = inner_product(mode, pert.epsilon, mode)
    if denom == 0:
        raise ValueError("mode has zero permittivity-weighted norm")
    numer = inner_product(mode, pert.depsilon_dx, mode)
    ratio = numer / denom
    if abs(ratio.imag) > 1e-12 * max(abs(ratio), 1e-300):
        raise ValueError("self-overlap ratio is not real: %r" % (ratio,))
    return -0.5 * mode.frequency * ratio.real


@dataclass(frozen=True)
class QuadraticCoupling:
    """Quadratic pull G2 with its composition, rad/s per meter squared.

    ``self_term`` is 3 G1^2 / omega; ``cross_terms`` maps each partner
    mode label to its contribution; ``truncation_estimate`` is the
    magnitude of the last included cross term (the sum over the mode
    spectrum is necessarily cut off at the supplied list).
    """

    total: float
    self_term: float
    cross_terms: tuple
    g1: float
    truncation_estimate: float

    def cross_sum(self) -> float:
        return float(sum(v for _, v in self.cross_terms))


def g2_coefficient(
    mode: ModeField, others, pert: PermittivityPerturbation
) -> QuadraticCoupling:
    """Quadratic frequency pull from self and cross contributions.

    Each non-degenerate partner mode j contributes
    G_ij = omega_i^3/(omega_i^2 - omega_j^2)
           * |<E_j|de/dx|E_i>|^2 / (<E_i|e|E_i><E_j|e|E_j>).
    """
    pert.check_grid(mode.grid)
    g1 = g1_coefficient(mode, pert)
    w_i = mode.frequency
    denom_i = inner_product(mode, pert.epsilon, mode).real
    cross = []
    for j, other in enumerate(others):
        _require_shared_grid(mode, other)
        w_j = other.frequency
        if w_j == w_i:
            raise ValueError(
                "partner mode %r is degenerate with the target; the "
                "perturbative cross term diverges there — treat the pair "
                "with the avoided-crossing (two-mode) machinery" % (other.label or j,)
            )
        elem = inner_product(other, pert.depsilon_dx, mode)
        denom_j = inner_product(other, pert.epsilon, other).real
        g_ij = (
            w_i ** 3
            / (w_i * w_i - w_j * w_j)
            * (abs(elem) ** 2)
            / (denom_i * denom_j)
        )
        cross.append((other.label or "mode_%d" % j, float(g_ij)))
    self_term = 3.0 * g1 * g1 / w_i
    total = self_term + sum(v for _, v in cross)
    trunc = abs(cross[-1][1]) if cross else 0.0
    return QuadraticCoupling(
        total=float(total),
        self_term=float(self_term),
        cross_terms=tuple(cross),
        g1=float(g1),
        truncation_estimate=trunc,
    )


def _interface_index(grid: np.ndarray, position: float) -> int:
    idx = int(np.argmin(np.abs(grid - position)))
    # demand exact alignment up to float identity of the stored grid
    if grid[idx] != position:
        raise ValueError(
            "interface at %.17g m does not coincide with a grid point "
            "(nearest sample at %.17g m)" % (position, grid[idx])
        )
    return idx


def boundary_overlap(modes, pert: PermittivityPerturbation) -> complex:
    """Moving-boundary form of <E_i|de/dx|E_j> as an interface sum.

    Each surface contributes qu * [dEps E_par_i* E_par_j
    - dEpsInv D_perp_i* D_perp_j] with dEps = eps_d - eps_s and
    dEpsInv = 1/eps_d - 1/eps_s. For transverse fields the displacement
    term vanishes identically; for normal-polarized fields the parallel
    term does, and D_perp is taken as epsilon(x_s) E(x_s) with the
    continuous displacement field represented by the grid sample.
    """
    mode_i, mode_j = modes
    _require_shared_grid(mode_i, mode_j)
    pert.check_grid(mode_i.grid)
    if mode_i.polarization != mode_j.polarization:
        raise ValueError("modes must share a polarization convention")
    if not pert.interfaces:
        raise ValueError("no interfaces specified for the boundary form")
    total = 0.0 + 0.0j
    for itf in pert.interfaces:
        idx = _interface_index(mode_i.grid, itf.position)
        d_eps = itf.eps_d - itf.eps_s
        d_eps_inv = 1.0 / itf.eps_d - 1.0 / itf.eps_s
        ei = mode_i.field[idx]
        ej = mode_j.field[idx]
        if mode_i.polarization == "transverse":
            term = d_eps * np.conj(ei) * ej
        else:
            eps_here = pert.epsilon[idx]
            di = eps_here * ei
            dj = eps_here * ej
            term = -d_eps_inv * np.conj(di) * dj
        total += itf.qu * term
    return complex(total)


class SymmetryClass(enum.Enum):
    LINEAR_DOMINANT = "linear-dominant"
    QUADRATIC_CAPABLE = "quadratic-capable"
    INDETERMINATE = "indeterminate"


def classify_symmetry(
    mode: ModeField, pert: PermittivityPerturbation, others=()
) -> SymmetryClass:
    """Decide whether the geometry suppresses linear coupling.

    Quadratic-capable means the linear pull vanishes to a scale-aware
    threshold while the cross terms still sum to something nonzero, i.e.
    the geometry measures x^2 without being contaminated by x. Requires a
    grid symmetric about its midpoint; anything else is indeterminate, as
    is an identically zero perturbation or an empty partner list when the
    linear pull vanishes.
    """
    g = mode.grid
    mid = 0.5 * (g[0] + g[-1])
    sym_err = np.max(np.abs((g + g[::-1]) - 2.0 * mid))
    if sym_err > 1e-12 * mode.span:
        return SymmetryClass.INDETERMINATE
    if not np.any(pert.depsilon_dx):
        return SymmetryClass.INDETERMINATE
    g1 = g1_coefficient(mode, pert)
    threshold = 1e-8 * (mode.frequency / mode.span)
    if abs(g1) >= threshold:
        return SymmetryClass.LINEAR_DOMINANT
    if not others:
        return SymmetryClass.INDETERMINATE
    breakdown = g2_coefficient(mode, others, pert)
    if breakdown.cross_sum() != 0.0:
        return SymmetryClass.QUADRATIC_CAPABLE
    return SymmetryClass.INDETERMINATE


# ---------------------------------------------------------------- file I/O

FIELD_COLUMNS = ("x_m", "Re_E", "Im_E", "epsilon", "depsilon_dx")


def write_field_csv(
    mode: ModeField, pert: PermittivityPerturbation, path: str
) -> None:
    """Serialize a mode + perturbation to the field-file format.

    Layout: comment header carrying the mode frequency (Hz), label and
    polarization, one comment line per interface, then the sample table.
    """
    from . import _io
    from .constants import TWO_PI

    lines = []
    lines.append("# frequency_hz=%s" % _io.format_float(mode.frequency / TWO_PI))
    if mode.label:
        lines.append("# label=%s" % mode.label)
    lines.append("# polarization=%s" % mode.polarization)
    for itf in pert.interfaces:
        lines.append(
            "# interface: position_m=%s normal=%+d eps_d=%s eps_s=%s qu=%s"
            % (
                _io.format_float(itf.position),
                itf.normal_sign,
                _io.format_float(itf.eps_d),
                _io.format_float(itf.eps_s),
                _io.format_float(itf.qu),
            )
        )
    table = _io.render_csv(
        FIELD_COLUMNS,
        [mode.grid, mode.field.real, mode.field.imag, pert.epsilon, pert.depsilon_dx],
    )
    _io.atomic_write_text(path, "\n".join(lines + [table]))


def read_field_csv(path: str):
    """Parse the field-file format back into (ModeField, perturbation)."""
    from .constants import TWO_PI

    freq_hz = None
    label = ""
    polarization = "transverse"
    interfaces = []
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("interface:"):
                    spec = dict(
                        item.split("=", 1) for item in body[10:].split()
                    )
                    interfaces.append(
                        Interface(
                            position=float(spec["position_m"]),
                            normal_sign=int(spec["normal"]),
                            eps_d=float(spec["eps_d"]),
                            eps_s=float(spec["eps_s"]),
                            qu=float(spec["qu"]),
                        )
                    )
                elif "=" in body:
                    key, value = body.split("=", 1)
                    key = key.strip()
                    if key == "frequency_hz":
                        freq_hz = float(value)
                    elif key == "label":
                        label = value.strip()
                    elif key == "polarization":
                        polarization = value.strip()
                continue
            if line.startswith(FIELD_COLUMNS[0]):
                continue
            parts = line.split(",")
            if len(parts) != len(FIELD_COLUMNS):
                raise ValueError(
                    "field file row has %d columns, expected %d"
                    % (len(parts), len(FIELD_COLUMNS))
                )
            rows.append([float(v) for v in parts])
    if freq_hz is None:
        raise ValueError("field file must declare '# frequency_hz=...'")
    if not rows:
        raise ValueError("field file has no samples")
    data = np.asarray(rows)
    mode = ModeField(
        grid=data[:, 0],
        field=data[:, 1] + 1j * data[:, 2],
        frequency=freq_hz * TWO_PI,
        label=label,
        polarization=polarization,
    )
    pert = PermittivityPerturbation(
        epsilon=data[:, 3],
        depsilon_dx=data[:, 4],
        interfaces=tuple(interfaces),
    )
    return mode, pert
