"""Perturbative coupling coefficients from sampled 1D mode fields."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndsim.constants import TWO_PI
from qndsim.coupling import (
    FIELD_COLUMNS,
    Interface,
    ModeField,
    PermittivityPerturbation,
    SymmetryClass,
    boundary_overlap,
    classify_symmetry,
    g1_coefficient,
    g2_coefficient,
    inner_product,
    read_field_csv,
    write_field_csv,
)


def unit_slab(n=2001):
    return np.linspace(0.0, 1.0, n)


def symmetric_slab(n=2001):
    return np.linspace(-1.0, 1.0, n)


class TestModeFieldValidation:
    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError, match="3 samples"):
            ModeField(grid=[0.0, 1.0], field=[1.0, 1.0], frequency=1.0)
        with pytest.raises(ValueError, match="increasing"):
            ModeField(grid=[0.0, 2.0, 1.0], field=[1, 1, 1], frequency=1.0)
        with pytest.raises(ValueError, match="lengths"):
            ModeField(grid=[0.0, 1.0, 2.0], field=[1, 1], frequency=1.0)

    def test_rejects_bad_values(self):
        g = [0.0, 1.0, 2.0]
        with pytest.raises(ValueError, match="finite"):
            ModeField(grid=g, field=[1.0, np.nan, 1.0], frequency=1.0)
        with pytest.raises(ValueError, match="frequency"):
            ModeField(grid=g, field=[1, 1, 1], frequency=0.0)
        with pytest.raises(ValueError, match="polarization"):
            ModeField(grid=g, field=[1, 1, 1], frequency=1.0, polarization="tm")

    def test_span(self):
        m = ModeField(grid=[0.5, 1.0, 2.5], field=[1, 1, 1], frequency=1.0)
        assert m.span == 2.0


class TestPerturbationValidation:
    def test_shape_and_sign_checks(self):
        with pytest.raises(ValueError, match="one grid"):
            PermittivityPerturbation(epsilon=[1.0, 1.0], depsilon_dx=[0.0])
        with pytest.raises(ValueError, match="positive"):
            PermittivityPerturbation(epsilon=[1.0, -1.0], depsilon_dx=[0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            PermittivityPerturbation(epsilon=[1.0, 1.0], depsilon_dx=[0.0, np.inf])

    def test_interface_validation(self):
        with pytest.raises(ValueError, match="normal_sign"):
            Interface(position=0.0, normal_sign=0, eps_d=2.0, eps_s=1.0, qu=1.0)
        with pytest.raises(ValueError, match="permittivities"):
            Interface(position=0.0, normal_sign=1, eps_d=-2.0, eps_s=1.0, qu=1.0)

    def test_check_grid(self):
        g = unit_slab(11)
        pert = PermittivityPerturbation(
            epsilon=np.ones(11),
            depsilon_dx=np.zeros(11),
            interfaces=(
                Interface(position=2.0, normal_sign=1, eps_d=2.0, eps_s=1.0, qu=1.0),
            ),
        )
        with pytest.raises(ValueError, match="outside"):
            pert.check_grid(g)


class TestInnerProduct:
    def test_linear_integrands_are_exact(self):
        g = unit_slab(101)
        ones = ModeField(grid=g, field=np.ones_like(g), frequency=1.0)
        lin = ModeField(grid=g, field=2.0 * g + 3.0, frequency=1.0)
        assert inner_product(ones, 1.0, lin) == pytest.approx(4.0, rel=1e-14)
        assert inner_product(ones, np.ones_like(g), ones) == pytest.approx(
            1.0, rel=1e-14
        )

    def test_complex_fields_conjugate_left(self):
        g = unit_slab(101)
        a = ModeField(grid=g, field=1j * np.ones_like(g), frequency=1.0)
        b = ModeField(grid=g, field=g, frequency=1.0)
        # <a|b> = conj(i) * integral x = -0.5i
        assert inner_product(a, 1.0, b) == pytest.approx(-0.5j, rel=1e-14)
        assert inner_product(b, 1.0, a) == pytest.approx(+0.5j, rel=1e-14)

    def test_grid_mismatch_rejected(self):
        a = ModeField(grid=unit_slab(11), field=np.ones(11), frequency=1.0)
        b = ModeField(grid=unit_slab(12), field=np.ones(12), frequency=1.0)
        with pytest.raises(ValueError, match="share"):
            inner_product(a, 1.0, b)
        with pytest.raises(ValueError, match="weight"):
            inner_product(a, np.ones(12), a)


class TestLinearPull:
    def test_zero_perturbation(self):
        g = unit_slab(51)
        mode = ModeField(grid=g, field=np.sin(math.pi * g), frequency=5.0)
        pert = PermittivityPerturbation(epsilon=np.ones(51), depsilon_dx=np.zeros(51))
        assert g1_coefficient(mode, pert) == 0.0

    def test_even_mode_odd_perturbation_vanishes(self):
        # symmetric geometry: the self-overlap integrand is odd, so the
        # linear pull cancels to roundoff
        g = symmetric_slab(801)
        mode = ModeField(grid=g, field=np.cos(0.5 * math.pi * g), frequency=3.0)
        pert = PermittivityPerturbation(
            epsilon=np.full(g.shape, 2.0), depsilon_dx=g.copy()
        )
        g1 = g1_coefficient(mode, pert)
        assert abs(g1) < 1e-12 * mode.frequency / mode.span

    def test_uniform_relative_perturbation(self):
        # de/dx = c eps everywhere: the ratio is c and G1 = -omega c / 2,
        # matching omega ~ 1/sqrt(eps) for a uniformly filled resonator
        g = unit_slab(51)
        eps = np.full(g.shape, 2.25)
        c = 0.02
        mode = ModeField(grid=g, field=np.sin(math.pi * g), frequency=7.0)
        pert = PermittivityPerturbation(epsilon=eps, depsilon_dx=c * eps)
        assert g1_coefficient(mode, pert) == pytest.approx(
            -0.5 * 7.0 * c, rel=1e-12
        )

    def test_zero_norm_rejected(self):
        g = unit_slab(11)
        mode = ModeField(grid=g, field=np.zeros(11), frequency=1.0)
        pert = PermittivityPerturbation(epsilon=np.ones(11), depsilon_dx=np.ones(11))
        with pytest.raises(ValueError, match="norm"):
            g1_coefficient(mode, pert)

    @settings(deadline=None, max_examples=40)
    @given(
        modulus=st.floats(0.3, 3.0),
        phase=st.floats(0.0, 2.0 * math.pi),
    )
    def test_invariant_under_complex_rescaling(self, modulus, phase):
        g = unit_slab(201)
        base = np.sin(math.pi * g) + 0.2
        pert = PermittivityPerturbation(
            epsilon=np.full(g.shape, 2.0), depsilon_dx=0.3 + g
        )
        z = modulus * complex(math.cos(phase), math.sin(phase))
        a = ModeField(grid=g, field=base, frequency=4.0)
        b = ModeField(grid=g, field=z * base, frequency=4.0)
        ga, gb = g1_coefficient(a, pert), g1_coefficient(b, pert)
        assert gb == pytest.approx(ga, rel=1e-12)


class TestQuadraticPull:
    def fixture(self):
        g = unit_slab(2001)
        ones = np.ones_like(g)
        mode = ModeField(grid=g, field=ones, frequency=1.0, label="target")
        other = ModeField(grid=g, field=g.copy(), frequency=2.0, label="partner")
        pert = PermittivityPerturbation(epsilon=ones, depsilon_dx=ones)
        return mode, other, pert

    def test_against_hand_computed_overlaps(self):
        # <E_i|e|E_i> = 1, <E_j|de|E_i> = 1/2, <E_j|e|E_j> = 1/3,
        # g1 = -1/2; self = 3/4, cross = 1/(1-4) * (1/4)/(1/3) = -1/4
        mode, other, pert = self.fixture()
        out = g2_coefficient(mode, [other], pert)
        assert out.g1 == pytest.approx(-0.5, rel=1e-12)
        assert out.self_term == pytest.approx(0.75, rel=1e-12)
        assert out.cross_terms[0][0] == "partner"
        assert out.cross_terms[0][1] == pytest.approx(-0.25, rel=1e-6)
        assert out.total == pytest.approx(0.5, rel=1e-5)
        assert out.truncation_estimate == pytest.approx(0.25, rel=1e-6)
        assert out.cross_sum() == pytest.approx(-0.25, rel=1e-6)

    def test_no_partners_reduces_to_self_term(self):
        mode, _, pert = self.fixture()
        out = g2_coefficient(mode, [], pert)
        assert out.total == out.self_term
        assert out.cross_terms == ()
        assert out.truncation_estimate == 0.0

    def test_degenerate_partner_rejected(self):
        mode, other, pert = self.fixture()
        twin = ModeField(
            grid=mode.grid, field=other.field, frequency=mode.frequency
        )
        with pytest.raises(ValueError, match="degenerate"):
            g2_coefficient(mode, [twin], pert)

    def test_unlabeled_partner_gets_indexed_name(self):
        mode, other, pert = self.fixture()
        anon = ModeField(grid=mode.grid, field=other.field, frequency=2.0)
        out = g2_coefficient(mode, [anon], pert)
        assert out.cross_terms[0][0] == "mode_0"

    @settings(deadline=None, max_examples=25)
    @given(
        modulus=st.floats(0.3, 3.0),
        phase=st.floats(0.0, 2.0 * math.pi),
    )
    def test_total_invariant_under_rescaling(self, modulus, phase):
        mode, other, pert = self.fixture()
        z = modulus * complex(math.cos(phase), math.sin(phase))
        scaled = ModeField(
            grid=mode.grid, field=z * mode.field, frequency=mode.frequency
        )
        a = g2_coefficient(mode, [other], pert).total
        b = g2_coefficient(scaled, [other], pert).total
        assert b == pytest.approx(a, rel=1e-12)


class TestBoundaryOverlap:
    def interface_setup(self, qu=1.5, polarization="transverse"):
        g = unit_slab(11)
        eps = np.where(g < 0.5, 4.0, 1.0)
        pert = PermittivityPerturbation(
            epsilon=eps,
            depsilon_dx=np.zeros_like(g),
            interfaces=(
                Interface(
                    position=0.5, normal_sign=1, eps_d=4.0, eps_s=1.0, qu=qu
                ),
            ),
        )
        fi = np.cos(g)
        fj = np.sin(g) + 2.0
        mi = ModeField(grid=g, field=fi, frequency=1.0, polarization=polarization)
        mj = ModeField(grid=g, field=fj, frequency=2.0, polarization=polarization)
        return g, mi, mj, pert

    def test_transverse_branch_hand_value(self):
        g, mi, mj, pert = self.interface_setup(qu=1.5)
        out = boundary_overlap((mi, mj), pert)
        want = 1.5 * (4.0 - 1.0) * math.cos(0.5) * (math.sin(0.5) + 2.0)
        assert out == pytest.approx(want, rel=1e-14)

    def test_normal_branch_uses_displacement_field(self):
        g, mi, mj, pert = self.interface_setup(qu=1.5, polarization="normal")
        out = boundary_overlap((mi, mj), pert)
        # D is formed from the permittivity sample at the interface point,
        # which the step profile (g < 0.5) assigns the substrate value
        eps_here = 1.0
        d_eps_inv = 1.0 / 4.0 - 1.0 / 1.0
        want = 1.5 * (
            -d_eps_inv * (eps_here * math.cos(0.5)) * (eps_here * (math.sin(0.5) + 2.0))
        )
        assert out == pytest.approx(want, rel=1e-14)

    def test_zero_motion_contributes_nothing(self):
        g, mi, mj, pert = self.interface_setup(qu=0.0)
        assert boundary_overlap((mi, mj), pert) == 0.0

    def test_off_grid_interface_rejected(self):
        g, mi, mj, _ = self.interface_setup()
        pert = PermittivityPerturbation(
            epsilon=np.ones_like(g),
            depsilon_dx=np.zeros_like(g),
            interfaces=(
                Interface(
                    position=0.53, normal_sign=1, eps_d=2.0, eps_s=1.0, qu=1.0
                ),
            ),
        )
        with pytest.raises(ValueError, match="grid point"):
            boundary_overlap((mi, mj), pert)

    def test_requires_interfaces_and_matching_polarization(self):
        g, mi, mj, _ = self.interface_setup()
        bare = PermittivityPerturbation(
            epsilon=np.ones_like(g), depsilon_dx=np.zeros_like(g)
        )
        with pytest.raises(ValueError, match="interface"):
            boundary_overlap((mi, mj), bare)
        _, _, mj_n, pert = self.interface_setup(polarization="normal")
        with pytest.raises(ValueError, match="polarization"):
            boundary_overlap((mi, mj_n), pert)


class TestSymmetryClassifier:
    def test_asymmetric_grid_is_indeterminate(self):
        g = np.concatenate([np.linspace(-1, 0, 50, endpoint=False),
                            np.linspace(0, 1.3, 51)])
        mode = ModeField(grid=g, field=np.ones_like(g), frequency=1.0)
        pert = PermittivityPerturbation(
            epsilon=np.ones_like(g), depsilon_dx=np.ones_like(g)
        )
        assert classify_symmetry(mode, pert) is SymmetryClass.INDETERMINATE

    def test_zero_perturbation_is_indeterminate(self):
        g = symmetric_slab(101)
        mode = ModeField(grid=g, field=np.cos(0.5 * math.pi * g), frequency=1.0)
        pert = PermittivityPerturbation(
            epsilon=np.ones_like(g), depsilon_dx=np.zeros_like(g)
        )
        assert classify_symmetry(mode, pert) is SymmetryClass.INDETERMINATE

    def test_even_perturbation_is_linear_dominant(self):
        g = symmetric_slab(101)
        mode = ModeField(grid=g, field=np.cos(0.5 * math.pi * g), frequency=1.0)
        pert = PermittivityPerturbation(
            epsilon=np.ones_like(g), depsilon_dx=np.full(g.shape, 0.1)
        )
        assert classify_symmetry(mode, pert) is SymmetryClass.LINEAR_DOMINANT

    @pytest.mark.parametrize("eps, verdict", [
        (1e-7, SymmetryClass.LINEAR_DOMINANT),
        (1e-9, SymmetryClass.INDETERMINATE),
    ])
    def test_linear_threshold_is_1e_8_of_frequency_over_span(self, eps, verdict):
        # the odd part of de/dx pulls nothing, so |g1| = eps / 2 against
        # the threshold 1e-8 * frequency / span = 5e-9: 10x and 0.1x of it
        g = symmetric_slab(101)
        mode = ModeField(grid=g, field=np.cos(0.5 * math.pi * g), frequency=1.0)
        pert = PermittivityPerturbation(
            epsilon=np.ones_like(g), depsilon_dx=g + eps
        )
        assert classify_symmetry(mode, pert) is verdict

    def test_grid_off_symmetry_by_1e_9_of_span_is_indeterminate(self):
        # the grid tolerance is 1e-12 of the span: moving the last point
        # by 1e-9 of it breaks the symmetry the verdict rests on
        g = symmetric_slab(101)
        g[-1] += 1e-9 * (g[-1] - g[0])
        mode = ModeField(grid=g, field=np.cos(0.5 * math.pi * g), frequency=1.0)
        pert = PermittivityPerturbation(
            epsilon=np.ones_like(g), depsilon_dx=np.full(g.shape, 0.1)
        )
        assert classify_symmetry(mode, pert) is SymmetryClass.INDETERMINATE

    def test_odd_perturbation_with_coupling_partner(self):
        g = symmetric_slab(801)
        mode = ModeField(grid=g, field=np.cos(0.5 * math.pi * g), frequency=1.0)
        partner = ModeField(grid=g, field=np.sin(math.pi * g), frequency=2.0)
        pert = PermittivityPerturbation(
            epsilon=np.ones_like(g), depsilon_dx=g.copy()
        )
        out = classify_symmetry(mode, pert, others=[partner])
        assert out is SymmetryClass.QUADRATIC_CAPABLE

    def test_odd_perturbation_without_partners(self):
        g = symmetric_slab(801)
        mode = ModeField(grid=g, field=np.cos(0.5 * math.pi * g), frequency=1.0)
        pert = PermittivityPerturbation(
            epsilon=np.ones_like(g), depsilon_dx=g.copy()
        )
        assert classify_symmetry(mode, pert) is SymmetryClass.INDETERMINATE

    def test_partner_blind_to_perturbation_is_indeterminate(self):
        # partner field lives only where de/dx vanishes: every cross term
        # is exactly zero pointwise
        g = symmetric_slab(801)
        mode = ModeField(grid=g, field=np.cos(0.5 * math.pi * g), frequency=1.0)
        blind = ModeField(
            grid=g,
            field=np.where(np.abs(g) < 0.4, 1.0, 0.0),
            frequency=2.0,
        )
        pert = PermittivityPerturbation(
            epsilon=np.ones_like(g),
            depsilon_dx=np.where(np.abs(g) > 0.5, g, 0.0),
        )
        out = classify_symmetry(mode, pert, others=[blind])
        assert out is SymmetryClass.INDETERMINATE


class TestFieldFile:
    def sample(self):
        g = unit_slab(41)
        mode = ModeField(
            grid=g,
            field=np.sin(math.pi * g) + 0.25j * g,
            frequency=TWO_PI * 193.4e12,
            label="fundamental",
            polarization="normal",
        )
        pert = PermittivityPerturbation(
            epsilon=1.0 + g,
            depsilon_dx=0.5 - g,
            interfaces=(
                Interface(position=0.5, normal_sign=-1, eps_d=2.0, eps_s=1.0, qu=0.7),
                Interface(position=0.75, normal_sign=1, eps_d=2.0, eps_s=1.0, qu=-0.7),
            ),
        )
        return mode, pert

    def test_round_trip(self, tmp_path):
        mode, pert = self.sample()
        path = tmp_path / "mode.csv"
        write_field_csv(mode, pert, str(path))
        back_mode, back_pert = read_field_csv(str(path))
        assert np.array_equal(back_mode.grid, mode.grid)
        assert np.array_equal(back_mode.field, mode.field)
        assert back_mode.frequency == pytest.approx(mode.frequency, rel=1e-15)
        assert back_mode.label == "fundamental"
        assert back_mode.polarization == "normal"
        assert np.array_equal(back_pert.epsilon, pert.epsilon)
        assert np.array_equal(back_pert.depsilon_dx, pert.depsilon_dx)
        assert back_pert.interfaces == pert.interfaces

    def test_header_layout(self, tmp_path):
        mode, pert = self.sample()
        path = tmp_path / "mode.csv"
        write_field_csv(mode, pert, str(path))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# frequency_hz=")
        assert sum(1 for ln in lines if ln.startswith("# interface:")) == 2
        header_idx = lines.index(",".join(FIELD_COLUMNS))
        assert len(lines) - header_idx - 1 == len(mode.grid)

    def test_missing_frequency_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(FIELD_COLUMNS) + "\n0,1,0,1,0\n0.5,1,0,1,0\n1,1,0,1,0\n"
        )
        with pytest.raises(ValueError, match="frequency_hz"):
            read_field_csv(str(path))

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# frequency_hz=1e14\n" + ",".join(FIELD_COLUMNS) + "\n0,1,0\n")
        with pytest.raises(ValueError, match="columns"):
            read_field_csv(str(path))

    def test_empty_table_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# frequency_hz=1e14\n" + ",".join(FIELD_COLUMNS) + "\n")
        with pytest.raises(ValueError, match="samples"):
            read_field_csv(str(path))
