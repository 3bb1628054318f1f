import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from bectension import tf_geometry as tf


MODELS = {n: tf.TFModel(n) for n in (1, 2, 3)}


class TestLambda:
    @pytest.mark.parametrize("n,expected", [
        (1, 0.75 ** (1.0 / 3.0)),
        (2, (2.0 / math.pi) ** 0.25),
        (3, (15.0 / (8.0 * math.pi)) ** 0.2),
    ])
    def test_closed_forms(self, n, expected):
        assert tf.tf_lambda(n) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unit_mass_by_quadrature(self, n):
        m = MODELS[n]
        area = tf.sphere_area(n)
        val, _ = quad(lambda r: area * r ** (n - 1) * (m.lam**2 - r * r), 0.0, m.lam,
                      epsabs=1e-14)
        assert abs(val - 1.0) < 1e-10

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            tf.tf_lambda(4)


class TestTFModel:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unit_mass_fixed_by_dimension(self, n):
        m = tf.TFModel(n)
        assert m.lam == tf.tf_lambda(n)
        assert abs(tf.ball_mass(1.0, m) - 1.0) <= 1e-15

    def test_light_cloud_cannot_be_built(self):
        # lam is derived, so no cloud lighter than the mass it is cut at exists
        with pytest.raises(TypeError):
            tf.TFModel(1, 0.5)


class TestDensity:
    def test_values(self):
        m = MODELS[2]
        assert tf.tf_density(m.lam, m) == 0.0
        assert tf.tf_density(0.0, m) == pytest.approx(m.lam**2)
        assert tf.tf_density(2.0 * m.lam, m) == 0.0


class TestBallMass:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_endpoints(self, n):
        m = MODELS[n]
        assert tf.ball_mass(0.0, m) == 0.0
        assert tf.ball_mass(1.0, m) == pytest.approx(1.0, abs=1e-14)

    def test_half_mass_radii_from_prior_analysis(self):
        assert tf.ball_mass(0.3472, MODELS[1]) == pytest.approx(0.5, abs=1e-3)
        assert tf.ball_mass(0.6435, MODELS[3]) == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_quadrature(self, n):
        m = MODELS[n]
        area = tf.sphere_area(n)
        for R in [0.2, 0.5, 0.9]:
            val, _ = quad(lambda r: area * m.lam ** (n + 2) * (1.0 - r * r) * r ** (n - 1),
                          0.0, R, epsabs=1e-14)
            assert tf.ball_mass(R, m) == pytest.approx(val, abs=1e-12)


class TestRadiusForMass:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_roundtrip_identity(self, n):
        m = MODELS[n]
        for alpha in np.linspace(0.0, 1.0, 64):
            R = tf.radius_for_mass(alpha, m)
            assert tf.ball_mass(R, m) == pytest.approx(alpha, abs=1e-10)

    def test_endpoints_exact(self):
        m = MODELS[2]
        assert tf.radius_for_mass(0.0, m) == 0.0
        assert tf.radius_for_mass(1.0, m) == 1.0

    def test_half_mass_values(self):
        assert tf.radius_for_mass(0.5, MODELS[1]) == pytest.approx(0.35, abs=0.01)
        assert tf.radius_for_mass(0.5, MODELS[3]) == pytest.approx(0.64, abs=0.01)


class TestRadialEnergy:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_at_endpoints(self, n):
        m = MODELS[n]
        assert tf.radial_energy(0.0, m) == 0.0
        assert tf.radial_energy(1.0, m) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_weighted_sphere_area(self, n):
        # independent route: surface tension density rho^(3/2) on the sphere
        # of radius lam*R times its surface measure
        m = MODELS[n]
        for alpha in [0.25, 0.5, 0.8]:
            R = tf.radius_for_mass(alpha, m)
            r_phys = m.lam * R
            rho = m.lam**2 - r_phys**2
            area = tf.sphere_area(n) * r_phys ** (n - 1)
            assert tf.radial_energy(alpha, m) == pytest.approx(
                tf.SIGMA_INFINITY * rho**1.5 * area, rel=1e-10
            )

    def test_half_mass_closed_forms(self):
        m1 = MODELS[1]
        R1 = tf.radius_for_mass(0.5, m1)
        assert tf.radial_energy(0.5, m1) == pytest.approx(
            tf.SIGMA_INFINITY * 2.0 * m1.lam**3 * (1.0 - R1**2) ** 1.5, rel=1e-12
        )
        m3 = MODELS[3]
        R3 = tf.radius_for_mass(0.5, m3)
        assert tf.radial_energy(0.5, m3) == pytest.approx(
            tf.SIGMA_INFINITY * 4.0 * math.pi * m3.lam**5 * R3**2 * (1.0 - R3**2) ** 1.5,
            rel=1e-12,
        )


class TestConcavity:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_grid_concavity(self, n):
        rep = tf.concavity_report(MODELS[n])
        assert rep.passed
        assert rep.max_second_difference < 0.0
        assert rep.max_closed_form < 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_form_negative_at_half(self, n):
        assert tf.radial_energy_second_derivative(0.5, MODELS[n]) < 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_form_matches_finite_differences(self, n):
        # step balances truncation against the radius-bisection noise 1e-12/d^2
        m = MODELS[n]
        d = 1e-4
        for alpha in [0.3, 0.5, 0.7]:
            fd = (
                tf.radial_energy(alpha + d, m)
                - 2.0 * tf.radial_energy(alpha, m)
                + tf.radial_energy(alpha - d, m)
            ) / d**2
            assert tf.radial_energy_second_derivative(alpha, m) == pytest.approx(fd, rel=1e-3)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_annulus_family(self, n):
        # mass 0.3 annulus: inner-ball mass beta1 ranges over [0, 0.7]; the
        # energy beta1 -> f(beta1) + f(beta1 + 0.3) is concave, so its
        # maximum is interior and its minimum sits on the boundary
        m = MODELS[n]
        b1 = np.linspace(0.0, 0.7, 71)
        g = np.array([tf.radial_energy(b, m) + tf.radial_energy(b + 0.3, m) for b in b1])
        k = int(np.argmax(g))
        assert 0 < k < len(b1) - 1
        assert min(g[0], g[-1]) == pytest.approx(g.min())


class TestNonradialCandidate:
    def test_halfline_cut_at_half(self):
        m = MODELS[1]
        assert tf.nonradial_candidate_energy(0.5, m) == pytest.approx(
            tf.SIGMA_INFINITY * m.lam**3, rel=1e-10
        )

    def test_halfline_cut_mass_oracle(self):
        m = MODELS[1]
        for alpha in [1e-6, 0.3, 0.6, 1.0 - 1e-6]:
            t = tf._halfline_cut(alpha, m)
            val, _ = quad(lambda x: m.lam**2 - x * x, -m.lam, t, epsabs=1e-14)
            assert val == pytest.approx(alpha, abs=1e-10)

    def test_chord_matches_closed_form(self):
        # chord energy has the closed form (3 pi / 8) (lam^2 - d^2)^2 with
        # d = 0 at half mass
        m = MODELS[2]
        assert tf.nonradial_candidate_energy(0.5, m) == pytest.approx(
            tf.SIGMA_INFINITY * 3.0 * math.pi / 8.0 * m.lam**4, rel=1e-8
        )

    def test_chord_energy_quadrature_oracle(self):
        m = MODELS[2]
        d = tf._chord_offset(0.3, m)
        half = math.sqrt(m.lam**2 - d * d)
        val, _ = quad(lambda y: (m.lam**2 - d * d - y * y) ** 1.5, -half, half,
                      epsabs=1e-13, epsrel=1e-13)
        assert tf.nonradial_candidate_energy(0.3, m) == pytest.approx(
            tf.SIGMA_INFINITY * val, rel=1e-12
        )

    def test_chord_mass_oracle(self):
        m = MODELS[2]
        alpha = 0.3
        d = tf._chord_offset(alpha, m)
        val, _ = dblquad(
            lambda y, x: max(m.lam**2 - x * x - y * y, 0.0),
            -m.lam, d, lambda x: -m.lam, lambda x: m.lam,
            epsabs=1e-11,
        )
        assert val == pytest.approx(alpha, abs=1e-8)

    def test_wedge_constant_in_alpha(self):
        m = MODELS[3]
        vals = {tf.nonradial_candidate_energy(a, m) for a in np.linspace(0.05, 0.95, 16)}
        assert len(vals) == 1

    def test_wedge_wall_quadrature_oracle(self):
        # each flat wall integrates rho^(3/2) over a half disk: pi lam^5 / 5
        lam = MODELS[3].lam
        val, _ = dblquad(
            lambda r, z: (lam**2 - r * r - z * z) ** 1.5 if r * r + z * z < lam**2 else 0.0,
            -lam, lam, 0.0, lam, epsabs=1e-10,
        )
        assert abs(val - math.pi * lam**5 / 5.0) < 1e-8
        assert tf.nonradial_candidate_energy(0.5, MODELS[3]) == pytest.approx(
            tf.SIGMA_INFINITY * 2.0 * val, rel=1e-8
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            tf.nonradial_candidate_energy(0.0, MODELS[1])
        with pytest.raises(ValueError):
            tf.nonradial_candidate_energy(1.0, MODELS[3])


class TestSymmetryBreaking:
    def test_dimension_one(self):
        rep = tf.symmetry_breaking_report(MODELS[1])
        assert rep.split_radius == pytest.approx(0.35, abs=0.01)
        assert rep.ratio == pytest.approx(1.65, abs=0.02)
        assert rep.broken
        assert not rep.derived_from_citation
        # the discriminant is pure geometry: 2 (1 - R^2)^(3/2)
        assert rep.ratio == pytest.approx(2.0 * (1.0 - rep.split_radius**2) ** 1.5, rel=1e-10)

    def test_dimension_three(self):
        rep = tf.symmetry_breaking_report(MODELS[3])
        assert rep.split_radius == pytest.approx(0.64, abs=0.01)
        assert rep.ratio == pytest.approx(1.86, abs=0.02)
        assert rep.broken
        R = rep.split_radius
        assert rep.ratio == pytest.approx(10.0 * R**2 * (1.0 - R**2) ** 1.5, rel=1e-10)

    def test_dimension_two_flagged_as_citation(self):
        rep = tf.symmetry_breaking_report(MODELS[2])
        assert rep.broken
        assert rep.derived_from_citation

    def test_flag_logic(self):
        ratio, broken = tf._breaking_verdict(1.0, 2.0)
        assert ratio == 0.5
        assert not broken

    def test_verdict_invariant_under_tension_scale(self):
        # multiplying both energies by any positive surface tension leaves
        # the verdict unchanged
        for scale in [1e-3, 1.0, 17.0]:
            r1, b1 = tf._breaking_verdict(1.3, 1.0)
            r2, b2 = tf._breaking_verdict(1.3 * scale, 1.0 * scale)
            assert b1 == b2
            assert r1 == pytest.approx(r2, rel=1e-12)


class TestLocalSurfaceTension:
    def test_boundary_and_center(self):
        m = MODELS[1]
        assert tf.local_surface_tension(m.lam, m, 1.0) == 0.0
        assert tf.local_surface_tension(0.0, m, tf.SIGMA_INFINITY) == pytest.approx(
            tf.SIGMA_INFINITY * m.lam**3, rel=1e-14
        )

    def test_linearity(self):
        m = MODELS[3]
        a = tf.local_surface_tension(0.3, m, 0.7)
        b = tf.local_surface_tension(0.3, m, 1.4)
        assert b == pytest.approx(2.0 * a, rel=1e-14)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            tf.local_surface_tension(0.1, MODELS[1], -1.0)
