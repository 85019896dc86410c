import cmath
import math

import numpy as np
import pytest

from qring.errors import NonUnitary, NotUnitary
from qring.spectrum import full_spectrum
from qring.u2 import (
    SIGMA1,
    SIGMA3,
    CharacteristicMatrix,
    Geometry,
    SpectralTriple,
    classify,
    from_matrix,
    haar_random,
    induced_map,
    p_theta_map,
    parity_map,
    pt_map,
    separated_lengths,
    smooth_flux,
    spectral_triple,
    time_reversal_map,
    to_matrix,
    triple_to_matrix,
)

GEOM = Geometry(1.0, 1.0)


def approx_u(u, xi, alpha, beta, tol=1e-12):
    assert abs(u.xi - xi) < tol
    assert abs(u.alpha - alpha) < tol
    assert abs(u.beta - beta) < tol


class TestFromMatrix:
    def test_identity(self):
        approx_u(from_matrix(np.eye(2)), 0.0, 1.0, 0.0)

    def test_exchange(self):
        # solve e^{i xi} beta = 1 and -e^{i xi} conj(beta) = 1 by hand: xi = pi/2, beta = -i
        approx_u(from_matrix(SIGMA1), math.pi / 2, 0.0, -1.0j)

    def test_minus_identity(self):
        # xi in [0, pi) pushes the sign into alpha
        approx_u(from_matrix(-np.eye(2)), 0.0, -1.0, 0.0)

    def test_rejects_non_unitary(self):
        with pytest.raises(NonUnitary):
            from_matrix(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_round_trip_haar(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            u = haar_random(rng)
            v = from_matrix(to_matrix(u))
            approx_u(v, u.xi, u.alpha, u.beta)


class TestToMatrix:
    def test_identity(self):
        assert np.abs(to_matrix(CharacteristicMatrix(0.0, 1.0, 0.0)) - np.eye(2)).max() < 1e-15

    def test_exchange(self):
        assert np.abs(to_matrix(CharacteristicMatrix(math.pi / 2, 0.0, -1.0j)) - SIGMA1).max() < 1e-15

    def test_sigma3(self):
        # e^{i pi/2} (-i) = 1
        assert np.abs(to_matrix(CharacteristicMatrix(math.pi / 2, -1.0j, 0.0)) - SIGMA3).max() < 1e-15


class TestSpectralTriple:
    def test_exchange(self):
        t = spectral_triple(from_matrix(SIGMA1))
        assert (t.xi, t.alpha_r, t.beta_i) == pytest.approx((math.pi / 2, 0.0, -1.0))

    def test_identity(self):
        t = spectral_triple(from_matrix(np.eye(2)))
        assert (t.xi, t.alpha_r, t.beta_i) == (0.0, 1.0, 0.0)

    def test_diag_i(self):
        t = spectral_triple(from_matrix(np.diag([1j, -1j])))
        assert (t.xi, t.alpha_r, t.beta_i) == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            SpectralTriple(0.0, 0.9, 0.9)


class TestMaps:
    def test_parity_examples(self):
        u = from_matrix(np.eye(2))
        assert parity_map(u) == u
        v = CharacteristicMatrix(math.pi / 2, 1.0j, 0.0)
        approx_u(parity_map(v), math.pi / 2, -1.0j, 0.0)
        s = from_matrix(SIGMA1)
        assert parity_map(s) == s  # commutant fixed point

    def test_time_reversal_examples(self):
        u = from_matrix(np.eye(2))
        assert time_reversal_map(u) == u
        s = from_matrix(SIGMA1)
        assert time_reversal_map(s) == s  # beta purely imaginary is fixed
        v = CharacteristicMatrix(0.0, 0.0, 1.0)
        approx_u(time_reversal_map(v), 0.0, 0.0, -1.0)

    def test_pt_examples(self):
        u = from_matrix(np.eye(2))
        assert pt_map(u) == u
        v = CharacteristicMatrix(0.0, 1.0j, 0.0)
        approx_u(pt_map(v), 0.0, -1.0j, 0.0)
        w = CharacteristicMatrix(0.3, 0.0, cmath.exp(0.7j))
        assert pt_map(w) == w  # beta-only matrices are fixed

    def test_involutions_and_composition(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            u = haar_random(rng)
            assert parity_map(parity_map(u)) == u
            assert time_reversal_map(time_reversal_map(u)) == u
            assert pt_map(pt_map(u)) == u
            assert pt_map(u) == parity_map(time_reversal_map(u))

    def test_maps_preserve_triple_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            u = haar_random(rng)
            t = spectral_triple(u)
            for v in (parity_map(u), time_reversal_map(u), pt_map(u), p_theta_map(u, 1.234)):
                tv = spectral_triple(v)
                assert (tv.xi, tv.alpha_r, tv.beta_i) == (t.xi, t.alpha_r, t.beta_i)

    def test_fixed_points_characterize_subfamilies(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = haar_random(rng)
            rep = classify(u, GEOM)
            close = lambda a, b: (
                abs(a.xi - b.xi) < 1e-10
                and abs(a.alpha - b.alpha) < 1e-10
                and abs(a.beta - b.beta) < 1e-10
            )
            assert close(parity_map(u), u) == rep.parity
            assert close(time_reversal_map(u), u) == rep.time_reversal
            assert close(pt_map(u), u) == rep.space_time


class TestPTheta:
    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(4)
        u = haar_random(rng)
        assert p_theta_map(u, 0.0) == u

    def test_quarter_turn(self):
        # (alpha_i, beta_r) = (0, 1) rotates to (1, 0)
        u = CharacteristicMatrix(0.4, math.sqrt(1 - 0.5**2 - 0.5**2), complex(0.5, 0.5))
        v = p_theta_map(u, math.pi / 2)
        assert v.beta.real == pytest.approx(-u.alpha.imag, abs=1e-15)
        assert v.alpha.imag == pytest.approx(u.beta.real, abs=1e-15)

    def test_composition_adds_angles(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = haar_random(rng)
            t1, t2 = rng.uniform(0, 2 * math.pi, 2)
            a = p_theta_map(p_theta_map(u, t1), t2)
            b = p_theta_map(u, (t1 + t2) % (2 * math.pi))
            assert abs(a.alpha - b.alpha) < 1e-13 and abs(a.beta - b.beta) < 1e-13


class TestInducedMap:
    def test_exchange_conjugation_is_parity(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            u = haar_random(rng)
            w = induced_map(u, SIGMA1, SIGMA1)
            p = parity_map(u)
            assert abs(w.alpha - p.alpha) < 1e-10 and abs(w.beta - p.beta) < 1e-10

    def test_identity_conjugation(self):
        rng = np.random.default_rng(7)
        u = haar_random(rng)
        w = induced_map(u, np.eye(2), np.eye(2))
        assert abs(w.alpha - u.alpha) < 1e-12 and abs(w.beta - u.beta) < 1e-12

    def test_exponential_generates_rotation(self):
        rng = np.random.default_rng(8)
        for theta in (0.3, 1.7, 4.4):
            u = haar_random(rng)
            m = math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * SIGMA1
            w = induced_map(u, m, m)
            v = p_theta_map(u, theta)
            assert abs(w.alpha - v.alpha) < 1e-10 and abs(w.beta - v.beta) < 1e-10

    def test_not_unitary_rejected(self):
        # M != N generically fails to induce a unitary image (diagonal U is
        # the exception, so use a generic one)
        u = haar_random(np.random.default_rng(8))
        with pytest.raises(NotUnitary):
            induced_map(u, SIGMA3, np.eye(2))


class TestClassify:
    def test_exchange(self):
        rep = classify(from_matrix(SIGMA1), GEOM)
        assert rep.scale_independent and rep.time_reversal and rep.space_time
        assert rep.semi_isospectral and rep.susy_plus and rep.parity and rep.smooth
        assert not rep.separated and not rep.susy_minus and not rep.isospectral

    def test_minus_identity(self):
        rep = classify(from_matrix(-np.eye(2)), GEOM)
        assert rep.separated and rep.parity and rep.time_reversal and rep.space_time
        assert rep.isospectral and rep.self_dual and rep.scale_independent
        assert not rep.smooth  # a box, not a smooth circle
        assert rep.length_left == pytest.approx(0.0, abs=1e-12)
        assert rep.length_right == pytest.approx(0.0, abs=1e-12)

    def test_sigma3_box(self):
        rep = classify(from_matrix(SIGMA3), GEOM)
        assert rep.separated and rep.scale_independent
        lengths = sorted([rep.length_left, rep.length_right], key=abs)
        assert lengths[0] == pytest.approx(0.0, abs=1e-12)
        assert lengths[1] == math.inf

    def test_neumann_lengths(self):
        rep = classify(from_matrix(np.eye(2)), GEOM)
        assert rep.length_left == math.inf and rep.length_right == math.inf

    def test_implication_lattice_on_random(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            rep = classify(haar_random(rng), GEOM)
            if rep.smooth:
                assert rep.scale_independent
            if rep.susy_plus or rep.susy_minus:
                assert rep.scale_independent
            if rep.self_dual:
                assert rep.parity and rep.separated


def test_separated_lengths_orderings_swap_under_parity():
    # the two orderings label the same physics with the ends exchanged
    u = from_matrix(np.diag([cmath.exp(0.7j), cmath.exp(-0.2j)]))
    l1, l2 = separated_lengths(u, GEOM)
    p1, p2 = separated_lengths(parity_map(u), GEOM)
    assert (l1, l2) == pytest.approx((p1, p2)) or (l1, l2) == pytest.approx((p2, p1))


def test_smooth_flux_convention():
    assert smooth_flux(from_matrix(SIGMA1)) == pytest.approx(0.0)
    assert smooth_flux(from_matrix(-SIGMA1)) == pytest.approx(math.pi)


def test_triple_representative_round_trips():
    rng = np.random.default_rng(10)
    for _ in range(50):
        u = haar_random(rng)
        t = spectral_triple(u)
        rep = triple_to_matrix(t)
        tr = spectral_triple(rep)
        assert abs(tr.xi - t.xi) < 1e-14
        assert abs(tr.alpha_r - t.alpha_r) < 1e-14
        assert abs(tr.beta_i - t.beta_i) < 1e-14


def test_triple_just_inside_the_disc_has_a_representative():
    # slack 5e-11: above the norm tolerance of CharacteristicMatrix, so it goes to Im alpha
    t = SpectralTriple(0.5, 0.6, math.sqrt(1.0 - 0.36 - 5e-11))
    rep = triple_to_matrix(t)
    assert rep.alpha.imag == pytest.approx(math.sqrt(5e-11), rel=1e-4)
    assert len(full_spectrum(t, GEOM, 5).positive_wavenumbers()) == 5
