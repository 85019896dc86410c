import math
import warnings

import numpy as np
import pytest

from qring.errors import NonConvergent, SingularCoefficients, TruncationWarning, Unsupported, WeightOverflow
from qring.kernels import (
    KernelQuery,
    box_kernel,
    euclidean_query,
    free_kernel,
    kernel_crosscheck,
    reduced_time,
    scale_invariant_coefficients,
    scale_invariant_kernel,
    smooth_kernel,
    spectral_kernel,
)
from qring.u2 import SIGMA1, CharacteristicMatrix, Geometry, SpectralTriple, from_matrix, triple_to_matrix

GEOM = Geometry(1.0, 1.0)
TAU = 0.1
XS = np.linspace(1 / 32, 1 - 1 / 32, 16)
BB, AA = np.meshgrid(XS, XS, indexing="ij")
QUERY = euclidean_query(AA, BB, TAU)


def dirichlet_eigensum(b, a, tau, n_max=60):
    """Frozen oracle: sum (2/l) sin(n pi b/l) sin(n pi a/l) exp(-(n pi/l)^2 tau)."""
    out = np.zeros(np.broadcast(b, a).shape)
    for n in range(1, n_max):
        k = n * math.pi / GEOM.l
        if k * k * tau > 80:
            break
        out = out + (2 / GEOM.l) * np.sin(k * b) * np.sin(k * a) * math.exp(-k * k * tau)
    return out


def neumann_eigensum(b, a, tau, n_max=60):
    out = np.full(np.broadcast(b, a).shape, 1.0 / GEOM.l)
    for n in range(1, n_max):
        k = n * math.pi / GEOM.l
        if k * k * tau > 80:
            break
        out = out + (2 / GEOM.l) * np.cos(k * b) * np.cos(k * a) * math.exp(-k * k * tau)
    return out


def half_integer_eigensum(b, a, tau, trig, n_max=60):
    out = np.zeros(np.broadcast(b, a).shape)
    for n in range(n_max):
        k = (n + 0.5) * math.pi / GEOM.l
        if k * k * tau > 80:
            break
        out = out + (2 / GEOM.l) * trig(k * b) * trig(k * a) * math.exp(-k * k * tau)
    return out


class TestBoxKernel:
    def test_dirichlet_matches_eigen_sum(self):
        k = box_kernel((0, 0), GEOM, QUERY)
        assert np.abs(k - dirichlet_eigensum(BB, AA, TAU)).max() < 1e-10

    def test_neumann_matches_eigen_sum(self):
        k = box_kernel((math.inf, math.inf), GEOM, QUERY)
        assert np.abs(k - neumann_eigensum(BB, AA, TAU)).max() < 1e-10

    def test_mixed_cases_match_half_integer_sums(self):
        k = box_kernel((0, math.inf), GEOM, QUERY)
        assert np.abs(k - half_integer_eigensum(BB, AA, TAU, np.sin)).max() < 1e-10
        k = box_kernel((math.inf, 0), GEOM, QUERY)
        assert np.abs(k - half_integer_eigensum(BB, AA, TAU, np.cos)).max() < 1e-10

    def test_short_time_diagonal_positive_and_below_free(self):
        tau = 5e-3
        a = 0.3
        q = euclidean_query(a, a, tau)
        k = box_kernel((0, 0), GEOM, q)
        free = free_kernel(0.0, -1j * tau).real
        assert 0 < k.real < free
        # the deficit is the nearest odd image
        assert free - k.real == pytest.approx(free_kernel(2 * a, -1j * tau).real, rel=1e-6)

    def test_dirichlet_wall_vanishes_linearly(self):
        tau = 0.05
        eps = np.array([1e-4, 2e-4, 4e-4])
        q = euclidean_query(0.4, eps, tau)
        vals = np.abs(box_kernel((0, 0), GEOM, q))
        assert vals[1] / vals[0] == pytest.approx(2.0, rel=1e-3)
        assert vals[2] / vals[1] == pytest.approx(2.0, rel=1e-3)

    def test_real_time_needs_budget(self):
        with pytest.raises(NonConvergent):
            box_kernel((0, 0), GEOM, KernelQuery(0.2, 0.7, 1.0))
        k = box_kernel((0, 0), GEOM, KernelQuery(0.2, 0.7, 1.0, n_max=8))
        assert np.isfinite(k.real)

    def test_euclidean_budget_below_the_tail_bound_warns(self):
        # at tau = 1 the Gaussian tail needs several shells of period 2 l
        capped = KernelQuery(0.2, 0.7, -1.0j, n_max=1)
        with pytest.warns(TruncationWarning, match="n_max = 1"):
            short = box_kernel((0, 0), GEOM, capped)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            full = box_kernel((0, 0), GEOM, KernelQuery(0.2, 0.7, -1.0j, n_max=1000))
            assert full == box_kernel((0, 0), GEOM, euclidean_query(0.2, 0.7, 1.0))
        assert abs(short - full) > 1e-6


class TestSmoothKernel:
    def test_trace_matches_jacobi_resummation(self):
        # integral over the diagonal equals both lattice sums
        n_grid = 400
        xs = (np.arange(n_grid) + 0.5) / n_grid
        q = euclidean_query(xs, xs, TAU)
        trace = smooth_kernel(0.0, GEOM, q).sum() / n_grid
        spectral = sum(
            math.exp(-((2 * math.pi * n / GEOM.l) ** 2) * TAU) for n in range(-60, 61)
        )
        image = (GEOM.l / math.sqrt(4 * math.pi * TAU)) * sum(
            math.exp(-(n * GEOM.l) ** 2 / (4 * TAU)) for n in range(-30, 31)
        )
        assert spectral == pytest.approx(image, abs=1e-12)
        assert trace.real == pytest.approx(spectral, abs=1e-12)

    def test_flux_free_trace_matches_exchange_spectrum(self):
        # zero mode plus doublets: the solver's levels resum the same trace
        from qring.spectrum import full_spectrum

        n_grid = 400
        xs = (np.arange(n_grid) + 0.5) / n_grid
        trace = smooth_kernel(0.0, GEOM, euclidean_query(xs, xs, TAU)).sum().real / n_grid
        spec = full_spectrum(from_matrix(SIGMA1), GEOM, 40)
        from_levels = sum(lv.multiplicity * math.exp(-lv.energy * TAU) for lv in spec)
        assert trace == pytest.approx(from_levels, abs=1e-12)
        explicit = 1.0 + 2.0 * sum(
            math.exp(-((2 * math.pi * n / GEOM.l) ** 2) * TAU) for n in range(1, 60)
        )
        assert trace == pytest.approx(explicit, abs=1e-12)

    def test_shift_covariance(self):
        theta = 1.1
        q1 = euclidean_query(0.3, 0.55 + GEOM.l, TAU)
        q2 = euclidean_query(0.3, 0.55, TAU)
        k1 = smooth_kernel(theta, GEOM, q1)
        k2 = smooth_kernel(theta, GEOM, q2)
        assert abs(k1 - np.exp(-1j * theta) * k2) < 1e-12

    def test_antiperiodic_trace_matches_twisted_spectrum(self):
        n_grid = 400
        xs = (np.arange(n_grid) + 0.5) / n_grid
        q = euclidean_query(xs, xs, TAU)
        trace = smooth_kernel(math.pi, GEOM, q).sum() / n_grid
        # spectrum k l = (2n+1) pi, doubly degenerate
        spectral = 2 * sum(
            math.exp(-(((2 * n + 1) * math.pi / GEOM.l) ** 2) * TAU) for n in range(0, 60)
        )
        assert trace.real == pytest.approx(spectral, abs=1e-12)


class TestScaleInvariantKernel:
    @staticmethod
    def sample(a_i, theta):
        beta = math.sqrt(1 - a_i**2) * np.exp(1j * theta)
        return CharacteristicMatrix(math.pi / 2, 1j * a_i, beta)

    def test_reduces_to_smooth_on_flux_circle(self):
        u = self.sample(0.0, 0.9)
        from qring.u2 import smooth_flux

        k1 = scale_invariant_kernel(u, GEOM, QUERY)
        k2 = smooth_kernel(smooth_flux(u), GEOM, QUERY)
        assert np.abs(k1 - k2).max() < 1e-12

    def test_euclidean_agreement_with_spectral_oracle(self):
        q = euclidean_query(AA, BB, 0.05)
        rng = np.random.default_rng(0)
        for _ in range(3):
            a_i = rng.uniform(-0.8, 0.8)
            theta = rng.uniform(0, 2 * math.pi)
            u = self.sample(a_i, theta)
            if 1 - abs(u.beta.imag) < 0.05:
                continue
            k_closed = scale_invariant_kernel(u, GEOM, q)
            k_oracle = spectral_kernel(u, GEOM, q, 80)
            assert np.abs(k_closed - k_oracle).max() < 1e-8

    def test_generic_weights_not_unimodular(self):
        data = scale_invariant_coefficients(self.sample(0.5, 0.8))
        mags = [abs(data.m_weight(n)) for n in range(1, 6)]
        assert max(mags) < 1.0
        assert abs(data.m_weight(0) - 1.0) < 1e-14  # leading image is free

    def test_singular_coefficients_rejected(self):
        with pytest.raises(SingularCoefficients):
            scale_invariant_coefficients(from_matrix(SIGMA1))


class TestSpectralKernel:
    def test_matches_smooth_circle(self):
        u = from_matrix(SIGMA1)
        k1 = spectral_kernel(u, GEOM, QUERY, 60)
        k2 = smooth_kernel(0.0, GEOM, QUERY)
        assert np.abs(k1 - k2).max() < 1e-8

    def test_semigroup_property(self):
        u = from_matrix(SIGMA1)
        n_grid = 400
        ys = (np.arange(n_grid) + 0.5) / n_grid
        k1 = spectral_kernel(u, GEOM, euclidean_query(0.3, ys, 0.04), 60)
        k2 = spectral_kernel(u, GEOM, euclidean_query(ys, 0.7, 0.06), 60)
        lhs = np.sum(k2 * k1) / n_grid
        rhs = spectral_kernel(u, GEOM, euclidean_query(0.3, 0.7, 0.1), 60)
        assert abs(lhs - rhs) < 1e-6

    def test_hermitian_for_time_reversal_invariant(self):
        # beta_r = 0 members have real eigenfunction bases; the Euclidean
        # kernel is then real and symmetric
        u = from_matrix(-np.eye(2))
        k = spectral_kernel(u, GEOM, QUERY, 40)
        assert np.abs(k.imag).max() < 1e-12
        assert np.abs(k - k.T).max() < 1e-10

    def test_truncation_warning(self):
        u = from_matrix(SIGMA1)
        with pytest.warns(TruncationWarning):
            spectral_kernel(u, GEOM, euclidean_query(0.2, 0.4, 1e-4), 5)

    def test_deep_level_weight_overflow_is_typed(self):
        # the pinned triple binds at kappa l = 100, so e^{kappa^2 tau} overflows at tau = 0.1
        u = triple_to_matrix(SpectralTriple(0.0, -0.9998, 0.0))
        with pytest.raises(WeightOverflow):
            spectral_kernel(u, GEOM, QUERY, 10)


class TestCrosscheck:
    def test_box_dispatch(self):
        rep = kernel_crosscheck(from_matrix(-np.eye(2)), GEOM, QUERY)
        assert rep.family == "box" and rep.weights_unimodular
        assert rep.max_deviation < 1e-9

    def test_agreement_across_times(self):
        # image and eigenfunction sums agree at short, medium, and long times
        u_f2 = TestScaleInvariantKernel.sample(0.4, 1.2)
        for tau in (0.05, 0.1, 0.5):
            q = euclidean_query(AA, BB, tau * GEOM.l**2)
            for u in (from_matrix(-np.eye(2)), from_matrix(SIGMA1), u_f2):
                rep = kernel_crosscheck(u, GEOM, q, n_levels=90)
                assert rep.max_deviation < 1e-8, (tau, u)

    def test_smooth_dispatch(self):
        rep = kernel_crosscheck(from_matrix(SIGMA1), GEOM, QUERY)
        assert rep.family == "smooth" and rep.weights_unimodular
        assert rep.max_deviation < 1e-9

    def test_scale_invariant_dispatch_flags_weights(self):
        u = TestScaleInvariantKernel.sample(0.5, 0.8)
        rep = kernel_crosscheck(u, GEOM, euclidean_query(AA, BB, 0.05), n_levels=80)
        assert rep.family == "scale-invariant"
        assert not rep.weights_unimodular
        assert rep.max_deviation < 1e-8

    def test_unsupported_outside_solvable_families(self):
        rng = np.random.default_rng(1)
        from qring.u2 import haar_random

        with pytest.raises(Unsupported):
            kernel_crosscheck(haar_random(rng), GEOM, QUERY)

    def test_finite_robin_separated_unsupported(self):
        u = from_matrix(np.diag([np.exp(0.5j), np.exp(0.5j)]))
        with pytest.raises(Unsupported):
            kernel_crosscheck(u, GEOM, QUERY)


def test_reduced_time_scaling():
    # hbar^2/2m = 1 units: t_reduced = hbar t / (2 m)
    assert reduced_time(3.0, 2.0, 0.5) == pytest.approx(6.0)


def test_query_validation():
    with pytest.raises(ValueError):
        KernelQuery(0.1, 0.2, 1j)  # future imaginary time
    with pytest.raises(ValueError):
        KernelQuery(0.1, 0.2, -1j, truncation_tol=0.0)
