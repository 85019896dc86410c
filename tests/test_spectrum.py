import math

import numpy as np
import pytest

from qring.engine import secular
from qring.errors import NotSusyCase
from qring.spectrum import (
    boundary_residual,
    degeneracy_at,
    eigenfunction,
    eigenfunction_inner,
    full_spectrum,
    negative_levels,
    positive_levels,
    probability_current,
    regular_matrix,
    scale_independence_check,
    secular_form,
    secular_negative,
    secular_negative_deriv,
    secular_positive,
    secular_positive_deriv,
    verify_susy_pairing,
    zero_mode_exists,
)
from qring.u2 import (
    SIGMA1,
    SIGMA3,
    CharacteristicMatrix,
    Geometry,
    SpectralTriple,
    from_matrix,
    haar_random,
    p_theta_map,
    parity_map,
    spectral_triple,
    time_reversal_map,
    triple_to_matrix,
)

GEOM = Geometry(1.0, 1.0)
EXCHANGE = from_matrix(SIGMA1)
NEG_EXCHANGE = from_matrix(-SIGMA1)
DIRICHLET = from_matrix(-np.eye(2))


class TestSecularFunction:
    def test_exchange_closed_form(self):
        # triple (pi/2, 0, -1): cos xi kills the bracket, G = cos(kl) - 1
        t = SpectralTriple(math.pi / 2, 0.0, -1.0)
        ks = np.linspace(0.1, 30, 57)
        assert np.abs(secular_positive(t, GEOM, ks) - (np.cos(ks) - 1)).max() < 1e-13

    def test_dirichlet_closed_form(self):
        t = SpectralTriple(0.0, -1.0, 0.0)
        ks = np.linspace(0.1, 30, 57)
        assert np.abs(secular_positive(t, GEOM, ks) - np.sin(ks) / ks).max() < 1e-13

    def test_limit_at_zero_matches_zero_mode_expression(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = spectral_triple(haar_random(rng))
            expected = t.beta_i + math.sin(t.xi) + (math.cos(t.xi) - t.alpha_r) * GEOM.l / (
                2 * GEOM.l0
            )
            assert secular_positive(t, GEOM, 0.0) == pytest.approx(expected, abs=1e-14)
            assert secular_positive(t, GEOM, 1e-9) == pytest.approx(expected, abs=1e-9)

    def test_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        t = spectral_triple(haar_random(rng))
        ks = np.linspace(0.2, 20, 31)
        h = 1e-6
        fd = (secular_positive(t, GEOM, ks + h) - secular_positive(t, GEOM, ks - h)) / (2 * h)
        assert np.abs(secular_positive_deriv(t, GEOM, ks) - fd).max() < 1e-7
        kappas = ks / 4
        fd = (secular_negative(t, GEOM, kappas + h) - secular_negative(t, GEOM, kappas - h)) / (2 * h)
        assert np.abs(secular_negative_deriv(t, GEOM, kappas) - fd).max() < 1e-7 * max(np.abs(fd).max(), 1.0)
        # the second derivatives that refine extrema, in both sectors (the
        # negative one of the e^{-kappa l}-scaled function the solver scans)
        for hyperbolic, xs in ((False, ks), (True, ks / 4)):
            g = secular(secular_form(t, GEOM), GEOM.l, hyperbolic)
            fd2 = (g(xs + h, 1)[1] - g(xs - h, 1)[1]) / (2 * h)
            scale = np.abs(g(xs, 1)[1]).max()
            assert np.abs(g(xs, 2)[2] - fd2).max() < 1e-7 * max(scale, 1.0)

    def test_negative_examples(self):
        # (0,0,0): bracket 1 - (kappa L0)^2 vanishes at kappa = 1/L0
        t = SpectralTriple(0.0, 0.0, 0.0)
        assert secular_negative(t, GEOM, 1.0 / GEOM.l0) == pytest.approx(0.0, abs=1e-14)
        # exchange matrix: cosh - 1 > 0, so no negative states
        t = SpectralTriple(math.pi / 2, 0.0, -1.0)
        kappas = np.linspace(0.01, 20, 41)
        assert np.all(secular_negative(t, GEOM, kappas) > 0)
        # its negative: cosh + 1 >= 2
        t = SpectralTriple(math.pi / 2, 0.0, 1.0)
        assert np.all(secular_negative(t, GEOM, kappas) >= 2)


class TestSecularMatrix:
    def test_matrix_matches_boundary_condition(self):
        # through the column change (A, B) = (a + b, i k (a - b)) the regularized
        # matrix is the textbook (U - I) tau - k L0 (U + I) s3 tau s3
        from qring.u2 import to_matrix

        rng = np.random.default_rng(2)
        for _ in range(20):
            u = haar_random(rng)
            k = rng.uniform(0.1, 25)
            tau = np.array([[1, 1], [np.exp(1j * k), np.exp(-1j * k)]])
            s3 = np.diag([1.0, -1.0])
            direct = (to_matrix(u) - np.eye(2)) @ tau - k * (to_matrix(u) + np.eye(2)) @ (
                s3 @ tau @ s3
            )
            columns = np.array([[1, 1], [1j * k, -1j * k]])
            explicit = regular_matrix(u, GEOM, k)[0] @ columns
            assert np.abs(direct - explicit).max() < 1e-12

    def test_determinant_vanishes_exactly_at_secular_roots(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = haar_random(rng)
            t = spectral_triple(u)
            for lv in positive_levels(t, GEOM, 8):
                s = np.linalg.svd(regular_matrix(u, GEOM, lv.wavenumber)[0], compute_uv=False)
                assert s[-1] < 1e-8 * (1 + lv.wavenumber)

    def test_negative_matrix_continuation(self):
        # negative-sector matrix is the k -> -i kappa continuation; at a
        # negative root it must be rank deficient
        t = SpectralTriple(0.0, 0.6, 0.0)
        (lv,) = negative_levels(t, GEOM)
        s = np.linalg.svd(
            regular_matrix(triple_to_matrix(t), GEOM, lv.wavenumber, hyperbolic=True)[0], compute_uv=False
        )
        assert s[-1] < 1e-10 * s[0]


class TestPositiveLevels:
    def test_exchange_doublets(self):
        levels = positive_levels(SpectralTriple(math.pi / 2, 0.0, -1.0), GEOM, 6)
        for n, lv in enumerate(levels, start=1):
            assert lv.wavenumber == pytest.approx(2 * math.pi * n, abs=1e-11)
            assert lv.multiplicity == 2

    def test_dirichlet_singlets(self):
        levels = positive_levels(SpectralTriple(0.0, -1.0, 0.0), GEOM, 6)
        for n, lv in enumerate(levels, start=1):
            assert lv.wavenumber == pytest.approx(math.pi * n, abs=1e-11)
            assert lv.multiplicity == 1

    def test_exact_cosine_roots(self):
        # G = 1/2 + cos(kl) has roots at kl = 2pi/3, 4pi/3, 8pi/3, 10pi/3, ...
        levels = positive_levels(SpectralTriple(math.pi / 2, 0.0, 0.5), GEOM, 4)
        expected = [2 * math.pi / 3, 4 * math.pi / 3, 8 * math.pi / 3, 10 * math.pi / 3]
        for lv, e in zip(levels, expected):
            assert lv.wavenumber == pytest.approx(e, abs=1e-11)
            assert lv.multiplicity == 1

    def test_roots_satisfy_refinement_invariant(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            t = spectral_triple(haar_random(rng))
            for lv in positive_levels(t, GEOM, 12):
                g = secular_positive(t, GEOM, lv.wavenumber)
                gp = secular_positive_deriv(t, GEOM, lv.wavenumber)
                assert abs(g) < 1e-10 * (1.0 + abs(gp) * GEOM.l)

    def test_no_spurious_root_from_wide_dip(self):
        # regression: a zero dip wider than the extremum's grid cell must not
        # fabricate a root on the non-bracketing side
        t = SpectralTriple(1.0856781272264404, -0.40702784111554813, -0.9043459074029478)
        for lv in positive_levels(t, GEOM, 30):
            g = secular_positive(t, GEOM, lv.wavenumber)
            assert abs(g) < 1e-9

    def test_near_degenerate_pair_resolved(self):
        # beta_i close to -1 pushes the zero mode up to a tiny positive level
        # and splits each doublet into two nearby singlets
        t = SpectralTriple(math.pi / 2, 0.0, -1.0 + 1e-7)
        levels = positive_levels(t, GEOM, 5)
        ks = [lv.wavenumber for lv in levels]
        split = math.acos(1.0 - 1e-7)
        assert ks[0] == pytest.approx(split, abs=1e-9)
        assert ks[1] == pytest.approx(2 * math.pi - split, abs=1e-9)
        assert ks[2] == pytest.approx(2 * math.pi + split, abs=1e-9)
        assert all(lv.multiplicity == 1 for lv in levels)


class TestNegativeAndZero:
    def test_single_negative_closed_form(self):
        # kappa L0 = sqrt((1 - aR)/(1 + aR))
        for a_r in (-0.9, 0.0, 0.5, 0.99):
            levels = negative_levels(SpectralTriple(0.0, a_r, 0.0), GEOM)
            assert len(levels) == 1
            expected = math.sqrt((1 - a_r) / (1 + a_r)) / GEOM.l0
            assert levels[0].wavenumber == pytest.approx(expected, abs=1e-10)

    def test_dirichlet_has_none(self):
        assert negative_levels(SpectralTriple(0.0, -1.0, 0.0), GEOM) == []

    def test_bound_state_next_to_eigenphase_pi(self):
        # U has the eigenphase pi - 1e-6, which binds a state at kappa L0 = 2.0e6,
        # beyond a search bound capped at 1e6 / min(l, L0)
        levels = negative_levels(SpectralTriple(math.pi / 2, math.sin(1e-6), 0.3), GEOM)
        assert len(levels) == 1
        assert levels[0].wavenumber == pytest.approx(2.0e6 / GEOM.l0, rel=1e-6)

    def test_zero_mode_examples(self):
        assert zero_mode_exists(SpectralTriple(math.pi / 2, 0.0, -1.0), GEOM)
        assert not zero_mode_exists(SpectralTriple(math.pi / 2, 0.0, 1.0), GEOM)
        assert zero_mode_exists(SpectralTriple(0.0, 1.0, 0.0), GEOM)  # Neumann constant

    def test_at_most_two_negative_levels_on_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            t = spectral_triple(haar_random(rng))
            assert len(negative_levels(t, GEOM)) <= 2


class TestFullSpectrum:
    def test_exchange(self):
        spec = full_spectrum(EXCHANGE, GEOM, 5)
        assert spec.levels[0].sector == "zero" and spec.levels[0].multiplicity == 1
        for n, lv in enumerate(spec.levels[1:], start=1):
            assert lv.sector == "positive"
            assert lv.wavenumber == pytest.approx(2 * math.pi * n, abs=1e-11)
            assert lv.multiplicity == 2

    def test_negative_exchange(self):
        spec = full_spectrum(NEG_EXCHANGE, GEOM, 5)
        assert all(lv.sector == "positive" for lv in spec)
        for n, lv in enumerate(spec, start=0):
            assert lv.wavenumber == pytest.approx((2 * n + 1) * math.pi, abs=1e-11)
            assert lv.multiplicity == 2

    def test_sigma3_half_integers(self):
        spec = full_spectrum(from_matrix(SIGMA3), GEOM, 5)
        assert all(lv.sector == "positive" and lv.multiplicity == 1 for lv in spec)
        for n, lv in enumerate(spec):
            assert lv.wavenumber == pytest.approx((n + 0.5) * math.pi, abs=1e-11)

    def test_generalized_symmetry_isospectrality_sample(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            u = haar_random(rng)
            base = full_spectrum(u, GEOM, 10)
            for v in (
                parity_map(u),
                time_reversal_map(u),
                p_theta_map(u, rng.uniform(0, 2 * math.pi)),
            ):
                other = full_spectrum(v, GEOM, 10)
                assert len(base) == len(other)
                for a, b in zip(base, other):
                    assert a.sector == b.sector and a.multiplicity == b.multiplicity
                    assert abs(a.energy - b.energy) <= 1e-9 * max(1.0, abs(a.energy))

    def test_zero_and_negative_degeneracy_excludes_others(self):
        # sample the degeneracy locus and confirm at most one degenerate level
        rng = np.random.default_rng(7)
        for _ in range(25):
            xi = rng.uniform(0, math.pi)
            beta_i = rng.uniform(-1, 1)
            if abs(beta_i) < 0.1:
                continue
            alpha_r = math.copysign(math.sqrt(1 - beta_i**2), rng.uniform(-1, 1))
            u = CharacteristicMatrix(xi, alpha_r, 1j * beta_i)
            spec = full_spectrum(u, GEOM, 10)
            degenerate = [lv for lv in spec if lv.multiplicity == 2]
            report = degeneracy_at(u, GEOM)
            if report.full_doublet_sign is None:
                assert len(degenerate) <= 1


class TestDegeneracyAt:
    def test_exchange_full_doublets(self):
        rep = degeneracy_at(EXCHANGE, GEOM)
        assert rep.locus and rep.full_doublet_sign == 1

    def test_generic_off_locus(self):
        rng = np.random.default_rng(8)
        u = haar_random(rng)
        assert abs(u.beta.real) > 1e-6  # generic sample really is off the locus
        rep = degeneracy_at(u, GEOM)
        assert not rep.locus and rep.levels == ()

    def test_case_with_opposite_cosine_has_no_degenerate_level(self):
        # alpha_i = beta_r = 0, beta_i = 0.8, cos(xi) = -alpha_r, xi != pi/2
        beta_i = 0.8
        alpha_r = -0.6
        xi = math.acos(-alpha_r)
        u = CharacteristicMatrix(xi, alpha_r, 1j * beta_i)
        rep = degeneracy_at(u, GEOM)
        assert rep.locus and rep.levels == ()
        # brute force: no positive level of this matrix is rank-2 degenerate
        for lv in positive_levels(spectral_triple(u), GEOM, 10):
            assert lv.multiplicity == 1

    def test_degenerate_zero_mode(self):
        # for l = L0 the conditions for a doubly degenerate zero mode close
        # at xi = arctan 2, alpha_r = cos xi, beta_i = -sin xi
        xi = math.atan2(2.0, 1.0)
        u = CharacteristicMatrix(xi, math.cos(xi), -1j * math.sin(xi))
        rep = degeneracy_at(u, GEOM)
        assert rep.locus
        assert any(lv.sector == "zero" and lv.multiplicity == 2 for lv in rep.levels)
        spec = full_spectrum(u, GEOM, 4)
        zl = next(lv for lv in spec if lv.sector == "zero")
        assert zl.multiplicity == 2
        fs = eigenfunction(u, GEOM, zl)
        assert len(fs) == 2

    def test_predicted_degenerate_level_matches_solver(self):
        # scan locus points for one admitting a genuine degenerate positive
        # level, then confirm the boundary matrix has full rank deficiency
        found = False
        for xi in np.linspace(0.4, math.pi - 0.4, 23):
            c = math.cos(xi)
            for a_r in np.linspace(-abs(c) + 1e-3, abs(c) - 1e-3, 401):
                if abs(c + a_r) < 1e-6:
                    continue
                ratio = (c - a_r) / (c + a_r)
                if ratio <= 0:
                    continue
                k = math.sqrt(ratio) / GEOM.l0
                for sign in (+1.0, -1.0):
                    beta_i = sign * math.sqrt(1 - a_r**2)
                    r1 = beta_i * math.cos(k * GEOM.l) + math.sin(xi)
                    r3 = beta_i * math.sin(k * GEOM.l) + (c + a_r) * k * GEOM.l0
                    if abs(r1) < 5e-4 and abs(r3) < 5e-3:
                        found = True
                        u = CharacteristicMatrix(xi, a_r, 1j * beta_i)
                        rep = degeneracy_at(u, GEOM, tol=1e-6)
                        s = np.linalg.svd(regular_matrix(u, GEOM, k)[0], compute_uv=False)
                        # near the degeneracy point the whole matrix collapses
                        assert s[0] < 1e-2 * (1 + k)
                        if found:
                            return
        assert found


class TestEigenfunctions:
    def test_dirichlet_sine(self):
        lv = positive_levels(spectral_triple(DIRICHLET), GEOM, 1)[0]
        (f,) = eigenfunction(DIRICHLET, GEOM, lv)
        xs = np.linspace(0.01, 0.99, 23)
        target = math.sqrt(2.0) * np.sin(math.pi * xs)
        assert np.abs(np.abs(f(xs)) - np.abs(target)).max() < 1e-10

    def test_neumann_cosine(self):
        u = from_matrix(np.eye(2))
        lv = positive_levels(spectral_triple(u), GEOM, 1)[0]
        (f,) = eigenfunction(u, GEOM, lv)
        xs = np.linspace(0.0, 1.0, 23)
        target = math.sqrt(2.0) * np.cos(math.pi * xs)
        assert np.abs(np.abs(f(xs)) - np.abs(target)).max() < 1e-10

    def test_neumann_zero_mode_is_constant(self):
        u = from_matrix(np.eye(2))
        spec = full_spectrum(u, GEOM, 2)
        zl = next(lv for lv in spec if lv.sector == "zero")
        (f,) = eigenfunction(u, GEOM, zl)
        assert abs(f.b) < 1e-12
        assert abs(abs(f.a) - 1.0 / math.sqrt(GEOM.l)) < 1e-12

    def test_boundary_residual_and_orthonormality(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            u = haar_random(rng)
            spec = full_spectrum(u, GEOM, 6)
            fs = []
            for lv in spec:
                batch = eigenfunction(u, GEOM, lv)
                assert len(batch) == lv.multiplicity
                for f in batch:
                    assert boundary_residual(u, GEOM, f) < 1e-8
                    assert eigenfunction_inner(f, f).real == pytest.approx(1.0, abs=1e-10)
                fs.extend(batch)
            for i in range(len(fs)):
                for j in range(i + 1, len(fs)):
                    assert abs(eigenfunction_inner(fs[i], fs[j])) < 1e-8


class TestProbabilityCurrent:
    def test_separated_blocks_current(self):
        u = from_matrix(np.diag([np.exp(0.4j), np.exp(-0.9j)]))
        t = spectral_triple(u)
        for lv in positive_levels(t, GEOM, 3):
            (f,) = eigenfunction(u, GEOM, lv)
            assert abs(probability_current(f, 1e-12)) < 1e-10
            assert abs(probability_current(f, GEOM.l - 1e-12)) < 1e-10

    def test_real_wavefunction_has_none(self):
        lv = positive_levels(spectral_triple(DIRICHLET), GEOM, 1)[0]
        (f,) = eigenfunction(DIRICHLET, GEOM, lv)
        xs = np.linspace(0.1, 0.9, 9)
        assert np.abs(probability_current(f, xs)).max() < 1e-12

    def test_smooth_circle_mode(self):
        from qring.spectrum import Eigenfunction

        n = 3
        f = Eigenfunction("positive", 2 * math.pi * n / GEOM.l, 1 / math.sqrt(GEOM.l), 0.0, GEOM.l)
        xs = np.linspace(0, 1, 7)
        expected = 2 * math.pi * n / GEOM.l**2
        assert np.abs(probability_current(f, xs) - expected).max() < 1e-12


class TestSusyPairing:
    def test_unbroken_case(self):
        rep = verify_susy_pairing(EXCHANGE, GEOM, 10)
        assert rep.passed and rep.epsilon == 1
        assert rep.zero_mode_derivative_norm < 1e-10
        assert all(c.bc_residual < 1e-8 and c.span_residual < 1e-8 for c in rep.doublets)

    def test_broken_case(self):
        rep = verify_susy_pairing(NEG_EXCHANGE, GEOM, 10)
        assert rep.passed and rep.epsilon == -1
        assert rep.zero_mode_derivative_norm is None

    def test_rejects_other_matrices(self):
        with pytest.raises(NotSusyCase):
            verify_susy_pairing(DIRICHLET, GEOM, 3)


class TestScaleIndependence:
    def test_exchange_true(self):
        assert scale_independence_check(EXCHANGE, GEOM, 8)

    def test_dirichlet_true(self):
        # (A, B) = (1, -1) at every level; a member through U = -I
        assert scale_independence_check(DIRICHLET, GEOM, 8)

    def test_case_three_sample_false(self):
        u = triple_to_matrix(SpectralTriple(math.pi / 4, 0.0, 0.0))
        assert not scale_independence_check(u, GEOM, 12)

    def test_agrees_with_classify_on_random(self):
        from qring.u2 import classify

        rng = np.random.default_rng(10)
        for _ in range(10):
            u = haar_random(rng)
            assert scale_independence_check(u, GEOM, 10) == classify(u, GEOM).scale_independent
        # and on true members of the scale independent sphere
        for _ in range(5):
            a_i = rng.uniform(-0.8, 0.8)
            theta = rng.uniform(0, 2 * math.pi)
            beta = math.sqrt(1 - a_i**2) * np.exp(1j * theta)
            if 1 - abs(beta.imag) < 0.05:
                continue
            u = CharacteristicMatrix(math.pi / 2, 1j * a_i, beta)
            assert scale_independence_check(u, GEOM, 10)


class TestSpectralProperties:
    def test_isospectral_family_pins_positive_spectrum(self):
        # xi = 0, Im beta = 0: positive levels at pi n / l regardless of the rest
        rng = np.random.default_rng(11)
        for _ in range(10):
            v = rng.normal(size=3)
            a_r, a_i, b_r = v / np.linalg.norm(v)
            u = CharacteristicMatrix(0.0, complex(a_r, a_i), complex(b_r, 0.0))
            for n, lv in enumerate(positive_levels(spectral_triple(u), GEOM, 6), start=1):
                assert lv.wavenumber == pytest.approx(math.pi * n, abs=1e-10)

    def test_semi_isospectral_lattice_subsequence(self):
        # sin xi = -Im beta: the lattice k l = 2 pi n is always present
        rng = np.random.default_rng(12)
        for _ in range(5):
            xi = rng.uniform(0.3, math.pi - 0.3)
            beta_i = -math.sin(xi)
            a_max = math.sqrt(max(1 - beta_i**2, 0.0))
            alpha_r = rng.uniform(-0.9, 0.9) * a_max
            if abs(math.cos(xi) + alpha_r) < 0.05:
                continue
            t = SpectralTriple(xi, alpha_r, beta_i)
            ks = np.array([lv.wavenumber for lv in positive_levels(t, GEOM, 14)])
            for n in (1, 2):
                target = 2 * math.pi * n / GEOM.l
                assert np.min(np.abs(ks - target)) < 1e-9

    def test_case_three_deviation_sequence_converges(self):
        t = spectral_triple(haar_random(np.random.default_rng(13)))
        levels = positive_levels(t, GEOM, 60)
        ks = np.array([lv.wavenumber for lv in levels])
        n = np.rint(ks * GEOM.l / math.pi).astype(int)
        dev = n * (ks * GEOM.l - math.pi * n)
        even = dev[n % 2 == 0]
        # spacing approaches pi/l and the deviation sequence settles
        spacings = np.diff(ks[-10:])
        assert np.abs(spacings - math.pi / GEOM.l).max() < 0.05
        assert abs(even[-1] - even[-2]) < 0.01
