import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qring
import qring.inverse
from qring.errors import Ambiguous, DegenerateTail, Inconsistent, QringError
from qring.inverse import (
    AsymptoticCoeffs,
    SpectrumPrefix,
    classify_case,
    estimate_c_coeffs,
    fit_parameters,
    prefix_from_spectrum,
    recover_case_I,
    recover_case_II,
    recover_case_III,
    recover_parameters,
)
from qring.spectrum import (
    full_spectrum,
    negative_levels,
    positive_levels,
    secular_negative,
    secular_positive,
    zero_mode_exists,
)
from qring.u2 import (
    SIGMA1,
    Geometry,
    SpectralTriple,
    from_matrix,
    haar_random,
    spectral_triple,
    triple_to_matrix,
)

GEOM = Geometry(1.0, 1.0)


def forward_prefix(triple: SpectralTriple, count: int = 200) -> SpectrumPrefix:
    return prefix_from_spectrum(full_spectrum(triple_to_matrix(triple), GEOM, count), GEOM)


def triple_error(a: SpectralTriple, b: SpectralTriple) -> float:
    return max(abs(a.xi - b.xi), abs(a.alpha_r - b.alpha_r), abs(a.beta_i - b.beta_i))


class TestClassifyCase:
    def test_pi_lattice_is_case_one(self):
        ks = tuple(math.pi * n for n in range(1, 33))
        prefix = SpectrumPrefix(ks, False, (), GEOM)
        assert classify_case(prefix).case == "I"

    def test_alternating_lattice_is_case_two(self):
        # cos(k l) = -1/2 exactly
        ks = []
        for n in range(16):
            ks.extend([2 * math.pi / 3 + 2 * math.pi * n, 4 * math.pi / 3 + 2 * math.pi * n])
        prefix = SpectrumPrefix(tuple(ks), False, (), GEOM)
        assert classify_case(prefix).case == "II"

    def test_forward_sample_is_case_three(self):
        prefix = forward_prefix(SpectralTriple(math.pi / 4, 0.0, 0.0), 64)
        assert classify_case(prefix).case == "III"

    def test_missing_integers_flagged(self):
        # the even lattice alone is a doublet spectrum, not case I
        ks = tuple(2 * math.pi * n for n in range(1, 25))
        with pytest.raises(Ambiguous):
            classify_case(SpectrumPrefix(ks, True, (), GEOM))


class TestCaseI:
    def test_zero_mode_forces_upper_corner(self):
        ks = tuple(math.pi * n for n in range(1, 33))
        prefix = SpectrumPrefix(ks, True, (), GEOM)
        assert recover_case_I(prefix) == SpectralTriple(0.0, 1.0, 0.0)

    def test_empty_nonpositive_forces_lower_corner(self):
        ks = tuple(math.pi * n for n in range(1, 33))
        assert recover_case_I(SpectrumPrefix(ks, False, (), GEOM)) == SpectralTriple(0.0, -1.0, 0.0)

    def test_kappa_inversion(self):
        ks = tuple(math.pi * n for n in range(1, 33))
        prefix = SpectrumPrefix(ks, False, (1.0 / GEOM.l0,), GEOM)
        t = recover_case_I(prefix)
        assert t.alpha_r == pytest.approx(0.0, abs=1e-14)

    def test_inconsistent_data_rejected(self):
        ks = tuple(math.pi * n for n in range(1, 33))
        with pytest.raises(Inconsistent):
            recover_case_I(SpectrumPrefix(ks, True, (0.5,), GEOM))


class TestCaseII:
    def test_exact_cosine_lattice(self):
        ks = []
        for n in range(20):
            ks.extend([2 * math.pi / 3 + 2 * math.pi * n, 4 * math.pi / 3 + 2 * math.pi * n])
        t = recover_case_II(SpectrumPrefix(tuple(ks), False, (), GEOM))
        assert triple_error(t, SpectralTriple(math.pi / 2, 0.0, 0.5)) < 1e-9

    def test_forward_round_trip(self):
        truth = SpectralTriple(math.pi / 3, -math.cos(math.pi / 3), 0.3)
        prefix = forward_prefix(truth, 400)
        assert classify_case(prefix).case == "II"
        assert triple_error(recover_case_II(prefix), truth) < 1e-6

    def test_quarter_turn_sample(self):
        # lim cos kl = 0 with cot xi = 1: xi = pi/4, beta_i = 0, alpha_r = -sqrt(2)/2
        truth = SpectralTriple(math.pi / 4, -math.sqrt(2) / 2, 0.0)
        prefix = forward_prefix(truth, 200)
        t = recover_case_II(prefix)
        assert triple_error(t, truth) < 1e-9

    def test_degenerate_tail_rejected(self):
        ks = tuple(math.pi * n for n in range(1, 33))
        with pytest.raises(DegenerateTail):
            recover_case_II(SpectrumPrefix(ks, False, (), GEOM))

    @pytest.mark.parametrize(
        "truth, l0",
        [(SpectralTriple(1.6293, 0.0653, 0.8610), 0.0555), (SpectralTriple(1.8442, 0.2811, -0.6750), 0.0417)],
    )
    def test_slow_case_three_tail_is_not_case_two(self, truth, l0):
        # at small L0/l these case-III tails have a cos(k l) spread below 0.5,
        # but their roots leave the case-II relation a residual of about 0.1
        geom = Geometry(1.0, l0)
        res = recover_parameters(prefix_from_spectrum(full_spectrum(truth, geom, 200), geom))
        assert res.case == "III"
        assert not any("disagree" in note for note in res.warnings)
        assert triple_error(res.asymptotic_triple, truth) < 1e-9
        assert triple_error(res.triple, truth) < 1e-9


class TestAsymptoticCoeffs:
    def test_synthetic_sequence_recovered(self):
        # freeze a sequence with known coefficients and no higher corrections
        c1, c3 = -0.41, 0.087
        ks = tuple((math.pi * n + c1 / n + c3 / n**3) / GEOM.l for n in range(1, 65))
        cc = estimate_c_coeffs(SpectrumPrefix(ks, False, (), GEOM))
        assert abs(cc.c1_plus - c1) < 1e-6 and abs(cc.c1_minus - c1) < 1e-6
        assert abs(cc.c3_plus - c3) < 1e-4 and abs(cc.c3_minus - c3) < 1e-4

    def test_quarter_pi_leading_coefficient(self):
        # triple (pi/4, 0, 0) with l = L0: a = (0, 2, 1), so c1 = -2/pi on both branches
        prefix = forward_prefix(SpectralTriple(math.pi / 4, 0.0, 0.0), 200)
        cc = estimate_c_coeffs(prefix)
        assert cc.c1_plus == pytest.approx(-2 / math.pi, abs=1e-8)
        assert cc.c1_minus == pytest.approx(-2 / math.pi, abs=1e-8)
        assert cc.a1 == pytest.approx(0.0, abs=1e-8)
        assert cc.a2 == pytest.approx(2.0, abs=1e-7)
        assert cc.a3 == pytest.approx(1.0, abs=1e-4)

    def test_parity_difference_encodes_a1(self):
        truth = SpectralTriple(0.9, 0.2, 0.35)
        cc = estimate_c_coeffs(forward_prefix(truth, 200))
        a1 = -(math.pi / 2) * (cc.c1_plus - cc.c1_minus)
        expected = (
            2 * truth.beta_i / (math.cos(truth.xi) + truth.alpha_r) * GEOM.l / GEOM.l0
        )
        assert a1 == pytest.approx(expected, abs=1e-6)
        # a1 and beta_i share sign when cos xi + alpha_r > 0
        assert math.copysign(1, cc.a1) == math.copysign(1, truth.beta_i)

    def test_separated_members_have_symmetric_tails(self):
        # beta = 0 forces a1 = 0, so the parity branches coincide
        cc = estimate_c_coeffs(forward_prefix(SpectralTriple(math.pi / 6, 0.2, 0.0), 200))
        assert abs(cc.c1_plus - cc.c1_minus) < 1e-8


class TestCaseIII:
    def test_coefficient_inversion_quarter_pi(self):
        t = recover_case_III(AsymptoticCoeffs(-2 / math.pi, -2 / math.pi, 0.0215, 0.0215, 0.0, 2.0, 1.0), GEOM)
        assert triple_error(t, SpectralTriple(math.pi / 4, 0.0, 0.0)) < 1e-12

    def test_boundary_case_rejected(self):
        # a3 = -(l/L0)^2 with a = (-2, 2, -1) gives (alpha_r, beta_i) = (1, -1):
        # outside the parameter disc, flagged inconsistent
        with pytest.raises(Inconsistent):
            recover_case_III(AsymptoticCoeffs(1.0, 1.0, 0.0, 0.0, -2.0, 2.0, -1.0), GEOM)

    def test_vanishing_a2_reduces_to_case_one_form(self):
        t = recover_case_III(AsymptoticCoeffs(-0.3, 0.3, 0.0, 0.0, 0.0, 0.0, 3.0), GEOM)
        assert t.xi == pytest.approx(0.0, abs=1e-12)
        assert t.beta_i == pytest.approx(0.0, abs=1e-12)
        assert t.alpha_r == pytest.approx((1 - 3) / (1 + 3), abs=1e-12)


class TestFitParameters:
    def test_exchange_spectrum(self):
        prefix = prefix_from_spectrum(full_spectrum(from_matrix(SIGMA1), GEOM, 30), GEOM)
        res = fit_parameters(prefix)
        assert res.residual < 1e-12
        assert triple_error(res.triple, SpectralTriple(math.pi / 2, 0.0, -1.0)) < 1e-12

    def test_dirichlet_needs_nonpositive_flags(self):
        ks = tuple(math.pi * n for n in range(1, 41))
        res = fit_parameters(SpectrumPrefix(ks, False, (), GEOM))
        assert triple_error(res.triple, SpectralTriple(0.0, -1.0, 0.0)) < 1e-9

    def test_noise_conditioning(self):
        truth = SpectralTriple(1.1, 0.3, -0.4)
        prefix = forward_prefix(truth, 120)
        rng = np.random.default_rng(0)
        noisy = tuple(k + rng.uniform(-1e-8, 1e-8) for k in prefix.positive_k)
        res = fit_parameters(
            SpectrumPrefix(noisy, prefix.has_zero_mode, prefix.negative_kappa, GEOM),
            residual_target=1e-6,
        )
        assert triple_error(res.triple, truth) < 1e-6

    def test_rows_and_jacobian(self):
        # the fit's rows times c = (bI, sin xi, cos xi, aR) give the weighted secular values
        geom = Geometry(1.0, 0.05)
        ks = np.linspace(0.3, 40.0, 25)
        kappas = np.array([3.0, 60.0])
        rows = qring.inverse._fit_rows(SpectrumPrefix(tuple(ks), True, tuple(kappas), geom))
        rng = np.random.default_rng(7)
        for _ in range(5):
            params = np.array([rng.uniform(0, math.pi), rng.uniform(0, 1), rng.uniform(0, 2 * math.pi)])
            t = SpectralTriple(params[0], params[1] * math.cos(params[2]), params[1] * math.sin(params[2]))
            expected = np.concatenate([
                secular_positive(t, geom, ks) / (1.0 + ks * geom.l0),
                [secular_positive(t, geom, 0.0)],
                secular_negative(t, geom, kappas) * 2.0 * np.exp(-kappas * geom.l) / (1.0 + kappas * geom.l0),
            ])
            c = np.array([t.beta_i, math.sin(t.xi), math.cos(t.xi), t.alpha_r])
            assert np.abs(rows @ c - expected).max() < 1e-13 * np.abs(rows).max()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_ratio=st.floats(math.log(0.03), math.log(30.0)),
        seam=st.sampled_from([None, "pi", "0"]),
        j=st.integers(2, 9),
    )
    def test_null_space_round_trip(self, seed, log_ratio, seam, j):
        # Haar triples over the benchmark's L0/l range, optionally within
        # 10^-j of either end of the xi chart
        truth = spectral_triple(haar_random(np.random.default_rng(seed)))
        if seam is not None:
            xi = math.pi - 10.0**-j if seam == "pi" else 10.0**-j
            truth = SpectralTriple(xi, truth.alpha_r, truth.beta_i)
        geom = Geometry(1.0, math.exp(log_ratio))
        prefix = prefix_from_spectrum(full_spectrum(truth, geom, 200), geom)
        res = fit_parameters(prefix)
        assert res.starts_used == 1 and len(res.singular_values) == 4
        assert qring.inverse._triple_distance(res.triple, truth) < 1e-9

    def test_case_one_lands_on_the_zero_chart(self):
        # this case-I null vector folds to xi = pi - O(1e-16); the chart rule
        # returns its xi = 0 image, not the equivalent triple just below pi
        truth = SpectralTriple(0.0, -0.5, 0.0)
        res = fit_parameters(forward_prefix(truth, 200))
        assert res.triple.xi == 0.0
        assert triple_error(res.triple, truth) < 1e-9

    def test_fit_leaves_scipy_optimize_unloaded(self):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qring.__file__)))
        code = (
            "import sys\n"
            "from qring.inverse import prefix_from_spectrum, recover_parameters\n"
            "from qring.spectrum import full_spectrum\n"
            "from qring.u2 import Geometry, SpectralTriple\n"
            "g = Geometry(1.0, 1.0)\n"
            "res = recover_parameters(prefix_from_spectrum(full_spectrum(SpectralTriple(1.0, 0.3, 0.2), g, 200), g))\n"
            "print(res.fit_triple is not None, 'scipy.optimize' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "True False"

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_ratio=st.floats(math.log(0.03), math.log(30.0)),
        family=st.sampled_from(["haar", "exchange+", "exchange-", "corner+", "corner-", "pinned"]),
        candidate=st.sampled_from(["truth", "noise", "haar"]),
        j=st.integers(1, 10),
    )
    def test_bracket_check_matches_refined_levels(self, seed, log_ratio, family, candidate, j):
        # the check reads the data against the solvers' brackets; its verdict
        # is that of matching the refined levels themselves
        rng = np.random.default_rng(seed)
        xi = rng.uniform(0.0, math.pi)
        truth = {
            "haar": spectral_triple(haar_random(rng)),
            "exchange+": SpectralTriple(math.pi / 2, 0.0, -1.0),
            "exchange-": SpectralTriple(math.pi / 2, 0.0, 1.0),
            "corner+": SpectralTriple(0.0, 1.0, 0.0),
            "corner-": SpectralTriple(0.0, -1.0, 0.0),
            "pinned": SpectralTriple(xi, rng.uniform(-1.0, 1.0) * math.cos(xi), -math.sin(xi)),
        }[family]
        geom = Geometry(1.0, math.exp(log_ratio))
        prefix = prefix_from_spectrum(full_spectrum(truth, geom, 60), geom)
        t = truth
        if candidate == "haar":
            t = spectral_triple(haar_random(rng))
        elif candidate == "noise":
            e = 10.0**-j * rng.standard_normal(3)
            a_r, b_i = truth.alpha_r + e[1], truth.beta_i + e[2]
            r = max(math.hypot(a_r, b_i), 1.0)
            t = SpectralTriple((truth.xi + e[0]) % math.pi, a_r / r, b_i / r)

        def refined():
            n = min(30, len(prefix.positive_k))
            try:
                ks = [lv.wavenumber for lv in positive_levels(t, geom, n)]
                kappas = sorted(lv.wavenumber for lv in negative_levels(t, geom))
            except QringError:
                return False
            return bool(
                np.abs(np.subtract(ks, prefix.positive_k[:n])).max() * geom.l <= 1e-6
                and zero_mode_exists(t, geom, tol=1e-8) == prefix.has_zero_mode
                and len(kappas) == len(prefix.negative_kappa)
                and all(abs(a - b) * geom.l <= 1e-6 for a, b in zip(kappas, sorted(prefix.negative_kappa)))
            )

        def outcome(verdict):
            try:
                return verdict()
            except ValueError as exc:  # a triple the constructors cannot realize
                return type(exc)

        assert outcome(lambda: qring.inverse._forward_consistent(t, prefix)) == outcome(refined)
        if candidate == "truth":
            assert qring.inverse._forward_consistent(t, prefix)

    def test_forward_solver_bug_propagates(self, monkeypatch):
        # only typed solver failures mark a candidate inconsistent; anything
        # else is a bug and must not be hidden as a failed fit
        def broken(*args, **kwargs):
            raise RuntimeError("solver bug")

        monkeypatch.setattr(qring.inverse, "positive_brackets", broken)
        prefix = prefix_from_spectrum(full_spectrum(from_matrix(SIGMA1), GEOM, 30), GEOM)
        with pytest.raises(RuntimeError, match="solver bug"):
            fit_parameters(prefix)


class TestRecoverParameters:
    def test_round_trip_all_cases(self):
        rng = np.random.default_rng(1)
        cases = {"I": 0, "II": 0, "III": 0}
        samples = []
        for a_r in (-0.5, 0.8):
            samples.append(SpectralTriple(0.0, a_r, 0.0))  # case I
        for xi, f in ((1.0, 0.4), (2.0, -0.3)):
            samples.append(SpectralTriple(xi, -math.cos(xi), f * math.sin(xi)))  # case II
        for _ in range(4):
            samples.append(spectral_triple(haar_random(rng)))  # case III generically
        for truth in samples:
            prefix = forward_prefix(truth, 200)
            res = recover_parameters(prefix)
            if res.case in cases:
                cases[res.case] += 1
            assert res.case_diagnostics  # classify_case's statistics are kept
            assert res.asymptotic_triple is not None
            assert triple_error(res.asymptotic_triple, truth) < 1e-3
            assert res.fit_triple is not None
            assert triple_error(res.fit_triple, truth) < 1e-9
        assert all(v > 0 for v in cases.values())

    def test_degenerate_doublet_spectrum_resolved_by_fit(self):
        prefix = prefix_from_spectrum(full_spectrum(from_matrix(SIGMA1), GEOM, 30), GEOM)
        res = recover_parameters(prefix)
        assert res.case == "ambiguous"
        assert triple_error(res.triple, SpectralTriple(math.pi / 2, 0.0, -1.0)) < 1e-12

    def test_routes_agree_across_the_chart_seam(self):
        # just below xi = pi the fit may land on the equivalent (0, -aR, -bI);
        # the routes still agree and the analytic chart is returned
        truth = SpectralTriple(math.pi - 1e-9, 0.3, 0.2)
        res = recover_parameters(forward_prefix(truth, 200))
        assert not any("disagree" in w for w in res.warnings)
        assert triple_error(res.triple, truth) < 1e-6
        assert res.triple == res.asymptotic_triple
