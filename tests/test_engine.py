import math
import time

import numpy as np
import pytest

from qring import engine, spectrum, twopoint
from qring.spectrum import full_spectrum, negative_levels, positive_levels, regular_matrix
from qring.twopoint import TwoPointSystem, spectrum2
from qring.u2 import SIGMA1, Geometry, SpectralTriple, from_matrix, haar_random, spectral_triple, to_matrix, triple_to_matrix

EXCHANGE = from_matrix(SIGMA1)
GEOM = Geometry(1.0, 1.0)


def sweep_matrices():
    rng = np.random.default_rng(3)
    return [haar_random(rng) for _ in range(3)] + [
        triple_to_matrix(SpectralTriple(0.0, 0.5, 0.0)),  # binds at x = 0 only
        triple_to_matrix(SpectralTriple(1.0, math.cos(0.3), 0.0)),  # separated, binds on both sides
    ]


class TestNegativeScanBounded:
    def test_grid_and_time_do_not_grow_with_the_geometry(self, monkeypatch):
        # the largest array handed to the negative-sector secular function of
        # either solver does not grow with L0/l, and every call stays fast:
        # the one-point solver evaluates at most two brackets at a time, the
        # pair the two ends of each of its at most four brackets
        largest: dict[str, int] = {}
        solver = ["one"]
        basis_jets = engine.basis_jets

        def jets(k, h, hyperbolic, *order):
            if hyperbolic:
                largest[solver[0]] = max(largest.get(solver[0], 0), np.size(k))
            return basis_jets(k, h, hyperbolic, *order)

        monkeypatch.setattr(engine, "basis_jets", jets)
        for l0 in 10.0 ** np.arange(-6, 7):
            geom = Geometry(1.0, float(l0))
            largest.clear()
            for u in sweep_matrices():
                start = time.perf_counter()
                solver[0] = "one"
                neg = negative_levels(spectral_triple(u), geom)
                solver[0] = "two"
                pair = spectrum2(TwoPointSystem(u, EXCHANGE, geom), 3)
                assert time.perf_counter() - start < 2.0
                assert all(lv.multiplicity == 1 for lv in neg)
                # the pair (U, exchange) is the one-point circle, bound states included
                ks = sorted(lv.wavenumber for lv in neg)
                assert sorted(pair.negative_wavenumbers()) == pytest.approx(ks, rel=1e-10)
            assert largest.get("one", 0) <= 2
            assert largest.get("two", 0) <= 8

    @pytest.mark.parametrize("l0", [1e-3, 1e-4])
    def test_separated_level_deep_at_the_far_side_is_simple(self, l0):
        # U = diag(e^{1.3 i}, e^{0.7 i}) binds at x = 0 with kappa L0 = tan 0.65 and
        # at x = l with kappa L0 = tan 0.35.  At kappa l ~ 365 and ~ 3650 the x = 0
        # row of the e^{-kappa l}-scaled matrix is tiny or floored, and the row
        # equilibration keeps it in the rank
        geom = Geometry(1.0, l0)
        levels = negative_levels(SpectralTriple(1.0, math.cos(0.3), 0.0), geom)
        ks = sorted(lv.wavenumber for lv in levels)
        assert ks == pytest.approx([math.tan(0.35) / l0, math.tan(0.65) / l0], rel=1e-12)
        assert [lv.multiplicity for lv in levels] == [1, 1]


class TestRefineStarts:
    def test_positive_refine_takes_few_evaluations(self, monkeypatch):
        # each positive root is refined from the root of its cell's quadratic
        # with frozen coefficients, so the vectorized refine of a whole solve
        # takes a few evaluator calls: 2 to 4 here for 200 levels (6 to 19 from
        # the bracket midpoints), and 6 for the pair (9 from the midpoints)
        calls, inside = [0], [False]
        basis_jets, solve_brackets = engine.basis_jets, engine.solve_brackets

        def jets(k, h, hyperbolic, *order):
            if inside[0] and not hyperbolic:
                calls[0] += 1
            return basis_jets(k, h, hyperbolic, *order)

        def solve(*args):
            inside[0] = True
            try:
                return solve_brackets(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(engine, "basis_jets", jets)
        monkeypatch.setattr(spectrum, "solve_brackets", solve)
        monkeypatch.setattr(twopoint, "solve_brackets", solve)
        rng = np.random.default_rng(7)
        us = [haar_random(rng) for _ in range(4)]
        for l0 in (0.03, 1.0, 30.0):
            for u in us:
                calls[0] = 0
                full_spectrum(u, Geometry(1.0, l0), 200)
                assert 1 <= calls[0] <= 5, (l0, calls[0])
        calls[0] = 0
        spectrum2(TwoPointSystem(us[0], us[1], GEOM), 20)
        assert 1 <= calls[0] <= 7

class TestRankRule:
    def test_null_dims_of_one_window(self):
        rng = np.random.default_rng(11)
        u = haar_random(rng)
        ks = np.array([lv.wavenumber for lv in positive_levels(spectral_triple(u), GEOM, 6)])
        assert list(engine.null_dims(*regular_matrix(u, GEOM, ks))) == [1] * 6
        between = 0.5 * (ks[:-1] + ks[1:])
        assert list(engine.null_dims(*regular_matrix(u, GEOM, between))) == [0] * 5
        doublets = 2 * math.pi * np.arange(1, 4) / GEOM.l
        assert list(engine.null_dims(*regular_matrix(EXCHANGE, GEOM, doublets))) == [2, 2, 2]

    def test_envelope_bounds_every_entry(self):
        rng = np.random.default_rng(12)
        u = haar_random(rng)
        for hyperbolic in (False, True):
            mat, env = regular_matrix(u, GEOM, np.linspace(0.0, 30.0, 31), hyperbolic)
            assert np.all(np.abs(mat) <= env * (1 + 1e-15))


# sixth-order central first difference
STENCIL = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0


def sinc_series(x, h, hyperbolic, n):
    """n-th k-derivative of sin(kh)/k (sinh if hyperbolic, times e^{-kh}) at kh = x, summed term by term."""
    sg = 1.0 if hyperbolic else -1.0
    total = sum(
        sg**m * math.factorial(2 * m) / math.factorial(2 * m - n) * x ** (2 * m - n) / math.factorial(2 * m + 1)
        for m in range((n + 1) // 2, 30)
    )
    return (math.exp(-x) if hyperbolic else 1.0) * h ** (n + 1) * total


class TestBasisJets:
    @pytest.mark.parametrize("hyperbolic", [False, True])
    @pytest.mark.parametrize("h", [0.5, 2.0])
    def test_exact_through_zero(self, hyperbolic, h):
        # sin(kh)/k and its k-derivatives to 1e-12 h^(n+1): against the series
        # where the closed forms cancel, against central differences above
        for x in np.r_[0.0, np.geomspace(1e-9, 1e-2, 30)]:
            jets = engine.basis_jets(x / h, h, hyperbolic)[:, 1]
            for n in range(3):
                assert abs(jets[n] - sinc_series(x, h, hyperbolic, n)) <= 1e-12 * h ** (n + 1)
        step = 1e-2 / h
        w = h if hyperbolic else 0.0  # d/dk of the scaled jet n is jet n+1 minus w times jet n
        for x in np.geomspace(1e-2, 50.0, 60):
            jets = engine.basis_jets(x / h + step * np.arange(-3, 4), h, hyperbolic)[:, 1]
            for n in range(2):
                central = STENCIL @ jets[n] / step
                assert abs(central - (jets[n + 1, 3] - w * jets[n, 3])) <= 1e-12 * h ** (n + 2)


class TestIndexForm:
    """engine.branches against Q(kappa) = H + K(kappa) built from its definition."""

    @staticmethod
    def direct_q(us, l0, length, ends, kappa):
        # H = (i/L0)(U + I)^-1 (U - I) per vertex (a Haar U has no eigenvalue -1), K per edge
        n = len(ends)
        q = np.zeros((n, n), dtype=complex)
        for i, u in enumerate(us):
            mat = to_matrix(u)
            q[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = 1j / l0 * np.linalg.solve(mat + np.eye(2), mat - np.eye(2))
        for a, b in enumerate(ends):
            q[a, a] += kappa / math.tanh(kappa * length)
            q[a, b] -= kappa / math.sinh(kappa * length)
        return q

    @pytest.mark.parametrize("seed", range(4))
    def test_branches_keep_the_inertia_of_q(self, seed):
        rng = np.random.default_rng(seed)
        for us, length, ends in (([haar_random(rng)], 1.0, [1, 0]), ([haar_random(rng), haar_random(rng)], 0.5, [2, 3, 0, 1])):
            l0 = math.exp(rng.uniform(-2.0, 2.0))
            form = engine.index_form(us, l0, length, ends)
            kappas = np.geomspace(1e-2, 60.0, 40) / min(l0, length)
            mu, dmu = engine.branches(form, kappas, 1)
            for kappa, row in zip(kappas, mu):
                assert np.all(np.diff(row) >= -1e-15)  # ordered, up to the rounding of the recomputed values
                assert np.sum(row < 0.0) == np.sum(np.linalg.eigvalsh(self.direct_q(us, l0, length, ends, kappa)) < 0.0)
            # Hellmann-Feynman derivative against central differences
            step = 1e-6 * kappas
            central = (engine.branches(form, kappas + step)[0] - engine.branches(form, kappas - step)[0]) / (2.0 * step[:, None])
            assert np.abs(central - dmu).max() <= 1e-6 * (1.0 + np.abs(dmu).max())
