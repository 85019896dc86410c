import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qring.engine import secular
from qring.errors import NotSpecialUnitary
from qring.spectrum import full_spectrum, secular_form
from qring.twopoint import (
    TwoPointSystem,
    _secular_form,
    block_secular,
    conjugate_pair,
    diagonalize_u,
    doubled_state,
    isospectral_group_of,
    reassemble_state,
    regular_matrix,
    spectrum2,
)
from qring.u2 import (
    SIGMA1,
    SIGMA3,
    CharacteristicMatrix,
    Geometry,
    SpectralTriple,
    from_matrix,
    haar_random,
    su2_random,
    to_matrix,
    triple_to_matrix,
)

GEOM = Geometry(1.0, 1.0)
FREE = from_matrix(SIGMA1)

# a small, reproducible default: each property runs a dozen seeded draws
SMALL = settings(max_examples=12, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2**32 - 1)


def haar_pair(seed, geom=GEOM):
    rng = np.random.default_rng(seed)
    return TwoPointSystem(haar_random(rng), haar_random(rng), geom), rng


def assert_same_levels(a, b, rtol):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.sector == y.sector and x.multiplicity == y.multiplicity
        assert abs(x.wavenumber - y.wavenumber) <= rtol * max(abs(y.wavenumber), 1.0 / GEOM.l)


def staggered_grid(m):
    return (np.arange(2 * m) + 0.5) * GEOM.l / (2 * m)


class TestDoubledState:
    def test_constant(self):
        phi = doubled_state(np.ones(8))
        assert np.abs(phi - 1.0).max() == 0.0

    def test_plane_wave_components(self):
        xs = staggered_grid(16)
        psi = np.exp(2j * math.pi * xs / GEOM.l)
        phi = doubled_state(psi)
        half = xs[:16]
        assert np.abs(phi[0] - np.exp(2j * math.pi * half / GEOM.l)).max() < 1e-14
        assert np.abs(phi[1] - np.exp(-2j * math.pi * half / GEOM.l)).max() < 1e-14

    def test_round_trip_and_norm(self):
        rng = np.random.default_rng(0)
        psi = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        phi = doubled_state(psi)
        assert np.abs(reassemble_state(phi) - psi).max() == 0.0
        dx = GEOM.l / 24
        assert np.sum(np.abs(psi) ** 2) * dx == pytest.approx(
            np.sum(np.abs(phi) ** 2) * dx, abs=1e-14
        )


class TestBlockSecular:
    def test_free_pair_merit_zero_on_lattice(self):
        sys = TwoPointSystem(FREE, FREE, GEOM)
        for n in (1, 2, 3):
            assert block_secular(sys, 2 * math.pi * n / GEOM.l).merit < 1e-12
        assert block_secular(sys, 1.7).merit > 1e-3

    def test_merit_continuous_near_zero(self):
        rng = np.random.default_rng(1)
        sys = TwoPointSystem(haar_random(rng), haar_random(rng), GEOM)
        ks = np.linspace(1e-6, 0.2, 40)
        merits = np.array([block_secular(sys, k).merit for k in ks])
        assert np.abs(np.diff(merits)).max() < 0.2


class TestSpectrum2:
    def test_two_free_joints_make_the_smooth_circle(self):
        spec = spectrum2(TwoPointSystem(FREE, FREE, GEOM), 4)
        assert spec.levels[0].sector == "zero" and spec.levels[0].multiplicity == 1
        for n, lv in enumerate(spec.levels[1:], start=1):
            assert lv.wavenumber == pytest.approx(2 * math.pi * n / GEOM.l, abs=1e-10)
            assert lv.multiplicity == 2

    def test_double_dirichlet_walls_decouple(self):
        u = from_matrix(-np.eye(2))
        spec = spectrum2(TwoPointSystem(u, u, GEOM), 4)
        assert not spec.has_zero_mode()
        for n, lv in enumerate(spec.levels, start=1):
            # two decoupled length-l/2 boxes, each with k = 2 pi n / l
            assert lv.wavenumber == pytest.approx(2 * math.pi * n / GEOM.l, abs=1e-10)
            assert lv.multiplicity == 2

    @SMALL
    @given(seeds, st.floats(-4.0, 4.0))
    def test_free_second_joint_reduces_to_one_singularity(self, seed, log_l0):
        # L0/l over [1e-4, 1e4]: bound states down to kappa l of order 1e4 included
        geom = Geometry(GEOM.l, float(10.0**log_l0))
        u1 = haar_random(np.random.default_rng(seed))
        two = spectrum2(TwoPointSystem(u1, FREE, geom), 15)
        assert_same_levels(two, full_spectrum(u1, geom, 15), 1e-10)

    @SMALL
    @given(seeds)
    def test_conjugation_isospectrality(self, seed):
        sys, rng = haar_pair(seed)
        base = spectrum2(sys, 10)
        assert_same_levels(spectrum2(conjugate_pair(sys, su2_random(rng)), 10), base, 1e-10)

    def test_bound_state_of_the_second_joint_binds_like_its_adjoint(self):
        # U2 alone bounds the search at kappa l = 10, U2^dagger at 80; the
        # deeper level localizes at the joint at l/2
        sys, _ = haar_pair(65)
        kappas = sorted(spectrum2(sys, 20).negative_wavenumbers() * GEOM.l)
        assert kappas == pytest.approx([5.5823, 47.8924], abs=1e-4)

    def test_self_dual_second_joint_depends_only_on_phase_gaps(self):
        # with u2 scalar, conjugating u1 by any special unitary is invisible
        rng = np.random.default_rng(4)
        u2 = from_matrix(np.exp(1j * math.pi / 5) * np.eye(2))
        u1 = haar_random(rng)
        base = spectrum2(TwoPointSystem(u1, u2, GEOM), 8)
        for _ in range(3):
            v = su2_random(rng)
            rotated = TwoPointSystem(
                from_matrix(v @ to_matrix(u1) @ v.conj().T), u2, GEOM
            )
            other = spectrum2(rotated, 8)
            for a, b in zip(base, other):
                assert abs(a.energy - b.energy) < 1e-8 * max(1.0, abs(a.energy))


class TestBoundStates:
    """Bound states and zero modes from the ordered eigenvalues of Q(kappa)."""

    @pytest.mark.parametrize("l0", [1e4, 1e5, 1e6])
    def test_state_next_to_zero_listed_once(self, l0):
        # (0, 0.5, 0) binds at kappa L0 = 1/sqrt(3), E = -1/(3 L0^2): a bound state, not a zero mode
        geom = Geometry(1.0, l0)
        u = triple_to_matrix(SpectralTriple(0.0, 0.5, 0.0))
        pair = spectrum2(TwoPointSystem(u, FREE, geom), 3)
        assert not pair.has_zero_mode() and not full_spectrum(u, geom, 3).has_zero_mode()
        assert pair.negative_wavenumbers() == pytest.approx([math.sqrt(1.0 / 3.0) / l0], rel=1e-8)

    @pytest.mark.parametrize("l0", [1e-6, 1e6])
    def test_neumann_pair_has_no_shallow_bound_state(self, l0):
        spec = spectrum2(TwoPointSystem(from_matrix(np.eye(2)), FREE, Geometry(1.0, l0)), 3)
        assert spec.levels[0].sector == "zero" and spec.negative_wavenumbers().size == 0

    @pytest.mark.parametrize("kappa", [3e-4, 5e-4])
    def test_shallow_bound_state_is_no_zero_mode(self, kappa):
        # bI puts a bound state at kappa l << 1e-6 / sqrt(l L0) = 1e-3, L0 = 1e-6; a few
        # ulps on an eigenphase move a state that close to E = 0 by about
        # eps l / (L0 (kappa l)^2), 1e-3 relative here
        l0, xi = 1e-6, 2.5
        a_r = math.cos(xi) + 0.6 * l0
        g = (math.cos(xi) - a_r) - (math.cos(xi) + a_r) * (kappa * l0) ** 2
        t = SpectralTriple(xi, a_r, -math.sin(xi) * math.cosh(kappa) - g * math.sinh(kappa) / (2.0 * kappa * l0))
        geom = Geometry(1.0, l0)
        pair = spectrum2(TwoPointSystem(triple_to_matrix(t), FREE, geom), 3)
        assert not pair.has_zero_mode()
        assert pair.negative_wavenumbers() == pytest.approx([kappa], rel=1e-3)
        assert pair.negative_wavenumbers() == pytest.approx(full_spectrum(t, geom, 3).negative_wavenumbers(), rel=1e-8)

    def test_close_bound_states_keep_their_digits(self):
        # a mirror well (U, U^dagger) whose two bound states lie 2e-7 apart (relative);
        # the reference is a 40-digit index count from the same float U
        u = CharacteristicMatrix(
            2.4210027561521974, -0.6920677176606816 + 0.3742122575893035j, -0.6172551312219393 - 0.0018877028468994768j
        )
        sys = TwoPointSystem(u, from_matrix(to_matrix(u).conj().T), Geometry(1.0, 0.001276764075735027))
        ks = sorted(spectrum2(sys, 1).negative_wavenumbers())
        assert ks == pytest.approx([33.643461911213246, 33.643468569692633], rel=1e-13)

    @pytest.mark.parametrize("delta, kappa", [(1e-3, 6666.666111111102), (1e-5, 666666.666661111), (1e-7, 66666666.66666662)])
    def test_bound_state_next_to_eigenphase_pi(self, delta, kappa):
        # U1 = V diag(e^{i(pi - delta)}, e^{-2i}) V^dagger with the exchange at L0 = 0.3.  kappa is a
        # 40-digit root of Q from the exact eigen-data; the float U1 carries an
        # eigenphase error of a few ulps, which moves kappa by about 1e-16/delta
        a, b = 1.2, -0.5
        v = np.array([[math.cos(a), -np.exp(1j * b) * math.sin(a)], [np.exp(-1j * b) * math.sin(a), math.cos(a)]])
        u1 = from_matrix(v @ np.diag(np.exp(1j * np.array([math.pi - delta, -2.0]))) @ v.conj().T)
        (level,) = [lv for lv in spectrum2(TwoPointSystem(u1, FREE, Geometry(1.0, 0.3)), 1) if lv.sector == "negative"]
        assert abs(level.wavenumber - kappa) <= 20.0 * 1e-16 / delta * kappa


class TestSecularForm:
    """The closed-form secular function against the 4x4 determinant."""

    @SMALL
    @given(seeds, st.floats(-1.5, 1.5), st.floats(0.05, 30.0), st.floats(0.05, 15.0))
    def test_quadratic_form_is_the_determinant(self, seed, log_l0, kl, kappa_l):
        geom = Geometry(1.0, float(10.0**log_l0))
        sys, _ = haar_pair(seed, geom)
        rotation, form = _secular_form(sys)
        f = [secular(form, geom.l, False), secular(form, geom.l, True)]
        # the hyperbolic matrix carries the same e^{-kappa l} scaling as the form
        for k, hyperbolic, q in ((kl, False, f[0](kl)[0]), (kappa_l, True, f[1](kappa_l)[0]), (0.0, False, f[0](0.0)[0])):
            mat = regular_matrix(sys, k, hyperbolic)[0]
            hadamard = np.prod(np.linalg.norm(mat, axis=0))
            assert abs(rotation * q - np.linalg.det(mat)) <= 1e-10 * hadamard

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seeds, st.floats(-4.0, 4.0))
    def test_one_point_form_is_the_free_pair_form(self, seed, log_l0):
        # the hand-derived one-point form and the 4x4 determinant of (U, exchange)
        # are the same quadratic form up to a real factor
        geom = Geometry(1.0, float(10.0**log_l0))
        u = haar_random(np.random.default_rng(seed))
        one = secular_form(u, geom)
        _, two = _secular_form(TwoPointSystem(u, FREE, geom))
        scale = np.sum(one * two) / np.sum(one * one)
        assert np.abs(two - scale * one).max() <= 1e-11 * np.abs(two).max()

    @SMALL
    @given(seeds, st.floats(0.05, 30.0), st.booleans())
    def test_analytic_derivatives_match_central_differences(self, seed, k, hyperbolic):
        sys, _ = haar_pair(seed)
        _, form = _secular_form(sys)
        g = secular(form, GEOM.l, hyperbolic)
        d = g(k, 2)
        scale = abs(d[0]) + abs(d[1]) / GEOM.l + abs(d[2]) / GEOM.l**2
        h = 1e-5 / GEOM.l
        for n in (1, 2):
            central = (g(k + h, n - 1)[n - 1] - g(k - h, n - 1)[n - 1]) / (2 * h)
            assert abs(central - d[n]) <= 1e-7 * scale * GEOM.l**n


class TestConjugatePair:
    def test_identity(self):
        rng = np.random.default_rng(5)
        sys = TwoPointSystem(haar_random(rng), haar_random(rng), GEOM)
        out = conjugate_pair(sys, np.eye(2))
        assert np.abs(to_matrix(out.u1) - to_matrix(sys.u1)).max() < 1e-12

    def test_commuting_generator_fixes_free_joint(self):
        rng = np.random.default_rng(6)
        rho = 0.7
        v = math.cos(rho) * np.eye(2) + 1j * math.sin(rho) * SIGMA1
        sys = TwoPointSystem(haar_random(rng), FREE, GEOM)
        out = conjugate_pair(sys, v)
        assert np.abs(to_matrix(out.u2) - SIGMA1).max() < 1e-12

    def test_diagonal_generator_fixes_diagonal_joint(self):
        rho = 0.4
        v = math.cos(rho) * np.eye(2) + 1j * math.sin(rho) * SIGMA3
        u2 = from_matrix(SIGMA3)
        sys = TwoPointSystem(FREE, u2, GEOM)
        out = conjugate_pair(sys, v)
        assert np.abs(to_matrix(out.u2) - SIGMA3).max() < 1e-12

    def test_rejects_non_special_unitary(self):
        sys = TwoPointSystem(FREE, FREE, GEOM)
        with pytest.raises(NotSpecialUnitary):
            conjugate_pair(sys, 1j * np.eye(2))  # unitary but det = -1
        with pytest.raises(NotSpecialUnitary):
            conjugate_pair(sys, np.array([[1.0, 0.1], [0.0, 1.0]]))


class TestDiagonalize:
    def test_exchange_matrix(self):
        v, (tp, tm) = diagonalize_u(FREE)
        assert sorted([tp, tm]) == pytest.approx([0.0, math.pi], abs=1e-12)
        d = np.diag([np.exp(1j * tp), np.exp(1j * tm)])
        assert np.abs(np.linalg.inv(v) @ d @ v - SIGMA1).max() < 1e-10
        assert abs(np.linalg.det(v) - 1.0) < 1e-10

    def test_diagonal_input(self):
        u = from_matrix(np.diag([np.exp(0.3j), np.exp(-0.8j)]))
        v, (tp, tm) = diagonalize_u(u)
        assert tp >= tm
        d = np.diag([np.exp(1j * tp), np.exp(1j * tm)])
        assert np.abs(np.linalg.inv(v) @ d @ v - to_matrix(u)).max() < 1e-10

    def test_random_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            u = haar_random(rng)
            v, (tp, tm) = diagonalize_u(u)
            assert tp >= tm
            assert abs(np.linalg.det(v) - 1.0) < 1e-10
            d = np.diag([np.exp(1j * tp), np.exp(1j * tm)])
            assert np.abs(np.linalg.inv(v) @ d @ v - to_matrix(u)).max() < 1e-10


class TestIsospectralGroup:
    def test_scalar_matrix_gives_full_group(self):
        grp = isospectral_group_of(from_matrix(np.exp(1j * math.pi / 5) * np.eye(2)))
        assert grp.full_su2 and grp.axis is None

    def test_exchange_axis(self):
        grp = isospectral_group_of(FREE)
        assert not grp.full_su2
        assert np.abs(np.abs(grp.axis) - np.abs(SIGMA1)).max() < 1e-10
        # group elements commute with the matrix they stabilize
        g = grp.element(0.8)
        assert np.abs(g @ SIGMA1 - SIGMA1 @ g).max() < 1e-10
        assert abs(np.linalg.det(g) - 1.0) < 1e-10

    def test_diagonal_axis(self):
        grp = isospectral_group_of(from_matrix(SIGMA3))
        assert not grp.full_su2
        g = grp.element(1.3)
        assert np.abs(g @ SIGMA3 - SIGMA3 @ g).max() < 1e-10

    def test_axis_elements_fix_the_matrix_under_conjugation(self):
        rng = np.random.default_rng(8)
        u2 = haar_random(rng)
        grp = isospectral_group_of(u2)
        g = grp.element(0.6)
        m = to_matrix(u2)
        assert np.abs(g @ m @ g.conj().T - m).max() < 1e-9
