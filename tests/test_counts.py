"""Level counts from the Dirichlet-to-Neumann matrix, independent of the solvers.

Friedlander's index formula counts the levels below an energy E, with
multiplicity, as N(E) = N_D(E) + n_-(H - Lambda(E)): N_D counts the
Dirichlet levels of the edges, Lambda(E) maps the boundary values of a
solution on the edges to its inward derivatives, H = (i/L0)(U + I)^-1 (U - I)
is the Robin part of the vertex condition, and n_- counts negative
eigenvalues.  The check evaluates it with numpy.linalg.eigvalsh at the
midpoints between the reported energies and below the lowest one.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qring.spectrum import degeneracy_at, full_spectrum
from qring.twopoint import TwoPointSystem, spectrum2
from qring.u2 import SIGMA1, CharacteristicMatrix, Geometry, SpectralTriple, from_matrix, haar_random, to_matrix, triple_to_matrix

COUNTS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2**32 - 1)
log_ratios = st.floats(math.log(1e-3), math.log(1e3))
near_pi = st.integers(0, 7)  # j >= 1: U1 with the eigenphase pi - 10^-j, 0: Haar


def robin(u, l0):
    """H = (i/L0)(U + I)^-1 (U - I); Haar U has no eigenvalue -1 almost surely."""
    mat = to_matrix(u)
    eye = np.eye(2)
    return 1j / l0 * np.linalg.solve(mat + eye, mat - eye)


def edge_map(energy, length):
    """Inward Dirichlet-to-Neumann matrix of one edge, ordered (start, end)."""
    if energy >= 0.0:
        k = math.sqrt(energy)
        x = k * length
        diag, off = (-k / math.tan(x), k / math.sin(x)) if x else (-1.0 / length, 1.0 / length)
    else:
        kappa = math.sqrt(-energy)
        x = kappa * length
        diag, off = -kappa / math.tanh(x), -2.0 * kappa * math.exp(-x) / math.expm1(-2.0 * x)  # kappa / sinh x
    return np.array([[diag, off], [off, diag]])


def dirichlet_count(energy, length):
    return math.floor(math.sqrt(energy) * length / math.pi) if energy > 0.0 else 0


def one_point_count(u, geom, energy):
    lam = edge_map(energy, geom.l)
    n_minus = int(np.sum(np.linalg.eigvalsh(robin(u, geom.l0) - lam) < 0.0))
    return dirichlet_count(energy, geom.l) + n_minus


def pair_count(u1, u2, geom, energy):
    # boundary values (Phi1(0), Phi2(0), Phi1(h), Phi2(h)) of the doubled state on
    # two edges of length h; its derivative at h is outward, hence -H(U2)
    h = 0.5 * geom.l
    edge = edge_map(energy, h)
    lam = np.zeros((4, 4))
    for i in (0, 1):
        lam[np.ix_([i, i + 2], [i, i + 2])] = edge
    vertex = np.zeros((4, 4), dtype=complex)
    vertex[:2, :2] = robin(u1, geom.l0)
    vertex[2:, 2:] = -robin(u2, geom.l0)
    n_minus = int(np.sum(np.linalg.eigvalsh(vertex - lam) < 0.0))
    return 2 * dirichlet_count(energy, h) + n_minus


def probes(spec):
    """(E, levels below E with multiplicity) between the levels and below the lowest."""
    energies = spec.energies()
    below = np.cumsum(spec.multiplicities())
    lowest = energies[0] - max(1.0, abs(energies[0]))
    return [(lowest, 0)] + [(0.5 * (a + b), int(n)) for a, b, n in zip(energies, energies[1:], below)]


def bound_state_probes(spec):
    """(E, bound states below E with multiplicity) below the lowest, between them, and
    halfway from the shallowest to E = 0."""
    bound = [lv for lv in spec if lv.sector == "negative"]
    energies = [lv.energy for lv in bound]
    below = np.cumsum([lv.multiplicity for lv in bound])
    ends = [(2.0 * energies[0], 0), (0.5 * energies[-1], int(below[-1]))] if bound else []
    return ends + [(0.5 * (a + b), int(n)) for a, b, n in zip(energies, energies[1:], below)]


def close_bound_states():
    """(U1, U2, L0/l) with l = 1 and bound states closer than the secular function
    resolves; U2 None stands for the exchange, which makes the pair the one-point circle.

    (U, U^dagger): the joint at l/2 binds like U, so the wells at the two
    joints mirror each other and their deep levels pair up.  (U, exchange):
    the bound-state doublets of test_spectrum.
    """
    rng = np.random.default_rng(15)
    wells = [from_matrix(np.diag([np.exp(1.3j), np.exp(0.7j)])), haar_random(rng), haar_random(rng)]
    out = [(u, from_matrix(to_matrix(u).conj().T), l0) for u in wells for l0 in (1e-3, 1e-2, 0.1)]
    for kappa, l0 in [(0.8, 1.0), (2.0, 0.3), (0.3, 3.0), (5.0, 0.05)]:
        q, ch, sh = kappa * l0, math.cosh(kappa), math.sinh(kappa)
        b_i = -1.0 / math.hypot(ch, sh * (q - 1 / q) / 2)
        truth = SpectralTriple(math.atan2(-b_i * ch, b_i * sh * (q - 1 / q) / 2), -b_i * sh * (q + 1 / q) / 2, b_i)
        out.append((triple_to_matrix(truth), None, l0))
    return out


@COUNTS
@given(seeds, log_ratios)
def test_one_point_counts_match_the_index_formula(seed, log_ratio):
    u = haar_random(np.random.default_rng(seed))
    geom = Geometry(1.0, math.exp(log_ratio))
    for energy, count in probes(full_spectrum(u, geom, 20)):
        assert one_point_count(u, geom, energy) == count, energy


@settings(COUNTS, max_examples=80)
@given(seeds, log_ratios, near_pi)
def test_pair_counts_match_the_index_formula(seed, log_ratio, offset):
    rng = np.random.default_rng(seed)
    u1, u2 = haar_random(rng), haar_random(rng)
    if offset:
        # an eigenphase pi - 10^-offset at the first joint binds a state at kappa L0 ~ 2 10^offset
        v = to_matrix(haar_random(rng))
        phases = np.exp(1j * np.array([math.pi - 10.0**-offset, rng.uniform(-math.pi, math.pi)]))
        u1 = from_matrix(v @ np.diag(phases) @ v.conj().T)
    geom = Geometry(1.0, math.exp(log_ratio))
    for energy, count in probes(spectrum2(TwoPointSystem(u1, u2, geom), 12)):
        assert pair_count(u1, u2, geom, energy) == count, energy


@pytest.mark.parametrize("u1, u2, l0", close_bound_states())
def test_close_bound_states_counted(u1, u2, l0):
    geom = Geometry(1.0, l0)
    spec = spectrum2(TwoPointSystem(u1, u2 or from_matrix(SIGMA1), geom), 1)
    for energy, count in bound_state_probes(spec):
        reference = one_point_count(u1, geom, energy) if u2 is None else pair_count(u1, u2, geom, energy)
        assert reference == count, energy


# U within 1e-7 of -exchange and of +exchange: off the degeneracy locus, so every
# level is simple, but the boundary matrix at each level is within about 1e-7 of
# zero, and a rank rule at 1e-8 counts some of them double
NEAR_EXCHANGE = [
    (CharacteristicMatrix(1.5707963657062292, -6.794898503286148e-08 - 9.692018452073147e-08j,
                          -5.341979445275122e-08 + 0.9999999999999917j), 0.0135642163607437),
    (CharacteristicMatrix(1.5707963209976596, -1.83364887508845e-08 + 2.379789554308927e-09j,
                          1.5630037861484077e-08 - 0.9999999999999996j), 0.03418892164310919),
]


@pytest.mark.parametrize("u, l0", NEAR_EXCHANGE, ids=["minus", "plus"])
def test_near_exchange_levels_are_simple(u, l0):
    geom = Geometry(1.0, l0)
    spec = full_spectrum(u, geom, 20)
    assert not degeneracy_at(u, geom).locus
    assert set(spec.multiplicities()) == {1}
    for energy, count in probes(spec):
        assert one_point_count(u, geom, energy) == count, energy
