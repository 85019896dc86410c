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
from hypothesis import given, settings
from hypothesis import strategies as st

from qring.spectrum import full_spectrum
from qring.twopoint import TwoPointSystem, spectrum2
from qring.u2 import Geometry, haar_random, to_matrix

COUNTS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2**32 - 1)
log_ratios = st.floats(math.log(1e-3), math.log(1e3))


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


@COUNTS
@given(seeds, log_ratios)
def test_one_point_counts_match_the_index_formula(seed, log_ratio):
    u = haar_random(np.random.default_rng(seed))
    geom = Geometry(1.0, math.exp(log_ratio))
    for energy, count in probes(full_spectrum(u, geom, 20)):
        assert one_point_count(u, geom, energy) == count, energy


@COUNTS
@given(seeds, log_ratios)
def test_pair_counts_match_the_index_formula(seed, log_ratio):
    rng = np.random.default_rng(seed)
    u1, u2 = haar_random(rng), haar_random(rng)
    geom = Geometry(1.0, math.exp(log_ratio))
    for energy, count in probes(spectrum2(TwoPointSystem(u1, u2, geom), 12)):
        assert pair_count(u1, u2, geom, energy) == count, energy
