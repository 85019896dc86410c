"""A circle carrying two point singularities, at x = 0 and x = l/2.

States are doubled into two components living on [0, l/2),

    Phi(x) = (psi(x), psi(l - x)),

so each singularity imposes its own 2x2 boundary condition on
(Phi, Phi') at its end, and the eigenvalue problem closes on a 4x4
matrix acting on the plane-wave coefficients (A, B, C, D).  Conjugating
both characteristic matrices by one special unitary V preserves the
spectrum; freezing the second singularity at the exchange matrix
reproduces the single-singularity circle.

Positive levels come from the regularized boundary matrix
(U - I) V + i L0 (U + I) D on the coefficient basis (cos kx, sin(kx)/k) of
each component, the form the one-point solver uses.  Its determinant is a
fixed real quadratic form (up to one constant phase) in
(cos kh, sin(kh)/k, k sin kh), h = l/2, the same jets on which the
one-point function is a form; the shared engine (qring.engine) evaluates
it and brackets every positive root in the cells between the points
k l = n pi.  A bracketed root is simple; only a root known exactly, on a
cell end or at a split point, reads its multiplicity off the matrix.  The
levels at E <= 0 are the engine's: the ordered eigenvalues of Q(kappa) on
the four boundary values.  The textbook plane-wave matrix is exposed as
BlockSecular for inspection; both share their zeros at k > 0.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .engine import basis_jets, boundary_matrix, bound_and_zero_states, cell_brackets, eigenphases, index_form
from .engine import null_dims, solve_brackets
from .errors import NotSpecialUnitary
from .spectrum import Spectrum
from .u2 import (
    SIGMA3,
    CharacteristicMatrix,
    Geometry,
    from_matrix,
    to_matrix,
    unitarity_defect,
)

@dataclass(frozen=True)
class TwoPointSystem:
    """Characteristic matrices at x = 0 and x = l/2 plus the geometry."""

    u1: CharacteristicMatrix
    u2: CharacteristicMatrix
    geometry: Geometry

    def block_matrix(self) -> np.ndarray:
        out = np.zeros((4, 4), dtype=complex)
        out[:2, :2] = to_matrix(self.u1)
        out[2:, 2:] = to_matrix(self.u2)
        return out


SIGMA3_BLOCK = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)


def doubled_state(psi_values) -> np.ndarray:
    """Fold samples of psi on the circle into two-component samples on [0, l/2).

    ``psi_values`` must be sampled at the 2m staggered points
    x_j = (j + 1/2) l / (2m); the fold maps them onto the same staggered grid
    of [0, l/2) without ever needing a value at the singular points.  The
    second component's derivative convention is psi_-'(x) = -psi'(l - x).
    """
    psi = np.asarray(psi_values)
    if psi.ndim != 1 or psi.size % 2:
        raise ValueError("need a 1-d array with an even number of staggered samples")
    m = psi.size // 2
    return np.stack([psi[:m], psi[::-1][:m]])


def reassemble_state(phi) -> np.ndarray:
    """Inverse of doubled_state."""
    phi = np.asarray(phi)
    if phi.ndim != 2 or phi.shape[0] != 2:
        raise ValueError("need a (2, m) array")
    return np.concatenate([phi[0], phi[1][::-1]])


@dataclass(frozen=True)
class BlockSecular:
    """The 4x4 plane-wave boundary matrix at one wavenumber, with its merit value."""

    k: float
    t_matrix: np.ndarray
    sigma3: np.ndarray
    u_block: np.ndarray
    m_matrix: np.ndarray
    merit: float


def block_secular(sys: TwoPointSystem, k: float) -> BlockSecular:
    """Plane-wave boundary matrix M(k) = (U - I) T_k - k L0 (U + I) T_k Sigma3.

    merit is the smallest singular value of M(k) over its largest; for
    k > 0 it vanishes exactly at eigen-wavenumbers, with the rank
    deficiency there equal to the multiplicity.  (At k = 0 the plane-wave
    basis itself degenerates; the zero sector uses the linear ansatz.)
    """
    geom = sys.geometry
    e = cmath.exp(1j * k * geom.l / 2)
    em = 1.0 / e
    t_k = np.array(
        [
            [1, 1, 0, 0],
            [0, 0, 1, 1],
            [e, em, 0, 0],
            [0, 0, e, em],
        ],
        dtype=complex,
    )
    u = sys.block_matrix()
    eye = np.eye(4)
    m = (u - eye) @ t_k - k * geom.l0 * (u + eye) @ t_k @ SIGMA3_BLOCK
    s = np.linalg.svd(m, compute_uv=False)
    merit = float(s[-1] / s[0]) if s[0] > 0 else 0.0
    return BlockSecular(k, t_k, SIGMA3_BLOCK.copy(), u, m, merit)


def _edges(c, s, t):
    """Values V and outward derivatives D of the doubled basis at u = (c, s, t).

    u = (cos kh, sin(kh)/k, k sin kh), h = l/2, possibly stacked.  Rows 1-2
    (the joint at x = 0) are constant and rows 3-4 (the joint at l/2) are
    linear in u.
    """
    c, s, t = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (c, s, t)))
    one, zero = np.ones_like(c), np.zeros_like(c)
    shape = c.shape + (4, 4)
    vals = np.stack([one, zero, zero, zero, zero, zero, one, zero, c, s, zero, zero, zero, zero, c, s], -1)
    ders = np.stack([zero, one, zero, zero, zero, zero, zero, one, -t, c, zero, zero, zero, zero, -t, c], -1)
    return vals.reshape(shape), ders.reshape(shape)


def regular_matrix(sys: TwoPointSystem, k, hyperbolic: bool = False):
    """Boundary matrix and envelope on the (cos kx, sin(kx)/k) coefficient basis.

    Entire in k^2: at k = 0 it is exactly the linear-ansatz matrix, and
    ``hyperbolic`` gives the negative sector at k -> -i kappa, with rows 3-4
    times e^{-kappa l/2}.  Vectorized over k.
    """
    c, s, t = basis_jets(k, sys.geometry.l / 2.0, hyperbolic)[0]
    return boundary_matrix(sys.block_matrix(), sys.geometry.l0, *_edges(c, s, t))


def _secular_form(sys: TwoPointSystem) -> tuple[complex, np.ndarray]:
    """(rotation, A) with det of the matrix at u = rotation * u^T A u, A real symmetric.

    The determinant is linear in each of rows 3-4, hence a quadratic form
    whose coefficient of u_i u_j is the determinant with row 3 taken at
    u = e_i and row 4 at u = e_j.  Its coefficients share one unimodular
    phase, so the real form vanishes exactly where the matrix is singular.
    """
    block = sys.block_matrix()
    unit = [boundary_matrix(block, sys.geometry.l0, *_edges(*e))[0] for e in np.eye(3)]
    coef = np.linalg.det(
        np.array([[np.vstack([unit[0][:2], unit[i][2], unit[j][3]]) for j in range(3)] for i in range(3)])
    )
    coef = 0.5 * (coef + coef.T)
    ref = coef.flat[np.argmax(np.abs(coef))]
    rotation = ref / abs(ref)
    return complex(rotation), (coef / rotation).real


def spectrum2(sys: TwoPointSystem, count: int = 20) -> Spectrum:
    """Negative, zero, and the lowest ``count`` positive levels of the pair.

    The levels at E <= 0 come from the engine's Q(kappa) on the boundary
    values (Phi1(0), Phi2(0), Phi1(h), Phi2(h)), h = l/2: two edges of length
    h, U1 at x = 0 and U2^dagger at l/2, where the doubled state takes
    outward derivatives, so the second singularity binds like U2^dagger.  The
    positive levels are roots of the closed-form real secular function
    (_secular_form), one per slot of the engine's cells: a bracketed root is
    simple, and a root known exactly takes the null dimension of the
    boundary matrix.  The levels pass to the Spectrum as arrays.
    """
    geom = sys.geometry
    q = index_form([sys.u1, from_matrix(to_matrix(sys.u2).conj().T)], geom.l0, 0.5 * geom.l, [2, 3, 0, 1])
    ks, mults, zero = bound_and_zero_states(q)
    _, form = _secular_form(sys)
    dims = lambda k: null_dims(*regular_matrix(sys, k))
    positive = solve_brackets(form, cell_brackets(form, geom.l, count, dims, zero), geom.l, count)
    return Spectrum.from_sectors((ks, mults), zero, positive, max_negative=4)


def conjugate_pair(sys: TwoPointSystem, v, tol: float = 1e-10) -> TwoPointSystem:
    """Conjugate both characteristic matrices by one special unitary V.

    The conjugated pair is isospectral to the original.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (2, 2):
        raise NotSpecialUnitary(f"expected a 2x2 matrix, got shape {v.shape}")
    if unitarity_defect(v) > tol or abs(np.linalg.det(v) - 1.0) > tol:
        raise NotSpecialUnitary("conjugation matrix must be special unitary")
    vinv = v.conj().T
    return TwoPointSystem(
        from_matrix(v @ to_matrix(sys.u1) @ vinv),
        from_matrix(v @ to_matrix(sys.u2) @ vinv),
        sys.geometry,
    )


def diagonalize_u(u: CharacteristicMatrix) -> tuple[np.ndarray, tuple[float, float]]:
    """Decompose U = V^{-1} diag(e^{i theta+}, e^{i theta-}) V with V special unitary.

    Phases are principal values ordered theta+ >= theta-.
    """
    theta, q = eigenphases(u)
    phases = np.angle(np.exp(1j * theta))
    order = np.argsort(-phases, kind="stable")
    q = q[:, order]
    q = q * cmath.exp(-0.5j * cmath.phase(np.linalg.det(q)))
    return q.conj().T, (float(phases[order[0]]), float(phases[order[1]]))


@dataclass(frozen=True)
class IsospectralGroup:
    """The conjugations fixing the second singularity (hence the spectrum).

    Either all of SU(2) (self-dual second singularity) or the U(1) of
    exp(i rho A) for an involutive axis matrix A.
    """

    full_su2: bool
    axis: np.ndarray | None

    def element(self, rho: float) -> np.ndarray:
        if self.full_su2:
            raise ValueError("the full group has no single generator; conjugate by any SU(2) element")
        return math.cos(rho) * np.eye(2) + 1j * math.sin(rho) * self.axis


def isospectral_group_of(u2: CharacteristicMatrix, tol: float = 1e-10) -> IsospectralGroup:
    """The subgroup of SU(2) conjugations that leaves u2 (and the spectrum) fixed."""
    mat = to_matrix(u2)
    tr = np.trace(mat) / 2.0
    if np.abs(mat - tr * np.eye(2)).max() < tol:
        return IsospectralGroup(True, None)
    v, _ = diagonalize_u(u2)
    axis = v.conj().T @ SIGMA3 @ v
    return IsospectralGroup(False, axis)
