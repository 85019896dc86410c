"""A circle carrying two point singularities, at x = 0 and x = l/2.

States are doubled into two components living on [0, l/2),

    Phi(x) = (psi(x), psi(l - x)),

so each singularity imposes its own 2x2 boundary condition on
(Phi, Phi') at its end, and the eigenvalue problem closes on a 4x4
matrix acting on the plane-wave coefficients (A, B, C, D).  Conjugating
both characteristic matrices by one special unitary V preserves the
spectrum; freezing the second singularity at the exchange matrix
reproduces the single-singularity circle.

Root finding works on a regularized coefficient basis (cos kx, sin(kx)/k)
which stays nondegenerate through k = 0: there the matrix reduces exactly
to the linear-ansatz zero-mode condition, and the continuation k -> -i kappa
covers the negative sector.  On that basis the determinant is a fixed real
quadratic form (up to one constant phase) in (cos kh, sin(kh)/k, k sin kh),
h = l/2, so the secular function and its derivatives are evaluated in
closed form.  The textbook plane-wave matrix is exposed as BlockSecular for
inspection; both share their zeros at k > 0.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSpecialUnitary, ScanExhausted
from .spectrum import (
    Level,
    Spectrum,
    _basis_jets,
    _negative_kappa_max,
    _scan_roots,
    _scan_window_counted,
    _sweep,
)
from .u2 import (
    SIGMA3,
    CharacteristicMatrix,
    Geometry,
    from_matrix,
    spectral_triple,
    to_matrix,
    unitarity_defect,
)

RANK_TOL = 1e-8
MERIT_ROOT_TOL = 1e-8


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


def _regular_matrix(sys: TwoPointSystem, k: complex) -> np.ndarray:
    """Boundary matrix on the (cos kx, sin(kx)/k) coefficient basis.

    Entire in k^2: at k = 0 it is exactly the linear-ansatz matrix, and
    k = -i kappa gives the negative sector with hyperbolic entries.
    """
    half = sys.geometry.l / 2.0
    kh = k * half
    if abs(kh) < 1e-8:
        c = 1.0 - kh**2 / 2.0
        s = half * (1.0 - kh**2 / 6.0)
    else:
        c = np.cos(kh)
        s = np.sin(kh) / k
    return _basis_matrix(sys, c, s, k * k * s)


def _basis_matrix(sys: TwoPointSystem, c, s, t) -> np.ndarray:
    """The regularized matrix at u = (c, s, t) = (cos kh, sin(kh)/k, k sin kh), h = l/2.

    Rows 1-2 (the joint at x = 0) are constant and rows 3-4 (the joint at
    l/2) are linear in u.
    """
    rows_val = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [c, s, 0, 0], [0, 0, c, s]], dtype=complex)
    rows_der = np.array([[0, 1, 0, 0], [0, 0, 0, 1], [-t, c, 0, 0], [0, 0, -t, c]], dtype=complex)
    u = sys.block_matrix()
    eye = np.eye(4)
    return (u - eye) @ rows_val + 1j * sys.geometry.l0 * (u + eye) @ rows_der


def _secular_form(sys: TwoPointSystem) -> tuple[complex, np.ndarray]:
    """(rotation, A) with det _basis_matrix(u) = rotation * u^T A u, A real symmetric.

    The determinant is linear in each of rows 3-4, hence a quadratic form
    whose coefficient of u_i u_j is the determinant with row 3 taken at
    u = e_i and row 4 at u = e_j.  Its coefficients share one unimodular
    phase, so the real form vanishes exactly where the matrix is singular.
    """
    unit = [_basis_matrix(sys, *e) for e in np.eye(3)]
    coef = np.linalg.det(
        np.array([[np.vstack([unit[0][:2], unit[i][2], unit[j][3]]) for j in range(3)] for i in range(3)])
    )
    coef = 0.5 * (coef + coef.T)
    ref = coef.flat[np.argmax(np.abs(coef))]
    rotation = ref / abs(ref)
    return complex(rotation), (coef / rotation).real


def _real_secular(form: np.ndarray, geom: Geometry, hyperbolic: bool, order: int):
    """The ``order``-th k-derivative (order <= 2) of Q = u^T A u at k > 0.

    ``hyperbolic`` evaluates at k -> -i kappa and returns the derivatives of
    e^{-kappa l} Q instead: the positive factor keeps deep levels in float
    range and leaves roots and signs alone.
    """
    w = geom.l if hyperbolic else 0.0

    def g(k):
        u = _basis_jets(k, geom.l / 2.0, hyperbolic)
        q = lambda i, j: np.einsum("i...,ij,j...->...", u[i], form, u[j])
        if order == 0:
            return q(0, 0)
        if order == 1:
            return 2.0 * q(0, 1) - w * q(0, 0)
        return 2.0 * (q(1, 1) + q(0, 2)) - 4.0 * w * q(0, 1) + w * w * q(0, 0)

    return g


def _level_multiplicity(sys: TwoPointSystem, mu: complex) -> tuple[int, float]:
    mat = _regular_matrix(sys, mu)
    # row equilibration: deep-kappa hyperbolic rows otherwise swamp the
    # rank threshold of the O(1) rows
    scale = np.maximum(np.abs(mat).max(axis=-1, keepdims=True), 1e-300)
    s = np.linalg.svd(mat / scale, compute_uv=False)
    mult = int(np.sum(s < RANK_TOL * s[0]))
    return max(mult, 1), float(s[-1] / s[0])


def spectrum2(sys: TwoPointSystem, count: int = 20) -> Spectrum:
    """Negative, zero, and the lowest ``count`` positive levels of the pair.

    Roots of the closed-form real secular function (_secular_form) are
    refined across sign changes and through-derivative touches by the
    scanner the one-point solver uses; multiplicity is the rank deficiency of the boundary
    matrix at the root.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    geom = sys.geometry
    step = math.pi / (8.0 * geom.l)
    xtol = 1e-13 / geom.l
    cap = 4.0 * math.pi * (count + 8) / geom.l
    _, form = _secular_form(sys)

    levels: list[Level] = []

    # zero sector: the regularized matrix at k = 0 is the linear-ansatz condition
    s0 = np.linalg.svd(_regular_matrix(sys, 0.0), compute_uv=False)
    if s0[-1] < MERIT_ROOT_TOL * s0[0]:
        mult = int(np.sum(s0 < RANK_TOL * s0[0]))
        levels.append(Level("zero", 0.0, 0.0, max(mult, 1)))

    # negative sector; deep levels localize at one singularity, so the
    # one-singularity adaptive search bound of either constituent applies.
    # The doubled state takes outward derivatives at l/2, where the second
    # singularity therefore binds like U2^dagger.
    fneg, dfneg, d2fneg = (_real_secular(form, geom, True, n) for n in range(3))
    u2_dagger = from_matrix(to_matrix(sys.u2).conj().T)
    kmax = 2.0 * max(
        10.0 / geom.l0,
        10.0 / geom.l,
        *(_negative_kappa_max(spectral_triple(u), geom) for u in (sys.u1, sys.u2, u2_dagger)),
    )
    # hyperbolic entries of the rank check at kappa l / 2 must stay inside float range
    kmax = min(kmax, 1200.0 / geom.l)
    pre = np.geomspace(1e-6 / geom.l0, min(0.5 / geom.l0, 0.5 * kmax), 96)
    roots = _sweep(fneg, dfneg, pre, xtol, 0.0) + _scan_roots(
        fneg, dfneg, d2fneg, pre[-1], kmax, (kmax - pre[-1]) / 512, xtol, touch_radius=4e-7 / geom.l
    )
    for root in roots:
        if any(lv.sector == "negative" and abs(lv.wavenumber - root.x) < 1e-7 for lv in levels):
            continue
        mult, merit = _level_multiplicity(sys, -1j * root.x)
        if merit < MERIT_ROOT_TOL:
            levels.append(Level("negative", root.x, -(root.x**2), mult))

    # positive sector, windowed, with eigenvalue-count verification: the
    # level pairs of weakly coupled halves close like 1/k and eventually
    # hide inside one grid cell without any local signature
    fpos, dfpos, d2fpos = (_real_secular(form, geom, False, n) for n in range(3))
    positives: list[Level] = []
    floor = 1e-12 * max(1.0, abs(float(fpos(step))))
    for root in _sweep(fpos, dfpos, np.geomspace(step * 1e-4, step, 48), xtol, floor):
        mult, merit = _level_multiplicity(sys, root.x)
        if merit < MERIT_ROOT_TOL:
            positives.append(Level("positive", root.x, root.x**2, mult))

    lo = step
    window = math.pi * (count + 8) / geom.l
    while len(positives) < count:
        if lo >= cap:
            raise ScanExhausted(
                f"found {len(positives)} of {count} positive levels below k l = {cap * geom.l:.1f}"
            )
        hi = min(lo + window, cap)
        for root in _scan_window_counted(
            fpos,
            dfpos,
            d2fpos,
            lo,
            hi,
            step,
            xtol,
            touch_radius=4e-7 / geom.l,
            vertex_margin=math.inf,
            density=geom.l / math.pi,
        ):
            if positives and abs(root.x - positives[-1].wavenumber) < 1e-8 / geom.l:
                continue
            mult, merit = _level_multiplicity(sys, root.x)
            if merit < MERIT_ROOT_TOL:
                positives.append(Level("positive", root.x, root.x**2, mult))
                if len(positives) == count:
                    break
        lo = hi + 1e-3 * step
    levels.extend(positives[:count])
    levels.sort(key=lambda lv: lv.energy)
    return Spectrum(tuple(levels), provenance=None, max_negative=4)


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
    mat = to_matrix(u)
    tr = np.trace(mat) / 2.0
    if np.abs(mat - tr * np.eye(2)).max() < 1e-12:
        phase = cmath.phase(tr)
        return np.eye(2, dtype=complex), (phase, phase)
    vals, vecs = np.linalg.eig(mat)
    # eigenvectors of a normal matrix: re-orthonormalize against rounding
    q, _ = np.linalg.qr(vecs)
    # make sure q still diagonalizes (columns may have swapped roles under qr)
    d = q.conj().T @ mat @ q
    if abs(d[0, 1]) + abs(d[1, 0]) > 1e-8:
        # fall back: order columns by matching the eig output
        q = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
        d = q.conj().T @ mat @ q
    phases = sorted((cmath.phase(d[0, 0]), cmath.phase(d[1, 1])), reverse=True)
    if cmath.phase(d[0, 0]) < cmath.phase(d[1, 1]):
        q = q[:, ::-1]
    det = np.linalg.det(q)
    q = q * cmath.exp(-0.5j * cmath.phase(det))
    v = q.conj().T  # U = V^{-1} D V with V = Q^dagger
    return v, (phases[0], phases[1])


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
