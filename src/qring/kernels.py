"""Closed-form propagators and their spectral-sum oracle.

All kernels are built from the free propagator

    K0(x; t) = sqrt(1/(4 pi i t)) exp(i x^2 / (4 t)),

the choice matching energies E = k^2 (units hbar^2/2m = 1, i.e. hbar = 1
with particle mass 1/2).  Physical time lives on the real axis; Euclidean
evaluation uses t = -i tau, where every image term carries a decaying
Gaussian and the sums below converge absolutely:

  * a separated singularity with Dirichlet/Neumann sides is an interval,
    and the kernel is the alternating-image sum over reflections;
  * a scale independent singularity has wavenumber-independent plane-wave
    mixing, and the kernel is an image sum over winding numbers with
    constant (generally sub-unimodular) weights;
  * the smooth circle with flux theta has unimodular weights exp(i theta n).

The weights being unimodular is exactly the semiclassical (WKB-exact)
situation; the generic scale independent case fails it.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent, SingularCoefficients, TruncationWarning, Unsupported, WeightOverflow
from .spectrum import eigenfunction, full_spectrum
from .u2 import CharacteristicMatrix, Geometry, classify, smooth_flux, to_matrix

BOX_CASES = {(0, 0), (math.inf, math.inf), (0, math.inf), (math.inf, 0)}


@dataclass(frozen=True)
class KernelQuery:
    """Evaluation request: endpoints, complex time, and the truncation budget.

    ``a`` and ``b`` may be scalars or broadcastable arrays in [0, l).
    ``time`` must have nonpositive imaginary part; purely Euclidean queries
    use time = -i tau.  For real time the image sums are only conditionally
    defined and ``n_max`` must be given explicitly.
    """

    a: object
    b: object
    time: complex
    truncation_tol: float = 1e-12
    n_max: int | None = None

    def __post_init__(self):
        if complex(self.time).imag > 0:
            raise ValueError("time must have nonpositive imaginary part")
        if not (self.truncation_tol > 0):
            raise ValueError("truncation_tol must be positive")

    @property
    def is_euclidean(self) -> bool:
        return complex(self.time).imag < 0


def euclidean_query(a, b, tau: float, truncation_tol: float = 1e-12) -> KernelQuery:
    """Convenience constructor for imaginary-time evaluation."""
    return KernelQuery(a, b, -1j * tau, truncation_tol)


def reduced_time(t_physical: float, hbar: float, mass: float) -> float:
    """Convert a physical time to this module's units (hbar^2/2m = 1)."""
    return hbar * t_physical / (2.0 * mass)


def free_kernel(x, t: complex):
    """Free propagator K0(x; t); decays in x for Im t < 0."""
    t = complex(t)
    return np.sqrt(1.0 / (4.0j * math.pi * t)) * np.exp(1j * np.asarray(x) ** 2 / (4.0 * t))


def _image_count(q: KernelQuery, geom: Geometry, period: float, reach: float) -> int:
    """Number of image shells needed for the Gaussian tail to drop below tolerance.

    A Euclidean query's n_max caps the count; capping below the need warns
    with TruncationWarning.
    """
    t = complex(q.time)
    if not q.is_euclidean:
        if q.n_max is None:
            raise NonConvergent(
                "real-time image sums do not converge absolutely; pass an explicit n_max"
            )
        return q.n_max
    tau_eff = abs(t) ** 2 / (-t.imag)  # Gaussian decay rate exp(-x^2/(4 tau_eff))
    amp = 1.0 / math.sqrt(4.0 * math.pi * abs(t))
    target = q.truncation_tol / max(amp, 1e-300)
    radius = math.sqrt(max(4.0 * tau_eff * math.log(1.0 / min(target, 1.0)), 0.0))
    n = int(math.ceil((radius + reach) / period)) + 2
    if q.n_max is not None and q.n_max < n:
        warnings.warn(
            f"image sum truncated at n_max = {q.n_max} shells; the tail bound "
            f"{q.truncation_tol:.1e} needs {n}",
            TruncationWarning,
            stacklevel=3,
        )
    return n if q.n_max is None else min(n, q.n_max)


def box_kernel(case: tuple[float, float], geom: Geometry, q: KernelQuery):
    """Propagator of the interval with hard cases (0 = Dirichlet, inf = Neumann).

    ``case`` = (wall at x = 0, wall at x = l).  The kernel is the image sum

        sum_n eps^n [ K0((b - a) + 2 n l) + s K0((b + a) + 2 n l) ],

    with s = -1 when the x = 0 wall is Dirichlet and +1 when it is Neumann,
    and eps = -1 exactly for the two mixed cases.  This sign assignment is
    validated against the eigenfunction expansion rather than assumed.
    """
    if tuple(case) not in BOX_CASES:
        raise ValueError(f"case must be one of {sorted(BOX_CASES)}, got {case}")
    s = -1.0 if case[0] == 0 else 1.0
    eps = 1.0 if (case[0] == 0) == (case[1] == 0) else -1.0
    a = np.asarray(q.a, dtype=float)
    b = np.asarray(q.b, dtype=float)
    reach = float(np.max(np.abs(b - a)) + np.max(np.abs(b + a)))
    n_img = _image_count(q, geom, 2.0 * geom.l, reach)
    t = complex(q.time)
    out = np.zeros(np.broadcast(a, b).shape, dtype=complex)
    for n in range(-n_img, n_img + 1):
        out = out + (eps**n) * (
            free_kernel((b - a) + 2 * n * geom.l, t) + s * free_kernel((b + a) + 2 * n * geom.l, t)
        )
    return out if out.shape else complex(out)


def smooth_kernel(theta: float, geom: Geometry, q: KernelQuery):
    """Propagator of the smooth circle with flux theta: psi(0) = e^{i theta} psi(l).

    Winding images weighted by unimodular phases:
        sum_n e^{i theta n} K0((b - a) + n l).
    """
    a = np.asarray(q.a, dtype=float)
    b = np.asarray(q.b, dtype=float)
    reach = float(np.max(np.abs(b - a)))
    n_img = _image_count(q, geom, geom.l, reach)
    t = complex(q.time)
    out = np.zeros(np.broadcast(a, b).shape, dtype=complex)
    for n in range(-n_img, n_img + 1):
        out = out + cmath.exp(1j * theta * n) * free_kernel((b - a) + n * geom.l, t)
    return out if out.shape else complex(out)


@dataclass(frozen=True)
class ScaleInvariantData:
    """Image-sum data of a generic scale independent singularity.

    The eigen-wavenumbers satisfy cos(k l) = -Im beta, so k l falls on the
    two residue families +-phi0 + 2 pi n with phi0 = arccos(-Im beta).  The
    winding weights are

        M_n = |C+|^2 e^{i n phi0} + |C-|^2 e^{-i n phi0}
        N_n = -( conj(C+) C- e^{-i n phi0} + C+ conj(C-) e^{i n phi0} )

    with C+- = (w - i beta e^{+-i phi0}) / sqrt(4 w (1 - Im(beta)^2)) and
    w = 1 + Im alpha; |C+|^2 + |C-|^2 = 1.  |M_n| < 1 for generic n marks
    the loss of a semiclassical (unimodular-weight) interpretation.
    """

    phi0: float
    c_plus: complex
    c_minus: complex

    def m_weight(self, n: int) -> complex:
        return abs(self.c_plus) ** 2 * cmath.exp(1j * n * self.phi0) + abs(
            self.c_minus
        ) ** 2 * cmath.exp(-1j * n * self.phi0)

    def n_weight(self, n: int) -> complex:
        cross = np.conj(self.c_plus) * self.c_minus
        return -(cross * cmath.exp(-1j * n * self.phi0) + np.conj(cross) * cmath.exp(1j * n * self.phi0))

    def weights_unimodular(self, n_check: int = 8, tol: float = 1e-9) -> bool:
        return all(abs(abs(self.m_weight(n)) - 1.0) < tol for n in range(1, n_check + 1)) and all(
            abs(self.n_weight(n)) < tol for n in range(n_check + 1)
        )


def scale_invariant_coefficients(u: CharacteristicMatrix, tol: float = 1e-12) -> ScaleInvariantData:
    """Image weights of a generic scale independent U (xi = pi/2, Re alpha = 0)."""
    w = 1.0 + u.alpha.imag
    beta_i = u.beta.imag
    denom_sq = 4.0 * w * (1.0 - beta_i**2)
    if denom_sq < tol:
        raise SingularCoefficients(
            "coefficient denominator sqrt((1 + Im alpha)(1 - Im(beta)^2)) vanishes; "
            "use the box or smooth closed forms, or the spectral oracle"
        )
    phi0 = math.acos(min(1.0, max(-1.0, -beta_i)))
    z = cmath.exp(1j * phi0)
    denom = math.sqrt(denom_sq)
    c_plus = (w - 1j * u.beta * z) / denom
    c_minus = (w - 1j * u.beta * np.conj(z)) / denom
    return ScaleInvariantData(phi0, complex(c_plus), complex(c_minus))


def scale_invariant_kernel(u: CharacteristicMatrix, geom: Geometry, q: KernelQuery):
    """Propagator of a generic scale independent singularity via its image sum.

        K = sum_n [ M_n K0((b - a) + n l) + N_n K0((b + a) + n l) ].
    """
    data = scale_invariant_coefficients(u)
    a = np.asarray(q.a, dtype=float)
    b = np.asarray(q.b, dtype=float)
    reach = float(np.max(np.abs(b - a)) + np.max(np.abs(b + a)))
    n_img = _image_count(q, geom, geom.l, reach)
    t = complex(q.time)
    out = np.zeros(np.broadcast(a, b).shape, dtype=complex)
    for n in range(-n_img, n_img + 1):
        out = out + data.m_weight(n) * free_kernel((b - a) + n * geom.l, t)
        out = out + data.n_weight(n) * free_kernel((b + a) + n * geom.l, t)
    return out if out.shape else complex(out)


def spectral_kernel(u: CharacteristicMatrix, geom: Geometry, q: KernelQuery, n_levels: int = 60):
    """Eigenfunction-expansion oracle: sum over levels of psi(b) conj(psi(a)) e^{-i E t}.

    Convergence is guaranteed for Im(time) < 0.  Warns (TruncationWarning)
    when the last retained level still contributes above the truncation
    tolerance.
    """
    t = complex(q.time)
    if not q.is_euclidean:
        if q.n_max is None:
            raise NonConvergent("real-time spectral sums need an explicit level budget n_max")
        n_levels = q.n_max
    spec = full_spectrum(u, geom, n_levels)
    a = np.asarray(q.a, dtype=float)
    b = np.asarray(q.b, dtype=float)
    out = np.zeros(np.broadcast(a, b).shape, dtype=complex)
    last_weight = 0.0
    for level in spec:
        phase = -1j * level.energy * t
        try:
            weight = math.exp(phase.real)
        except OverflowError:
            raise WeightOverflow(
                f"the level at E = {level.energy:.6g} has weight e^{phase.real:.4g}, beyond float range"
            ) from None
        for f in eigenfunction(u, geom, level):
            out = out + f(b) * np.conj(f(a)) * cmath.exp(phase)
        if level.sector == "positive":
            last_weight = weight * 2.0 / geom.l
    if q.is_euclidean and last_weight > q.truncation_tol:
        warnings.warn(
            f"spectral sum truncated at a term of size {last_weight:.3e} > "
            f"{q.truncation_tol:.1e}; increase n_levels",
            TruncationWarning,
            stacklevel=2,
        )
    return out if out.shape else complex(out)


@dataclass(frozen=True)
class CrosscheckReport:
    """Outcome of comparing a closed-form kernel with the spectral oracle."""

    family: str
    max_deviation: float
    weights_unimodular: bool
    detail: str


def kernel_crosscheck(
    u: CharacteristicMatrix, geom: Geometry, q: KernelQuery, n_levels: int = 60
) -> CrosscheckReport:
    """Dispatch to the applicable closed form and compare against the oracle.

    Supported: the four hard-wall corners of the separated family, the
    smooth family, and generic scale independent U.  Separated U with
    finite Robin lengths and everything else have no closed form here.
    """
    report = classify(u, geom)
    oracle = spectral_kernel(u, geom, q, n_levels)

    if report.separated:
        lengths = (report.length_left, report.length_right)
        if not all(v == math.inf or abs(v) < 1e-10 for v in lengths):
            raise Unsupported(
                "separated singularity with finite Robin lengths has no closed-form kernel"
            )
        case = _box_case_of(u)
        closed = box_kernel(case, geom, q)
        dev = float(np.abs(closed - oracle).max())
        return CrosscheckReport("box", dev, True, f"case {case}; image weights are signs")
    if report.smooth:
        theta = smooth_flux(u)
        closed = smooth_kernel(theta, geom, q)
        dev = float(np.abs(closed - oracle).max())
        return CrosscheckReport("smooth", dev, True, f"flux {theta:.12g}; weights e^(i theta n)")
    if report.scale_independent:
        data = scale_invariant_coefficients(u)
        closed = scale_invariant_kernel(u, geom, q)
        dev = float(np.abs(closed - oracle).max())
        uni = data.weights_unimodular()
        detail = "unimodular weights" if uni else "non-unimodular winding weights |M_n| < 1"
        return CrosscheckReport("scale-invariant", dev, uni, detail)
    raise Unsupported("no closed-form kernel outside the separated corners and the scale independent family")


def _box_case_of(u: CharacteristicMatrix) -> tuple[float, float]:
    """Wall types (at x = 0, at x = l) of a hard-wall separated singularity."""
    mat = to_matrix(u)
    # row 1 of the boundary condition involves psi(0) and psi'(0) only for diagonal U
    u00, u11 = mat[0, 0], mat[1, 1]
    at0 = 0.0 if abs(u00 + 1.0) < 1e-8 else math.inf  # u00 = -1: psi(0) = 0
    atl = 0.0 if abs(u11 + 1.0) < 1e-8 else math.inf
    if abs(u00 - 1.0) > 1e-8 and abs(u00 + 1.0) > 1e-8:
        raise Unsupported("not a hard-wall separated singularity")
    if abs(u11 - 1.0) > 1e-8 and abs(u11 + 1.0) > 1e-8:
        raise Unsupported("not a hard-wall separated singularity")
    return (at0, atl)
