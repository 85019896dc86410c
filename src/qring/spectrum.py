"""Forward spectral solver for one point singularity on a circle.

The eigenvalue condition in each sector is the vanishing of one real
function of the wavenumber,

    G(k) = [bI + sin(xi) cos(kl)]
           + [(cos(xi) - aR) + (cos(xi) + aR)(k L0)^2] sin(kl)/(2 k L0)

for E = k^2 > 0; the E = -kappa^2 < 0 condition is the same expression
continued through k -> -i kappa (trigonometric -> hyperbolic), and the
E = 0 condition is the common k -> 0 limit.  G depends only on the
spectral triple (xi, Re alpha, Im beta).  Roots are located by a uniform
scan (safeguarded Newton across sign changes, and on the derivative at
touching roots), and multiplicities are read off the rank of the 2x2 boundary
matrix at the root: a doubly degenerate level requires all four entries
to vanish, which happens only for Im alpha = Re beta = 0, Im beta != 0.

Units: hbar^2/2m = 1, so energies are k^2 (or -kappa^2) with k in 1/length.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalInvariant,
    NotSusyCase,
    RankMismatch,
    ScanExhausted,
)
from .u2 import (
    SIGMA1,
    CharacteristicMatrix,
    Geometry,
    SpectralTriple,
    spectral_triple,
    to_matrix,
    triple_to_matrix,
)

SCAN_STEPS_PER_PI = 8          # grid spacing pi/(8 l)
ROOT_XTOL_FACTOR = 1e-13       # |dk| * l target for refined roots
ROOT_VALUE_TOL = 1e-10         # |G| below this (times scale) counts as a touching root
RANK_TOL = 1e-8                # singular-value threshold, times the matrix norm scale
LOCUS_TOL = 1e-10


def _as_triple(u) -> SpectralTriple:
    if isinstance(u, SpectralTriple):
        return u
    if isinstance(u, CharacteristicMatrix):
        return spectral_triple(u)
    raise TypeError(f"expected SpectralTriple or CharacteristicMatrix, got {type(u)!r}")


# ---------------------------------------------------------------------------
# secular functions


def _sinc(x):
    return np.sinc(np.asarray(x) / np.pi)


def _sinhc(x):
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)
    out = np.sinh(xs) / xs
    x2 = x * x
    return np.where(small, 1.0 + x2 / 6.0 + x2 * x2 / 120.0, out)


def _xcos_minus_sin_over_x2(x):
    """(x cos x - sin x)/x^2, stable through x = 0."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-3
    xs = np.where(small, 1.0, x)
    out = (xs * np.cos(xs) - np.sin(xs)) / (xs * xs)
    x2 = x * x
    series = x * (-1.0 / 3.0 + x2 / 30.0 - x2 * x2 / 840.0)
    return np.where(small, series, out)


def _xcosh_minus_sinh_over_x2(x):
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-3
    xs = np.where(small, 1.0, x)
    out = (xs * np.cosh(xs) - np.sinh(xs)) / (xs * xs)
    x2 = x * x
    series = x * (1.0 / 3.0 + x2 / 30.0 + x2 * x2 / 840.0)
    return np.where(small, series, out)


def secular_positive(triple: SpectralTriple, geom: Geometry, k):
    """Real secular function whose positive roots are the eigen-wavenumbers.

    Continuous through k = 0, where its value is the zero-mode condition.
    Accepts scalar or array k.
    """
    t = _as_triple(triple)
    k = np.asarray(k, dtype=float)
    kl = k * geom.l
    c_minus = math.cos(t.xi) - t.alpha_r
    c_plus = math.cos(t.xi) + t.alpha_r
    bracket = c_minus + c_plus * (k * geom.l0) ** 2
    out = t.beta_i + math.sin(t.xi) * np.cos(kl) + bracket * (geom.l / (2 * geom.l0)) * _sinc(kl)
    return out if out.shape else float(out)


def secular_positive_deriv(triple: SpectralTriple, geom: Geometry, k):
    """d/dk of the positive-sector secular function."""
    t = _as_triple(triple)
    k = np.asarray(k, dtype=float)
    kl = k * geom.l
    c_minus = math.cos(t.xi) - t.alpha_r
    c_plus = math.cos(t.xi) + t.alpha_r
    bracket = c_minus + c_plus * (k * geom.l0) ** 2
    out = (
        (geom.l0 * c_plus - geom.l * math.sin(t.xi)) * np.sin(kl)
        + bracket * (geom.l**2 / (2 * geom.l0)) * _xcos_minus_sin_over_x2(kl)
    )
    return out if out.shape else float(out)


# magnitudes saturate beyond this exponent so products stay finite; signs (and
# hence root locations, to e^-500 accuracy) are unaffected
EXP_SATURATION = 500.0


def _exp_clip(x):
    return np.exp(np.minimum(x, EXP_SATURATION))


def secular_negative(triple: SpectralTriple, geom: Geometry, kappa):
    """Secular function of the negative sector (E = -kappa^2), kappa > 0.

    Evaluated through growing/decaying exponentials so that very deep
    levels (kappa l beyond the cosh overflow point) keep a well-defined
    sign; magnitudes saturate there instead of becoming nan.
    """
    t = _as_triple(triple)
    kappa = np.asarray(kappa, dtype=float)
    x = kappa * geom.l
    c_minus = math.cos(t.xi) - t.alpha_r
    c_plus = math.cos(t.xi) + t.alpha_r
    bracket = c_minus - c_plus * (kappa * geom.l0) ** 2
    small = x < 1e-4
    xs = np.where(small, 1.0, x)
    shape = bracket * geom.l / (4.0 * geom.l0 * xs)  # coefficient of e^x - e^-x
    grow = 0.5 * math.sin(t.xi) + shape
    decay = 0.5 * math.sin(t.xi) - shape
    out = t.beta_i + _exp_clip(xs) * grow + np.exp(-xs) * decay
    x0 = np.where(small, x, 0.0)
    series = t.beta_i + math.sin(t.xi) * np.cosh(x0) + bracket * (geom.l / (2 * geom.l0)) * _sinhc(x0)
    out = np.where(small, series, out)
    return out if out.shape else float(out)


def secular_negative_deriv(triple: SpectralTriple, geom: Geometry, kappa):
    t = _as_triple(triple)
    kappa = np.asarray(kappa, dtype=float)
    x = kappa * geom.l
    c_minus = math.cos(t.xi) - t.alpha_r
    c_plus = math.cos(t.xi) + t.alpha_r
    bracket = c_minus - c_plus * (kappa * geom.l0) ** 2
    lead = geom.l * math.sin(t.xi) - geom.l0 * c_plus
    small = x < 1e-3
    xs = np.where(small, 1.0, x)
    hump = bracket * geom.l**2 / (4.0 * geom.l0 * xs * xs)
    out = _exp_clip(xs) * (0.5 * lead + hump * (xs - 1.0)) + np.exp(-xs) * (
        -0.5 * lead + hump * (xs + 1.0)
    )
    x0 = np.where(small, x, 0.0)
    series = lead * np.sinh(x0) + bracket * (geom.l**2 / (2 * geom.l0)) * _xcosh_minus_sinh_over_x2(x0)
    out = np.where(small, series, out)
    return out if out.shape else float(out)


def _basis_jets(k, h, hyperbolic: bool):
    """Rows u, u', u'' of u = (cos kh, sin(kh)/k, k sin kh) and its k-derivatives.

    ``hyperbolic`` takes the continuation k -> -i kappa at k = kappa,
    u = (cosh kh, sinh(kh)/k, -k sinh kh), with every row times e^{-kh} so
    that no entry overflows however deep the level.  Shape (3, 3) + k.shape.
    """
    k = np.asarray(k, dtype=float)
    th = k * h
    if hyperbolic:
        cs, sn, sg = 0.5 * (1.0 + np.exp(-2.0 * th)), -0.5 * np.expm1(-2.0 * th), 1.0
    else:
        cs, sn, sg = np.cos(th), np.sin(th), -1.0
    s = h * np.divide(sn, th, out=np.ones_like(th), where=th != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # s', s'' are not used at k = 0
        s1 = (h * cs - s) / k
        s2 = (sg * h * h * sn - 2.0 * s1) / k
    k2 = k * k
    return np.array(
        [
            [cs, s, -sg * k2 * s],
            [sg * h * sn, s1, -sg * (2.0 * k * s + k2 * s1)],
            [sg * h * h * cs, s2, -sg * (2.0 * s + 4.0 * k * s1 + k2 * s2)],
        ]
    )


def _secular_deriv2(t: SpectralTriple, geom: Geometry, k, hyperbolic: bool):
    """d^2/dk^2 of secular_positive, or of secular_negative if ``hyperbolic``.

    Both are bI + w . u on the basis of _basis_jets with h = l.
    """
    cos_xi = math.cos(t.xi)
    w = np.array([math.sin(t.xi), (cos_xi - t.alpha_r) / (2 * geom.l0), (cos_xi + t.alpha_r) * geom.l0 / 2])
    out = w @ _basis_jets(k, geom.l, hyperbolic)[2]
    return _exp_clip(np.asarray(k) * geom.l) * out if hyperbolic else out


def zero_mode_exists(triple: SpectralTriple, geom: Geometry, tol: float = 1e-10) -> bool:
    """Whether an E = 0 eigenstate exists (the k -> 0 limit of the secular condition)."""
    return abs(secular_positive(_as_triple(triple), geom, 0.0)) < tol


def _secular_scale(triple: SpectralTriple, geom: Geometry, k):
    """Magnitude envelope of the secular function, used for relative thresholds."""
    t = triple
    k = np.asarray(k, dtype=float)
    c_minus = abs(math.cos(t.xi) - t.alpha_r)
    c_plus = abs(math.cos(t.xi) + t.alpha_r)
    env = (
        abs(t.beta_i)
        + abs(math.sin(t.xi))
        + (c_minus + c_plus * (k * geom.l0) ** 2) * (geom.l / (2 * geom.l0))
    )
    return np.maximum(env, 1e-30)


# ---------------------------------------------------------------------------
# boundary matrices in each sector


def secular_matrix(u: CharacteristicMatrix, geom: Geometry, k):
    """The 2x2 matrix whose null vectors are the plane-wave coefficients (A, B).

    Vectorized: array k gives a stacked (..., 2, 2) result.  Its determinant
    vanishes exactly at the eigen-wavenumbers; rank deficiency by two marks a
    doubly degenerate level.
    """
    k = np.asarray(k, dtype=float)
    kp = 1.0 + k * geom.l0
    km = 1.0 - k * geom.l0
    e = np.exp(1j * k * geom.l)
    em = np.conj(e)
    ex = np.exp(-1j * u.xi)
    al, be = u.alpha, u.beta
    rows = np.stack(
        [
            np.stack([al * km + (be * e - ex) * kp, al * kp + (be * em - ex) * km], axis=-1),
            np.stack(
                [
                    np.conj(al) * e * kp - (np.conj(be) + ex * e) * km,
                    np.conj(al) * em * km - (np.conj(be) + ex * em) * kp,
                ],
                axis=-1,
            ),
        ],
        axis=-2,
    )
    return rows


def negative_secular_matrix(u: CharacteristicMatrix, geom: Geometry, kappa):
    """Boundary matrix for decaying exponentials, coefficients meaning A e^{kx} + B e^{-kx}.

    Obtained from the positive-sector matrix by the continuation k -> -i kappa.
    Entries overflow to inf for kappa l beyond the exponential range; callers
    treat non-finite matrices as trivially full rank.
    """
    kappa = np.asarray(kappa, dtype=float)
    kp = 1.0 - 1j * kappa * geom.l0
    km = 1.0 + 1j * kappa * geom.l0
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(kappa * geom.l)
        em = np.exp(-kappa * geom.l)
        ex = np.exp(-1j * u.xi)
        al, be = u.alpha, u.beta
        rows = np.stack(
            [
                np.stack([al * km + (be * e - ex) * kp, al * kp + (be * em - ex) * km], axis=-1),
                np.stack(
                    [
                        np.conj(al) * e * kp - (np.conj(be) + ex * e) * km,
                        np.conj(al) * em * km - (np.conj(be) + ex * em) * kp,
                    ],
                    axis=-1,
                ),
            ],
            axis=-2,
        )
    return rows


def zero_secular_matrix(u: CharacteristicMatrix, geom: Geometry):
    """Boundary matrix for the linear ansatz psi = A + B x of the zero sector."""
    uu = to_matrix(u)
    eye = np.eye(2)
    vals = np.array([[1.0, 0.0], [1.0, geom.l]], dtype=complex)
    ders = np.array([[0.0, 1.0], [0.0, -1.0]], dtype=complex)
    return (uu - eye) @ vals + 1j * geom.l0 * (uu + eye) @ ders


def _matrix_norm_scale(geom: Geometry, k) -> float:
    """Natural magnitude of secular-matrix entries at wavenumber k."""
    return 4.0 * (1.0 + abs(k) * geom.l0)


# ---------------------------------------------------------------------------
# levels and spectra


@dataclass(frozen=True)
class Level:
    """One energy level: sector, wavenumber (k, kappa, or 0), energy, multiplicity."""

    sector: str
    wavenumber: float
    energy: float
    multiplicity: int
    note: str | None = None

    def __post_init__(self):
        if self.sector not in ("negative", "zero", "positive"):
            raise ValueError(f"unknown sector {self.sector!r}")
        if self.multiplicity not in (1, 2):
            raise ValueError(f"multiplicity must be 1 or 2, got {self.multiplicity}")


@dataclass(frozen=True)
class Spectrum:
    """Levels in ascending energy order, with the spectral triple they came from.

    ``max_negative`` is 2 for one singularity; a pair of singularities can
    bind up to two levels each.
    """

    levels: tuple[Level, ...]
    provenance: SpectralTriple | None = None
    max_negative: int = 2

    def __post_init__(self):
        energies = [lv.energy for lv in self.levels]
        if any(b <= a for a, b in zip(energies, energies[1:])):
            raise InternalInvariant("spectrum energies are not strictly increasing")
        if sum(1 for lv in self.levels if lv.sector == "negative") > self.max_negative:
            raise InternalInvariant(f"more than {self.max_negative} negative levels")
        if sum(1 for lv in self.levels if lv.sector == "zero") > 1:
            raise InternalInvariant("more than one zero level")

    def __iter__(self):
        return iter(self.levels)

    def __len__(self):
        return len(self.levels)

    def energies(self) -> np.ndarray:
        return np.array([lv.energy for lv in self.levels])

    def multiplicities(self) -> np.ndarray:
        return np.array([lv.multiplicity for lv in self.levels])

    def positive_wavenumbers(self) -> np.ndarray:
        return np.array([lv.wavenumber for lv in self.levels if lv.sector == "positive"])

    def negative_wavenumbers(self) -> np.ndarray:
        return np.array([lv.wavenumber for lv in self.levels if lv.sector == "negative"])

    def has_zero_mode(self) -> bool:
        return any(lv.sector == "zero" for lv in self.levels)


# ---------------------------------------------------------------------------
# root scanning


def _refine(f, df, lo, hi, flo, xtol):
    """Bracket-safeguarded Newton (rtsafe), vectorized over brackets.

    Each [lo[i], hi[i]] must hold a sign change of f, with flo = f(lo).  A
    Newton step is taken when it lands inside the current bracket and at
    most halves the previous step, otherwise the bracket is bisected.  A
    root is done once its Newton step falls below xtol (or a few ulps), or
    its bracket closes; a last step that only rounding noise pushed outside
    the bracket is dropped rather than replaced by a bisection.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    side = np.sign(flo)
    x = 0.5 * (lo + hi)
    tol = np.maximum(xtol, 4.0 * np.spacing(np.abs(hi)))
    last = hi - lo
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(100):  # bisection alone narrows any float bracket to tol within 100 halvings
        fx = np.asarray(f(x), dtype=float)
        dfx = np.asarray(df(x), dtype=float)
        left = np.sign(fx) == side
        lo = np.where(left, x, lo)
        hi = np.where(left, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = -fx / dfx
        ok = (x + newton > lo) & (x + newton < hi) & (np.abs(newton) <= 0.5 * last)
        small = ~(np.abs(newton) >= tol)  # also fx == dfx == 0
        step = np.where(ok, newton, np.where(small, 0.0, 0.5 * (lo + hi) - x))
        x = np.where(done, x, x + step)
        last = np.abs(step)
        done |= small | (last < tol)
        if done.all():
            break
    return x


@dataclass(frozen=True)
class _Root:
    x: float
    touching: bool  # located as a zero-value extremum rather than a sign change


def _scan_roots(f, df, d2f, x_lo, x_hi, step, xtol, touch_radius=None, vertex_margin=math.inf) -> list[_Root]:
    """All roots of a smooth real function on [x_lo, x_hi].

    Sign changes are refined by _refine on (f, df).  Every derivative sign
    change is refined on (df, d2f) to its extremum: one sitting on zero is a
    touching (even-order) root, and one that dips across zero in a cell
    without a sign change hides a pair of closely spaced simple roots that
    the grid could not separate.  All thresholds compare against the
    neighboring sample magnitudes, so the scan is insensitive to how fast
    the function's envelope grows along the axis.

    ``vertex_margin`` < inf skips extrema whose cell-edge quadratic
    prediction sits further above zero than that multiple of the local
    magnitude; use it only for functions whose dips are locally parabolic
    (cell-edge extrapolation badly underestimates spike-like dips).

    Crossings closer than ``touch_radius`` to a touching root are absorbed
    into it: within the rounding plateau of a quadratic zero (|f| below the
    evaluation noise over a sqrt(eps)-wide span) sign changes carry no
    information, so such satellites are artifacts, not levels.
    """
    if touch_radius is None:
        touch_radius = 4 * xtol
    n = max(int(math.ceil((x_hi - x_lo) / step)) + 1, 8)
    xs = np.linspace(x_lo, x_hi, n)
    fv = np.asarray(f(xs), dtype=float)
    dv = np.asarray(df(xs), dtype=float)

    roots: list[_Root] = []

    sign = np.sign(fv)
    exact = fv == 0.0
    for i in np.nonzero(exact)[0]:
        roots.append(_Root(float(xs[i]), touching=False))

    flips = np.nonzero((sign[:-1] * sign[1:] < 0) & ~exact[:-1] & ~exact[1:])[0]
    if flips.size:
        refined = _refine(f, df, xs[flips], xs[flips + 1], fv[flips], xtol)
        roots.extend(_Root(float(x), touching=False) for x in refined)

    # derivative sign changes: candidate touching roots / hidden pairs
    dflips = np.nonzero(np.sign(dv[:-1]) * np.sign(dv[1:]) < 0)[0]
    if dflips.size and math.isfinite(vertex_margin):
        h = xs[1] - xs[0]
        curvature = (dv[dflips + 1] - dv[dflips]) / h
        safe = np.where(curvature == 0.0, 1.0, curvature)
        vertex = fv[dflips] - np.where(curvature == 0.0, 0.0, dv[dflips] ** 2 / (2.0 * safe))
        local = np.maximum(np.abs(fv[dflips]), np.abs(fv[dflips + 1]))
        suspicious = vertex * np.sign(fv[dflips]) < vertex_margin * local
        dflips = dflips[suspicious]
    if dflips.size:
        ext = _refine(df, d2f, xs[dflips], xs[dflips + 1], dv[dflips], xtol)
        val = np.asarray(f(ext), dtype=float)
        fa, fb = fv[dflips], fv[dflips + 1]
        touching = np.abs(val) < ROOT_VALUE_TOL * np.maximum(np.maximum(np.abs(fa), np.abs(fb)), 1e-300)
        roots.extend(_Root(float(x), touching=True) for x in ext[touching])
        # a dip across zero in a cell whose ends share a sign hides a pair of
        # simple roots; in a cell with a sign change its one crossing is
        # already among the refined sign changes
        pair = ~touching & (sign[dflips] * sign[dflips + 1] > 0) & (np.sign(val) * sign[dflips] < 0)
        if pair.any():
            e = ext[pair]
            sides = _refine(f, df, np.r_[xs[dflips[pair]], e], np.r_[e, xs[dflips[pair] + 1]],
                            np.r_[fa[pair], val[pair]], xtol)
            roots.extend(_Root(float(x), touching=False) for x in sides)

    roots.sort(key=lambda r: r.x)
    deduped: list[_Root] = []
    for r in roots:
        if deduped:
            last = deduped[-1]
            radius = touch_radius if (r.touching or last.touching) else 4 * xtol
            if abs(r.x - last.x) < radius:
                if r.touching and not last.touching:
                    deduped[-1] = r
                continue
        deduped.append(r)
    return deduped


def _scan_window_counted(
    f,
    df,
    d2f,
    x_lo,
    x_hi,
    step,
    xtol,
    touch_radius,
    vertex_margin,
    density,
    count_slack=3.0,
    max_refinements=5,
) -> list[_Root]:
    """Window scan with eigenvalue-count verification.

    Asymptotically the roots (weighted by multiplicity, touching roots
    counting twice) fill the axis with uniform density, so a deficit
    against that count means the grid straddled a root pair too narrow to
    leave a local signature; the window is then rescanned at a finer step
    until the count closes or the refinement budget runs out.
    """
    roots = _scan_roots(f, df, d2f, x_lo, x_hi, step, xtol, touch_radius, vertex_margin)
    expected = (x_hi - x_lo) * density
    for _ in range(max_refinements):
        weight = sum(2 if r.touching else 1 for r in roots)
        if weight >= expected - count_slack:
            break
        step /= 4.0
        roots = _scan_roots(f, df, d2f, x_lo, x_hi, step, xtol, touch_radius, vertex_margin)
    return roots


def _sweep(f, df, grid, xtol, noise_floor) -> list[_Root]:
    """Roots of f between the points of a (geometric) grid, by sign changes.

    Cells whose ends both lie below the rounding floor carry no sign
    information and are skipped (the zero-mode condition can make the
    function vanish to high order at the origin).
    """
    vals = np.asarray(f(grid), dtype=float)
    loud = np.maximum(np.abs(vals[:-1]), np.abs(vals[1:])) >= noise_floor
    roots = [_Root(float(x), touching=False) for x in grid[:-1][loud & (vals[:-1] == 0.0)]]
    flips = np.nonzero(loud & (np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))[0]
    if flips.size:
        refined = _refine(f, df, grid[flips], grid[flips + 1], vals[flips], xtol)
        roots.extend(_Root(float(x), touching=False) for x in refined)
    return roots


# ---------------------------------------------------------------------------
# level construction


def _positive_multiplicity(rep: CharacteristicMatrix, geom: Geometry, k: float) -> tuple[int, str | None]:
    s = np.linalg.svd(secular_matrix(rep, geom, k), compute_uv=False)
    scale = _matrix_norm_scale(geom, k)
    if s[0] < RANK_TOL * scale:
        return 2, None
    return 1, None


def positive_levels(
    triple: SpectralTriple, geom: Geometry, count: int, _cap_factor: float = 4.0
) -> list[Level]:
    """The lowest ``count`` positive levels.

    Scans the secular function with grid spacing pi/(8 l), refines sign
    changes, and resolves touching roots through the derivative.  Raises
    ScanExhausted when fewer than ``count`` roots exist below the safety cap
    k l = 4 pi (count + 8).
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    t = _as_triple(triple)
    rep = triple_to_matrix(t)
    step = math.pi / (SCAN_STEPS_PER_PI * geom.l)
    xtol = ROOT_XTOL_FACTOR / geom.l
    cap = _cap_factor * math.pi * (count + 8) / geom.l

    f = lambda k: secular_positive(t, geom, k)
    df = lambda k: secular_positive_deriv(t, geom, k)
    d2f = lambda k: _secular_deriv2(t, geom, k, False)

    def emit(root: _Root) -> Level:
        mult, note = _positive_multiplicity(rep, geom, root.x)
        if root.touching and mult == 1:
            note = "even-order secular root with one-dimensional null space"
        return Level("positive", root.x, root.x**2, mult, note)

    levels: list[Level] = []
    # the uniform grid starts one step in; a tiny first root can hide below it
    noise_floor = 1e-12 * float(_secular_scale(t, geom, 0.0))
    for root in _sweep(f, df, np.geomspace(step * 1e-4, step, 48), xtol, noise_floor):
        levels.append(emit(root))

    lo = step
    window = math.pi * (count + 8) / geom.l
    while len(levels) < count:
        if lo >= cap:
            raise ScanExhausted(
                f"found {len(levels)} of {count} positive levels below k l = {cap * geom.l:.1f}"
            )
        hi = min(lo + window, cap)
        for root in _scan_window_counted(
            f,
            df,
            d2f,
            lo,
            hi,
            step,
            xtol,
            touch_radius=2e-7 / geom.l,
            vertex_margin=2.0,
            density=geom.l / math.pi,
        ):
            levels.append(emit(root))
            if len(levels) == count:
                break
        lo = hi + step * 1e-3
    return levels[:count]


def _negative_kappa_max(t: SpectralTriple, geom: Geometry) -> float:
    """Search bound for the negative sector, extended until the tail sign settles."""
    c_plus = math.cos(t.xi) + t.alpha_r
    sin_xi = math.sin(t.xi)
    c_minus = math.cos(t.xi) - t.alpha_r
    if abs(c_plus) > 1e-14:
        tail_sign = -np.sign(c_plus)
    elif sin_xi > 1e-14:
        tail_sign = 1.0
    elif abs(c_minus) > 1e-14:
        tail_sign = np.sign(c_minus)
    else:
        return max(10.0 / geom.l0, 10.0 / geom.l)  # constant secular function
    kmax = max(10.0 / geom.l0, 10.0 / geom.l)
    limit = 1e6 / min(geom.l, geom.l0)
    while np.sign(secular_negative(t, geom, kmax)) != tail_sign and kmax < limit:
        kmax *= 2.0
    return kmax


def negative_levels(triple: SpectralTriple, geom: Geometry) -> list[Level]:
    """All negative-energy levels (at most two exist)."""
    t = _as_triple(triple)
    rep = triple_to_matrix(t)
    kmax = _negative_kappa_max(t, geom)
    xtol = ROOT_XTOL_FACTOR / geom.l

    f = lambda x: secular_negative(t, geom, x)
    df = lambda x: secular_negative_deriv(t, geom, x)
    d2f = lambda x: _secular_deriv2(t, geom, x, True)

    kappa_min = 1e-7 / geom.l0
    # geometric prefix resolves roots much smaller than 1/L0; values below the
    # rounding floor carry no sign information (e.g. a degenerate zero mode
    # makes the function vanish to fourth order at kappa = 0)
    noise_floor = 1e-12 * float(_secular_scale(t, geom, 0.0))
    grid_lo = np.geomspace(kappa_min, min(0.5 / geom.l0, 0.5 * kmax), 64)
    roots = _sweep(f, df, grid_lo, xtol, noise_floor)
    step = min(geom.l, geom.l0) / 64.0
    kfine = min(kmax, max(10.0 / geom.l0, 10.0 / geom.l))
    roots.extend(
        _scan_roots(f, df, d2f, grid_lo[-1], kfine, step, xtol, touch_radius=2e-7 / geom.l, vertex_margin=2.0)
    )
    if kmax > kfine * 1.01:
        # a solitary deep level (tiny cos xi + alpha_r) sits far out; covered
        # by a geometric tail scan with plain sign-change refinement
        roots.extend(_sweep(f, df, np.geomspace(kfine, kmax, 512), xtol, noise_floor))

    levels: list[Level] = []
    seen: list[float] = []
    for r in sorted(roots, key=lambda r: r.x):
        if seen and abs(r.x - seen[-1]) < 8 * xtol:
            continue
        seen.append(r.x)
        mat = negative_secular_matrix(rep, geom, r.x)
        if not np.all(np.isfinite(mat)):
            mult = 1  # entries beyond float range: certainly not the all-zero degenerate case
        else:
            s = np.linalg.svd(mat, compute_uv=False)
            scale = 4.0 * (1.0 + math.exp(min(r.x * geom.l, 50.0))) * (1.0 + r.x * geom.l0)
            mult = 2 if s[0] < RANK_TOL * scale else 1
        levels.append(Level("negative", r.x, -(r.x**2), mult))
    if len(levels) > 2:
        raise InternalInvariant(f"negative sector produced {len(levels)} levels; at most 2 exist")
    levels.sort(key=lambda lv: lv.energy)
    return levels


def zero_level(triple: SpectralTriple, geom: Geometry, tol: float = 1e-10) -> Level | None:
    """The E = 0 level if present, with multiplicity from the linear-ansatz matrix."""
    t = _as_triple(triple)
    if not zero_mode_exists(t, geom, tol):
        return None
    rep = triple_to_matrix(t)
    s = np.linalg.svd(zero_secular_matrix(rep, geom), compute_uv=False)
    scale = max(4.0 * (1.0 + geom.l + geom.l0), s[0])
    mult = 2 if s[0] < RANK_TOL * scale else 1
    return Level("zero", 0.0, 0.0, mult)


def full_spectrum(u, geom: Geometry, count: int = 20, tol: float = 1e-10) -> Spectrum:
    """Negative, zero, and the lowest ``count`` positive levels, merged ascending.

    Depends on u only through its spectral triple; ``tol`` is the zero-mode
    detection tolerance.
    """
    t = _as_triple(u)
    levels = list(negative_levels(t, geom))
    zl = zero_level(t, geom, tol)
    if zl is not None:
        levels.append(zl)
    levels.extend(positive_levels(t, geom, count))
    levels.sort(key=lambda lv: lv.energy)
    return Spectrum(tuple(levels), provenance=t)


# ---------------------------------------------------------------------------
# degeneracy analysis


@dataclass(frozen=True)
class DegeneracyReport:
    """Where, if anywhere, this boundary matrix produces doubly degenerate levels."""

    locus: bool
    full_doublet_sign: int | None
    levels: tuple[Level, ...]
    description: str


def degeneracy_at(u: CharacteristicMatrix, geom: Geometry, tol: float = LOCUS_TOL) -> DegeneracyReport:
    """Analytic degeneracy report.

    Double degeneracy requires Im alpha = Re beta = 0 with Im beta != 0
    (otherwise some entry of the boundary matrix stays nonzero).  On that
    locus, a degenerate positive level must satisfy

        bI cos kl = -sin xi,   bI k L0 sin kl = -(cos xi - aR),
        bI sin kl = -(cos xi + aR) k L0,

    which forces (k L0)^2 (cos xi + aR) = cos xi - aR and hence at most one
    k, except at the exchange matrix and its negative where every positive
    level is a doublet.  E <= 0 degeneracies additionally require
    xi = arccot(l / 2 L0).
    """
    a_i, b_r, b_i = u.alpha.imag, u.beta.real, u.beta.imag
    on_locus = abs(a_i) < tol and abs(b_r) < tol and abs(b_i) > tol
    if not on_locus:
        return DegeneracyReport(False, None, (), "off the degeneracy locus; all levels simple")

    mat = to_matrix(u)
    for sign in (+1, -1):
        if np.abs(mat - sign * SIGMA1).max() < tol:
            return DegeneracyReport(
                True, sign, (), "every positive level is a doublet"
            )

    xi, a_r = u.xi, u.alpha.real
    c_plus = math.cos(xi) + a_r
    c_minus = math.cos(xi) - a_r
    check_tol = 1e-8
    found: list[Level] = []
    if abs(c_plus) > tol:
        ratio = c_minus / c_plus
        if ratio > tol:
            k = math.sqrt(ratio) / geom.l0
            kl = k * geom.l
            residuals = (
                abs(b_i * math.cos(kl) + math.sin(xi)),
                abs(b_i * k * geom.l0 * math.sin(kl) + c_minus),
                abs(b_i * math.sin(kl) + c_plus * k * geom.l0),
            )
            if max(residuals) < check_tol:
                found.append(Level("positive", k, k**2, 2))
        else:
            xi_special = math.atan2(2.0 * geom.l0, geom.l)  # arccot(l / 2 L0)
            if abs(xi - xi_special) < check_tol:
                if abs(ratio) <= tol:
                    if abs(b_i + math.sin(xi)) < check_tol and abs(c_minus) < check_tol:
                        found.append(Level("zero", 0.0, 0.0, 2))
                else:
                    kappa = math.sqrt(-ratio) / geom.l0
                    kl = kappa * geom.l
                    residuals = (
                        abs(b_i * math.cosh(kl) + math.sin(xi)),
                        abs(b_i * kappa * geom.l0 * math.sinh(kl) - c_minus),
                        abs(b_i * math.sinh(kl) + c_plus * kappa * geom.l0),
                    )
                    if max(residuals) < check_tol:
                        found.append(Level("negative", kappa, -(kappa**2), 2))
    desc = (
        f"on the degeneracy locus; {len(found)} degenerate level(s) predicted"
        if found
        else "on the degeneracy locus but the level conditions have no solution"
    )
    return DegeneracyReport(True, None, tuple(found), desc)


# ---------------------------------------------------------------------------
# eigenfunctions


@dataclass(frozen=True)
class Eigenfunction:
    """One normalized eigenfunction, stored through its expansion coefficients.

    positive sector:  psi(x) = a exp(i k x) + b exp(-i k x)
    negative sector:  psi(x) = a exp(kappa x) + b exp(-kappa x)
    zero sector:      psi(x) = a + b x
    """

    sector: str
    wavenumber: float
    a: complex
    b: complex
    length: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.sector == "positive":
            out = self.a * np.exp(1j * self.wavenumber * x) + self.b * np.exp(
                -1j * self.wavenumber * x
            )
        elif self.sector == "negative":
            out = self.a * np.exp(self.wavenumber * x) + self.b * np.exp(-self.wavenumber * x)
        else:
            out = self.a + self.b * x
        out = np.asarray(out)
        return out if out.shape else complex(out)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        if self.sector == "positive":
            out = 1j * self.wavenumber * (
                self.a * np.exp(1j * self.wavenumber * x)
                - self.b * np.exp(-1j * self.wavenumber * x)
            )
        elif self.sector == "negative":
            out = self.wavenumber * (
                self.a * np.exp(self.wavenumber * x) - self.b * np.exp(-self.wavenumber * x)
            )
        else:
            out = self.b * np.ones_like(x, dtype=complex)
        out = np.asarray(out)
        return out if out.shape else complex(out)

    @property
    def energy(self) -> float:
        if self.sector == "positive":
            return self.wavenumber**2
        if self.sector == "negative":
            return -(self.wavenumber**2)
        return 0.0


def _exp_integral(q: complex, l: float) -> complex:
    """integral_0^l exp(q x) dx."""
    if abs(q) * l < 1e-12:
        return complex(l)
    return (np.exp(q * l) - 1.0) / q


def _mu(sector: str, wavenumber: float) -> complex:
    return 1j * wavenumber if sector == "positive" else complex(wavenumber)


def eigenfunction_inner(f: Eigenfunction, g: Eigenfunction) -> complex:
    """L^2(0, l) inner product <f, g>, antilinear in the first argument."""
    l = f.length
    if f.sector == "zero" or g.sector == "zero":

        def moments(h):
            if h.sector == "zero":
                return ((h.a, 0), (h.b, 1))
            m = _mu(h.sector, h.wavenumber)
            return ((h.a, m), (h.b, -m))

        total = 0.0j
        for cf, pf in moments(f):
            for cg, pg in moments(g):
                if isinstance(pf, int) and isinstance(pg, int):
                    n = pf + pg
                    total += np.conj(cf) * cg * l ** (n + 1) / (n + 1)
                elif isinstance(pf, int):
                    total += np.conj(cf) * cg * _poly_exp_integral(pf, pg, l)
                elif isinstance(pg, int):
                    total += np.conj(cf) * cg * np.conj(_poly_exp_integral(pg, pf, l))
                else:
                    total += np.conj(cf) * cg * _exp_integral(np.conj(pf) + pg, l)
        return complex(total)

    mf, mg = _mu(f.sector, f.wavenumber), _mu(g.sector, g.wavenumber)
    total = 0.0j
    for cf, sf in ((f.a, 1), (f.b, -1)):
        for cg, sg in ((g.a, 1), (g.b, -1)):
            total += np.conj(cf) * cg * _exp_integral(np.conj(sf * mf) + sg * mg, l)
    return complex(total)


def _poly_exp_integral(power: int, q: complex, l: float) -> complex:
    """integral_0^l x^power exp(q x) dx for power in {0, 1}."""
    if power == 0:
        return _exp_integral(q, l)
    if abs(q) * l < 1e-12:
        return complex(l * l / 2.0)
    el = np.exp(q * l)
    return (l * el - (el - 1.0) / q) / q


def _boundary_vectors(f: Eigenfunction) -> tuple[np.ndarray, np.ndarray]:
    l = f.length
    psi = np.array([f(0.0), f(l)], dtype=complex)
    dpsi = np.array([f.derivative(0.0), -f.derivative(l)], dtype=complex)
    return psi, dpsi


def boundary_residual(u: CharacteristicMatrix, geom: Geometry, f: Eigenfunction) -> float:
    """Norm of (U - I) Psi + i L0 (U + I) Psi' for a normalized eigenfunction."""
    uu = to_matrix(u)
    psi, dpsi = _boundary_vectors(f)
    r = (uu - np.eye(2)) @ psi + 1j * geom.l0 * (uu + np.eye(2)) @ dpsi
    return float(np.linalg.norm(r))


def eigenfunction(u: CharacteristicMatrix, geom: Geometry, level: Level) -> list[Eigenfunction]:
    """Orthonormal eigenfunctions spanning one level (list length = multiplicity)."""
    if level.sector == "positive":
        mat = secular_matrix(u, geom, level.wavenumber)
        scale = _matrix_norm_scale(geom, level.wavenumber)
    elif level.sector == "negative":
        mat = negative_secular_matrix(u, geom, level.wavenumber)
        scale = 4.0 * (1.0 + math.exp(min(level.wavenumber * geom.l, 50.0)))
    else:
        mat = zero_secular_matrix(u, geom)
        scale = max(4.0 * (1.0 + geom.l + geom.l0), np.abs(mat).max())
    _, s, vh = np.linalg.svd(mat)
    null_dim = int(np.sum(s < RANK_TOL * scale))
    if null_dim != level.multiplicity:
        raise RankMismatch(
            f"null space dimension {null_dim} != multiplicity {level.multiplicity} "
            f"at {level.sector} wavenumber {level.wavenumber}"
        )
    raw = [
        Eigenfunction(
            level.sector,
            level.wavenumber,
            complex(np.conj(vh[-1 - i][0])),
            complex(np.conj(vh[-1 - i][1])),
            geom.l,
        )
        for i in range(level.multiplicity)
    ]
    out: list[Eigenfunction] = []
    for f in raw:
        for g in out:  # Gram-Schmidt against already accepted members
            corr = eigenfunction_inner(g, f)
            f = Eigenfunction(f.sector, f.wavenumber, f.a - corr * g.a, f.b - corr * g.b, f.length)
        norm = math.sqrt(max(eigenfunction_inner(f, f).real, 0.0))
        if norm < 1e-12:
            raise RankMismatch("degenerate null vectors could not be orthonormalized")
        f = Eigenfunction(f.sector, f.wavenumber, f.a / norm, f.b / norm, f.length)
        out.append(f)
    for f in out:
        res = boundary_residual(u, geom, f)
        if res > 1e-8 * (1.0 + level.wavenumber * geom.l0):
            raise InternalInvariant(
                f"eigenfunction boundary residual {res:.3e} at {level.sector} "
                f"wavenumber {level.wavenumber}"
            )
    return out


def probability_current(f: Eigenfunction, x) -> float | np.ndarray:
    """Probability current Im(conj(psi) psi') in units hbar/m = 1."""
    psi = np.asarray(f(x))
    dpsi = np.asarray(f.derivative(x))
    out = (np.conj(psi) * dpsi).imag
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# supersymmetry and scale independence checks


@dataclass(frozen=True)
class SusyDoubletCheck:
    k: float
    bc_residual: float
    span_residual: float
    energy_residual: float


@dataclass(frozen=True)
class SusyReport:
    epsilon: int
    doublets: tuple[SusyDoubletCheck, ...]
    zero_mode_derivative_norm: float | None
    ground_state_annihilated: bool | None
    passed: bool


def verify_susy_pairing(u: CharacteristicMatrix, geom: Geometry, n_levels: int) -> SusyReport:
    """Check the supercharge action on the fully degenerate singularities.

    The derivative of each doublet member must satisfy the same twisted
    periodicity psi(l) = eps psi(0), psi'(l) = eps psi'(0) and stay in the
    doublet's span at the same energy; for the untwisted case the unique
    zero mode must be annihilated.
    """
    mat = to_matrix(u)
    if np.abs(mat - SIGMA1).max() < LOCUS_TOL:
        eps = 1
    elif np.abs(mat + SIGMA1).max() < LOCUS_TOL:
        eps = -1
    else:
        raise NotSusyCase("supersymmetry pairing is defined only for the exchange matrix and its negative")

    spec = full_spectrum(u, geom, n_levels)
    zero_norm: float | None = None
    if eps == 1:
        zl = next(lv for lv in spec if lv.sector == "zero")
        (f0,) = eigenfunction(u, geom, zl)
        zero_norm = abs(f0.b) * math.sqrt(geom.l)  # derivative of a + b x has norm |b| sqrt(l)

    checks: list[SusyDoubletCheck] = []
    for lv in spec:
        if lv.sector != "positive":
            continue
        fs = eigenfunction(u, geom, lv)
        if lv.multiplicity != 2:
            raise InternalInvariant("positive level of a supersymmetric case is not a doublet")
        k = lv.wavenumber
        worst_bc = worst_span = worst_energy = 0.0
        for f in fs:
            d = Eigenfunction("positive", k, 1j * k * f.a, -1j * k * f.b, f.length)
            dnorm = math.sqrt(eigenfunction_inner(d, d).real)
            bc = max(
                abs(d(geom.l) - eps * d(0.0)),
                abs(d.derivative(geom.l) - eps * d.derivative(0.0)),
            ) / dnorm
            coeffs = [eigenfunction_inner(g, d) for g in fs]
            ra = d.a - sum(c * g.a for c, g in zip(coeffs, fs))
            rb = d.b - sum(c * g.b for c, g in zip(coeffs, fs))
            rem = Eigenfunction("positive", k, ra, rb, f.length)
            span = math.sqrt(max(eigenfunction_inner(rem, rem).real, 0.0)) / dnorm
            worst_bc = max(worst_bc, bc)
            worst_span = max(worst_span, span)
            # the in-span part is a plane wave at the same k, so the relative
            # energy defect is carried entirely by the remainder
            worst_energy = max(worst_energy, span)
            if dnorm < 1e-10:
                raise InternalInvariant("doublet member annihilated by the supercharge")
        checks.append(SusyDoubletCheck(k, worst_bc, worst_span, worst_energy))

    ground_annihilated = None if eps == 1 else False
    passed = all(c.bc_residual < 1e-8 and c.span_residual < 1e-8 for c in checks)
    if eps == 1:
        passed = passed and zero_norm is not None and zero_norm < 1e-10
    return SusyReport(eps, tuple(checks), zero_norm, ground_annihilated, passed)


def scale_independence_check(
    u: CharacteristicMatrix, geom: Geometry, n_levels: int, tol: float = 1e-8
) -> bool:
    """Whether the plane-wave mixing (A : B) is wavenumber independent.

    The eigen-wavenumbers fall into at most two residue families of k l
    modulo 2 pi; within each family the mixing ratio of a scale independent
    system is a single point of the projective line.  Doublets put no
    constraint (their null space is the whole plane) and are skipped.
    """
    t = spectral_triple(u)
    levels = positive_levels(t, geom, n_levels)
    singlets = [lv for lv in levels if lv.multiplicity == 1]
    if not singlets:
        return True
    zs = np.array([np.exp(1j * lv.wavenumber * geom.l) for lv in singlets])
    vecs = []
    for lv in singlets:
        _, s, vh = np.linalg.svd(secular_matrix(u, geom, lv.wavenumber))
        vecs.append(vh[-1])
    center0 = zs[0]
    dists = np.abs(zs - center0)
    if dists.max() < 1e-6:
        families = [list(range(len(zs)))]
    else:
        center1 = zs[int(np.argmax(dists))]
        families = [[], []]
        for i, z in enumerate(zs):
            families[0 if abs(z - center0) <= abs(z - center1) else 1].append(i)
    for fam in families:
        if len(fam) < 2:
            continue
        v0 = vecs[fam[0]]
        for i in fam[1:]:
            v = vecs[i]
            cross = abs(v0[0] * v[1] - v0[1] * v[0])
            if cross > tol:
                return False
    return True
