"""Output checks computed apart from qring: nothing here imports the package.

Every check rebuilds the boundary condition

    (U - I) Psi + i L0 (U + I) Psi' = 0,   Psi = (psi(+0), psi(l-0)),
                                           Psi' = (psi'(+0), -psi'(l-0))

from the unitary matrix alone, with its own ansatz for the wave function
in each energy sector, and judges a reported level list against it:

* root: at each level the boundary matrix has a small singular value;
* rank: the multiplicity equals the dimension of its null space;
* completeness: the determinant of the boundary matrix on the regular
  basis (cos kx, sin(kx)/k) is a constant phase times a real function of
  the energy; it may not change sign between two reported levels, must
  change sign across a simple level and keep it across a double one;
* counting: |N(k) - floor(k l / pi)| <= 2, because two self-adjoint
  extensions differ by a rank-2 perturbation (4 and floor(k l / 2 pi) for
  two singularities, N counting levels up to k with multiplicity).

A check returns None when the output passes and a one-line reason when it
does not.  Levels are (sector, wavenumber, multiplicity) triples.
"""
from __future__ import annotations

import math

import numpy as np

EYE2 = np.eye(2)
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

ROOT_TOL = 1e-8        # smallest singular value over the matrix's natural size
RANK_TOL = 1e-7        # a singular value below this (times natural size) is null
SIGN_FLOOR = 1e-11     # |F| below this share of its Hadamard bound has no sign
SEAM_TOL = 1e-6
CLOSED_FORM_RTOL = 1e-10
ORBIT_TOL = 1e-9
CONJUGATE_RTOL = 1e-8
KERNEL_RTOL = 1e-9


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed 2x2 unitary (QR of a complex Gaussian, phases fixed)."""
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q @ np.diag(d / np.abs(d))


def triple_unitary(xi: float, alpha_r: float, beta_i: float, phi: float = 0.0) -> np.ndarray:
    """U = e^{i xi} [[alpha, beta], [-conj(beta), conj(alpha)]] with the slack
    sqrt(1 - aR^2 - bI^2) split as (Im alpha, Re beta) = slack (cos phi, sin phi)."""
    slack = math.sqrt(max(1.0 - alpha_r**2 - beta_i**2, 0.0))
    alpha = complex(alpha_r, slack * math.cos(phi))
    beta = complex(slack * math.sin(phi), beta_i)
    return np.exp(1j * xi) * np.array([[alpha, beta], [-np.conj(beta), np.conj(alpha)]])


# ---------------------------------------------------------------------------
# one singularity: boundary matrices in each sector


def _assemble(u: np.ndarray, l0: float, vals: np.ndarray, ders: np.ndarray):
    """(U - I) vals + i L0 (U + I) ders, and its natural size for rank thresholds."""
    nat = np.linalg.norm(u - EYE2) * np.linalg.norm(vals, axis=(-2, -1)) + l0 * np.linalg.norm(
        u + EYE2
    ) * np.linalg.norm(ders, axis=(-2, -1))
    return _left(u - EYE2, vals) + _left(1j * l0 * (u + EYE2), ders), nat


def _left(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for a fixed 2 x m matrix a and a stack x of m x n matrices."""
    return np.stack([sum(a[i, j] * x[..., j, :] for j in range(a.shape[1])) for i in range(a.shape[0])], axis=-2)


def level_matrices(u: np.ndarray, l: float, l0: float, sector: str, w: np.ndarray):
    """Boundary matrices at wavenumbers w of one sector, with plane-wave,
    scaled-exponential or linear ansatz; returns (matrices, natural sizes)."""
    w = np.asarray(w, dtype=float)
    n = w.shape
    vals = np.zeros(n + (2, 2), dtype=complex)
    ders = np.zeros(n + (2, 2), dtype=complex)
    if sector == "positive":  # A e^{ikx} + B e^{-ikx}
        e = np.exp(1j * w * l)
        vals[..., 0, 0] = 1.0
        vals[..., 0, 1] = 1.0
        vals[..., 1, 0] = e
        vals[..., 1, 1] = np.conj(e)
        ders[..., 0, 0] = 1j * w
        ders[..., 0, 1] = -1j * w
        ders[..., 1, 0] = -1j * w * e
        ders[..., 1, 1] = 1j * w * np.conj(e)
    elif sector == "negative":  # A e^{kappa (x - l)} + B e^{-kappa x}, both bounded by 1
        e = np.exp(-w * l)
        vals[..., 0, 0] = e
        vals[..., 0, 1] = 1.0
        vals[..., 1, 0] = 1.0
        vals[..., 1, 1] = e
        ders[..., 0, 0] = w * e
        ders[..., 0, 1] = -w
        ders[..., 1, 0] = -w
        ders[..., 1, 1] = w * e
        # near kappa = 0 both exponentials tend to 1; use cosh, sinh/kappa there
        small = w * l < 1.0
        if np.any(small):
            ws = np.where(small, w, 1.0)
            ch, sh = np.cosh(ws * l), np.sinh(ws * l) / ws
            reg_v = np.zeros(n + (2, 2), dtype=complex)
            reg_d = np.zeros(n + (2, 2), dtype=complex)
            reg_v[..., 0, 0] = 1.0
            reg_v[..., 1, 0] = ch
            reg_v[..., 1, 1] = sh
            reg_d[..., 0, 1] = 1.0
            reg_d[..., 1, 0] = -ws * ws * sh
            reg_d[..., 1, 1] = -ch
            vals = np.where(small[..., None, None], reg_v, vals)
            ders = np.where(small[..., None, None], reg_d, ders)
    else:  # A + B x
        vals[..., 0, 0] = 1.0
        vals[..., 1, 0] = 1.0
        vals[..., 1, 1] = l
        ders[..., 0, 1] = 1.0
        ders[..., 1, 1] = -1.0
    return _assemble(u, l0, vals, ders)


def _regular_matrices(u: np.ndarray, l: float, l0: float, energy: np.ndarray) -> np.ndarray:
    """Boundary matrices on the regular basis (cos kx, sin(kx)/k), entire in E = k^2.

    For E < -1/l^2 the scaled-exponential basis is used instead; its
    determinant differs from the regular one by the negative factor
    -e^{kappa l} / (2 kappa), so the sign is flipped back.
    """
    energy = np.asarray(energy, dtype=float)
    k = np.sqrt(np.abs(energy))
    x = k * l
    pos = energy >= 0.0
    ks = np.where(k > 0.0, k, 1.0)
    c = np.where(pos, np.cos(x), np.cosh(np.minimum(x, 1.0)))
    s = np.where(k > 0.0, np.where(pos, np.sin(x), np.sinh(np.minimum(x, 1.0))) / ks, l)
    n = energy.shape
    vals = np.zeros(n + (2, 2))
    ders = np.zeros(n + (2, 2))
    vals[..., 0, 0] = 1.0
    vals[..., 1, 0] = c
    vals[..., 1, 1] = s
    ders[..., 0, 1] = 1.0
    ders[..., 1, 0] = energy * s
    ders[..., 1, 1] = -c
    mats, _ = _assemble(u, l0, vals, ders)
    deep = ~pos & (x >= 1.0)
    if np.any(deep):
        exp_mats, _ = level_matrices(u, l, l0, "negative", np.where(deep, k, 2.0 / l))
        exp_mats[..., 0, :] *= -1.0
        mats = np.where(deep[..., None, None], exp_mats, mats)
    return mats


def _signs(mats: np.ndarray) -> np.ndarray:
    """Sign of the real function e^{-i phi} det, or 0 where it is below the rounding floor.

    det = e^{i phi} * real with a constant phi, which the samples fix
    (modulo pi) through the phase of the sum of det^2.
    """
    det = np.linalg.det(mats)
    f = (np.exp(-0.5j * np.angle(np.sum(det * det))) * det).real
    bound = np.prod(np.linalg.norm(mats, axis=-1), axis=-1)
    sig = np.sign(f)
    sig[np.abs(f) <= SIGN_FLOOR * bound] = 0.0
    return sig


# ---------------------------------------------------------------------------
# level-list checks shared by one and two singularities


def _energy(level) -> float:
    sector, w, _ = level
    if sector == "positive":
        return w * w
    if sector == "negative":
        return -w * w
    return 0.0


POSITIVE_SAMPLES = 8     # least interior samples per gap between positive levels
POSITIVE_STEP = math.pi / 32.0  # and at most this far apart (times 1/l): a quarter of qring's scan step
NEGATIVE_PER_DECADE = 20  # geometric samples per decade of kappa


def _negative_samples(e_lo: float, e_hi: float, kappa_top: float) -> np.ndarray:
    """Interior energies of the part of (e_lo, e_hi) below zero, geometric in kappa."""
    kap_hi = math.sqrt(-e_lo) if math.isfinite(e_lo) else kappa_top
    kap_lo = math.sqrt(-min(e_hi, 0.0))
    start = max(kap_lo, 1e-9 * kap_hi)
    m = max(8, int(NEGATIVE_PER_DECADE * math.log10(kap_hi / start)) + 1)
    kaps = np.geomspace(start, kap_hi, m + 2)[1:-1]
    if e_hi > 0.0:
        kaps = np.concatenate([[0.0], kaps])  # E = 0 itself lies inside this gap
    return -(kaps * kaps)


def completeness(levels, evaluate, scale_k: float) -> str | None:
    """No sign change of the real determinant between reported levels; a
    flip across each simple level and none across a double one.

    ``evaluate(energies) -> matrices``; ``scale_k`` is the length setting the
    sample spacing and the deepest negative energy searched (kappa up to
    1e7 / scale_k).
    Gaps too narrow to sample are skipped, and the multiplicities on both
    sides of them are summed.
    """
    levels = sorted(levels, key=_energy)
    e = np.array([-math.inf] + [_energy(lv) for lv in levels])
    lo, hi = e[:-1], e[1:]
    # sample points must sit well clear of the rounding plateau of the roots
    usable = ~(np.isfinite(lo) & (hi - lo <= 1e-12 * np.maximum(1.0, np.abs(hi))))
    parts, owner = [], []
    pos_gaps = np.nonzero(usable & (hi > 0.0))[0]
    if pos_gaps.size:
        k_lo = np.sqrt(np.maximum(lo[pos_gaps], 0.0))
        k_hi = np.sqrt(hi[pos_gaps])
        m = np.maximum(POSITIVE_SAMPLES, np.ceil((k_hi - k_lo) / (POSITIVE_STEP / scale_k))).astype(int)
        gap = np.repeat(np.arange(pos_gaps.size), m)
        local = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m) + 1
        ks = k_lo[gap] + (k_hi - k_lo)[gap] * local / (m[gap] + 1.0)
        parts.append(ks * ks)
        owner.append(pos_gaps[gap])
    for i in np.nonzero(usable & (lo < 0.0))[0]:
        pts = _negative_samples(lo[i], hi[i], 1e7 / scale_k)
        parts.append(pts)
        owner.append(np.full(pts.size, i))
    if not parts:
        return None
    pts, owner = np.concatenate(parts), np.concatenate(owner)
    sig = _signs(evaluate(pts))
    plus = np.bincount(owner, weights=sig > 0, minlength=len(levels))
    minus = np.bincount(owner, weights=sig < 0, minlength=len(levels))
    mixed = np.nonzero((plus > 0) & (minus > 0))[0]
    if mixed.size:
        i = int(mixed[0])
        where = "below the lowest level" if i == 0 else f"between levels {i - 1} and {i}"
        return f"determinant changes sign {where}: a level is missing"
    gap_sign = [1.0 if p else (-1.0 if m else None) for p, m in zip(plus, minus)]
    last_sign, carried = None, 0
    for i, lv in enumerate(levels):
        if gap_sign[i] is not None:
            if last_sign is not None and (carried % 2 == 1) != (gap_sign[i] != last_sign):
                return f"sign pattern around level {i - 1} contradicts multiplicity {levels[i - 1][2]}"
            last_sign, carried = gap_sign[i], 0
        carried += lv[2]
    return None


def counting_bound(levels, l: float, points: int) -> str | None:
    """|N(k) - p floor(k l / (p pi))| <= 2 p between consecutive levels, for p
    singularities: p self-adjoint rank-2 perturbations of the p decoupled arcs."""
    levels = sorted(levels, key=_energy)
    n = 0
    for i, lv in enumerate(levels):
        n += lv[2]
        ks = [lv[1] * (1 + 1e-12) if lv[0] == "positive" else 0.0]
        if i + 1 < len(levels) and levels[i + 1][0] == "positive":
            ks.append(levels[i + 1][1] * (1 - 1e-12))
        for k in ks:
            m = points * math.floor(k * l / (points * math.pi))
            if abs(n - m) > 2 * points:
                return f"counting bound broken after level {i}: N = {n}, bound term {m}"
    return None


def _root_and_rank(mats: np.ndarray, nat: np.ndarray, levels) -> str | None:
    s = np.linalg.svd(mats, compute_uv=False)
    for i, lv in enumerate(levels):
        ref = max(nat[i], 1e-300)
        if not s[i, -1] <= ROOT_TOL * ref:
            return f"level {i} ({lv[0]} {lv[1]!r}) is no root: sigma_min/size = {s[i, -1] / ref:.2e}"
        null = int(np.sum(s[i] <= RANK_TOL * ref))
        if null != lv[2]:
            return f"level {i} ({lv[0]} {lv[1]!r}) has multiplicity {lv[2]} but null space {null}"
    return None


def check_one_point(u: np.ndarray, l: float, l0: float, levels, count: int) -> str | None:
    """All one-singularity checks on a level list holding ``count`` positive levels."""
    levels = list(levels)
    if sum(1 for lv in levels if lv[0] == "positive") != count:
        return f"expected {count} positive levels"
    for sector in ("positive", "negative", "zero"):
        idx = [i for i, lv in enumerate(levels) if lv[0] == sector]
        if not idx:
            continue
        w = np.array([levels[i][1] for i in idx])
        mats, nat = level_matrices(u, l, l0, sector, w)
        why = _root_and_rank(mats, nat, [levels[i] for i in idx])
        if why:
            return why
    why = completeness(levels, lambda e: _regular_matrices(u, l, l0, e), l)
    return why or counting_bound(levels, l, 1)


def deep_level(u: np.ndarray, l: float, l0: float, kappa_cut: float) -> bool:
    """Whether the one-point circle has a bound state with kappa beyond kappa_cut."""
    kap = np.geomspace(kappa_cut, 1e7 / l, 400)
    sig = _signs(_regular_matrices(u, l, l0, -(kap * kap)))
    sig = sig[sig != 0]
    return bool(sig.size and np.any(sig != sig[0]))


def exact_one_point(kind: str, l: float, l0: float, count: int, alpha_r: float = 0.0):
    """Closed-form spectra: pinned (xi = 0, Im beta = 0), +-exchange, Dirichlet, Neumann."""
    if kind == "pinned":
        kappa = math.sqrt((1.0 - alpha_r) / (1.0 + alpha_r)) / l0
        return [("negative", kappa, 1)] + [("positive", math.pi * n / l, 1) for n in range(1, count + 1)]
    if kind == "exchange+":
        return [("zero", 0.0, 1)] + [("positive", 2 * math.pi * n / l, 2) for n in range(1, count + 1)]
    if kind == "exchange-":
        return [("positive", (2 * n - 1) * math.pi / l, 2) for n in range(1, count + 1)]
    if kind == "dirichlet":
        return [("positive", math.pi * n / l, 1) for n in range(1, count + 1)]
    if kind == "neumann":
        return [("zero", 0.0, 1)] + [("positive", math.pi * n / l, 1) for n in range(1, count + 1)]
    raise ValueError(kind)


def matches_exact(levels, exact) -> str | None:
    levels = sorted(levels, key=_energy)
    if len(levels) != len(exact):
        return f"{len(levels)} levels where the closed form has {len(exact)}"
    for i, (got, want) in enumerate(zip(levels, exact)):
        if got[0] != want[0] or got[2] != want[2]:
            return f"level {i} is {got[0]} x{got[2]}, closed form {want[0]} x{want[2]}"
        if abs(got[1] - want[1]) > CLOSED_FORM_RTOL * max(1.0, want[1]):
            return f"level {i} wavenumber {got[1]!r} differs from the closed form {want[1]!r}"
    return None


# ---------------------------------------------------------------------------
# two singularities at x = 0 and x = l/2


def pair_matrices(u1: np.ndarray, u2: np.ndarray, l: float, l0: float, energy: np.ndarray):
    """4x4 boundary matrices on psi = A cos kx + B sin(kx)/k (first half) and
    C cos kx + D sin(kx)/k for psi(l - x), rows of each end scaled to O(1)."""
    energy = np.asarray(energy, dtype=float)
    h = 0.5 * l
    k = np.sqrt(np.abs(energy))
    ks = np.where(k > 0.0, k, 1.0)
    pos = energy >= 0.0
    c = np.where(pos, np.cos(k * h), np.cosh(k * h))
    s = np.where(k > 0.0, np.where(pos, np.sin(k * h), np.sinh(k * h)) / ks, h)
    k2s = energy * s
    n = energy.shape
    z = np.zeros(n)
    one = np.ones(n)
    # Phi(0) = (A, C), Phi'(0) = (B, D)
    v0 = np.stack([np.stack([one, z, z, z], -1), np.stack([z, z, one, z], -1)], -2)
    d0 = np.stack([np.stack([z, one, z, z], -1), np.stack([z, z, z, one], -1)], -2)
    # Phi(l/2) and Phi'(l/2), the plain derivative of the doubled state
    vh = np.stack([np.stack([c, s, z, z], -1), np.stack([z, z, c, s], -1)], -2)
    dh = np.stack([np.stack([-k2s, c, z, z], -1), np.stack([z, z, -k2s, c], -1)], -2)
    scale = (1.0 + np.abs(c) + np.abs(s) + np.abs(k2s))[..., None, None]
    top, top_nat = _assemble(u1, l0, v0, d0)
    bot, bot_nat = _assemble(u2, l0, vh / scale, dh / scale)
    return np.concatenate([top, bot], axis=-2), top_nat + bot_nat


PAIR_KAPPA_LIMIT_L = 1200.0  # kappa l beyond which cosh(kappa l / 2) leaves float range


def pair_deep_level(u1: np.ndarray, u2: np.ndarray, l: float, l0: float, kappa_cut: float) -> bool:
    """Whether the pair has a bound state with kappa beyond kappa_cut."""
    kap = np.geomspace(kappa_cut, PAIR_KAPPA_LIMIT_L / l, 400)
    sig = _signs(pair_matrices(u1, u2, l, l0, -(kap * kap))[0])
    sig = sig[sig != 0]
    return bool(sig.size and np.any(sig != sig[0]))


def check_pair(u1: np.ndarray, u2: np.ndarray, l: float, l0: float, levels, count: int) -> str | None:
    levels = list(levels)
    if sum(1 for lv in levels if lv[0] == "positive") != count:
        return f"expected {count} positive levels"
    e = np.array([_energy(lv) for lv in levels])
    mats, nat = pair_matrices(u1, u2, l, l0, e)
    why = _root_and_rank(mats, nat, levels)
    if why:
        return why

    def evaluate(energies):
        energies = np.maximum(energies, -((PAIR_KAPPA_LIMIT_L / l) ** 2))
        return pair_matrices(u1, u2, l, l0, energies)[0]

    why = completeness(levels, evaluate, l)
    return why or counting_bound(levels, l, 2)


def same_spectrum(a, b, rtol: float = CONJUGATE_RTOL) -> str | None:
    a, b = sorted(a, key=_energy), sorted(b, key=_energy)
    if len(a) != len(b):
        return f"{len(a)} levels against {len(b)}"
    for i, (x, y) in enumerate(zip(a, b)):
        ex, ey = _energy(x), _energy(y)
        if x[0] != y[0] or x[2] != y[2] or abs(ex - ey) > rtol * max(1.0, abs(ex)):
            return f"level {i} differs: {x} against {y}"
    return None


# ---------------------------------------------------------------------------
# inversion


def seam_distance(a, b) -> float:
    """Max-norm distance of (xi, Re alpha, Im beta) triples, identifying
    (xi, aR, bI) with (xi - pi, -aR, -bI) across the chart seam."""
    def flip(t):
        return (t[0] - math.pi, -t[1], -t[2])

    def d(x, y):
        return max(abs(p - q) for p, q in zip(x, y))

    return min(d(a, b), d(flip(a), b), d(a, flip(b)))


def check_recovery(truth, got) -> str | None:
    dist = seam_distance(truth, got)
    if not dist <= SEAM_TOL:
        return f"recovered {got} is {dist:.2e} from the generating {truth}"
    return None


# ---------------------------------------------------------------------------
# kernels: Fourier series in Euclidean time tau, K(b, a) = sum psi(b) conj(psi(a)) e^{-E tau}


def _modes(tau: float, l: float) -> int:
    return int(math.sqrt(40.0 / tau) * l / math.pi) + 3


def box_series(case: str, l: float, tau: float, b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Walls at (0, l): '0' Dirichlet, 'N' Neumann."""
    n = np.arange(_modes(tau, l) + 1, dtype=float)
    shift = 0.5 if case in ("0N", "N0") else 0.0
    k = (n + shift) * math.pi / l
    if case == "00":
        k = k[1:]
    weight = np.exp(-k * k * tau) * (2.0 / l)
    fn = np.sin if case[0] == "0" else np.cos
    if case == "NN":
        weight[0] = 1.0 / l
    return np.einsum("n,...n,...n->...", weight, fn(np.multiply.outer(b, k)), fn(np.multiply.outer(a, k)))


def smooth_series(theta: float, l: float, tau: float, b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """psi(0) = e^{i theta} psi(l): plane waves with k l = 2 pi n - theta."""
    m = _modes(tau, l)
    n = np.arange(-m, m + 1, dtype=float)
    k = (2 * math.pi * n - theta) / l
    phase = np.exp(1j * np.multiply.outer(b - a, k))
    return (phase * np.exp(-k * k * tau)).sum(-1) / l


def compare_kernel(got: np.ndarray, want: np.ndarray) -> str | None:
    err = float(np.abs(got - want).max())
    ref = float(np.abs(want).max())
    if not err <= KERNEL_RTOL * max(ref, 1.0):
        return f"kernel deviates from the Fourier series by {err:.2e} (scale {ref:.2e})"
    return None


def kernel_symmetric(k: np.ndarray) -> str | None:
    """K(b, a) = conj K(a, b) on the symmetric grid, with a positive real diagonal."""
    if not np.all(np.isfinite(k)):
        return "kernel has non-finite values"
    ref = max(float(np.abs(k).max()), 1e-300)
    if float(np.abs(k - k.T.conj()).max()) > KERNEL_RTOL * ref:
        return "kernel is not hermitian"
    d = np.diag(k)
    if np.any(d.real <= 0.0) or float(np.abs(d.imag).max()) > KERNEL_RTOL * ref:
        return "kernel diagonal is not positive"
    return None
