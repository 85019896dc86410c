"""Batch front-end: deterministic CSV/JSON runs over all solver modules.

Exit codes: 0 success, 2 configuration error (malformed input, unreadable
files), 3 numeric failure (any error raised inside a solver).  The
subcommands that draw random matrices take --seed; identical configurations
produce identical output bytes.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import kernels
from .errors import QringError
from .inverse import CLASSIFY_MIN_LEVELS, SpectrumPrefix, prefix_from_spectrum, recover_parameters
from .io import (
    ConfigError,
    geometry_from_json,
    levels_from_text,
    spectrum_to_csv,
    spectrum_to_json,
    u_from_json,
)
from .spectrum import Spectrum, full_spectrum
from .twopoint import TwoPointSystem, conjugate_pair, spectrum2
from .u2 import (
    classify,
    haar_random,
    p_theta_map,
    parity_map,
    pt_map,
    spectral_triple,
    su2_random,
    time_reversal_map,
)

DEFAULT_GEOMETRY = '{"l": 1.0, "L0": 1.0}'


def _json_arg(value: str):
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return value


def _emit(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _fmt(x: float) -> str:
    return repr(float(x))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--geometry", default=DEFAULT_GEOMETRY, help="JSON {'l':..,'L0':..} or @file")
    p.add_argument("--output", default=None, help="output path (default: stdout)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    p.add_argument("--csv", action="store_true", help="emit CSV (default)")


def _spectrum_text(spec: Spectrum, as_json: bool) -> str:
    return spectrum_to_json(spec) if as_json else spectrum_to_csv(spec)


def cmd_spectrum(args) -> int:
    geom = geometry_from_json(_json_arg(args.geometry))
    u = u_from_json(_json_arg(args.u))
    spec = full_spectrum(u, geom, args.levels, tol=args.tol)
    _emit(_spectrum_text(spec, args.json), args.output)
    return 0


def _json_safe(value):
    # strict JSON has no Infinity literal; lengths use the string "inf"
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def cmd_classify(args) -> int:
    geom = geometry_from_json(_json_arg(args.geometry))
    u = u_from_json(_json_arg(args.u))
    report = classify(u, geom, tol=args.tol)
    payload = {
        "parity": report.parity,
        "time_reversal": report.time_reversal,
        "space_time": report.space_time,
        "separated": report.separated,
        "scale_independent": report.scale_independent,
        "smooth": report.smooth,
        "isospectral": report.isospectral,
        "semi_isospectral": report.semi_isospectral,
        "self_dual": report.self_dual,
        "susy_plus": report.susy_plus,
        "susy_minus": report.susy_minus,
        "length_left": _json_safe(report.length_left),
        "length_right": _json_safe(report.length_right),
        "beta_phase": report.beta_phase,
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)
    return 0


def cmd_orbit(args) -> int:
    if args.u is None:
        raise ConfigError("orbit needs --u (and optionally --u2 for a pair orbit)")
    geom = geometry_from_json(_json_arg(args.geometry))
    rng = np.random.default_rng(args.seed)
    lines = []
    if args.u2 is not None:
        u1 = u_from_json(_json_arg(args.u))
        u2 = u_from_json(_json_arg(args.u2))
        base = spectrum2(TwoPointSystem(u1, u2, geom), args.levels)
        lines.append("conjugation,max_rel_energy_dev")
        for i in range(args.samples):
            v = su2_random(rng)
            conj = spectrum2(conjugate_pair(TwoPointSystem(u1, u2, geom), v), args.levels)
            dev = max(
                abs(a.energy - b.energy) / max(1.0, abs(a.energy))
                for a, b in zip(base, conj)
            )
            lines.append(f"{i},{_fmt(dev)}")
    else:
        u = u_from_json(_json_arg(args.u))
        base = full_spectrum(u, geom, args.levels)
        maps = [
            ("parity", parity_map(u)),
            ("time_reversal", time_reversal_map(u)),
            ("space_time", pt_map(u)),
        ]
        for i in range(args.samples):
            theta = rng.uniform(0.0, 2 * math.pi)
            maps.append((f"rotation_{i}", p_theta_map(u, theta)))
        lines.append("map,max_rel_energy_dev,multiplicities_equal")
        for name, mapped in maps:
            other = full_spectrum(mapped, geom, args.levels)
            dev = max(
                abs(a.energy - b.energy) / max(1.0, abs(a.energy))
                for a, b in zip(base, other)
            )
            mults = all(a.multiplicity == b.multiplicity for a, b in zip(base, other))
            lines.append(f"{name},{_fmt(dev)},{mults}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_invert(args) -> int:
    geom = geometry_from_json(_json_arg(args.geometry))
    with open(args.input, "r", encoding="utf-8") as fh:
        levels = levels_from_text(fh.read())
    positive = sorted({lv.wavenumber for lv in levels if lv.sector == "positive"})
    if len(positive) < CLASSIFY_MIN_LEVELS:
        raise ConfigError(f"need at least {CLASSIFY_MIN_LEVELS} positive levels to invert, got {len(positive)}")
    try:
        prefix = SpectrumPrefix(
            tuple(positive),
            any(lv.sector == "zero" for lv in levels),
            tuple(sorted(lv.wavenumber for lv in levels if lv.sector == "negative")),
            geom,
        )
    except ValueError as exc:
        raise ConfigError(f"spectrum file: {exc}") from exc
    result = recover_parameters(prefix)
    payload = {"case": result.case, "warnings": list(result.warnings)}
    if args.method in ("asymptotic", "both"):
        t = result.asymptotic_triple
        payload["asymptotic"] = None if t is None else {
            "xi": t.xi, "alpha_r": t.alpha_r, "beta_i": t.beta_i
        }
    if args.method in ("fit", "both"):
        t = result.fit_triple
        payload["fit"] = None if t is None else {
            "xi": t.xi, "alpha_r": t.alpha_r, "beta_i": t.beta_i
        }
    payload["triple"] = {
        "xi": result.triple.xi,
        "alpha_r": result.triple.alpha_r,
        "beta_i": result.triple.beta_i,
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)
    return 0


def cmd_kernel(args) -> int:
    if args.family in ("f2", "spectral") and args.u is None:
        raise ConfigError(f"kernel family {args.family!r} needs --u")
    geom = geometry_from_json(_json_arg(args.geometry))
    xs = (np.arange(args.grid) + 0.5) * geom.l / args.grid
    b, a = np.meshgrid(xs, xs, indexing="ij")
    try:
        q = kernels.euclidean_query(a, b, args.tau)
    except ValueError as exc:
        raise ConfigError(f"--tau: {exc}") from exc
    if args.family == "box":
        case = {
            "00": (0.0, 0.0),
            "NN": (math.inf, math.inf),
            "0N": (0.0, math.inf),
            "N0": (math.inf, 0.0),
        }[args.case]
        k = kernels.box_kernel(case, geom, q)
    elif args.family == "smooth":
        k = kernels.smooth_kernel(args.theta, geom, q)
    elif args.family == "f2":
        k = kernels.scale_invariant_kernel(u_from_json(_json_arg(args.u)), geom, q)
    else:
        k = kernels.spectral_kernel(u_from_json(_json_arg(args.u)), geom, q, args.levels)
    lines = ["x,y,re_k,im_k"]
    for i in range(args.grid):
        for j in range(args.grid):
            lines.append(f"{_fmt(xs[i])},{_fmt(xs[j])},{_fmt(k[i, j].real)},{_fmt(k[i, j].imag)}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_twopoint(args) -> int:
    geom = geometry_from_json(_json_arg(args.geometry))
    sys_ = TwoPointSystem(u_from_json(_json_arg(args.u1)), u_from_json(_json_arg(args.u2)), geom)
    spec = spectrum2(sys_, args.levels)
    _emit(_spectrum_text(spec, args.json), args.output)
    return 0


def cmd_roundtrip(args) -> int:
    geom = geometry_from_json(_json_arg(args.geometry))
    rng = np.random.default_rng(args.seed)
    u = haar_random(rng)
    truth = spectral_triple(u)
    spec = full_spectrum(u, geom, args.levels)
    result = recover_parameters(prefix_from_spectrum(spec, geom))

    def err(t):
        if t is None:
            return None
        return max(abs(t.xi - truth.xi), abs(t.alpha_r - truth.alpha_r), abs(t.beta_i - truth.beta_i))

    payload = {
        "seed": args.seed,
        "truth": {"xi": truth.xi, "alpha_r": truth.alpha_r, "beta_i": truth.beta_i},
        "case": result.case,
        "asymptotic_error": err(result.asymptotic_triple),
        "fit_error": err(result.fit_triple),
        "warnings": list(result.warnings),
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qring",
        description="Spectra, inverse recovery, and propagators of a circle with point singularities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="levels of one singularity")
    p.add_argument("--u", required=True, help="boundary matrix JSON or @file")
    p.add_argument("--levels", type=_positive_int, default=20)
    p.add_argument("--tol", type=float, default=1e-10)
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("classify", help="subfamily membership report")
    p.add_argument("--u", required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("orbit", help="isospectrality of symmetry maps or pair conjugations")
    p.add_argument("--u", help="boundary matrix (one-singularity orbit)")
    p.add_argument("--u2", default=None, help="second matrix: conjugation orbit of the pair (--u, --u2)")
    p.add_argument("--levels", type=_positive_int, default=20)
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("invert", help="recover parameters from a spectrum file")
    p.add_argument("input", help="CSV or JSON spectrum file (as written by `spectrum`)")
    p.add_argument("--method", choices=("asymptotic", "fit", "both"), default="both")
    _add_common(p)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("kernel", help="propagator values on a spatial grid")
    p.add_argument("--family", choices=("box", "f2", "smooth", "spectral"), required=True)
    p.add_argument("--case", choices=("00", "NN", "0N", "N0"), default="00", help="box walls at (0, l)")
    p.add_argument("--theta", type=float, default=0.0, help="smooth-circle flux")
    p.add_argument("--u", help="boundary matrix for f2/spectral families")
    p.add_argument("--tau", type=float, default=0.1)
    p.add_argument("--grid", type=_positive_int, default=16)
    p.add_argument("--levels", type=_positive_int, default=60)
    _add_common(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("twopoint", help="levels of two singularities")
    p.add_argument("--u1", required=True)
    p.add_argument("--u2", required=True)
    p.add_argument("--levels", type=_positive_int, default=20)
    _add_common(p)
    p.set_defaults(func=cmd_twopoint)

    p = sub.add_parser("roundtrip", help="forward then inverse on a random singularity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--levels", type=_positive_int, default=200)
    _add_common(p)
    p.set_defaults(func=cmd_roundtrip)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (QringError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
