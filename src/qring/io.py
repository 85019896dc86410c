"""Input parsing and spectrum serialization shared by the CLI and tests.

Boundary matrices arrive as JSON, either parameter form
{"xi": ..., "alpha": [re, im], "beta": [re, im]} or matrix form
{"matrix": [[[re, im], ...], ...]}; geometry as {"l": ..., "L0": ...}.
Spectra are written as CSV (index, sector, wavenumber, energy,
multiplicity) or the equivalent JSON, both round-trippable into the
inverse solver without loss.
"""
from __future__ import annotations

import csv
import io as _io
import json

from .errors import QringError
from .spectrum import Level, Spectrum
from .u2 import CharacteristicMatrix, Geometry, from_matrix

SPECTRUM_FIELDS = ("index", "sector", "wavenumber", "energy", "multiplicity")


class ConfigError(QringError):
    """Malformed or inconsistent run configuration."""


def _require_keys(obj: dict, allowed: set[str], context: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {context}")


def u_from_json(obj) -> CharacteristicMatrix:
    """Parse a boundary matrix from parsed JSON (dict) or a JSON string."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ConfigError("boundary matrix spec must be a JSON object")
    if "matrix" in obj:
        _require_keys(obj, {"matrix"}, "matrix spec")
        try:
            return from_matrix([[complex(e[0], e[1]) for e in row] for row in obj["matrix"]])
        except (TypeError, IndexError, ValueError) as exc:
            raise ConfigError(f"matrix spec needs a 2x2 array of [re, im] pairs: {exc}") from exc
    _require_keys(obj, {"xi", "alpha", "beta"}, "parameter spec")
    try:
        return CharacteristicMatrix(
            float(obj["xi"]),
            complex(obj["alpha"][0], obj["alpha"][1]),
            complex(obj["beta"][0], obj["beta"][1]),
        )
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ConfigError(f"parameter spec needs xi, alpha=[re,im], beta=[re,im]: {exc}") from exc


def geometry_from_json(obj) -> Geometry:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ConfigError("geometry spec must be a JSON object")
    _require_keys(obj, {"l", "L0"}, "geometry spec")
    try:
        return Geometry(float(obj["l"]), float(obj["L0"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"geometry spec needs positive l and L0: {exc}") from exc


def spectrum_to_csv(spec: Spectrum) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SPECTRUM_FIELDS)
    for i, (sector, k, energy, mult) in enumerate(spec.rows()):
        writer.writerow([i, sector, repr(k), repr(energy), mult])
    return buf.getvalue()


def spectrum_to_json(spec: Spectrum) -> str:
    levels = [
        {"index": i, "sector": sector, "wavenumber": k, "energy": energy, "multiplicity": mult}
        for i, (sector, k, energy, mult) in enumerate(spec.rows())
    ]
    return json.dumps({"levels": levels}, sort_keys=True, indent=2) + "\n"


def levels_from_text(text: str) -> list[Level]:
    """Read levels back from CSV or JSON text (sniffed by the first character)."""
    stripped = text.lstrip()
    rows: list[dict]
    if stripped.startswith("{"):
        rows = json.loads(stripped)["levels"]
    else:
        rows = list(csv.DictReader(_io.StringIO(text)))
    try:
        return [
            Level(str(row["sector"]), float(row["wavenumber"]), float(row["energy"]), int(row["multiplicity"]))
            for row in rows
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed level row: {exc}") from exc
