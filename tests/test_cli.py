import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qring
from qring import cli
from qring.cli import main
from qring.io import levels_from_text, spectrum_to_csv, spectrum_to_json, u_from_json
from qring.spectrum import full_spectrum
from qring.u2 import Geometry, from_matrix

EXCHANGE_JSON = '{"xi": 1.5707963267948966, "alpha": [0, 0], "beta": [0, -1]}'
MINUS_ID_JSON = '{"matrix": [[[-1, 0], [0, 0]], [[0, 0], [-1, 0]]]}'
# the 16 lowest levels k = pi n of the Dirichlet circle, as CSV rows
DIRICHLET_ROWS = [f"{n - 1},positive,{math.pi * n!r},{(math.pi * n) ** 2!r},1" for n in range(1, 17)]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSpectrumCommand:
    def test_exchange_csv(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--u", EXCHANGE_JSON, "--levels", "3")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "index,sector,wavenumber,energy,multiplicity"
        assert rows[1].startswith("0,zero,")
        k1 = float(rows[2].split(",")[2])
        assert k1 == pytest.approx(2 * math.pi, abs=1e-10)
        assert rows[2].split(",")[4] == "2"

    def test_byte_stability(self, capsys):
        a = run_cli(capsys, "spectrum", "--u", EXCHANGE_JSON, "--levels", "4")
        b = run_cli(capsys, "spectrum", "--u", EXCHANGE_JSON, "--levels", "4")
        assert a == b

    def test_file_output_and_reingestion(self, tmp_path, capsys):
        path = tmp_path / "spec.csv"
        code, _, _ = run_cli(
            capsys, "spectrum", "--u", EXCHANGE_JSON, "--levels", "4", "--output", str(path)
        )
        assert code == 0
        levels = levels_from_text(path.read_text())
        direct = full_spectrum(u_from_json(EXCHANGE_JSON), Geometry(1.0, 1.0), 4)
        assert len(levels) == len(direct)
        for a, b in zip(levels, direct):
            assert a.sector == b.sector
            assert a.wavenumber == b.wavenumber  # repr round-trip is lossless
            assert a.multiplicity == b.multiplicity


class TestClassifyCommand:
    def test_minus_identity_flags(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--u", MINUS_ID_JSON)
        assert code == 0
        payload = json.loads(out)
        assert payload["separated"] and payload["isospectral"] and payload["self_dual"]
        assert payload["length_left"] == pytest.approx(0.0, abs=1e-12)
        assert payload["length_right"] == pytest.approx(0.0, abs=1e-12)


class TestOrbitCommand:
    def test_symmetry_maps_are_isospectral(self, capsys):
        code, out, _ = run_cli(
            capsys, "orbit", "--u", EXCHANGE_JSON, "--levels", "5", "--samples", "2"
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 5  # parity, T, PT, two rotations
        for row in rows:
            assert float(row.split(",")[1]) < 1e-9

    def test_pair_conjugation_orbit(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "orbit",
            "--u",
            MINUS_ID_JSON,
            "--u2",
            EXCHANGE_JSON,
            "--levels",
            "4",
            "--samples",
            "2",
        )
        assert code == 0
        for row in out.strip().splitlines()[1:]:
            assert float(row.split(",")[1]) < 1e-8


class TestInvertCommand:
    def test_round_trip_through_files(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.csv"
        run_cli(
            capsys,
            "spectrum",
            "--u",
            '{"xi": 0.9, "alpha": [0.2, 0.4], "beta": [0.8, 0.4]}',
            "--levels",
            "120",
            "--output",
            str(spec_path),
        )
        code, out, _ = run_cli(capsys, "invert", str(spec_path), "--method", "both")
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "III"
        assert payload["fit"]["xi"] == pytest.approx(0.9, abs=1e-9)
        assert payload["asymptotic"]["xi"] == pytest.approx(0.9, abs=1e-6)
        assert payload["triple"]["alpha_r"] == pytest.approx(0.2, abs=1e-6)
        assert payload["triple"]["beta_i"] == pytest.approx(0.4, abs=1e-6)


class TestKernelCommand:
    def test_grid_output_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "kernel", "--family", "box", "--case", "00", "--grid", "4", "--tau", "0.1"
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "x,y,re_k,im_k"
        assert len(rows) == 17

    def test_smooth_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "kernel", "--family", "smooth", "--theta", "1.0", "--grid", "3"
        )
        assert code == 0

    def test_spectral_weight_overflow_is_numeric_failure(self, capsys):
        # pinned triple (0, -0.9998, 0): a bound state at kappa l = 100
        alpha_i = math.sqrt(1 - 0.9998**2)
        u = json.dumps({"xi": 0.0, "alpha": [-0.9998, alpha_i], "beta": [0.0, 0.0]})
        code, _, err = run_cli(capsys, "kernel", "--family", "spectral", "--u", u, "--grid", "2")
        assert code == 3
        assert "float range" in err


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize dominates import time, and no subcommand needs it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qring.__file__)))
    code = "import sys, qring.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestRoundtripCommand:
    def test_seeded_run(self, capsys):
        code, out, _ = run_cli(capsys, "roundtrip", "--seed", "42", "--levels", "80")
        assert code == 0
        payload = json.loads(out)
        assert payload["fit_error"] < 1e-9
        assert payload["asymptotic_error"] < 1e-3


class TestTwopointCommand:
    def test_free_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "twopoint", "--u1", EXCHANGE_JSON, "--u2", EXCHANGE_JSON, "--levels", "2"
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[1].startswith("0,zero,")
        assert rows[2].split(",")[4] == "2"


class TestErrorPaths:
    def test_bad_json_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--u", "not json")
        assert code == 2
        assert "configuration error" in err

    def test_unknown_keys_rejected(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--u", '{"xi": 0, "alpha": [1,0], "beta": [0,0], "bogus": 1}')
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", "--u", EXCHANGE_JSON, "--levels", "0"),
            ("twopoint", "--u1", EXCHANGE_JSON, "--u2", EXCHANGE_JSON, "--levels", "-1"),
            ("kernel", "--family", "box", "--grid", "0"),
            ("kernel", "--family", "smooth", "--grid", "-1"),
        ],
    )
    def test_levels_and_grid_bounded_at_parse_time(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "must be at least 1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", "--u", '{"xi": 4.0, "alpha": [1, 0], "beta": [0, 0]}'),
            ("spectrum", "--u", '{"xi": "x", "alpha": [1, 0], "beta": [0, 0]}'),
            ("spectrum", "--u", EXCHANGE_JSON, "--geometry", '{"l": -1.0, "L0": 1.0}'),
            ("spectrum", "--u", '{"matrix": [[[1, 0]], [[0, 0], [1, 0]]]}'),
            ("kernel", "--family", "box", "--tau", "-0.1"),
        ],
    )
    def test_invalid_values_are_config_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "configuration error" in err

    @pytest.mark.parametrize(
        "rows",
        [
            DIRICHLET_ROWS + ["16,positive,-1.0,1.0,1"],
            DIRICHLET_ROWS + ["16,negative,1.0,-1.0,1"] * 3,
            DIRICHLET_ROWS + ["16,positive,1.0,1.0,3"],
            DIRICHLET_ROWS + ["16,bogus,1.0,1.0,1"],
            DIRICHLET_ROWS + ["16,positive,x,1.0,1"],
            DIRICHLET_ROWS[:15],
        ],
    )
    def test_malformed_spectrum_file_is_config_error(self, capsys, tmp_path, rows):
        path = tmp_path / "levels.csv"
        path.write_text("\n".join(["index,sector,wavenumber,energy,multiplicity"] + rows) + "\n")
        code, out, err = run_cli(capsys, "invert", str(path))
        assert code == 2
        assert out == ""
        assert "configuration error" in err

    def test_value_error_inside_a_solver_is_numeric_failure(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("solver fault")

        monkeypatch.setattr(cli, "full_spectrum", broken)
        code, out, err = run_cli(capsys, "spectrum", "--u", EXCHANGE_JSON)
        assert code == 3
        assert out == ""
        assert "numeric failure: solver fault" in err

    def test_non_unitary_matrix_is_numeric_failure(self, capsys):
        code, _, err = run_cli(
            capsys, "spectrum", "--u", '{"matrix": [[[1,0],[0.5,0]],[[0,0],[1,0]]]}'
        )
        assert code == 3
        assert "numeric failure" in err


def test_serialization_round_trip():
    spec = full_spectrum(from_matrix(np.eye(2)), Geometry(1.0, 1.0), 5)
    for text in (spectrum_to_csv(spec), spectrum_to_json(spec)):
        levels = levels_from_text(text)
        assert len(levels) == len(spec)
        for a, b in zip(levels, spec):
            assert a.wavenumber == b.wavenumber and a.sector == b.sector
