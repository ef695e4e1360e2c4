"""Command-line interface: verbs, exit-code contract, and the series cache."""

import json
import math
import warnings

import pytest

from e8magic.cli import (
    EXIT_CERT_FAILURE,
    EXIT_INVALID_INPUT,
    EXIT_NUMERICAL_FAILURE,
    EXIT_OK,
    MAX_LATTICE_NORM,
    MAX_PLOT_SAMPLES,
    MAX_SERIES_ORDER,
    main,
)
from e8magic.modforms import FormId, build_form
from e8magic.qseries import QSeries


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_series_text(capsys):
    code, out, _ = run(capsys, "series", "--form", "j", "--order", "8")
    assert code == EXIT_OK
    assert out.startswith("# j (weight 0)")
    assert "196884" in out


def test_series_text_header_names_the_truncation(capsys):
    """--order counts whole q-steps; the header gives the series' own bound in
    the rows' notation, which is past every row."""
    code, out, _ = run(capsys, "series", "--form", "j", "--order", "2")
    assert code == EXIT_OK
    header, *rows = out.splitlines()
    assert header == "# j (weight 0), known below q^(24/8)"
    assert rows[-1].startswith("q^(16/8)\t")


@pytest.mark.parametrize(
    "argv,limit",
    [
        (["series", "--form", "j", "--order", str(MAX_SERIES_ORDER + 1)], MAX_SERIES_ORDER),
        (["lattice", "--max-norm", str(MAX_LATTICE_NORM + 2)], MAX_LATTICE_NORM),
        (["plot", "--function", "g", "--range", "0:1", "--samples", str(MAX_PLOT_SAMPLES + 1)],
         MAX_PLOT_SAMPLES),
    ],
)
def test_budgets_reject_one_past_the_limit_and_name_it(capsys, argv, limit):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INVALID_INPUT
    assert str(limit) in err and not out


def test_series_json_round_trip(capsys):
    code, out, _ = run(capsys, "series", "--form", "psi_I", "--order", "16", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    series = QSeries.from_doc(doc)
    assert series == build_form(FormId.PSI_I, 16)
    assert "sha256" in doc


def test_series_cache(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("E8MAGIC_CACHE_DIR", str(tmp_path))
    code, out1, _ = run(capsys, "series", "--form", "phi_0", "--order", "8", "--format", "json")
    assert code == EXIT_OK
    cached = list(tmp_path.glob("*.json"))
    assert len(cached) == 1
    # corrupt the cache: the command must detect the hash mismatch and rebuild
    doc = json.loads(cached[0].read_text())
    doc["coefficients"][0][1] = "999/1"
    cached[0].write_text(json.dumps(doc))
    code, out2, _ = run(capsys, "series", "--form", "phi_0", "--order", "8", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out2)["coefficients"] == json.loads(out1)["coefficients"]


def test_series_unknown_form(capsys):
    code, _, _ = run(capsys, "series", "--form", "nope")
    assert code == EXIT_INVALID_INPUT


def test_certify_writes_certificate(tmp_path, capsys):
    out_file = tmp_path / "b.json"
    code, _, err = run(capsys, "certify", "--target", "B", "--out", str(out_file))
    assert code == EXIT_OK
    doc = json.loads(out_file.read_text())
    assert doc["status"] == "certified"
    assert "certified" in err


def test_certify_control_failure_exit_code(capsys):
    code, _, err = run(capsys, "certify", "--target", "A", "--n", "1")
    assert code == EXIT_CERT_FAILURE
    assert "failed" in err


def test_certify_invalid_target(capsys):
    code, _, _ = run(capsys, "certify", "--target", "X")
    assert code == EXIT_INVALID_INPUT


def test_eval_g(capsys):
    code, out, _ = run(capsys, "eval", "--function", "g", "--r", "0")
    assert code == EXIT_OK
    value = float(out.split("=")[1].split("+/-")[0])
    assert abs(value - 1.0) < 1e-9
    assert "+/-" in out  # every numeric output carries its error bound


def test_eval_deriv_restriction(capsys):
    code, _, _ = run(capsys, "eval", "--function", "a", "--r", "1.0", "--deriv")
    assert code == EXIT_INVALID_INPUT


def test_eval_negative_radius(capsys):
    code, _, _ = run(capsys, "eval", "--function", "g", "--r", "-1")
    assert code == EXIT_INVALID_INPUT


def test_plot_csv(capsys):
    code, out, _ = run(capsys, "plot", "--function", "A", "--range", "0.5:4", "--samples", "8")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "x,value,err"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(values) == 8
    assert all(v < 0 for v in values)  # A < 0 throughout


def test_plot_bad_range(capsys):
    code, _, _ = run(capsys, "plot", "--function", "g", "--range", "4:1")
    assert code == EXIT_INVALID_INPUT


def test_lattice_shells(capsys):
    code, out, _ = run(capsys, "lattice", "--max-norm", "8", "--shells")
    assert code == EXIT_OK
    assert "2\t240" in out and "8\t17520" in out


def test_lattice_poisson(capsys):
    code, out, _ = run(capsys, "lattice", "--max-norm", "24", "--poisson", "2.0")
    assert code == EXIT_OK
    assert "discrepancy" in out


def test_bound(capsys):
    code, out, _ = run(capsys, "bound")
    assert code == EXIT_OK
    assert "pi^4/384" in out
    bound_line = [l for l in out.splitlines() if l.startswith("density bound")][0]
    value = float(bound_line.split("=")[1].split("+/-")[0])
    assert abs(value - math.pi**4 / 384) < 1e-8


def test_missing_verb(capsys):
    code, _, _ = run(capsys, )
    assert code == EXIT_INVALID_INPUT


def test_exit_codes_distinguish_failure_kinds(capsys):
    """Certification failure (3) vs invalid input (2) by code alone."""
    bad_input, _, _ = run(capsys, "certify", "--target", "Q")
    cert_fail, _, _ = run(capsys, "certify", "--target", "A", "--n", "1")
    assert bad_input == EXIT_INVALID_INPUT
    assert cert_fail == EXIT_CERT_FAILURE
    assert bad_input != cert_fail


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["eval", "--function", "g", "--r", "nan"], EXIT_INVALID_INPUT),
        (["eval", "--function", "b", "--r", "inf"], EXIT_INVALID_INPUT),
        (["eval", "--function", "ghat", "--r", "-inf", "--deriv"], EXIT_INVALID_INPUT),
        (["plot", "--function", "B", "--range", "1:inf"], EXIT_INVALID_INPUT),
        (["certify", "--target", "A", "--tstar", "inf"], EXIT_INVALID_INPUT),
        (["certify", "--target", "A", "--tstar", "nan"], EXIT_INVALID_INPUT),
        (["certify", "--target", "B", "--max-depth", "-1"], EXIT_INVALID_INPUT),
        (["certify", "--target", "A", "--tstar", "1e6"], EXIT_NUMERICAL_FAILURE),
        (["--threads", "2", "bound"], EXIT_INVALID_INPUT),
        (["eval", "--function", "g", "--r", "1e154"], EXIT_NUMERICAL_FAILURE),
        (["eval", "--function", "g", "--deriv", "--r", "1e100"], EXIT_NUMERICAL_FAILURE),
        (["eval", "--function", "g", "--r", "1e200"], EXIT_INVALID_INPUT),
        (["certify", "--target", "A", "--m", "6"], EXIT_INVALID_INPUT),
        (["series", "--form", "phi_0", "--order", "1000000000"], EXIT_INVALID_INPUT),
        (["lattice", "--max-norm", "1000000"], EXIT_INVALID_INPUT),
        (["plot", "--function", "g", "--range", "0:1", "--samples", "1000000000"], EXIT_INVALID_INPUT),
    ],
)
def test_boundary_inputs_end_in_documented_exit_codes(capsys, argv, expected):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert code == expected, (out, err)
    assert "Traceback" not in err
    assert "nan" not in out
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught
