"""Command-line interface: verbs, exit-code contract, and the series cache."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from e8magic.cli import (
    EXIT_CERT_FAILURE,
    EXIT_INVALID_INPUT,
    EXIT_NUMERICAL_FAILURE,
    EXIT_OK,
    MAX_LATTICE_NORM,
    MAX_PLOT_SAMPLES,
    MAX_SERIES_ORDER,
    build_parser,
    main,
)
from e8magic import certify, cli, e8, radial
from e8magic.certify import MAX_CUTOFF as MAX_CERTIFY_N
from e8magic.modforms import FormId, build_form, special_values
from e8magic.qseries import QSeries


# a density bound one ulp off pi^4/384
_WRONG_BOUND = e8.DensityBoundReport(ratio=16.0, ball_volume=math.pi**4 / 6144.0,
                                     bound=math.nextafter(math.pi**4 / 384.0, 0.0), reference=math.pi**4 / 384.0)


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
        (["certify", "--target", "A", "--n", str(MAX_CERTIFY_N + 1)], MAX_CERTIFY_N),
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


def _edit(change):
    """A damage that loads the cached document, applies change and writes it back."""
    def damage(path):
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc, sort_keys=True))
    return damage


def _entry_of_order(order):
    """A replacement by the entry that the CLI writes for phi_0 at another
    order, which is whole but not built for this one."""
    def damage(path):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["series", "--form", "phi_0", "--order", str(order)]) == EXIT_OK
        path.write_bytes(path.with_name(f"phi_0_o{order}.json").read_bytes())
    return damage


# ways a cache entry can be damaged; each must be rebuilt, not served or fatal
_DAMAGES = {
    "entry-of-a-lower-order": _entry_of_order(4),
    "entry-of-a-higher-order": _entry_of_order(12),
    "coefficient": _edit(lambda doc: doc["coefficients"][0].__setitem__(1, "999/1")),
    "no-lead": _edit(lambda doc: doc.pop("lead")),
    "order-not-a-number": _edit(lambda doc: doc.__setitem__("order", "x")),
    "lead-and-name": _edit(lambda doc: doc.update(lead=800, name="psi_S")),
    "name": _edit(lambda doc: doc.__setitem__("name", "psi_S")),
    "not-a-document": lambda path: path.write_text("[1,2]"),
    "not-utf8": lambda path: path.write_bytes(b'{"lead": "\xff\xfe\x80"}'),
    "truncated": lambda path: path.write_bytes(path.read_bytes()[:100]),
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("damage", sorted(_DAMAGES))
def test_series_cache(tmp_path, capsys, monkeypatch, damage, fmt):
    """A cached entry is served as built; a damaged one is rebuilt and
    rewritten, and the output equals a fresh build."""
    argv = ("series", "--form", "phi_0", "--order", "8", "--format", fmt)
    monkeypatch.delenv("E8MAGIC_CACHE_DIR", raising=False)
    fresh = run(capsys, *argv)
    assert fresh[0] == EXIT_OK
    monkeypatch.setenv("E8MAGIC_CACHE_DIR", str(tmp_path))
    assert run(capsys, *argv) == fresh
    cached, = tmp_path.glob("*.json")
    written = cached.read_bytes()
    assert run(capsys, *argv) == fresh
    _DAMAGES[damage](cached)
    assert cached.read_bytes() != written
    assert run(capsys, *argv) == fresh
    assert cached.read_bytes() == written


@pytest.mark.parametrize("where", ["under-a-file", "entry-is-a-directory"])
def test_series_cache_directory_unusable(tmp_path, capsys, monkeypatch, where):
    """A cache that cannot be created or written exits 2 and names the variable."""
    if where == "under-a-file":
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("E8MAGIC_CACHE_DIR", str(tmp_path / "file" / "cache"))
    else:
        (tmp_path / "phi_0_o8.json").mkdir()
        monkeypatch.setenv("E8MAGIC_CACHE_DIR", str(tmp_path))
    code, out, err = run(capsys, "series", "--form", "phi_0", "--order", "8")
    assert code == EXIT_INVALID_INPUT
    assert "E8MAGIC_CACHE_DIR" in err and not out


def test_series_unknown_form(capsys):
    code, _, _ = run(capsys, "series", "--form", "nope")
    assert code == EXIT_INVALID_INPUT


def test_output_into_a_closed_pipe_ends_quietly(tmp_path):
    """A reader that closes the pipe after the first line, as `| head -1`
    does, ends the command with exit 0 and no traceback.  The pipe holds one
    page, so the command is still writing when the reader closes it."""
    import fcntl

    read_end, write_end = os.pipe()
    if hasattr(fcntl, "F_SETPIPE_SZ"):
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")])))
    env.pop("E8MAGIC_CACHE_DIR", None)
    argv = ["series", "--form", "phi_0", "--order", "200", "--format", "text"]  # 12 kB of text
    proc = subprocess.Popen([sys.executable, "-m", "e8magic.cli", *argv], stdout=write_end,
                            stderr=subprocess.PIPE, cwd=tmp_path, env=env, text=True)
    os.close(write_end)
    line = b""
    while not line.endswith(b"\n"):
        byte = os.read(read_end, 1)
        assert byte, line
        line += byte
    os.close(read_end)
    _, err = proc.communicate(timeout=120)
    assert line.startswith(b"# phi_0")
    assert proc.returncode == EXIT_OK, err
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_certify_writes_certificate(tmp_path, capsys):
    out_file = tmp_path / "b.json"
    code, _, err = run(capsys, "certify", "--target", "B", "--out", str(out_file))
    assert code == EXIT_OK
    doc = json.loads(out_file.read_text())
    assert doc["status"] == "certified"
    assert "certified" in err


@pytest.mark.parametrize("target, expected", [("A", "0.638 on u [1, 1.375]"), ("B", "0.916 on u [1, 1.09375]")])
def test_certify_reports_its_worst_envelope_to_room_ratio(capsys, target, expected):
    """The status line names, after the min margin, the largest env_hi /
    (env_hi + margin) over the document's segments and where it is."""
    code, out, err = run(capsys, "certify", "--target", target)
    assert code == EXIT_OK
    ratio, seg = max(((s["env_hi"] / (s["env_hi"] + s["margin"]), s) for s in json.loads(out)["segments"]),
                     key=lambda pair: pair[0])
    line, = err.splitlines()
    assert line.endswith(f", envelope/room {ratio:.3g} on {seg['chart']} [{seg['lo']:.6g}, {seg['hi']:.6g}])"), line
    assert expected in line and "min margin" in line.split("envelope/room")[0]


@pytest.mark.parametrize("verb", [["certify", "--target", "A"],
                                  ["plot", "--function", "g", "--range", "0:1", "--samples", "3"]])
@pytest.mark.parametrize("where", ["a-directory", "a-missing-parent"])
def test_out_that_cannot_be_written_exits_2(tmp_path, verb, where):
    """An --out path that is a directory or under a missing directory exits
    2 with a message naming --out and the path, and no traceback."""
    out = tmp_path if where == "a-directory" else tmp_path / "missing" / "x.out"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "e8magic.cli", *verb, "--out", str(out)],
                          capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == EXIT_INVALID_INPUT, proc.stderr
    assert "--out" in proc.stderr and str(out) in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


def test_certify_control_failure_exit_code(capsys):
    code, _, err = run(capsys, "certify", "--target", "A", "--n", "1")
    assert code == EXIT_CERT_FAILURE
    assert "failed" in err


@pytest.mark.parametrize("argv", [["--target", "B", "--n", "1"], ["--target", "A", "--max-depth", "0"]])
def test_a_failed_certificate_without_segments_prints_no_margin(capsys, argv):
    """A certificate that fails before it certifies any segment has no
    margin, so its status line names none (it used to print "inf")."""
    code, _, err = run(capsys, "certify", *argv)
    assert code == EXIT_CERT_FAILURE
    line, = err.splitlines()
    assert "failed (0 segments)" in line and "inf" not in line, line


def test_main_builds_one_parser_per_process(capsys):
    """Every call of main parses with the one parser build_parser made."""
    assert build_parser() is build_parser()
    run(capsys, "eval", "--function", "g", "--r", "-1")
    assert build_parser.cache_info().currsize == 1


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


def test_plot_g_at_ten_thousand_samples(capsys):
    """The largest plot of g the ROADMAP names: every row is printed, and
    past sqrt(2) g is nonpositive within its printed bound."""
    code, out, _ = run(capsys, "plot", "--function", "g", "--range", "0:6", "--samples", "10000")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 10001 and lines[0] == "x,value,err"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    beyond = [(x, value, err) for x, value, err in rows if x >= math.sqrt(2)]
    assert len(beyond) > 7000
    assert all(value <= err for _, value, err in beyond), max(beyond, key=lambda row: row[1] - row[2])


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


@pytest.mark.parametrize("alpha,series", [("500", "|x|^2 / alpha"), ("0.004", "alpha |x|^2")])
def test_lattice_poisson_alpha_out_of_range(capsys, alpha, series):
    """At the largest max-norm, an alpha whose shell sum has no contracting
    tail bound exits 2 before any output, naming alpha and that sum rather
    than a larger max-norm."""
    code, out, err = run(capsys, "lattice", "--max-norm", str(MAX_LATTICE_NORM), "--poisson", alpha)
    assert code == EXIT_INVALID_INPUT and not out
    assert f"alpha = {float(alpha)!r}" in err and series in err
    assert "max_norm" not in err and "max-norm" not in err


def test_bound(capsys):
    code, out, _ = run(capsys, "bound")
    assert code == EXIT_OK
    assert "pi^4/384" in out
    bound_line = [l for l in out.splitlines() if l.startswith("density bound")][0]
    value = float(bound_line.split("=")[1].split("+/-")[0])
    assert abs(value - math.pi**4 / 384) < 1e-8


def test_bound_that_misses_the_reference_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(e8, "density_bound", lambda: _WRONG_BOUND)
    code, _, err = run(capsys, "bound")
    assert code == EXIT_NUMERICAL_FAILURE
    assert "density bound does not match pi^4/384" in err


def test_poisson_discrepancy_past_its_bound_exits_4(capsys, monkeypatch):
    report = e8.PoissonReport(alpha=2.0, max_norm=24, lhs=1.0, rhs=1.5, discrepancy=0.5, tail_bound=1e-12,
                              scaled_lhs=1.0, scaled_rhs=1.0, scaled_discrepancy=0.0)
    assert report.conclusive and not report.passed
    monkeypatch.setattr(e8, "poisson_check", lambda alpha, max_norm: report)
    code, out, err = run(capsys, "lattice", "--max-norm", "24", "--poisson", "2.0")
    assert code == EXIT_NUMERICAL_FAILURE
    assert "discrepancy=5.000e-01" in out
    assert "poisson discrepancy exceeds tail bound" in err


@pytest.mark.parametrize("certificates_fail,bound_fails,expected", [
    (True, False, EXIT_CERT_FAILURE),
    (True, True, EXIT_CERT_FAILURE),
    (False, True, EXIT_NUMERICAL_FAILURE),
])
def test_selfcheck_failure_exit_codes(capsys, monkeypatch, certificates_fail, bound_fails, expected):
    """A failed certificate exits 3, ahead of any numerical failure, which
    exits 4; the radial values are stubbed by the exact ones."""
    exact = {name: float(value) for name, value in special_values().items()}

    def eval_g(r, which="g"):  # g(0), ghat(0), and 0 at the zeros sqrt(2n)
        return radial.RadialValue(exact[f"{which}(0)"] if r == 0 else 0.0, 0.0)

    monkeypatch.setattr(radial, "eval_g", eval_g)
    monkeypatch.setattr(radial, "eval_g_deriv", lambda r, which="g": radial.RadialValue(exact[f"{which}'(sqrt2)"], 0.0))
    if certificates_fail:
        real = certify.certify_sign
        monkeypatch.setattr(certify, "certify_sign", lambda target: real(target, n=1))
    if bound_fails:
        monkeypatch.setattr(e8, "density_bound", lambda: _WRONG_BOUND)
    code, out, _ = run(capsys, "selfcheck")
    failed = [line for line in out.splitlines() if line.startswith("FAIL  ")]
    assert code == expected
    assert len(failed) == 2 * certificates_fail + bound_fails, out
    assert out.splitlines()[-1] == f"FAIL ({len(failed)} checks)"


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
        (["eval", "--function", "g", "--deriv", "--r", "1e100"], EXIT_OK),
        (["eval", "--function", "g", "--r", "1e200"], EXIT_INVALID_INPUT),
        (["certify", "--target", "A", "--m", "6"], EXIT_INVALID_INPUT),
        (["series", "--form", "phi_0", "--order", "1000000000"], EXIT_INVALID_INPUT),
        (["lattice", "--max-norm", "1000000"], EXIT_INVALID_INPUT),
        (["plot", "--function", "g", "--range", "0:1", "--samples", "1000000000"], EXIT_INVALID_INPUT),
        (["certify", "--target", "A", "--n", "1", "--max-depth", "1000000000"], EXIT_CERT_FAILURE),
        (["lattice", "--poisson", "nan"], EXIT_INVALID_INPUT),
        (["lattice", "--max-norm", "40", "--poisson", "0.05"], EXIT_NUMERICAL_FAILURE),
        (["lattice", "--max-norm", "40", "--poisson", "30"], EXIT_NUMERICAL_FAILURE),
        (["eval", "--function", "g", "--r", "1e78"], EXIT_OK),
        (["lattice", "--max-norm", "400", "--poisson", "2.0"], EXIT_OK),
        (["plot", "--function", "B", "--range", "1e150:1e160", "--samples", "3"], EXIT_OK),
        (["plot", "--function", "A", "--range", "1e-320:1e-300", "--samples", "2"], EXIT_INVALID_INPUT),
        (["plot", "--function", "A", "--range", "1e-308:1e-306", "--samples", "3"], EXIT_OK),
        (["lattice", "--poisson", "1e-80"], EXIT_INVALID_INPUT),
        (["lattice", "--poisson", "1e-200"], EXIT_INVALID_INPUT),
        (["plot", "--function", "g", "--range", "1:2:3"], EXIT_INVALID_INPUT),
        (["plot", "--function", "g", "--range", "abc"], EXIT_INVALID_INPUT),
        # "--r -inf" above reads -inf as an option, so argparse refuses it; "--r=-inf" reaches the radius check
        (["eval", "--function", "ghat", "--r=-inf", "--deriv"], EXIT_INVALID_INPUT),
    ],
)
def test_boundary_inputs_end_in_documented_exit_codes(capsys, argv, expected):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert code == expected, (out, err)
    assert "Traceback" not in err
    assert "nan" not in out
    if code == EXIT_INVALID_INPUT:  # a refused input prints nothing
        assert out == "", out
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught
    if "--r=-inf" in argv:
        assert "r must be nonnegative with a finite square" in err, err
    if argv[0] == "eval" and code == EXIT_OK:  # a huge radius: 0 within the printed bound
        value, err_bound = map(float, out.split("=")[1].split("+/-"))
        assert abs(value) <= err_bound, out


# ---------------------------------------------------------------------------
# generated argv: every input ends in a documented exit code

def _float_text(lo: float, hi: float, *edges: str):
    """Values in [lo, hi], NaN, +-inf, negative, tiny and huge values, any float."""
    return st.one_of(
        st.floats(lo, hi).map(repr),
        st.sampled_from(("nan", "-nan", "inf", "-inf", "-0.0", "-1", "1e-320", "1e308") + edges),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
    )


def _int_text(lo: int, hi: int, *edges: int):
    """Cheap values in [lo, hi], the edges around a budget, huge and
    negative values, and text that is no integer."""
    return st.one_of(
        st.integers(lo, hi).map(str),
        st.sampled_from(edges + (-1, 0, 10**9, -(10**12))).map(str),
        st.sampled_from(("nan", "inf", "1.5", "1e3", "")),
    )


_EVAL = st.tuples(
    st.just("eval"), st.just("--function"), st.sampled_from(("a", "b", "g", "ghat", "x")),
    st.just("--r"), _float_text(0.0, 8.0, "1e77", "1e154", "1e200"),
    st.sampled_from(((), ("--deriv",))),
).map(lambda t: [*t[:-1], *t[-1]])
_CERTIFY = st.tuples(
    st.just("certify"), st.just("--target"), st.sampled_from(("A", "B", "C")),
    st.just("--n"), _int_text(1, 12, MAX_CERTIFY_N, MAX_CERTIFY_N + 1),
    st.just("--tstar"), _float_text(2.0, 120.0, "1.99", "1e6"),
    st.just("--max-depth"), _int_text(0, 60, 1000),
).map(list)
_LATTICE = st.tuples(
    st.just("lattice"), st.just("--max-norm"),
    _int_text(-4, 40, MAX_LATTICE_NORM - 1, MAX_LATTICE_NORM, MAX_LATTICE_NORM + 2),
    st.one_of(st.just(()), _float_text(0.5, 4.0, "0", "1e300").map(lambda a: ("--poisson", a))),
).map(lambda t: [*t[:-1], *t[-1]])
_PLOT = st.tuples(
    st.just("plot"), st.just("--function"), st.sampled_from(("g", "ghat", "A", "B", "x")),
    st.one_of(
        st.tuples(st.floats(0.0, 6.0), st.floats(0.01, 6.0)).map(lambda t: (repr(t[0]), repr(t[0] + t[1]))),
        st.tuples(_float_text(0.0, 6.0, "1e-300"), _float_text(0.1, 12.0, "1e300")),
    ).map(lambda ends: f"--range={ends[0]}:{ends[1]}"),
    st.just("--samples"), _int_text(2, 16, 1, 3, MAX_PLOT_SAMPLES + 1),
).map(list)


@given(st.one_of(_EVAL, _CERTIFY, _LATTICE, _PLOT))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_generated_argv_end_in_documented_exit_codes(argv):
    """NaN, +-inf, negative, huge and budget-edge values for eval --r, certify
    --n/--tstar/--max-depth, lattice --max-norm/--poisson and plot --samples.  The upper
    edge of --samples is left to the budget test: 10 000 samples take 6 s."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_INVALID_INPUT, EXIT_CERT_FAILURE, EXIT_NUMERICAL_FAILURE), argv
    assert "Traceback" not in err.getvalue(), argv
    assert not re.search(r"\bnan\b", out.getvalue(), re.IGNORECASE), argv


@pytest.mark.parametrize("name,exits", [("numpy", True), ("e8magic.radial", False)])
def test_only_a_missing_numpy_is_a_numerical_failure(monkeypatch, capsys, name, exits):
    """A verb that cannot import numpy exits 4 with one line on stderr; any
    other missing module is a fault of the installation or the code, and
    propagates."""

    def verb(args):
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)

    parser = argparse.ArgumentParser()
    parser.set_defaults(func=verb)
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    if exits:
        assert main([]) == EXIT_NUMERICAL_FAILURE
        assert capsys.readouterr().err.count("\n") == 1
    else:
        with pytest.raises(ModuleNotFoundError, match=name):
            main([])
