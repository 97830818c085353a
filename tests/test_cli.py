"""CLI tests, mostly in-process through cli.main for speed. Two subprocess
checks cover the console script: one starts the `[project.scripts]` entry
point declared in pyproject.toml the way the generated wrapper does, so it
needs no install; the other runs the installed `qsph` executable and is
skipped when none is on PATH. A third checks, in a fresh interpreter, that
runs and sweeps never import the dense register oracle, nor fractions,
decimal or csv."""
import ast
import errno
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsph
from qsph import cli, harness
from qsph.harness import (
    ESTIMATORS,
    Curve,
    ExperimentConfig,
    rms_error,
    run_convergence_sweep,
    run_experiment,
)
from test_harness import _csv_module_writer


def _columns(curve):
    return [col.tolist() for col in (curve.x, curve.f_exact, curve.f_approx,
                                     curve.abs_error)]


def _reference_csv(config):
    """The bytes csv.writer writes for the run's curve."""
    stream = io.StringIO()
    _csv_module_writer(stream, run_experiment(config))
    return stream.getvalue().encode()


def test_run_writes_curve_file(tmp_path):
    out = tmp_path / "curve.csv"
    code = cli.main(["run", "--qubits", "4", "--points", "5", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == _reference_csv(ExperimentConfig(qubits=4, eval_points=5))


def test_run_streams_csv_to_stdout(capsys):
    assert cli.main(["run", "--qubits", "4", "--points", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,f_exact,f_approx,abs_error"
    assert len(lines) == 4
    # 17 significant digits: parsing the text recovers the doubles bit-exactly
    expected = run_experiment(ExperimentConfig(qubits=4, eval_points=3))
    for line, row in zip(lines[1:], zip(*_columns(expected))):
        assert tuple(float(tok) for tok in line.split(",")) == row


def test_run_respects_domain_flag(capsys):
    assert cli.main(["run", "--qubits", "4", "--points", "3",
                     "--domain", "0", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[1].split(",")[0]) == 0.0
    assert float(lines[-1].split(",")[0]) == 2.0


def test_run_with_phase_estimator(capsys):
    assert cli.main(["run", "--qubits", "4", "--points", "3",
                     "--estimator", "phase", "--pe-qubits", "6"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_sweep_writes_expected_entries(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--m-min", "4", "--m-max", "6", "--points", "9",
                     "--kernel", "wendland", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,kernel,order,rms"
    assert [line.split(",")[0] for line in lines[1:]] == ["4", "5", "6"]
    assert all(line.split(",")[1] == "wendland" for line in lines[1:])
    expected = run_convergence_sweep(
        replace(ExperimentConfig(kernel="wendland", eval_points=9), qubits=4), m_max=6)
    for line, (_, rms) in zip(lines[1:], expected):
        assert float(line.split(",")[3]) == rms


# 2^6 particles have distinct positions on [1, 1 + 2e-13], 2^8 (the run's
# default qubits) do not
SHORT_DOMAIN = (1.0, 1.0000000000002)


@pytest.mark.parametrize("config, flags, ms", [
    (None, ["--m-max", "6"], range(4, 7)),
    ({"m_min": 5, "m_max": 6}, [], range(5, 7)),
])
def test_sweep_runs_from_m_min_on_a_domain_too_short_for_the_run_default(
        tmp_path, config, flags, ms):
    argv = ["sweep", "--domain", *map(repr, SHORT_DOMAIN), *flags,
            "--out", str(tmp_path / "sweep.csv")]
    if config is not None:
        (tmp_path / "exp.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "exp.json")]
    assert cli.main(argv) == 0
    rows = [line.split(",") for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    assert [(int(m), float(rms)) for m, _, _, rms in rows] == [
        (m, rms_error(run_experiment(ExperimentConfig(qubits=m, domain=SHORT_DOMAIN))))
        for m in ms]


def test_a_sweep_validates_one_config_per_m_it_runs(monkeypatch):
    cli.build_parser()  # its help's defaults come from a config of their own
    post_init, qubits = ExperimentConfig.__post_init__, []

    def counted(config):
        qubits.append(config.qubits)
        post_init(config)
    monkeypatch.setattr(ExperimentConfig, "__post_init__", counted)
    assert cli.main(["sweep", "--m-min", "4", "--m-max", "6", "--points", "3",
                     "--out", os.devnull]) == 0
    assert qubits == [4, 5, 6]


@pytest.mark.parametrize("argv, message", [
    (["--m-min", "1"], "qubits: must be in [2, 16], got 1"),
    (["--m-min", "5", "--m-max", "4"], "m_max: must be in [5, 16], got 4"),
])
def test_a_bad_sweep_range_names_its_field(capsys, argv, message):
    assert cli.main(["sweep", *argv]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_config_file_supplies_settings(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"qubits": 4, "points": 5}))
    out = tmp_path / "curve.csv"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_bytes() == _reference_csv(ExperimentConfig(qubits=4, eval_points=5))


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"qubits": 4, "points": 5}))
    assert cli.main(["run", "--config", str(cfg), "--points", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4  # header + 3 rows


@pytest.mark.parametrize("content, fragment", [
    ('{"qubitz": 4}', "unknown keys"),
    ("{not json", "config file"),
    ('[1, 2]', "JSON object"),
    ('{"out": 5}', "out"),
    ('{"qubits": 8.0}', "qubits"),
    ('{"domain": "ab"}', "domain"),
    ('{"domain": {"a": 0, "b": 1}}', "domain: expected two endpoints"),
])
def test_bad_config_files_exit_2(tmp_path, capsys, content, fragment):
    cfg = tmp_path / "exp.json"
    cfg.write_text(content)
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    '{"qubits": 4}'.encode("utf-16"),  # starts with the bytes ff fe
    b'\xff\xfe{"qubits": 4}',  # not UTF-8, though the rest is ASCII JSON
    b'{"seed": ' + b"9" * 5000 + b"}",  # past int()'s default 4300-digit limit
    b"[" * 100_000,  # nested past the recursion limit
], ids=["utf-16", "ff-fe-ascii", "5000-digits", "deep-nesting"])
def test_undecodable_config_files_exit_2(tmp_path, capsys, content):
    cfg = tmp_path / "exp.json"
    cfg.write_bytes(content)
    out = tmp_path / "curve.csv"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config file {cfg}: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "absent.json")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--qubits", "1"],
    ["run", "--boundary-particles", "0"],
    ["sweep", "--m-min", "6", "--m-max", "4"],
    ["sweep", "--m-min", "1"],
    ["sweep", "--m-max", "17"],
    ["run", "--h", "inf"],
    ["run", "--h", "1e308"],
    ["run", "--domain", "0", "1e-320"],
    ["run", "--shots", "100000000000000000000", "--estimator", "sampled"],
    ["run", "--seed", str(2 ** 128)],
    ["run", "--pe-qubits", "1100", "--estimator", "phase"],
    ["sweep", "--domain", "1", "1.000000000001", "--m-max", "16"],
    ["run", "--pe-qubits", "41", "--estimator", "phase"],
    # h^3 underflows to 0, which the Gaussian W'' and c divide by
    ["run", "--qubits", "2", "--order", "2", "--points", "9", "--h", "1e-110",
     "--boundary-particles", "1"],
    ["run", "--qubits", "2", "--order", "1", "--points", "9", "--h", "1e-110",
     "--boundary-particles", "1"],
    # about 2e9 particles on [-1, 1]; the config rejects them before any array
    ["run", "--h", "1e6"],
    ["run", "--boundary-particles", "10000000000"],
    ["sweep", "--h", "0.125", "--m-max", "16"],
    # about 1e303 ghosts per end, named in short form
    ["run", "--h", "1e300"],
    # the derived h spans an infinite number of particle spacings
    ["run", "--domain", "1e300", "1.7e308", "--qubits", "2", "--points", "2"],
])
def test_invalid_settings_exit_2(capsys, argv):
    assert cli.main(argv) == 2
    assert "config error" in capsys.readouterr().err


def test_sweep_has_no_qubits_flag(capsys):
    # the sweep sets the register size from --m-min and --m-max only
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--qubits", "5"])
    assert exc.value.code == 2
    assert "--qubits" in capsys.readouterr().err


@st.composite
def _drawn_argv(draw):
    """A run or sweep at 3 points over a drawn domain, from a few ulps of its
    left end wide up to 1e308, and drawn settings; ghosts and --h are drawn or
    left to the config. Written to os.devnull."""
    a = draw(st.floats(-1e308, 1e308))
    log2_ulps = draw(st.floats(0.0, 20.0) | st.floats(0.0, 1023.0))
    b = a + min(math.ulp(a) * 2.0 ** log2_ulps, 1e308)  # may overflow to inf
    if draw(st.booleans()):
        argv = ["run", "--qubits", str(draw(st.integers(2, 10)))]
    else:
        argv = ["sweep", "--m-min", str(draw(st.integers(2, 10))),
                "--m-max", str(draw(st.integers(2, 10)))]
    argv += ["--domain", repr(a), repr(b), "--points", "3", "--out", os.devnull,
             "--kernel", draw(st.sampled_from(["gaussian", "wendland"])),
             "--order", str(draw(st.integers(0, 2))),
             "--estimator", draw(st.sampled_from(ESTIMATORS)),
             "--norm", draw(st.sampled_from(harness.NORM_MODES)),
             "--boundary", draw(st.sampled_from(harness.BOUNDARY_MODES))]
    ghosts = draw(st.none() | st.integers(1, 2 ** 16))
    if ghosts is not None:
        argv += ["--boundary-particles", str(ghosts)]
    # h from 2^-24 to 2^8 of the domain's length, so from well below dx to
    # far beyond the ghosts that fit
    log2_h = draw(st.none() | st.floats(-24.0, 8.0))
    if log2_h is not None:
        argv += ["--h", repr((b - a) * 2.0 ** log2_h)]
    return argv


@settings(deadline=None)
@given(_drawn_argv())
def test_any_run_or_sweep_exits_with_a_documented_code(argv):
    """Nothing but the config checks the layout, so whatever the config
    accepts must run to a documented exit: 0, 2 (configuration) or 3
    (numerical), never a traceback or a numpy warning."""
    assert cli.main(argv) in (0, 2, 3)


def test_tiny_domain_sampled_run_is_finite(capsys):
    # squared, the coefficients f_k dx_k ~ 1e-203 underflow; the norm must not
    assert cli.main(["run", "--qubits", "8", "--domain", "0", "1e-200",
                     "--boundary-particles", "4", "--estimator", "sampled"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 300
    assert all(math.isfinite(float(v)) for row in rows for v in row)


@pytest.mark.parametrize("domain", [["1e100", "2e100"], ["0", "1e-300"]])
def test_extreme_domain_integral_norm_run_is_finite(capsys, domain):
    # f^2 ~ 1e-404 on the first, length^2 / 16 ~ 1e-601 on the second: the
    # quadrature must underflow on neither
    assert cli.main(["run", "--qubits", "4", "--points", "3", "--norm", "integral",
                     "--domain", *domain]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 3
    assert all(math.isfinite(float(v)) for row in rows for v in row)


@pytest.mark.parametrize("command", [["run", "--qubits", "4"], ["sweep", "--m-max", "5"]])
@pytest.mark.parametrize("spelled, plain", [("-1e-3", "-0.001"), ("-1E2", "-100")])
def test_negative_domain_endpoints_may_use_an_exponent(capsys, command, spelled, plain):
    # argparse before Python 3.13 took -1e-3 for an option and found --domain one short
    outputs = []
    for a in (spelled, plain):
        assert cli.main([*command, "--points", "3", "--domain", a, "1"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    for token in ("-e5", "-h"):  # not numbers: --domain is left one short
        with pytest.raises(SystemExit) as exc:
            cli.main([*command, "--domain", token, "1"])
        assert exc.value.code == 2


@pytest.mark.parametrize("flag, value, field", [
    ("--domain", "-inf", "domain"), ("--domain", "-Infinity", "domain"),
    ("--domain", "-NAN", "domain"), ("--h", "-inf", "smoothing_length"),
    ("--h", "-nan", "smoothing_length"),
])
def test_negative_non_finite_values_reach_the_config_check(capsys, flag, value, field):
    # argparse took -inf for an option and found --domain one short
    argv = ["run", "--qubits", "4", "--points", "3", flag, value]
    assert cli.main([*argv, "1"] if flag == "--domain" else argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: expected a finite")


def test_domain_far_left_of_zero_runs(capsys):
    # |a| >> |b|: the 16 particles are distinct and centred to within ulps of 1e5
    assert cli.main(["run", "--qubits", "4", "--points", "3",
                     "--domain", "-100000", "0.001"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 3
    assert all(math.isfinite(float(v)) for row in rows for v in row)


@pytest.mark.parametrize("command", [["run", "--qubits", "8"], ["sweep", "--m-max", "5"]])
def test_all_zero_target_exits_3(capsys, command):
    # 1 / (1 + 25 x^2) underflows to 0 at every particle of [1e200, 2e200]
    assert cli.main(command + ["--points", "3", "--domain", "1e200", "2e200"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "numerical failure: all-zero samples" in err


def test_a_zero_integral_norm_estimate_exits_3(capsys):
    # f underflows to 0 at every quadrature node of [2.7e153, 5e153], while the
    # ghosts reach down near 0, where f is not 0, so ||a|| itself is not 0
    assert cli.main(["run", "--qubits", "2", "--points", "2", "--norm", "integral",
                     "--domain", "2.7e153", "5e153"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("numerical failure: the integral norm estimate is 0: "
                   "f is 0 at all 1001 quadrature nodes\n")


@pytest.mark.parametrize("extra", [
    # Gaussian W'' where (r/h)^2 overflows, Wendland's (1 - q/2)^4 likewise,
    # and the target's f'' where (1 + 25 x^2)^3 does
    ["--domain", "0", "1e60", "--h", "1e-100", "--order", "2"],
    ["--kernel", "wendland", "--h", "1e-100", "--boundary-particles", "1"],
    ["--order", "2", "--domain", "1e100", "2e100"],
])
def test_overflowing_kernel_and_target_powers_run_quietly(capsys, extra):
    assert cli.main(["run", "--qubits", "4", "--points", "3", *extra]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 3
    assert all(math.isfinite(float(v)) for row in rows for v in row)


@pytest.mark.parametrize("estimator", ["sampled", "phase"])
def test_readout_scale_that_underflows_exits_3(capsys, estimator):
    # c N ||a|| underflows to 0 at order 2 on [1e100, 2e100]; the exact readout needs no rho
    argv = ["run", "--qubits", "3", "--points", "9", "--order", "2", "--domain", "1e100", "2e100"]
    assert cli.main([*argv, "--estimator", estimator]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "numerical failure: the readout scale c N ||a|| = 0.0" in err
    assert cli.main([*argv, "--estimator", "exact"]) == 0


@pytest.mark.parametrize("b", ["1e-5", "1e-300"])
def test_short_domain_runs_with_the_default_ghosts(capsys, b):
    # h = 2 dx on any domain: 17 ghosts per end, not millions
    assert cli.main(["run", "--qubits", "8", "--points", "3", "--domain", "0", b]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 3
    assert all(math.isfinite(float(v)) for row in rows for v in row)


@pytest.mark.parametrize("order, h", [(2, "1e-60"), (0, "1e-200")])
def test_sweep_whose_squared_errors_overflow_exits_3(capsys, order, h):
    # errors near 1e180 and 1e199: their squares are beyond the doubles
    assert cli.main(["sweep", "--order", str(order), "--m-min", "2", "--m-max", "2",
                     "--points", "9", "--h", h, "--boundary-particles", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "non-finite RMS" in err


@pytest.mark.parametrize("command", [["run", "--qubits", "4"], ["sweep", "--m-max", "5"]])
@pytest.mark.parametrize("domain", [["1e308", "1.7e308"], ["-1.7e308", "-1e308"]])
def test_layouts_that_reach_the_largest_double(capsys, command, domain):
    argv = [*command, "--points", "3", "--domain", *domain]
    assert cli.main(argv) == 2
    assert "overflow past the largest double" in capsys.readouterr().err
    # one ghost per end fits: the support window's top and the points' lowest
    # neighbour overflow to +-inf, which is quietly right; the target underflows
    assert cli.main([*argv, "--boundary-particles", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "numerical failure: all-zero samples" in err


@pytest.mark.parametrize("command", [["run", "--qubits", "4"], ["sweep", "--m-max", "5"]])
@pytest.mark.parametrize("points", [2 ** 50, 2 ** 62])
def test_more_query_points_than_fit_exit_2_naming_eval_points(tmp_path, capsys, command,
                                                              points):
    # neither allocates: 2^50 doubles, 8 PiB, exceed the user address space,
    # and 2^62 is past the config's bound of 2^53
    out = tmp_path / "table.csv"
    assert cli.main([*command, "--points", str(points), "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("config error: eval_points: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["run", "--qubits", "1"], 2),
    (["run", "--domain", "1e200", "2e200"], 3),
    (["sweep", "--m-min", "2", "--m-max", "2", "--h", "1e-200", "--boundary-particles", "1"], 3),
])
def test_a_failed_run_leaves_no_out_file(tmp_path, capsys, argv, code):
    out = tmp_path / "table.csv"
    assert cli.main([*argv, "--points", "9", "--out", str(out)]) == code
    assert not out.exists()


@pytest.mark.parametrize("command, writer", [
    (["run", "--qubits", "4"], "write_rows"),
    (["sweep", "--m-max", "5"], "write_sweep"),
])
@pytest.mark.parametrize("to_file", [False, True])
def test_every_table_goes_through_the_harness_writer(monkeypatch, tmp_path, capsys,
                                                      command, writer, to_file):
    """bench/tracing.py times the CSV writers by replacing them on qsph.harness,
    so the CLI looks them up there for --out and for stdout alike."""
    streams = []
    original = getattr(harness, writer)

    def spy(stream, *args):
        streams.append(stream)
        original(stream, *args)

    monkeypatch.setattr(harness, writer, spy)
    out = tmp_path / "table.csv"
    assert cli.main([*command, "--points", "3", *(["--out", str(out)] if to_file else [])]) == 0
    written = out.read_text() if to_file else capsys.readouterr().out
    assert len(streams) == 1
    assert (streams[0] is sys.stdout) is not to_file
    assert written.count("\n") == (4 if writer == "write_rows" else 3)


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("argv, name", [
    (["run", "--qubits", "8"], "run_wendland_o0_m8_p33.csv"),
    (["sweep", "--m-min", "2", "--m-max", "10"], "sweep_wendland_o0_m2-10_p33.csv"),
])
def test_wendland_exact_outputs_keep_their_golden_bytes(tmp_path, argv, name):
    """Byte for byte the CSVs committed in tests/golden. Wendland order 0 with
    the exact readout uses no exp. The writer calls np.log10 (in
    _g17._round17), but its threshold table fixes the decade, so the bytes
    do not depend on the result. So they do not depend on numpy's CPU
    dispatch either, which CI checks by rerunning the tests under the
    baseline one. A change to them is a change to the CSV contract."""
    out = tmp_path / name
    assert cli.main([*argv, "--kernel", "wendland", "--order", "0", "--points", "33",
                     "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert cli.main(["run", "--qubits", "4", "--points", "3",
                     "--out", str(target)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run", "--qubits", "4"], ["sweep", "--m-max", "5"]])
@pytest.mark.parametrize("in_file", [False, True])
def test_an_empty_out_path_exits_2_and_writes_nothing(tmp_path, capsys, command, in_file):
    # an empty path is a file that cannot be opened, not a request for stdout
    if in_file:
        cfg = tmp_path / "exp.json"
        cfg.write_text('{"out": ""}')
        argv = [*command, "--config", str(cfg)]
    else:
        argv = [*command, "--out", ""]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: [Errno 2]")
    assert captured.err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_device_as_out_exits_1_and_stays(capsys):
    assert cli.main(["run", "--qubits", "4", "--points", "3", "--out", "/dev/full"]) == 1
    assert capsys.readouterr().err.startswith("write error: /dev/full: [Errno 28]")
    assert os.path.exists("/dev/full")


def test_a_failed_write_removes_the_partial_out_file(monkeypatch, tmp_path, capsys):
    def header_then_full(stream, curve):
        stream.write(",".join(harness.CSV_HEADER) + "\n")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(harness, "write_rows", header_then_full)
    out = tmp_path / "curve.csv"
    assert cli.main(["run", "--qubits", "4", "--points", "3", "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith(f"write error: {out}: [Errno 28]")


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_run_writes_the_bytes_of_the_csv_module_to_stdout_and_file(estimator, tmp_path,
                                                                   capsys):
    argv = ["run", "--qubits", "6", "--points", "2000", "--estimator", estimator]
    expected = io.StringIO()
    _csv_module_writer(expected, run_experiment(
        ExperimentConfig(qubits=6, eval_points=2000, estimator=estimator)))
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected.getvalue()
    out = tmp_path / "curve.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == expected.getvalue().encode("ascii")


def test_non_finite_rows_exit_3(monkeypatch, capsys):
    bad = Curve([0.0], [1.0], [math.nan])
    monkeypatch.setattr(cli, "run_experiment", lambda config: bad)
    assert cli.main(["run", "--qubits", "4", "--points", "3"]) == 3
    assert "non-finite" in capsys.readouterr().err


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SCRIPT_ARGS = ["run", "--qubits", "4", "--points", "3"]


def _assert_script_streams_curve(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "x,f_exact,f_approx,abs_error"


def test_installed_console_script_runs(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["qsph"]
    module, attr = target.split(":")
    # the same body pip writes into the console-script wrapper
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    package_parent = Path(qsph.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, *SCRIPT_ARGS],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(package_parent)})
    _assert_script_streams_curve(proc)


@pytest.mark.skipif(shutil.which("qsph") is None,
                    reason="no qsph executable on PATH (package not installed)")
def test_console_script_on_path_runs(tmp_path):
    proc = subprocess.run(["qsph", *SCRIPT_ARGS], capture_output=True, text=True,
                          timeout=120, cwd=tmp_path)
    _assert_script_streams_curve(proc)


def test_public_names_and_the_version_have_one_source():
    assert [name for name in qsph.__all__ if not hasattr(qsph, name)] == []
    # Python 3.10 has no tomllib: the [project] table's version line, by pattern
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", PYPROJECT.read_text(),
                        re.MULTILINE | re.DOTALL)
    version = re.search(r'^version = "([^"]+)"$', project.group(1), re.MULTILINE)
    assert qsph.__version__ == version.group(1)


# the dense oracle: the tests' reference, which no run imports; every other
# module of the package is run path
ORACLE_MODULES = ("qsph.quantum_state", "qsph.registers", "qsph.swap_test")
# name -> why it stays although no package module refers to it
UNREFERENCED_ALLOWED = {
    "FunctionSamples": "bench/tracing.py imports it, until the tracer reads the "
                       "run's own stage record (ROADMAP Direction 3)",
}


def test_every_run_path_definition_is_used_or_public():
    # only run-path definitions must have a use in the package; the run-path
    # modules are derived, so an added or renamed module cannot slip out
    package = Path(qsph.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    oracle = {name.removeprefix("qsph.") for name in ORACLE_MODULES}
    assert oracle <= set(trees)
    run_path = set(trees) - oracle
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    defined = {node.name for stem in run_path for node in trees[stem].body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    unused = defined - used - set(qsph.__all__)
    assert sorted(unused) == sorted(UNREFERENCED_ALLOWED)


def test_a_closed_stdout_exits_1_quietly(tmp_path):
    # 20000 rows fill the pipe long before the run ends, as with `| head -1`
    package_parent = Path(qsph.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "qsph.cli", *SCRIPT_ARGS[:3], "--points", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(package_parent)})
    assert proc.stdout.readline() == b"x,f_exact,f_approx,abs_error\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_stdout_exits_1_with_one_write_error(tmp_path):
    # the interpreter's last flush of stdout must not fail a second time
    package_parent = Path(qsph.__file__).resolve().parents[1]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "qsph.cli", *SCRIPT_ARGS], stdout=full,
            stderr=subprocess.PIPE, text=True, timeout=120, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(package_parent)})
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "write error: stdout: [Errno 28] No space left on device"]


# exact rational arithmetic: importing it would lengthen every run's set-up
EXACT_MODULES = ("fractions", "decimal")
# the writer formats its own bytes; no run parses or writes through csv
CSV_MODULES = ("csv",)
# numpy 2 loads numpy.random (about 6 MB of resident memory, 19 modules)
# at its first use, so only a sampled run may load it
RUNS_THEN_LIST_LOADED = """
import sys
from qsph import cli
out, unwanted = sys.argv[1], sys.argv[2:]
for estimator in ("exact", "phase"):
    for norm in ("exact", "integral"):
        assert cli.main(["run", "--qubits", "4", "--points", "3", "--estimator",
                         estimator, "--norm", norm, "--out", out]) == 0
assert cli.main(["sweep", "--m-min", "2", "--m-max", "4", "--points", "3",
                 "--out", out]) == 0
assert "numpy.random" not in sys.modules
assert cli.main(["run", "--qubits", "4", "--points", "3",
                 "--estimator", "sampled", "--out", out]) == 0
print(sorted(set(unwanted) & set(sys.modules)))
"""


def test_runs_load_no_dense_oracle_module(tmp_path):
    # in a fresh interpreter: the oracle tests import these into this one
    package_parent = Path(qsph.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", RUNS_THEN_LIST_LOADED, str(tmp_path / "out.csv"),
         *ORACLE_MODULES, *EXACT_MODULES, *CSV_MODULES],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(package_parent)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
