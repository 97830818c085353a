"""Each output check accepts the program's real output and rejects a slightly
corrupted copy of it; the tracer records, nests and removes its spans.

    python3 -m pytest -q bench
"""
import dataclasses
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

import checks
import reference as ref
import run
import tracing
from workloads import WORKLOADS, Invocation

cli = run.import_cli()


def _output(tmp_path, inv):
    path = tmp_path / "out.csv"
    assert cli.main(inv.argv(str(path))) == 0
    return str(path)


def _curve(tmp_path, inv):
    path = _output(tmp_path, inv)
    return np.array(checks._read(path, checks.CURVE_HEADER), dtype=float)


def _with_f_approx(data, f_approx):
    out = data.copy()
    out[:, 2] = f_approx
    out[:, 3] = np.abs(out[:, 1] - f_approx)
    return out


def _perturb_one(data, rel=1e-9):
    f = data[:, 2].copy()
    j = int(np.argmax(np.abs(f)))
    f[j] *= 1.0 + rel
    return _with_f_approx(data, f)


@pytest.fixture
def reference():
    return checks.Reference()


def test_reference_matches_its_closed_forms():
    for family in ("gaussian", "wendland"):
        for order in (0, 1, 2):
            r = np.linspace(-3.0, 3.0, 600001) * 0.1
            peak = np.max(np.abs(ref.kernel(family, order, r, 0.1)))
            assert peak <= ref.kernel_max(family, order, 0.1) * (1 + 1e-12)
            assert peak >= ref.kernel_max(family, order, 0.1) * (1 - 1e-6)
    xs = np.linspace(-1.0, 1.0, 200001)
    y = ref.target(xs, 0) ** 2
    trapezoid = float(np.sum(np.diff(xs) * (y[1:] + y[:-1])) / 2)
    assert math.isclose(ref.integral_f2(-1.0, 1.0), trapezoid, rel_tol=1e-9)
    pos, dx = ref.particles(-1.0, 1.0, 8, 2)
    assert np.allclose(np.diff(pos), 0.25) and pos[2] == -0.875 and dx == 0.25


@pytest.mark.parametrize("norm", ["exact", "integral"])
def test_exact_check_rejects_a_value_off_by_1e_9(tmp_path, reference, norm):
    inv = Invocation("gaussian", 0, 6, 64, norm=norm)
    data = _curve(tmp_path, inv)
    checks.check_curve(inv, data, reference)
    with pytest.raises(checks.CheckFailed, match="off the direct sum"):
        checks.check_curve(inv, _perturb_one(data), reference)


def test_integral_check_rejects_a_norm_off_the_closed_form(tmp_path, reference):
    inv = Invocation("wendland", 1, 6, 64, norm="integral")
    data = _curve(tmp_path, inv)
    cur = reference.curve("wendland", 1, 6, 64)
    shifted = dataclasses.replace(cur, norm_integral=cur.norm_integral * (1 + 1e-6))
    with pytest.raises(checks.CheckFailed, match="closed-form"):
        checks.check_exact(inv, data[:, 2] * (1 + 1e-6), shifted)


def test_curve_check_rejects_malformed_rows(tmp_path, reference):
    inv = Invocation("gaussian", 1, 5, 32)
    data = _curve(tmp_path, inv)
    with pytest.raises(checks.CheckFailed, match="rows"):
        checks.check_curve(inv, data[:-1], reference)
    bad = data.copy()
    bad[3, 3] *= 1 + 1e-9
    with pytest.raises(checks.CheckFailed, match="abs_error"):
        checks.check_curve(inv, bad, reference)
    bad = data.copy()
    bad[3, 1] *= 1 + 1e-9
    with pytest.raises(checks.CheckFailed, match="f_exact"):
        checks.check_curve(inv, bad, reference)


SAMPLED = Invocation("gaussian", 1, 5, 300, norm="integral", estimator="sampled",
                     shots=4000, seed=11)


def _counts_to_f(counts, inv, cur):
    scale = cur.c * cur.n_register * cur.norm(inv.norm)
    return scale * (2.0 * counts / inv.shots - 1.0)


def test_sampled_check_rejects_a_value_off_the_shot_grid(tmp_path, reference):
    data = _curve(tmp_path, SAMPLED)
    checks.check_curve(SAMPLED, data, reference)
    with pytest.raises(checks.CheckFailed, match="whole shot count"):
        checks.check_curve(SAMPLED, _perturb_one(data), reference)


def test_sampled_check_passes_any_binomial_stream(reference):
    cur = reference.curve("gaussian", 1, 5, 300)
    p0 = ref.swap_p0(cur.rho)
    for seed in range(20):
        counts = np.random.default_rng(seed).binomial(SAMPLED.shots, p0).astype(float)
        checks.check_sampled(SAMPLED, _counts_to_f(counts, SAMPLED, cur), cur)


@pytest.mark.parametrize("corrupt, message", [
    (lambda k, sd: k + 0.5 * sd, "biased"),
    (lambda k, sd: np.rint(k - (k - k.mean()) * 0.5), "not binomial"),
    (lambda k, sd: np.where(np.arange(k.size) == 7, k + 8 * sd, k), "exceeds"),
])
def test_sampled_check_rejects_non_binomial_counts(reference, corrupt, message):
    cur = reference.curve("gaussian", 1, 5, 300)
    p0 = ref.swap_p0(cur.rho)
    counts = np.random.default_rng(1).binomial(SAMPLED.shots, p0).astype(float)
    sd = math.sqrt(SAMPLED.shots / 4)
    bad = np.rint(corrupt(counts, sd))
    with pytest.raises(checks.CheckFailed, match=message):
        checks.check_sampled(SAMPLED, _counts_to_f(bad, SAMPLED, cur), cur)


PHASE = Invocation("wendland", 0, 5, 300, norm="integral", estimator="phase", pe_qubits=14)


def test_phase_check_rejects_a_value_off_the_grid(tmp_path, reference):
    data = _curve(tmp_path, PHASE)
    checks.check_curve(PHASE, data, reference)
    with pytest.raises(checks.CheckFailed, match="off the angle grid"):
        checks.check_curve(PHASE, _perturb_one(data), reference)


def test_phase_check_rejects_the_neighbouring_grid_point(tmp_path, reference):
    data = _curve(tmp_path, PHASE)
    cur = reference.curve("wendland", 0, 5, 300)
    scale = cur.c * cur.n_register * cur.norm("integral")
    step = ref.phase_spacing(PHASE.pe_qubits)
    k = np.rint(ref.swap_theta(data[:, 2] / scale) / step)
    k[9] += 1
    with pytest.raises(checks.CheckFailed, match="from theta"):
        checks.check_phase(PHASE, scale * (2 * np.sin(k * step) ** 2 - 1), cur)


def test_default_phase_register_reads_every_overlap_as_zero(tmp_path, reference):
    inv = Invocation("gaussian", 0, 8, 50, estimator="phase")
    data = _curve(tmp_path, inv)
    checks.check_curve(inv, data, reference)
    cur = reference.curve("gaussian", 0, 8, 50)
    assert np.max(np.abs(data[:, 2])) <= cur.rounding("exact")


SWEEP = Invocation("gaussian", 0, 4, 300, m_max=8)


def _sweep_rows(tmp_path):
    path = _output(tmp_path, SWEEP)
    return checks._read(path, checks.SWEEP_HEADER)


def test_sweep_check_rejects_an_rms_off_by_1e_9(tmp_path, reference):
    rows = _sweep_rows(tmp_path)
    checks.check_sweep(SWEEP, rows, reference)
    rows[0][3] = repr(float(rows[0][3]) * (1 + 1e-9))
    with pytest.raises(checks.CheckFailed, match="reference"):
        checks.check_sweep(SWEEP, rows, reference)


def test_sweep_check_rejects_an_order0_rms_that_stops_falling(tmp_path, reference):
    rows = _sweep_rows(tmp_path)
    rows[3][3] = rows[2][3]
    with pytest.raises(checks.CheckFailed, match="fall strictly"):
        checks.check_sweep(SWEEP, rows, reference)


def test_sweep_check_rejects_a_missing_m(tmp_path, reference):
    rows = _sweep_rows(tmp_path)
    with pytest.raises(checks.CheckFailed, match="do not list"):
        checks.check_sweep(SWEEP, rows[:-1], reference)


def test_workload_inputs_depend_only_on_the_seed():
    for make in WORKLOADS.values():
        assert make(random.Random(5)) == make(random.Random(5))
        a, b = make(random.Random(5)), make(random.Random(6))
        assert [dataclasses.replace(i, seed=0) for i in a] == \
            [dataclasses.replace(i, seed=0) for i in b]


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.METRICS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_tracer_nests_pool_spans_under_the_run_and_restores_functions(tmp_path):
    import qsph.harness
    original = qsph.harness.encode
    tracer = tracing.Tracer()
    tracer.install()
    try:
        inv = Invocation("gaussian", 0, 4, 40, estimator="phase")
        assert tracer.call("cli.main", cli.main, (inv.argv(str(tmp_path / "o.csv")),)) == 0
    finally:
        tracer.uninstall()
    assert qsph.harness.encode is original
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s[tracing.NAME], []).append(s)
    (run_span,) = by_name["harness.run_experiment"]
    assert all(s[tracing.PARENT] is run_span for s in by_name["sph_encoding.encode"])
    assert all(s[tracing.PARENT][tracing.NAME] == "sph_encoding.encode"
               for s in by_name["sph_encoding.build_a"])
    metrics = tracer.layer_metrics()
    assert metrics["sph_encoding.build_a.calls"] == 40
    assert metrics["harness.query_points"] == 40
    # |a> and |W> hold 32 amplitudes each (24 particles), the swap state 64
    assert metrics["quantum_state.StateVector.bytes"] == 40 * (32 + 32 + 64) * 16
    (main_span,) = by_name["cli.main"]
    assert 0 < metrics["cli.main.self_s"] < main_span[tracing.END] - main_span[tracing.START]
    tracer.write(str(tmp_path / "spans.csv"))
    assert len((tmp_path / "spans.csv").read_text().splitlines()) == len(tracer.spans) + 1


def test_union_counts_overlap_once():
    assert tracing._union([(1.0, 3.0), (2.0, 4.0), (5.0, 9.0)], 0.0, 6.0) == 3.0 + 1.0
