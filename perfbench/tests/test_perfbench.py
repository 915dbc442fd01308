"""Tests of the benchmark's own code: spans, output checks, speed scaling and
metric names."""

import json
import signal
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Target, Tracer  # noqa: E402


def test_self_time_from_hand_built_span_tree():
    spans = [
        Span("infer.run_inference", 0.0, 10.0, None, 0),       # 0
        Span("grounding.ground", 1.0, 3.0, 0, 0),              # 1
        Span("solver.solve_map_admm", 3.0, 9.0, 0, 0),         # 2
        Span("kernels.solve_admm", 4.0, 7.0, 2, 0),            # 3
        Span("grounding.energy", 7.5, 8.0, 2, 0),              # 4
        Span("model.dump_jsonl", 11.0, 12.0, None, 0),         # 5
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 2.0, 2.5, 3.0, 0.5, 1.0])
    layers = tracing.pass_layer_times(spans, tracing.self_times(spans), 0, (0.0, 20.0))
    assert layers["solver.self_s"] == pytest.approx(2.5)
    assert layers["infer.self_s"] == pytest.approx(2.0)
    assert layers["solver.calls"] == 1
    assert layers["trace.uncovered_frac"] == pytest.approx(9.0 / 20.0)


def test_covered_merges_overlapping_intervals():
    assert tracing.covered([(5.0, 6.0), (0.0, 2.0), (1.0, 3.0)]) == pytest.approx(4.0)
    assert tracing.covered([]) == 0.0


def _write(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return checks.read_records(path)


def _row(pid, support, attack, neutral, predicted):
    return {"pair_id": pid, "support": support, "attack": attack,
            "neutral": neutral, "predicted": predicted}


def test_checks_accept_valid_predictions(tmp_path):
    records = _write(tmp_path / "p.jsonl", [_row("a", 0.7, 0.2, 0.1, "support"),
                                            _row("b", 0.0, 0.0, 1.0, "neutral")])
    assert checks.check_predictions(records, ["a", "b"], "ternary") == []


def test_checks_reject_row_summing_to_point_nine(tmp_path):
    records = _write(tmp_path / "p.jsonl", [_row("a", 0.6, 0.2, 0.1, "support"),
                                            _row("b", 0.0, 0.0, 1.0, "neutral")])
    failures = checks.check_predictions(records, ["a", "b"], "ternary")
    assert len(failures) == 1 and "a: scores sum to 0.9" in failures[0]


def test_checks_reject_missing_pair(tmp_path):
    records = _write(tmp_path / "p.jsonl", [_row("a", 0.7, 0.2, 0.1, "support")])
    failures = checks.check_predictions(records, ["a", "b"], "ternary")
    assert failures == ["1 missing pair(s), e.g. ['b']"]


def test_checks_reject_label_without_max_score_and_neutral_in_binary():
    records = [_row("a", 0.2, 0.7, 0.1, "support")]
    assert "does not hold the maximum" in checks.check_predictions(
        records, ["a"], "ternary")[0]
    assert "neutral score presence" in checks.check_predictions(
        records, ["a"], "binary")[0]


def test_sweep_report_best_is_earliest_minimum_row():
    rows = [{"w_chain": wc, "w_prior": 0.2, "normalized_objective": obj}
            for wc, obj in ((1.0, 0.5), (0.5, 0.3), (0.1, 0.3))]
    good = {"best": {"w_chain": 0.5, "w_prior": 0.2}, "configs": rows}
    assert checks.check_sweep_report(good, 3) == []
    late = {"best": {"w_chain": 0.1, "w_prior": 0.2}, "configs": rows}
    assert "earliest minimum" in checks.check_sweep_report(late, 3)[0]
    assert "expected 4" in checks.check_sweep_report(good, 4)[0]


def test_macro_f1_averages_over_the_mode_labels():
    records = [{"pair_id": "a", "predicted": "support"},
               {"pair_id": "b", "predicted": "support"}]
    golds = {"a": "support", "b": "attack"}
    # support F1 = 2/3, attack F1 = 0, neutral has no pairs: F1 = 0
    assert checks.macro_f1(records, golds, "ternary") == pytest.approx(2 / 9)


@pytest.fixture
def fake_program(monkeypatch):
    module = types.ModuleType("fake_program")
    module.square = lambda x: x * x
    monkeypatch.setitem(sys.modules, "fake_program", module)
    return module


def test_tracer_reports_missing_attribute_as_absent(fake_program):
    tracer = Tracer(targets=(Target("fake_program", "square", "math.square"),
                             Target("fake_program", "removed", "gone.removed")))
    original = fake_program.square
    tracer.install(timed=True)
    assert fake_program.square(3) == 9
    tracer.uninstall()
    assert fake_program.square is original
    assert not hasattr(fake_program, "removed")
    assert tracer.absent == {"fake_program:removed"}
    assert tracer.absent_layers() == ["gone"]
    assert [(s.name, s.parent, s.pass_id) for s in tracer.spans] == [("math.square", None, 0)]


def test_untimed_install_records_counts_without_spans(fake_program):
    fake_program.ground = lambda n: types.SimpleNamespace(potentials=[0] * n, n_atoms=3)
    fake_program.echo = lambda x: x
    tracer = Tracer(targets=(Target("fake_program", "ground", "grounding.ground"),
                             Target("fake_program", "echo", "model.echo")))
    echo = fake_program.echo
    tracer.install(timed=False)
    assert fake_program.echo is echo  # targets that give no counts stay unwrapped
    fake_program.ground(4)
    fake_program.ground(2)
    tracer.uninstall()
    assert tracer.spans == []
    counts = tracing.pass_counts(tracer.outcomes, 0)
    assert counts["grounding.potentials"] == 6
    assert counts["grounding.atoms"] == 6


def test_scaled_time_drops_sampling_and_rescales_to_reference_speed():
    samples = [2 * speed.REF_SAMPLE_S] * 4  # the machine ran at half speed
    assert speed.scaled_time(10.0, 1.0, samples) == pytest.approx(4.5)


def test_speedometer_samples_during_its_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer(period_s=0.005) as meter:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.samples) >= speed.MIN_SAMPLES
    assert 0.0 < meter.busy_s < 0.1


def test_run_child_kills_a_child_at_the_deadline():
    t0 = time.monotonic()
    with pytest.raises(run.BenchError, match="did not finish in time"):
        run.run_child(["-c", "import time; time.sleep(30)"], t0 + 0.5, "sleeper")
    assert time.monotonic() - t0 < 10


def test_benchmark_json_lists_the_metrics_and_workloads_the_benchmark_runs():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in metrics.PER_LAYER]
