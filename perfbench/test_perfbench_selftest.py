"""Self-tests of the benchmark: the percentile rule, the correctness
gate and the tracer's wrappers.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- the percentile rule -------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    assert metrics.tail_percentile(200) == 95
    assert metrics.tail_percentile(42) == 76
    assert metrics.tail_percentile(10) == 0

    def beyond(values, p):
        cut = metrics.percentile(values, p)
        return sum(v > cut for v in values)

    for n in range(11, 400):
        values = list(range(n))
        p = metrics.tail_percentile(n)
        assert beyond(values, p) >= metrics.MIN_BEYOND
        assert p == 99 or beyond(values, p + 1) < metrics.MIN_BEYOND


def test_reportable_refuses_thin_tails():
    values = list(range(1, 101))
    assert metrics.reportable(values, 50) == 50
    assert metrics.reportable(values, 90) == 90
    with pytest.raises(ValueError):
        metrics.reportable(values, 95)


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


# -- the correctness gate ---------------------------------------------------------


def _lines(flip: int | None = None, fail: int | None = None) -> list[str]:
    lines = []
    for i in range(20):
        verdict = "proven" if i % 3 else "cex"
        if i == flip:
            verdict = "cex" if verdict == "proven" else "proven"
        if i == fail:
            verdict = "timeout"
        lines.append(workloads.record_line("m/fsm/n5", f"p{i // 5}", i % 5,
                                           True, verdict, verdict ==
                                           "proven", False))
    return lines


def test_digest_gate_trips_on_one_flipped_verdict(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "PINS", tmp_path / "pins.json")
    run.write_pin("design2sva", 7, run.pin_entry(_lines(), {"r": 1}))
    run.check_records("design2sva", 7, _lines(), {"r": 1})
    with pytest.raises(run.GateError):
        run.check_records("design2sva", 7, _lines(flip=4), {"r": 1})
    # a failed record is counted as failed, not compared ...
    run.check_records("design2sva", 7, _lines(fail=4), {"r": 1})
    # ... but does not hide a flipped one
    with pytest.raises(run.GateError):
        run.check_records("design2sva", 7, _lines(flip=5, fail=4),
                          {"r": 1})
    with pytest.raises(run.GateError):
        run.check_records("design2sva", 7, _lines()[1:], {"r": 1})
    # inputs with nothing pinned cannot pass
    with pytest.raises(run.GateError):
        run.check_records("design2sva", 8, _lines(), {"r": 1})


def test_every_seed_picks_a_pinned_input_set():
    pins = run.load_pins()
    every = {str(i) for i in range(workloads.INPUT_SETS)}
    for name in ("nl2sva", "design2sva"):
        assert set(pins[name]) == every, name
    for seed in (0, 99, 100, 7342, 2**40 + 3, -1):
        assert str(workloads.input_set(seed)) in every
    assert workloads.input_set(7342) == workloads.input_set(7342)


def test_inprocess_timings_are_each_problems_scaled_median(monkeypatch):
    times = iter([[4.0, 9.0, 30.0], [5.0, 6.0, 50.0], [8.0, 7.0, 20.0]])

    def run_pass(_):
        ms = next(times)
        return workloads.Pass(wall_s=sum(ms) / 1000, problem_ms=ms,
                              problem_cpu_ms=[t / 2 for t in ms],
                              lines=["r"] * 6, failed=1,
                              problem_scale=[0.5] * 3)

    class _Workload:
        nominal_pass_s = 10.0

    monkeypatch.setattr(workloads, "run_pass", run_pass)
    monkeypatch.setattr(metrics, "MIN_BEYOND", 0)
    monkeypatch.setattr(run, "check_records", lambda *a: None)
    values, attempted, failed, _ = run.measure_inprocess(
        _Workload(), "nl2sva", 0, 30.0, 1.0)
    # each problem's median, at half speed: 2.5, 3.5, 15 ms for 6 records
    assert values["records_per_s"] == 1000.0 * 6 / 21.0
    assert values["cpu_ms_per_record"] == 10.5 / 6
    assert values["problem_p50_ms"] == 3.5
    assert (attempted, failed) == (18, 3)
    assert values["ok_frac"] == 1.0 - 3 / 18


def test_host_speed_scales_each_duration_by_the_probes_around_it(
        monkeypatch):
    readings = iter([2.0, 2.0, 4.0, 4.0, 4.0])
    monkeypatch.setattr(workloads, "host_probe", lambda: next(readings))
    monkeypatch.setattr(workloads, "PROBE_REF_S", 2.0)
    monkeypatch.setattr(workloads, "PROBE_WINDOW", 0)
    monkeypatch.setattr(workloads, "PROBE_EVERY_S", 0.0)
    host = workloads.HostSpeed()    # reads 2.0
    assert host.tick(2)             # 2.0 after two operations
    assert host.tick(3)             # 4.0 after the third
    assert host.tick(3)             # 4.0 with none in between
    # the last probe comes with scales()
    assert host.scales(5) == [1.0, 1.0, 2.0 / 3.0, 0.5, 0.5]


class _ServeWorkload:
    pool = [[{}, {}]]

    def reference(self):
        return [[("proven", True, False), ("cex", False, False)]]


def _serve_results(answers, status=200):
    arrival = workloads.Arrival("open", 0.0, 0, False)
    reply = workloads.Reply(arrival, 0.0, 0.0, 0.01, status, answers)
    return {"open": {"replies": [reply], "wall_s": 2.5, "scales": [1.0],
                     "scale": 1.0}}


def test_serve_reference_comes_from_the_pin(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "PINS", tmp_path / "pins.json")
    monkeypatch.setattr(workloads, "serve_schedule", lambda *a: [])
    monkeypatch.setattr(workloads, "serve_pool",
                        lambda: [[{"kind": "equivalence"}] * 2])
    workload = run.ServeWorkload(0, 30, {}, start_servers=False)
    with pytest.raises(run.GateError):
        workload.reference()
    lines = [workloads.record_line("serve", "0", 0, True, "proven", True,
                                   False),
             workloads.record_line("serve", "0", 1, True, "cex", False,
                                   False)]
    run.write_pin("serve", run.serve_pin_key(workload.pool),
                  run.pin_entry(lines, {}) | {"pool": "another pool"})
    with pytest.raises(run.GateError):
        workload.reference()
    run.write_pin("serve", run.serve_pin_key(workload.pool),
                  run.pin_entry(lines, {})
                  | {"pool": workload.pool_digest()})
    assert workload.reference() == _ServeWorkload().reference()


def test_serve_gate_trips_on_one_flipped_wire_verdict():
    workload = _ServeWorkload()
    good = workload.reference()[0]
    assert run.check_serve(workload, _serve_results(good))[:2] == (2, 0)
    with pytest.raises(run.GateError):
        run.check_serve(workload, _serve_results(
            [("proven", True, False), ("proven", True, False)]))


def test_serve_counts_shed_answers_as_failed():
    workload = _ServeWorkload()
    # a saturated replica answers a batch position with an embedded error
    shed = [("proven", True, False), ("error", False, False)]
    results = _serve_results(shed)
    assert run.check_serve(workload, results)[:2] == (2, 1)
    # ... and is as late as the whole phase
    assert run._latencies(results["open"]) == [2500.0]
    assert run.check_serve(workload,
                           _serve_results([], status=503))[:2] == (2, 2)
    with pytest.raises(run.GateError):
        run.check_serve(workload, _serve_results(
            [("cex", False, False), ("error", False, False)]))


def test_serve_reports_each_requests_median_at_reference_speed(
        monkeypatch):
    workload = _ServeWorkload()
    # the 1 s round ran while the host was fast: at the reference speed
    # it took 2 s, and the 3 s round, on a slow host, 1.2 s
    rounds = iter([(2.0, 1.0), (1.0, 2.0), (3.0, 0.4), (1.5, 1.0)])

    def phase(_, kind, label, spans_out=None):
        wall, scale = next(rounds)
        arrival = workloads.Arrival(kind, 0.0, 0, False)
        replies = [workloads.Reply(arrival, 0.0, 0.0, wall / 100, 200,
                                   workload.reference()[0])
                   for _ in range(100)]
        return {"replies": replies, "wall_s": wall, "cpu_s": wall / 2,
                "scales": [scale] * 100, "scale": scale, "rss_mb": 40.0}

    monkeypatch.setattr(run, "CLOSED_ROUNDS", 4)
    monkeypatch.setattr(run, "run_phase", phase)
    metrics, attempted, failed, _ = run.measure_serve(workload, 1.0)
    assert (attempted, failed) == (800, 0)
    # each request: 20, 20, 12 and 15 ms at the reference speed
    assert metrics["problem_p50_ms"] == pytest.approx(17.5)
    assert metrics["records_per_s"] == pytest.approx(200 / 1.75)
    # scaled CPU per round: 1.0, 1.0, 0.6 and 0.75 s
    assert metrics["cpu_ms_per_record"] == pytest.approx(875.0 / 200)


# -- the tracer ---------------------------------------------------------------------


def _bindings() -> dict:
    """Every module- and class-level binding of every traced function."""
    out = {}
    for name, module_name, attr in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            out[(module_name, attr)] = vars(getattr(owner, cls_name))[method]
            continue
        original = getattr(owner, attr)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("repro"):
                for key, value in vars(module).items():
                    if value is original:
                        out[(mod_name, key)] = value
    return out


def _small_records() -> str:
    from repro.core.runner import RunConfig, run_model_on_task
    from repro.core.tasks import Design2SvaTask, Nl2SvaMachineTask
    runs = [("gpt-4o", Nl2SvaMachineTask(count=4, seed=3),
             RunConfig(shots=3)),
            ("llama-3.1-70b", Design2SvaTask(
                "fsm", count=1, seed=3,
                prover_kwargs=dict(workloads.DESIGN_PROVER)),
             RunConfig(n_samples=3, temperature=0.8))]
    return json.dumps([dataclasses.asdict(r) for model, task, config in runs
                       for r in run_model_on_task(model, task,
                                                  config).records],
                      sort_keys=True, default=str)


def test_tracer_restores_bindings_and_keeps_records():
    tracing.import_program()
    before = _bindings()
    plain = _small_records()
    tracer = tracing.Tracer()
    with tracer:
        import repro.formal.equivalence as equivalence
        import repro.models.base as base
        import repro.sva.parser as parser
        # copies made by ``from ... import`` are wrapped too
        assert base.parse_assertion is not before[
            ("repro.sva.parser", "parse_assertion")]
        assert equivalence.parse_assertion is parser.parse_assertion
        traced = _small_records()
    assert _bindings() == before
    assert traced == plain
    spans = tracer.to_json()["spans"]
    for name in ("models.generate", "sva.parse_assertion",
                 "formal.equiv_check", "rtl.parse_rtl", "rtl.elaborate",
                 "datasets.merge_for_eval", "formal.prove", "service.run",
                 "cache.get"):
        assert spans[name]["calls"] > 0, name
    for span in spans.values():
        assert 0 <= span["self_s"] <= span["total_s"] + 1e-9


def test_tracer_reset_starts_spans_and_counters_afresh():
    tracing.import_program()
    tracer = tracing.Tracer()
    with tracer:
        _small_records()
        tracer.reset()
        dump = tracer.to_json()
        assert dump["spans"] == {} and dump["edges"] == []
        assert dump["services"]
        assert all(value == 0 for counters in dump["services"]
                   for value in counters.values())
        _small_records()
    assert tracer.to_json()["spans"]["service.run"]["calls"] > 0
