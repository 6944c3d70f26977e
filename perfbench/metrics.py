"""Metric definitions of the benchmark: the percentile rule, the
end-to-end metrics of each workload and the per-layer metrics of a
traced run.  ``BENCHMARK.json`` lists the same names
(``test_perfbench_selftest.py`` checks that they agree)."""

from __future__ import annotations

import math

from tracing import PROFILE_KEYS, SERVICE_KEYS, TARGETS

#: end-to-end metrics: name -> unit, printed with ``--trace 0``
END_TO_END = {
    "setup_s": "s",
    "records_per_s": "1/s",
    "cpu_ms_per_record": "ms",
    "problem_p50_ms": "ms",
    "problem_p90_ms": "ms",
    "ok_frac": "ratio",
    "rss_peak_mb": "MB",
}

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least :data:`MIN_BEYOND` of
    *n* samples beyond it (0 when there are too few samples)."""
    best = 0
    for p in range(1, 100):
        if n - math.ceil(p * n / 100) >= MIN_BEYOND:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def reportable(values, p: int) -> float:
    """``percentile(values, p)``, refusing a percentile with fewer than
    :data:`MIN_BEYOND` samples beyond it."""
    if p > 50 and tail_percentile(len(values)) < p:
        raise ValueError(f"p{p} of {len(values)} samples has fewer than "
                         f"{MIN_BEYOND} samples beyond it")
    return percentile(values, p)


# -- per-layer metrics -----------------------------------------------------------

def _calls_s(prefix: str) -> dict:
    return {f"{prefix}.calls": "count", f"{prefix}.s": "s"}


#: per-layer metrics: name -> unit, printed with ``--trace 1``
PER_LAYER = {
    "models.generate.calls": "count",
    "models.generate.self_s": "s",
    "models.calibrate.equiv_calls": "count",
    "models.calibrate.equiv_s": "s",
    **_calls_s("sva.tokenize"),
    **_calls_s("sva.parse_assertion"),
    "sva.parse_assertion.failed": "count",
    **_calls_s("sva.canonical_key"),
    **_calls_s("sva.check_assertion_syntax"),
    "sva.parses_per_response": "ratio",
    **_calls_s("rtl.parse_rtl"),
    "rtl.parses_per_source": "ratio",
    **_calls_s("rtl.elaborate"),
    "rtl.elaborate.failed": "count",
    "datasets.build.s": "s",
    **_calls_s("datasets.merge_for_eval"),
    "datasets.merge_for_eval.failed": "count",
    **_calls_s("formal.equiv_check"),
    "formal.check_equivalence.calls": "count",
    **_calls_s("formal.solver.solve"),
    "formal.equiv.sessions_built": "count",
    "formal.equiv.candidates_per_session": "ratio",
    **_calls_s("formal.prove"),
    **_calls_s("service.presimulate"),
    "formal.prover.sim_s": "s",
    "formal.prover.bmc_s": "s",
    "formal.prover.kind_s": "s",
    "formal.prover.encode_s": "s",
    "formal.prover.sat_s": "s",
    "formal.prover.conflicts": "count",
    "formal.prover.propagations": "count",
    "formal.prover.sim_batch_passes": "count",
    "formal.prover.win_simulation": "count",
    "formal.prover.win_bmc": "count",
    "formal.prover.win_k-induction": "count",
    "service.run.calls": "count",
    "service.run.self_s": "s",
    "service.requests": "count",
    "service.dedup_hits": "count",
    "service.batch_groups": "count",
    "service.batch_members": "count",
    "service.prover_hits": "count",
    "service.prover_builds": "count",
    "service.equiv_hits": "count",
    "service.equiv_builds": "count",
    "service.dedup_frac": "ratio",
    **_calls_s("cache.get"),
    **_calls_s("cache.put"),
    "cache.hit_frac": "ratio",
    **_calls_s("eval.sentence_bleu"),
    "http.admitted_units": "count",
    "http.shed_units": "count",
    "http.peak_inflight": "count",
    "router.forwarded": "count",
    "router.failovers": "count",
    "serve.server_s_mean": "s",
    "serve.wire_wait_ms_mean": "ms",
    "serve.open_p50_ms": "ms",
    "serve.open_p90_ms": "ms",
    "trace.overhead_frac": "ratio",
    "serve.late_ms_p90": "ms",
}

#: ``<span name>.<suffix>`` metrics read the span aggregate's field
_SPAN_FIELDS = {"calls": "calls", "s": "total_s", "self_s": "self_s",
                "failed": "failed"}


def merge_dumps(dumps) -> dict:
    """Sum several :meth:`tracing.Tracer.to_json` dumps (one per traced
    process or phase)."""
    spans: dict = {}
    edges: dict = {}
    sources: set = set()
    services: list = []
    for dump in dumps:
        for name, span in dump["spans"].items():
            into = spans.setdefault(name, dict.fromkeys(span, 0))
            for key, value in span.items():
                into[key] += value
        for parent, name, calls, seconds in dump["edges"]:
            edge = edges.setdefault((parent, name), [0, 0.0])
            edge[0] += calls
            edge[1] += seconds
        sources.update(dump["rtl_sources"])
        services.extend(dump["services"])
    return {"spans": spans,
            "edges": [[p, n, c, s] for (p, n), (c, s) in edges.items()],
            "rtl_sources": sorted(sources), "services": services}


def layer_metrics(dump: dict, responses: int, build_s: float,
                  extra: dict) -> dict:
    """Every :data:`PER_LAYER` metric from a merged span dump.

    *responses* is the number of scored responses, *build_s* the traced
    set-up's dataset build time, and *extra* carries the values that do
    not come from spans (HTTP and router counters, serve timings, trace
    overhead); a metric a workload does not exercise reads 0.
    """
    spans = dump["spans"]

    def span(name: str, field: str = "calls"):
        return spans.get(name, {}).get(field, 0)

    out: dict = {}
    for metric in PER_LAYER:
        prefix, _, field = metric.rpartition(".")
        if prefix in _SPAN_NAMES and field in _SPAN_FIELDS:
            out[metric] = span(prefix, _SPAN_FIELDS[field])
    calls, seconds = 0, 0.0
    for parent, name, n, s in dump["edges"]:
        if parent == "models.generate" and name == "formal.check_equivalence":
            calls, seconds = calls + n, seconds + s
    out["models.calibrate.equiv_calls"] = calls
    out["models.calibrate.equiv_s"] = seconds
    out["sva.parses_per_response"] = _ratio(
        span("sva.parse_assertion", "outside_models"), responses)
    out["rtl.parses_per_source"] = _ratio(span("rtl.parse_rtl"),
                                          len(dump["rtl_sources"]))
    out["datasets.build.s"] = build_s

    totals: dict = {}
    for counters in dump["services"]:
        for key, value in counters.items():
            totals[key] = totals.get(key, 0) + value
    for key in SERVICE_KEYS:
        out[f"service.{key}"] = totals.get(key, 0)
    out["service.dedup_frac"] = _ratio(totals.get("dedup_hits", 0),
                                       totals.get("requests", 0))
    out["cache.hit_frac"] = _ratio(
        totals.get("cache_hits", 0),
        totals.get("cache_hits", 0) + totals.get("cache_misses", 0))
    out["formal.equiv.sessions_built"] = totals.get(
        "profile.equiv_sessions", 0)
    out["formal.equiv.candidates_per_session"] = _ratio(
        totals.get("profile.equiv_candidates", 0),
        totals.get("profile.equiv_sessions", 0))
    for key in PROFILE_KEYS:
        if not key.startswith("equiv_"):
            out[f"formal.prover.{key}"] = totals.get(f"profile.{key}", 0)
    for metric in PER_LAYER:
        out.setdefault(metric, 0)
    out.update(extra)
    unknown = set(out) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics not in PER_LAYER: {sorted(unknown)}")
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


#: names of the traced spans
_SPAN_NAMES = {name for name, _, _ in TARGETS}
