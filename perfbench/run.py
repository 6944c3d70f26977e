#!/usr/bin/env python3
"""Benchmark of record: the paper's tasks end to end, and per layer.

    python3 perfbench/run.py --workload {nl2sva,design2sva,serve} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it times the workload untraced for about ``S``
seconds and prints every end-to-end metric; with ``--trace 1`` it
alternates untraced passes with passes under the outside-in tracer
(``tracing.py``) and prints every per-layer metric.  ``--seed`` picks
one of the input sets pinned in ``pins.json``, and either way every
pass's records must match that input set's pin; a record whose
verdict is ``error`` or ``timeout`` counts as a failed operation
instead.  ``serve`` checks each wire verdict against the verdicts of an
in-process ``VerificationService.run`` of the same batch, pinned for its
batch pool.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.  A failed
correctness gate, an input set with nothing pinned, or an open-loop
generator that fell behind exits nonzero without that line.

``--pin`` computes the records of the seed's input set once and stores
them in ``pins.json`` instead of measuring.  See ``README.md`` for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import base64
import fcntl
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
#: scratch space for server logs and span dumps, inside the checkout; one
#: directory per process, as set-up probes start servers of their own
WORKDIR = ROOT / ".perfbench" / str(os.getpid())

WORKLOADS = ("nl2sva", "design2sva", "serve")
#: set-up samples per run; the median is reported
SETUP_SAMPLES = 3
#: timed passes of an in-process run, at least
MIN_PASSES = 2
#: untraced/traced pass pairs of a traced run; the overhead is their
#: median ratio
TRACE_PAIRS = 2
#: closed-loop phases of an untraced ``serve`` run, each on fresh servers
CLOSED_ROUNDS = 4


class GateError(Exception):
    """The run's outputs are wrong or its measurement is invalid."""


def scrubbed_env() -> dict:
    """The environment the program runs under: no ``FVEVAL_*`` knob of
    the caller's shell (a warm ``FVEVAL_CACHE`` or ``FVEVAL_JOBS`` would
    change what is measured), and ``src/`` on the import path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("FVEVAL_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def effective_env(env: dict) -> dict:
    return {"python": platform.python_version(),
            "PYTHONPATH": env["PYTHONPATH"],
            "FVEVAL": {k: v for k, v in env.items()
                       if k.startswith("FVEVAL_")},
            "cpus": os.cpu_count()}


# -- set-up ------------------------------------------------------------------


def setup(name: str, seed: int, seconds: float, env: dict):
    """Build the workload's inputs (for ``serve``: generate the
    responses and start the servers); returns (workload, seconds at the
    reference host speed)."""
    import workloads
    host = workloads.HostSpeed()
    start = time.perf_counter()
    if name == "nl2sva":
        workload = workloads.Nl2Sva(seed)
    elif name == "design2sva":
        workload = workloads.Design2Sva(seed)
    else:
        workload = ServeWorkload(seed, seconds, env)
    elapsed = time.perf_counter() - start
    return workload, elapsed * host.scales(1)[0]


def probe_setup(name: str, seed: int, seconds: float, env: dict) -> float:
    """The set-up time of a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--probe-setup"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr[-400:]}")
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def run_probe_setup(name: str, seed: int, seconds: float, env: dict) -> dict:
    workload, setup_s = setup(name, seed, seconds, env)
    if isinstance(workload, ServeWorkload):
        workload.servers.stop()
    return {"setup_s": setup_s}


# -- correctness gate ----------------------------------------------------------


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def pin_entry(lines: list[str], rates: dict) -> dict:
    """What ``pins.json`` holds for one input set: the digest of the
    records, the digest of their keys, each record's outcome (one letter
    per record, zlib-compressed, base64) and the table rates."""
    import workloads
    keys, outcomes = zip(*map(workloads.split_record, lines))
    alphabet = sorted(set(outcomes))
    letters = "".join(chr(ord("a") + alphabet.index(o)) for o in outcomes)
    return {"digest": workloads.digest(lines),
            "keys": workloads.digest(keys), "alphabet": alphabet,
            "outcomes": base64.b64encode(
                zlib.compress(letters.encode(), 9)).decode(),
            "rates": rates}


def _pinned_outcomes(pin: dict) -> list[str]:
    letters = zlib.decompress(base64.b64decode(pin["outcomes"])).decode()
    return [pin["alphabet"][ord(c) - ord("a")] for c in letters]


def check_records(name: str, key, lines: list[str], rates: dict) -> None:
    """Compare *lines* against the records pinned under *key*, the input
    set.

    A record whose verdict is ``error`` or ``timeout`` is a failed
    operation, which the caller counts; every other record must equal
    the pinned one.  Inputs with nothing pinned cannot be checked, which
    is an error too.
    """
    import workloads
    pin = load_pins().get(name, {}).get(str(key))
    if pin is None:
        raise GateError(f"{name}: no records pinned for {key}; pin them "
                        f"first with --pin")
    if workloads.digest(lines) == pin["digest"]:
        return
    keys, outcomes = zip(*map(workloads.split_record, lines))
    if workloads.digest(keys) != pin["keys"]:
        raise GateError(f"{name} {key}: not the pinned problems and "
                        f"samples")
    wrong = [k for k, got, want in zip(keys, outcomes,
                                       _pinned_outcomes(pin))
             if got != want and not workloads.outcome_failed(got)]
    if wrong:
        diff = sorted(label for label in set(pin["rates"]) | set(rates)
                      if pin["rates"].get(label) != rates.get(label))
        raise GateError(f"{name} {key}: {len(wrong)} records differ from "
                        f"the pinned ones, first {wrong[0]}; rates differ "
                        f"for {diff[:6]}")


def write_pin(name: str, key, entry: dict) -> None:
    """Store *entry* under *key*, one line per key.  A lock lets several
    ``--pin`` processes fill the file at once, and the file is replaced
    whole, so a concurrent run never reads it half written."""
    with open(PINS.with_suffix(".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        pins = load_pins()
        pins.setdefault(name, {})[str(key)] = entry
        blocks = []
        for workload in sorted(pins):
            rows = sorted(pins[workload].items(),
                          key=lambda kv: (len(kv[0]), kv[0]))
            blocks.append(f" {json.dumps(workload)}: {{\n" + ",\n".join(
                f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                for k, v in rows) + "\n }")
        partial = PINS.with_suffix(".tmp")
        partial.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
        os.replace(partial, PINS)


def serve_pin_key(pool) -> str:
    return f"pool-{len(pool)}"


# -- in-process workloads ------------------------------------------------------


def measure_inprocess(workload, name: str, seed: int, seconds: float,
                      setup_s: float) -> tuple[dict, int, int, dict]:
    """As many whole passes as it takes to measure *seconds* at the
    workload's nominal pass time (at least :data:`MIN_PASSES`).  Every
    pass scores the same problems in the same order.  Each time is
    scaled to the reference host speed by the probes taken around it,
    and the timings are each problem's median over the passes.  (The
    fastest would pick the pass whose probes read slowest.)"""
    import workloads
    count = max(MIN_PASSES, math.ceil(seconds / workload.nominal_pass_s))
    passes = [workloads.run_pass(workload) for _ in range(count)]
    for p in passes:
        check_records(name, seed, p.lines, p.rates)
    problem_ms = _median_scaled(passes, "problem_ms")
    problem_cpu_ms = _median_scaled(passes, "problem_cpu_ms")
    records = passes[0].records
    metrics = {
        "setup_s": setup_s,
        "records_per_s": 1000.0 * records / sum(problem_ms),
        "cpu_ms_per_record": sum(problem_cpu_ms) / records,
        "problem_p50_ms": _reportable(problem_ms, 50),
        "problem_p90_ms": _reportable(problem_ms, 90),
        "ok_frac": 1.0 - sum(p.failed for p in passes) / (records * count),
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    info = {"digest": workloads.digest(passes[0].lines),
            "pass_wall_s": [p.wall_s for p in passes],
            "pass_scale": [statistics.median(p.problem_scale)
                           for p in passes],
            "problems": len(problem_ms), "records": records}
    return metrics, records * count, sum(p.failed for p in passes), info


def _median_scaled(passes, field: str) -> list[float]:
    """Each problem's median over *passes* of its scaled *field*."""
    return [statistics.median(times) for times in zip(*(
        [ms * f for ms, f in zip(getattr(p, field), p.problem_scale)]
        for p in passes))]


def trace_inprocess(name: str, seed: int, env: dict
                    ) -> tuple[dict, int, int, dict]:
    """An untraced warm-up pass, then :data:`TRACE_PAIRS` pairs of an
    untraced and a traced pass, alternating which goes first; per-layer
    metrics from the first traced pass."""
    import metrics as m
    import tracing
    import workloads
    tracing.import_program()
    with tracing.Tracer() as build_tracer:
        workload, _ = setup(name, seed, 0, env)
    first = workloads.run_pass(workload)
    check_records(name, seed, first.lines, first.rates)
    digest = workloads.digest(first.lines)
    tracers, ratios, walls = [], [], []
    for i in range(TRACE_PAIRS):
        wall = {}
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            tracer = tracing.Tracer() if traced else None
            if tracer is not None:
                tracer.install()
                tracers.append(tracer)
            try:
                result = workloads.run_pass(workload)
            finally:
                if tracer is not None:
                    tracer.restore()
            if workloads.digest(result.lines) != digest:
                kind = "traced" if traced else "plain"
                raise GateError(f"records of a {kind} pass differ from the "
                                f"first pass")
            wall[traced] = result.wall_s
        ratios.append(wall[True] / wall[False])
        walls.append(wall)
    extra = {"trace.overhead_frac": statistics.median(ratios) - 1.0}
    layers = m.layer_metrics(tracers[0].to_json(), first.records,
                             _build_s(build_tracer), extra)
    info = {"digest": digest,
            "pass_wall_s": [[w[False], w[True]] for w in walls]}
    return layers, first.records, first.failed, info


def _build_s(tracer) -> float:
    return sum(span.total_s for name, span in tracer.spans.items()
               if name.startswith("datasets.build_"))


def _reportable(values, p):
    import metrics as m
    try:
        return m.reportable(values, p)
    except ValueError as exc:
        raise GateError(str(exc)) from exc


# -- serve ---------------------------------------------------------------------


class ServeWorkload:
    """Set-up of ``serve``: the seeded schedule, the batch pool with its
    pre-generated responses, and the first phase's servers."""

    def __init__(self, seed: int, seconds: float, env: dict,
                 start_servers: bool = True):
        import workloads
        self.seed = seed
        self.env = env
        self.arrivals = workloads.serve_schedule(seed, seconds)
        self.pool = workloads.serve_pool()
        self.bodies = [json.dumps(batch).encode() for batch in self.pool]
        self.servers = (workloads.Servers(ROOT, WORKDIR / "closed", env)
                        if start_servers else None)
        self._reference = None

    def phase(self, phase: str):
        return [a for a in self.arrivals if a.phase == phase]

    def pool_digest(self) -> str:
        import workloads
        return workloads.digest(body.decode() for body in self.bodies)

    def reference(self) -> list[list[tuple]]:
        """The (verdict, func, partial) that in-process
        ``VerificationService.run`` gives each sample of each pool batch,
        as ``--pin`` stored them."""
        if self._reference is None:
            pin = load_pins().get("serve", {}).get(serve_pin_key(self.pool))
            if pin is None or pin["pool"] != self.pool_digest():
                raise GateError("serve: nothing pinned for this batch pool; "
                                "pin it first with --pin")
            outcomes = iter(_pinned_outcomes(pin))
            self._reference = [[_answer(next(outcomes)) for _ in batch]
                               for batch in self.pool]
        return self._reference


def _answer(outcome: str) -> tuple:
    _, verdict, func, partial = outcome.split("|")
    return verdict, func == "1", partial == "1"


def run_phase(workload: ServeWorkload, phase: str, label: str,
              spans_out: Path | None = None) -> dict:
    """Run *phase* against freshly started servers with a cold cache (the
    servers set-up started, for the first phase of a run); returns its
    replies, CPU, RSS, /metrics counters and generator lateness.  With
    *spans_out*, the replica is traced from the end of its warm-up on."""
    import workloads
    servers = workload.servers
    workload.servers = None
    if servers is None:
        servers = workloads.Servers(ROOT, WORKDIR / label, workload.env,
                                    spans_out)
    try:
        pids = servers.pids
        cpu0 = sum(workloads.proc_cpu_s(pid) for pid in pids.values())
        start = time.perf_counter()
        if phase == "closed":
            replies, scales = workloads.closed_loop(
                servers.address, workload.bodies, workload.phase(phase))
            late = []
        else:
            replies, late = workloads.open_loop(
                servers.address, workload.bodies, workload.phase(phase))
            scales = [1.0] * len(replies)
        wall = time.perf_counter() - start
        cpu = sum(workloads.proc_cpu_s(pid)
                  for pid in pids.values()) - cpu0
        rss = workloads.proc_peak_rss_mb(pids["replica"])
        counters = servers.counters()
    finally:
        codes = servers.stop()
    if any(codes):
        raise GateError(f"{label}: servers exited {codes} on drain")
    busy = [r.latency_ms for r in replies]
    scale = (sum(ms * f for ms, f in zip(busy, scales)) / sum(busy)
             if sum(busy) else 1.0)
    return {"replies": replies, "wall_s": wall, "cpu_s": cpu,
            "scales": scales, "scale": scale, "rss_mb": rss,
            "counters": counters, "late_ms": late,
            "spans": (json.loads(spans_out.read_text())
                      if spans_out is not None else None)}


def check_serve(workload: ServeWorkload, results: dict) -> tuple[int, int,
                                                                 dict]:
    """Wire verdicts against in-process ``VerificationService.run`` on
    the same batches, as pinned; returns (attempted, failed, info).  A
    non-200 reply fails all its samples, and an answer with an ``error``
    or ``timeout`` verdict (a shed or unreachable replica answers so
    inside a batch) fails its sample; every other answer must equal the
    in-process one."""
    import workloads
    reference = workload.reference()
    attempted = failed = 0
    for label, result in results.items():
        for reply in result["replies"]:
            want = reference[reply.arrival.batch]
            attempted += len(want)
            if reply.status != 200:
                failed += len(want)
                continue
            failures = [a[0] in workloads.FAILED_VERDICTS
                        for a in reply.answers]
            if len(reply.answers) != len(want) or any(
                    got != ref for got, ref, bad
                    in zip(reply.answers, want, failures) if not bad):
                raise GateError(
                    f"{label}: batch {reply.arrival.batch} wire verdicts "
                    f"{reply.answers} != in-process {want}")
            failed += sum(failures)
    return attempted, failed, {"pool": len(workload.pool)}


def _late_p90(results) -> float:
    import workloads
    late = [ms for r in results for ms in r["late_ms"]]
    late_p90 = _reportable(late, 90)
    if late_p90 > workloads.MAX_LATE_MS:
        raise GateError(f"open-loop generator ran {late_p90:.1f} ms late "
                        f"at p90 (bound {workloads.MAX_LATE_MS} ms): "
                        f"the run is invalid")
    return late_p90


def _latencies(result: dict) -> list[float]:
    """Latency of each request of a phase, at the reference host speed
    in closed loop.  A failed request misses every latency limit: it
    counts as late as the whole phase, which no answered request can
    be."""
    return [r.latency_ms * f if r.ok else 1000.0 * result["wall_s"]
            for r, f in zip(result["replies"], result["scales"])]


def _scored(result: dict) -> int:
    """Samples of a phase answered with a verdict that is not a failure."""
    import workloads
    return sum(verdict not in workloads.FAILED_VERDICTS
               for reply in result["replies"]
               for verdict, _, _ in reply.answers)


def measure_serve(workload: ServeWorkload,
                  setup_s: float) -> tuple[dict, int, int, dict]:
    """:data:`CLOSED_ROUNDS` closed-loop phases.  Every round sends the
    same requests in the same order to fresh servers, so only the host's
    other load varies between them.  As in-process problems over passes,
    each request's latency is scaled to the reference host speed and the
    timings are each request's median over the rounds.  The open-loop
    phase runs only traced: its latencies are too unsteady here for a
    bound."""
    results = {f"closed-{i}": run_phase(workload, "closed", f"closed-{i}")
               for i in range(CLOSED_ROUNDS)}
    attempted, failed, info = check_serve(workload, results)
    rounds = list(results.values())
    scored = statistics.median(_scored(r) for r in rounds)
    if not scored:
        raise GateError("serve: the rounds answered no sample")
    latencies = [statistics.median(ms)
                 for ms in zip(*map(_latencies, rounds))]
    metrics = {
        "setup_s": setup_s,
        "records_per_s": 1000.0 * scored / sum(latencies),
        "cpu_ms_per_record": 1000.0 * statistics.median(
            r["cpu_s"] * r["scale"] for r in rounds) / scored,
        "problem_p50_ms": _reportable(latencies, 50),
        "problem_p90_ms": _reportable(latencies, 90),
        "ok_frac": 1.0 - failed / attempted,
        "rss_peak_mb": max(r["rss_mb"] for r in rounds),
    }
    info["phase_wall_s"] = {p: r["wall_s"] for p, r in results.items()}
    info["phase_scale"] = {p: r["scale"] for p, r in results.items()}
    return metrics, attempted, failed, info


def trace_serve(seed: int, seconds: float, env: dict
                ) -> tuple[dict, int, int, dict]:
    """:data:`TRACE_PAIRS` pairs of an untraced and a traced closed-loop
    phase, alternating which goes first, then a traced open-loop phase.
    Per-layer metrics come from the first traced closed-loop phase and
    the open-loop phase: the replica's spans, the servers' /metrics
    counters and the client's timings, all from the end of each
    server's warm-up on."""
    import metrics as m
    import tracing
    workload = ServeWorkload(seed, seconds, env)
    tracing.import_program()
    with tracing.Tracer() as build_tracer:
        ServeWorkload(seed, seconds, env, start_servers=False)
    spans_dir = WORKDIR / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    results, ratios = {}, []
    for i in range(TRACE_PAIRS):
        wall = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            label = f"closed-{i}-{'traced' if traced else 'plain'}"
            results[label] = run_phase(
                workload, "closed", label,
                spans_dir / f"{label}.json" if traced else None)
            wall[traced] = results[label]["wall_s"]
        ratios.append(wall[True] / wall[False])
    results["open"] = run_phase(workload, "open", "open",
                                spans_dir / "open.json")
    attempted, failed, info = check_serve(workload, results)
    traced = [results["closed-0-traced"], results["open"]]
    dump = m.merge_dumps(r["spans"] for r in traced)
    runs = dump["spans"].get("service.run", {})
    server_s_mean = (runs["total_s"] / runs["calls"] if runs.get("calls")
                     else 0.0)
    replies = [r for res in traced for r in res["replies"]]
    wire_ms = statistics.fmean(1000.0 * (r.done - r.sent) for r in replies)
    counters = [r["counters"] for r in traced]
    extra = {key: sum(c[key] for c in counters)
             for key in ("http.admitted_units", "http.shed_units",
                         "router.forwarded", "router.failovers")}
    opened = _latencies(results["open"])
    extra.update({
        "http.peak_inflight": max(c["http.peak_inflight"] for c in counters),
        "serve.server_s_mean": server_s_mean,
        "serve.wire_wait_ms_mean": wire_ms - 1000.0 * server_s_mean,
        "serve.open_p50_ms": _reportable(opened, 50),
        "serve.open_p90_ms": _reportable(opened, 90),
        "trace.overhead_frac": statistics.median(ratios) - 1.0,
        "serve.late_ms_p90": _late_p90([results["open"]]),
    })
    served = sum(len(r.answers) for r in replies)
    layers = m.layer_metrics(dump, served, _build_s(build_tracer), extra)
    info["closed_wall_s"] = {label: r["wall_s"] for label, r in
                             results.items() if label != "open"}
    return layers, attempted, failed, info


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="store the input set's records in pins.json "
                         "instead of measuring")
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    env = scrubbed_env()
    for key in [k for k in os.environ if k.startswith("FVEVAL_")]:
        del os.environ[key]
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    seed = workloads.input_set(args.seed)

    if args.probe_setup:
        print(json.dumps(run_probe_setup(args.workload, seed,
                                         args.seconds, env)))
        _remove_workdir()
        return 0
    if args.pin:
        return pin(args.workload, seed, args.seconds)
    if (args.workload != "serve"
            and str(seed) not in load_pins().get(args.workload, {})):
        # serve's pool does not depend on the seed; check_serve checks it
        print(f"FAILED: {args.workload}: no records pinned for input set "
              f"{seed}; pin them first with --pin", file=sys.stderr)
        return 1

    print(f"perfbench {args.workload} seed={args.seed} inputs={seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env: {json.dumps(effective_env(env), sort_keys=True)}")
    import metrics as m
    try:
        if args.trace:
            units = m.PER_LAYER
            if args.workload == "serve":
                values, attempted, failed, info = trace_serve(
                    seed, args.seconds, env)
            else:
                values, attempted, failed, info = trace_inprocess(
                    args.workload, seed, env)
        else:
            units = m.END_TO_END
            workload, first = setup(args.workload, seed, args.seconds, env)
            try:
                samples = [first] + [
                    probe_setup(args.workload, seed, args.seconds, env)
                    for _ in range(SETUP_SAMPLES - 1)]
            except BaseException:
                if isinstance(workload, ServeWorkload):
                    workload.servers.stop()
                raise
            setup_s = statistics.median(samples)
            if isinstance(workload, ServeWorkload):
                values, attempted, failed, info = measure_serve(
                    workload, setup_s)
            else:
                values, attempted, failed, info = measure_inprocess(
                    workload, args.workload, seed, args.seconds, setup_s)
            info["setup_samples_s"] = samples
    except GateError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    print(f"check: {json.dumps(info, sort_keys=True)}")
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    # server logs are kept only when the run failed
    _remove_workdir()
    return 0


def _remove_workdir() -> None:
    shutil.rmtree(WORKDIR, ignore_errors=True)
    try:
        WORKDIR.parent.rmdir()
    except OSError:
        pass  # another run's directory is still there


def pin(name: str, seed: int, seconds: float) -> int:
    """Compute the seed's records once and store them."""
    import workloads
    if name == "serve":
        workload = ServeWorkload(seed, seconds, {}, start_servers=False)
        lines, rates = workloads.serve_records(workload.pool)
        entry = pin_entry(lines, rates) | {"pool": workload.pool_digest()}
        key = serve_pin_key(workload.pool)
    else:
        workload, _ = setup(name, seed, seconds, {})
        result = workloads.run_pass(workload)
        entry = pin_entry(result.lines, result.rates)
        key = seed
    write_pin(name, key, entry)
    print(f"pinned {name} {key}: {entry['digest']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
