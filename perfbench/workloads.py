"""The benchmark's workloads, drawn from the paper's three tasks.

``nl2sva`` and ``design2sva`` drive ``iter_run_model_on_task`` in this
process: closed loop, one caller, serial, fresh task objects (and so a
cold verdict cache) for every pass, as ``python -m repro tables`` runs.
``serve`` drives ``python -m repro route`` in front of one ``python -m
repro serve --http`` replica over HTTP, with pre-generated responses:
closed-loop phases on one connection and, in a traced run, open-loop
Poisson arrivals on two connections.

Every workload yields *records*: one ``(problem, sample, syntax_ok,
verdict, func, partial)`` line per scored response, which the
correctness gate digests.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import queue
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

NL2SVA_MODELS = ("gpt-4o", "gemini-1.5-flash", "llama-3-8b")
MACHINE_COUNT = 60
DESIGN_MODELS = ("gpt-4o", "gemini-1.5-flash", "llama-3.1-70b")
#: designs per category: 2 x 34 x 3 models = 204 problems a pass, so the
#: per-problem p95 of one pass has at least 10 samples beyond it
DESIGN_COUNT = 34
#: the CI prover settings of ``benchmarks/conftest.py`` (DESIGN_PROVER)
DESIGN_PROVER = {"max_bmc": 6, "max_k": 4, "sim_traces": 6,
                 "sim_cycles": 20}
SAMPLES = 5
TEMPERATURE = 0.8
#: ``--seed`` picks one of this many input sets, each pinned
INPUT_SETS = 100
#: generation seed of the ``design2sva`` designs; the input set orders
#: them
DESIGN_SEED = 0

#: open-loop arrival rate of the ``serve`` workload, in batches/s: about a
#: fifth of what one replica answers in closed loop.  At 10 and 16/s a
#: host 10% slower stretched the median latency by half or more
RATES = {"open": 6.0}
#: corpus sizes behind the ``serve`` mix: the default problem counts of
#: ``Nl2SvaMachineTask`` (300) and of one ``Design2SvaTask`` category (96)
MACHINE_CORPUS = 300
FSM_CORPUS = 96
#: share of ``serve`` batches that are NL2SVA-Machine ``equivalence``
#: batches, the rest being Design2SVA ``fsm`` ``prove`` batches: the two
#: corpora in proportion to their sizes, 300 : 96
EQUIV_SHARE = MACHINE_CORPUS / (MACHINE_CORPUS + FSM_CORPUS)
#: share of ``serve`` arrivals that repeat an earlier batch of their phase
REPEAT_SHARE = 0.5
#: ``serve`` arrivals per phase in a 30-second run (scaled to
#: ``--seconds``)
PHASE_ARRIVALS = {"closed": 240, "open": 150}
#: batches in the ``serve`` pool, whatever ``--seconds``: the first-seen
#: batches of the largest phase of a 30-second run.  A longer run
#: repeats more
POOL_SIZE = max(n - round(REPEAT_SHARE * n)
                for n in PHASE_ARRIVALS.values())
#: generation seed of the ``serve`` batch pool: the input set drives the
#: arrival and repeat schedule only, so every seed sends the same work
POOL_SEED = 0
#: the run is invalid if the open-loop generator ran later than this
MAX_LATE_MS = 25.0
#: sent to freshly started servers before a phase, outside the pool's
#: cache namespaces and designs, so the first timed request does not pay
#: the replica's lazy imports
WARMUP = [
    {"kind": "equivalence",
     "reference": "assert property (@(posedge clk) a |-> ##1 b);",
     "candidate": "assert property (@(posedge clk) a |=> b);",
     "widths": {"a": 1, "b": 1}, "cache_ns": "perfbench-warmup"},
    {"kind": "prove",
     "source": "module warm(input clk, input rst, input a, output reg q);\n"
               "  always @(posedge clk) if (rst) q <= 1'b0; else q <= a;\n"
               "  assert property (@(posedge clk) rst |=> !q);\n"
               "endmodule\n",
     "top": "warm", "engine": DESIGN_PROVER, "cache_ns": "perfbench-warmup"},
]

#: verdicts that count as failed operations
FAILED_VERDICTS = ("error", "timeout")


def record_line(label: str, problem_id: str, sample_idx: int,
                syntax_ok: bool, verdict: str, func: bool,
                partial: bool) -> str:
    return (f"{label}|{problem_id}|{sample_idx}|{int(syntax_ok)}|"
            f"{verdict}|{int(func)}|{int(partial)}")


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:24]


def split_record(line: str) -> tuple[str, str]:
    """(``label|problem|sample``, ``syntax_ok|verdict|func|partial``)"""
    key, syntax_ok, verdict, func, partial = line.rsplit("|", 4)
    return key, f"{syntax_ok}|{verdict}|{func}|{partial}"


def outcome_failed(outcome: str) -> bool:
    return outcome.split("|")[1] in FAILED_VERDICTS


# -- host speed ----------------------------------------------------------------

#: loop count of one host-speed probe
PROBE_LOOPS = 30_000
#: what one probe takes on a 2-vCPU x86 virtual machine whose neighbours
#: are quiet; timings are scaled to this speed
PROBE_REF_S = 0.0019
#: seconds between probes while a workload runs
PROBE_EVERY_S = 0.5
#: probes on each side, beyond the two around it, that scale a duration
PROBE_WINDOW = 2


def host_probe() -> float:
    """Seconds a fixed loop of plain interpreter work takes now: the
    fastest of three, so that one preemption does not count."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


class HostSpeed:
    """Probes the host's speed every :data:`PROBE_EVERY_S` at the
    caller's boundaries, between timed operations.

    On a shared virtual machine the same work takes up to 1.6 times as
    long while the neighbours are busy, in spells of seconds to minutes,
    and the probe slows by about as much; :meth:`scales` turns the
    durations measured among the probes into durations at
    :data:`PROBE_REF_S`.
    """

    def __init__(self):
        self.probes = [host_probe()]
        self._cuts = [0]
        self._at = time.perf_counter()

    def _probe(self, done: int) -> None:
        self.probes.append(host_probe())
        self._cuts.append(done)
        self._at = time.perf_counter()

    def tick(self, done: int) -> bool:
        """Probe, after *done* timed operations, if a probe is due;
        whether it did (and so took time)."""
        if time.perf_counter() - self._at < PROBE_EVERY_S:
            return False
        self._probe(done)
        return True

    def scales(self, done: int) -> list[float]:
        """The factor of each of the *done* operations: the reference
        over the median of the probes around it, and of
        :data:`PROBE_WINDOW` more on each side.  Probes once more
        first."""
        self._probe(done)
        out: list[float] = []
        for k in range(1, len(self._cuts)):
            near = self.probes[max(0, k - 1 - PROBE_WINDOW):
                               k + 1 + PROBE_WINDOW]
            out += ([PROBE_REF_S / statistics.median(near)]
                    * (self._cuts[k] - self._cuts[k - 1]))
        return out


@dataclass
class Pass:
    """One timed pass of an in-process workload."""

    wall_s: float = 0.0
    problem_ms: list = field(default_factory=list)
    #: process CPU of each problem, in the order of ``problem_ms``
    problem_cpu_ms: list = field(default_factory=list)
    #: :meth:`HostSpeed.scales` of each problem
    problem_scale: list = field(default_factory=list)
    lines: list = field(default_factory=list)
    rates: dict = field(default_factory=dict)
    failed: int = 0

    @property
    def records(self) -> int:
        return len(self.lines)


def input_set(seed: int) -> int:
    """The input set ``--seed`` picks: the same seed, the same inputs."""
    return seed % INPUT_SETS


def _fixed_problems(task, problems):
    """Serve *problems* from *task* without regenerating them: inputs
    are built once in set-up, tasks (and their caches) fresh per pass."""
    task.problems = lambda: problems
    return task


# -- in-process workloads ------------------------------------------------------


class Nl2Sva:
    """NL2SVA-Human greedy and n=5, NL2SVA-Machine 0- and 3-shot."""

    #: seconds one pass takes on a busy 2-vCPU x86 virtual machine (sizes
    #: runs)
    nominal_pass_s = 10.0

    def __init__(self, seed: int):
        from repro.datasets.nl2sva_human.corpus import problems
        from repro.datasets.nl2sva_machine.critic import build_problems
        self.human = problems()
        self.machine = build_problems(MACHINE_COUNT, seed)

    def runs(self):
        from repro.core.runner import RunConfig
        from repro.core.tasks import Nl2SvaHumanTask, Nl2SvaMachineTask
        greedy = _fixed_problems(Nl2SvaHumanTask(), self.human)
        sampled = _fixed_problems(Nl2SvaHumanTask(), self.human)
        machine = _fixed_problems(Nl2SvaMachineTask(), self.machine)
        for model in NL2SVA_MODELS:
            yield f"{model}/human/greedy", model, greedy, RunConfig()
        for model in NL2SVA_MODELS:
            yield (f"{model}/human/n{SAMPLES}", model, sampled,
                   RunConfig(n_samples=SAMPLES, temperature=TEMPERATURE))
        for model in NL2SVA_MODELS:
            for shots in (0, 3):
                yield (f"{model}/machine/{shots}shot", model, machine,
                       RunConfig(shots=shots))


class Design2Sva:
    """Design2SVA pipeline and fsm at n=5, T=0.8.

    The designs are the same for every input set, which orders each
    category's designs.  The runner hands each simulated model its
    outcomes by a problem's position, so the order decides which design
    gets a correct, a wrong or a broken assertion: every input set
    proves other responses, on designs of one fixed total cost.  (Drawn
    afresh per seed, 34 designs per category took 8 to 13 s a pass.)
    """

    nominal_pass_s = 15.0

    def __init__(self, seed: int):
        from repro.datasets.design2sva.sweep import build_benchmark
        self.designs = {}
        for cat in ("pipeline", "fsm"):
            designs = build_benchmark(cat, DESIGN_COUNT, DESIGN_SEED)
            random.Random(f"design2sva-order-{seed}-{cat}").shuffle(designs)
            self.designs[cat] = designs

    def runs(self):
        from repro.core.runner import RunConfig
        from repro.core.tasks import Design2SvaTask
        tasks = {cat: _fixed_problems(
                     Design2SvaTask(cat, prover_kwargs=dict(DESIGN_PROVER)),
                     designs)
                 for cat, designs in self.designs.items()}
        config = RunConfig(n_samples=SAMPLES, temperature=TEMPERATURE)
        for model in DESIGN_MODELS:
            for cat, task in tasks.items():
                yield f"{model}/{cat}/n{SAMPLES}", model, task, config


def run_pass(workload) -> Pass:
    """Score every run of *workload* once, timing each problem."""
    from repro.core.runner import RunResult, iter_run_model_on_task
    out = Pass()
    host = HostSpeed()
    start = time.perf_counter()
    for label, model, task, config in workload.runs():
        records = []
        last, last_cpu = time.perf_counter(), time.process_time()
        current = None
        for record in iter_run_model_on_task(model, task, config):
            if record.problem_id != current:
                # a problem's records arrive together once it is scored
                now, now_cpu = time.perf_counter(), time.process_time()
                out.problem_ms.append(1000.0 * (now - last))
                out.problem_cpu_ms.append(1000.0 * (now_cpu - last_cpu))
                last, last_cpu = now, now_cpu
                current = record.problem_id
                if host.tick(len(out.problem_ms)):
                    last, last_cpu = time.perf_counter(), time.process_time()
            records.append(record)
            out.lines.append(record_line(
                label, record.problem_id, record.sample_idx,
                record.syntax_ok, record.verdict, record.func,
                record.partial))
            out.failed += record.verdict in FAILED_VERDICTS
        out.rates[label] = _rates(RunResult(model=model, task=task.name,
                                            records=records), config)
    out.wall_s = time.perf_counter() - start
    out.problem_scale = host.scales(len(out.problem_ms))
    return out


def _rates(result, config) -> dict:
    if config.n_samples > 1:
        rates = {"syntax@5": result.syntax_at(5), "func@1": result.func_at(1),
                 "func@5": result.func_at(5),
                 "partial@5": result.partial_at(5)}
    else:
        rates = {"syntax": result.syntax_rate, "func": result.func_rate,
                 "partial": result.partial_rate}
    return {key: round(value, 6) for key, value in rates.items()}


# -- serve -------------------------------------------------------------------


def wire_source(design, response: str) -> str:
    """One textual RTL source that evaluates *response* like the
    in-process testbench merge does.

    The wire carries text only.  The generated testbench mirrors every
    DUT port under the same name and adds only its extra items, so
    splicing those items and the fence-stripped response into the DUT's
    top module, right before its ``endmodule``, gives the same scope with
    the candidate as the design's last assertion, which is what a wire
    ``prove`` request proves.  ``scripts/bench_prover.py`` splices the
    same way; the benchmark keeps its own copy so that it stays fixed
    while the program and its scripts change.
    """
    import re

    from repro.sva.lexer import strip_code_fences
    lines = design.tb_source.splitlines()
    end = lines.index("endmodule")
    last_input = max(i for i, line in enumerate(lines[:end])
                     if line.lstrip().startswith("input"))
    tb_items = "\n".join(lines[last_input + 1:end])
    src = design.source
    start = re.search(rf"\bmodule\s+{re.escape(design.top)}\b", src).start()
    splice_at = src.index("endmodule", start)
    body = tb_items + "\n" + strip_code_fences(response)
    return src[:splice_at] + "\n" + body + "\n" + src[splice_at:]


@dataclass
class Arrival:
    phase: str
    due_s: float      # offset from the phase start (0 in closed loop)
    batch: int        # index into the batch pool
    repeat: bool


def _spread(n: int, k: int) -> list[bool]:
    """*n* slots with *k* of them marked, evenly spaced."""
    return [(i + 1) * k // n > i * k // n for i in range(n)]


def pool_kinds(size: int) -> list[bool]:
    """Whether each pool batch is a ``prove`` batch (else ``equivalence``):
    the prove batches are evenly spaced, so every prefix of the pool has
    the same mix."""
    return _spread(size, round(size * (1 - EQUIV_SHARE)))


def serve_schedule(seed: int, seconds: float) -> list[Arrival]:
    """The arrival schedule of one ``serve`` run.

    Each phase runs against freshly started servers, so each starts with
    a cold cache.  A phase sends each of the first batches of the pool
    once, and :data:`REPEAT_SHARE` of its arrivals (more, once a phase
    outgrows the pool) re-send a batch of the phase already sent.  The
    load profile is the same for every seed: repeats and the two batch
    kinds sit on evenly spaced arrivals, and the open-loop arrival times
    are one fixed Poisson realization (exponential gaps at evenly spaced
    quantiles).  The seed draws which batch of the right kind each
    arrival sends.
    """
    rng = random.Random(f"serve-schedule-{seed}")
    prove = pool_kinds(POOL_SIZE)
    arrivals: list[Arrival] = []
    for phase, per_30s in PHASE_ARRIVALS.items():
        total = max(2, round(per_30s * seconds / 30))
        fresh = min(POOL_SIZE, total - round(REPEAT_SHARE * total))
        repeats = total - fresh
        unsent = {kind: [b for b in range(fresh) if prove[b] == kind]
                  for kind in (False, True)}
        for batches in unsent.values():
            rng.shuffle(batches)
        sent: dict[bool, list[int]] = {False: [], True: []}
        fresh_kinds = iter(_spread(fresh, len(unsent[True])))
        repeat_kinds = iter(_spread(
            repeats, round(repeats * len(unsent[True]) / fresh)))
        gaps = [0.0] * total
        if phase != "closed":
            gaps = [-math.log(1 - (i + 0.5) / total) / RATES[phase]
                    for i in range(total)]
            random.Random(f"serve-gaps-{phase}").shuffle(gaps)
        due = 0.0
        for is_repeat, gap in zip(_spread(total, repeats), gaps):
            due += gap
            if is_repeat:
                kind = next(repeat_kinds)
                batch = rng.choice(sent[kind] or sent[not kind])
            else:
                kind = next(fresh_kinds)
                batch = unsent[kind].pop()
                sent[kind].append(batch)
            arrivals.append(Arrival(phase, due, batch, is_repeat))
    return arrivals


def serve_pool(size: int = POOL_SIZE,
               seed: int = POOL_SEED) -> list[list[dict]]:
    """*size* wire batches, each one problem's 5 samples: NL2SVA-Machine
    ``equivalence`` and Design2SVA ``fsm`` ``prove`` batches, interleaved
    in a seeded order.  Generating the responses runs the models layer,
    so it belongs to set-up."""
    from repro.datasets.design2sva.sweep import build_benchmark
    from repro.datasets.nl2sva_machine.critic import build_problems
    from repro.datasets.nl2sva_machine.generator import SIGNAL_WIDTHS
    from repro.models.base import GenerationRequest, SimulatedModel
    from repro.sva.lexer import strip_code_fences
    kinds = [not prove for prove in pool_kinds(size)]
    n_equiv = sum(kinds)
    n_prove = size - n_equiv
    machine = build_problems(n_equiv, seed)
    designs = build_benchmark("fsm", n_prove, seed)
    models = {name: SimulatedModel(name) for name in DESIGN_MODELS}

    def generate(task, problem, index, total):
        model = models[DESIGN_MODELS[index % len(DESIGN_MODELS)]]
        widths = dict(SIGNAL_WIDTHS) if task == "nl2sva_machine" else {}
        return model.name, model.generate(GenerationRequest(
            task=task, problem=problem, n_samples=SAMPLES,
            temperature=TEMPERATURE, widths=widths,
            quantile=(index + 0.5) / total))

    pool = []
    equiv_iter = iter(enumerate(machine))
    prove_iter = iter(enumerate(designs))
    for is_equiv in kinds:
        if is_equiv:
            i, problem = next(equiv_iter)
            model, responses = generate("nl2sva_machine", problem, i,
                                        n_equiv)
            pool.append([{"kind": "equivalence", "reference": problem.sva,
                          "candidate": strip_code_fences(r),
                          "widths": dict(SIGNAL_WIDTHS),
                          "cache_ns": "nl2sva_machine",
                          "request_id": f"{problem.problem_id}/{model}/{j}"}
                         for j, r in enumerate(responses)])
        else:
            i, design = next(prove_iter)
            model, responses = generate("design2sva", design, i, n_prove)
            pool.append([{"kind": "prove",
                          "source": wire_source(design, r),
                          "top": design.top, "engine": dict(DESIGN_PROVER),
                          "cache_ns": f"design2sva_{design.category}",
                          "request_id": f"{design.instance_id}/{model}/{j}"}
                         for j, r in enumerate(responses)])
    return pool


def reference_verdicts(pool) -> list[list[tuple]]:
    """In-process ``VerificationService.run`` on every pool batch: the
    verdicts the wire answers are checked against (through the pin)."""
    from repro.service import VerificationService
    from repro.service.api import request_from_json
    service = VerificationService()
    try:
        return [[(r.verdict, r.func, r.partial) for r in service.run(
                    [request_from_json(dict(item)) for item in batch])]
                for batch in pool]
    finally:
        service.close()


def serve_records(pool) -> tuple[list, dict]:
    """The record lines and verdict mix of :func:`reference_verdicts` of
    *pool*: what ``--pin`` stores for ``serve``."""
    reference = reference_verdicts(pool)
    lines = [record_line("serve", str(b), j, True, *answer)
             for b, batch in enumerate(reference)
             for j, answer in enumerate(batch)]
    mix: dict = {}
    for batch in reference:
        for verdict, _, _ in batch:
            mix[verdict] = mix.get(verdict, 0) + 1
    return lines, mix


class Servers:
    """The router and its one replica, each in its own process.

    stderr of both goes to files under *workdir* (a pipe could fill and
    stall a server); the listen banners there give the ephemeral ports.
    With *spans_out*, the replica starts through ``replica.py``, which
    installs the tracer and writes the replica's spans there on drain;
    its spans, like :meth:`counters`, start after the warm-up batch.
    """

    def __init__(self, root: Path, workdir: Path, env: dict,
                 spans_out: Path | None = None):
        self.procs: list[subprocess.Popen] = []
        self._logs = []
        workdir.mkdir(parents=True, exist_ok=True)
        if spans_out is None:
            replica_cmd = [sys.executable, "-m", "repro"]
        else:
            replica_cmd = [sys.executable,
                           str(Path(__file__).with_name("replica.py")),
                           "--spans-out", str(spans_out)]
        try:
            self.replica = self._start(
                replica_cmd + ["serve", "--http", "127.0.0.1:0"],
                workdir / "replica.log", "serving on http://", root, env)
            self.router = self._start(
                [sys.executable, "-m", "repro", "route", "--replicas",
                 self.replica[1], "--listen", "127.0.0.1:0"],
                workdir / "router.log", "routing on http://", root, env)
            _wait_ready(self.router[1])
            conn = http.client.HTTPConnection(*_split(self.router[1]),
                                              timeout=60)
            try:
                status, _ = _post(conn, json.dumps(WARMUP).encode())
            finally:
                conn.close()
            if status != 200:
                raise RuntimeError(f"warm-up batch answered HTTP {status}")
            if spans_out is not None:
                _reset_spans(self.replica[0], spans_out)
            self._baseline = self._counters()
        except BaseException:
            self.stop()
            raise

    @property
    def address(self) -> str:
        return self.router[1]

    @property
    def pids(self) -> dict:
        return {"replica": self.replica[0].pid, "router": self.router[0].pid}

    def _start(self, cmd, log: Path, banner: str, root: Path, env: dict):
        fh = open(log, "w+")
        self._logs.append(fh)
        proc = subprocess.Popen(cmd, cwd=root, env=env,
                                stdout=subprocess.DEVNULL, stderr=fh)
        self.procs.append(proc)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise RuntimeError(f"{cmd[1:4]} exited {proc.returncode}: "
                                   f"{log.read_text()[-400:]}")
            for line in log.read_text().splitlines():
                if line.startswith(banner):
                    address = line[len(banner):].strip()
                    _wait_ready(address)
                    return proc, address
            time.sleep(0.01)
        raise RuntimeError(f"{cmd[1:4]} did not start")

    def _counters(self) -> dict:
        replica = _get_json(self.replica[1], "/metrics")["admission"]
        router = _get_json(self.router[1], "/metrics")
        return {"http.admitted_units": replica["admitted_units"],
                "http.shed_units": replica["shed_units"],
                "http.peak_inflight": replica["peak_inflight"],
                "router.forwarded": sum(rep["routed"] for rep
                                        in router["replicas"].values()),
                "router.failovers": router["failovers"]}

    def counters(self) -> dict:
        """The servers' /metrics counters since the warm-up batch
        (``http.peak_inflight`` is a peak, so it includes it)."""
        now = self._counters()
        return {key: value if key == "http.peak_inflight"
                else value - self._baseline[key]
                for key, value in now.items()}

    def stop(self) -> list[int]:
        """SIGTERM-drain router then replica; wait for both to exit."""
        codes = []
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                codes.append(proc.wait(timeout=30))
            except subprocess.TimeoutExpired:
                proc.kill()
                codes.append(proc.wait())
        self.procs = []
        for fh in self._logs:
            fh.close()
        self._logs = []
        return codes


def _reset_spans(proc: subprocess.Popen, spans_out: Path) -> None:
    """Ask the traced replica to drop the spans recorded so far and wait
    until it has."""
    done = spans_out.with_suffix(".reset")
    done.unlink(missing_ok=True)
    proc.send_signal(signal.SIGUSR1)
    deadline = time.monotonic() + 30
    while not done.exists():
        if time.monotonic() > deadline or proc.poll() is not None:
            raise RuntimeError("traced replica did not reset its spans")
        time.sleep(0.005)


def _split(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    return host, int(port)


def _get_json(address: str, path: str) -> dict:
    conn = http.client.HTTPConnection(*_split(address), timeout=10)
    try:
        conn.request("GET", path)
        reply = conn.getresponse()
        body = reply.read()
        if reply.status != 200:
            raise RuntimeError(f"GET {path}: HTTP {reply.status}")
        return json.loads(body)
    finally:
        conn.close()


def _wait_ready(address: str, timeout_s: float = 60.0) -> None:
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            _get_json(address, "/readyz")
            return
        except (OSError, RuntimeError, http.client.HTTPException):
            if time.monotonic() > deadline:
                raise
            time.sleep(0.01)


def proc_cpu_s(pid: int) -> float:
    """User+system CPU seconds of a live process, from /proc."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@dataclass
class Reply:
    arrival: Arrival
    due: float        # absolute perf_counter time the request was due
    sent: float
    done: float
    status: int
    answers: list     # (verdict, func, partial) per sample, or []

    @property
    def ok(self) -> bool:
        """Answered, with no failed sample."""
        return self.status == 200 and not any(
            verdict in FAILED_VERDICTS for verdict, _, _ in self.answers)

    @property
    def latency_ms(self) -> float:
        return 1000.0 * (self.done - self.due)


def _post(conn, body: bytes) -> tuple[int, list]:
    conn.request("POST", "/v1/verify", body,
                 {"Content-Type": "application/json"})
    reply = conn.getresponse()
    payload = reply.read()
    if reply.status != 200:
        return reply.status, []
    return 200, [(a["verdict"], a["func"], a["partial"])
                 for a in json.loads(payload)]


def closed_loop(address: str, bodies: list[bytes],
                arrivals) -> tuple[list[Reply], list[float]]:
    """One caller on one connection, each batch sent when the previous
    one is answered.  Returns the replies and the host's
    :meth:`HostSpeed.scales` of each, probed between requests."""
    conn = http.client.HTTPConnection(*_split(address), timeout=120)
    out = []
    host = HostSpeed()
    try:
        for arrival in arrivals:
            sent = time.perf_counter()
            status, answers = _post(conn, bodies[arrival.batch])
            out.append(Reply(arrival, sent, sent, time.perf_counter(),
                             status, answers))
            host.tick(len(out))
    finally:
        conn.close()
    return out, host.scales(len(out))


def open_loop(address: str, bodies: list[bytes], arrivals,
              connections: int = 2) -> tuple[list[Reply], list[float]]:
    """Send each arrival at its due time on one of *connections*
    keep-alive connections, whether or not earlier ones were answered.

    Returns the replies and how late (ms) the generator released each
    arrival.  Latency counts from the due time, so a request that waited
    for a free connection carries that wait.
    """
    pending: "queue.Queue" = queue.Queue()
    replies: list[Reply] = []
    lock = threading.Lock()

    def sender():
        conn = http.client.HTTPConnection(*_split(address), timeout=120)
        try:
            while True:
                item = pending.get()
                if item is None:
                    return
                arrival, due = item
                sent = time.perf_counter()
                try:
                    status, answers = _post(conn, bodies[arrival.batch])
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection(*_split(address),
                                                      timeout=120)
                    status, answers = 0, []
                reply = Reply(arrival, due, sent, time.perf_counter(),
                              status, answers)
                with lock:
                    replies.append(reply)
        finally:
            conn.close()

    threads = [threading.Thread(target=sender, daemon=True)
               for _ in range(connections)]
    for thread in threads:
        thread.start()
    late_ms = []
    start = time.perf_counter()
    try:
        for arrival in arrivals:
            due = start + arrival.due_s
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            late_ms.append(1000.0 * (time.perf_counter() - due))
            pending.put((arrival, due))
    finally:
        for _ in threads:
            pending.put(None)
        for thread in threads:
            thread.join(300)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("open-loop senders did not finish")
    return replies, late_ms
