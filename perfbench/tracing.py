"""Outside-in per-layer tracing for the benchmark.

The program is not instrumented: :class:`Tracer` wraps the public
functions of each layer from the outside.  A function is looked up where
it is defined and the wrapper is bound at *every* ``repro`` module that
holds the same function object (``from x import f`` copies the binding),
so calls through any import path are seen.  Each call is one span with
its parent span; spans are aggregated in memory as they close, so a
layer's self time is exact: its inclusive time minus the time of the
wrapped calls made inside it.

``install()`` must run after the program's modules are imported (see
:func:`import_program`); ``restore()`` puts every original binding back.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import pkgutil
import sys
import threading
import time

#: (span name, defining module, attribute) -- ``Class.method`` wraps the
#: method on its class.  Span names are the layer metric prefixes.
TARGETS = (
    ("models.generate", "repro.models.base", "SimulatedModel.generate"),
    ("sva.tokenize", "repro.sva.lexer", "tokenize"),
    ("sva.parse_assertion", "repro.sva.parser", "parse_assertion"),
    ("sva.canonical_key", "repro.sva.canonical", "canonical_key"),
    ("sva.check_assertion_syntax", "repro.sva.syntax",
     "check_assertion_syntax"),
    ("rtl.parse_rtl", "repro.rtl.parser", "parse_rtl"),
    ("rtl.elaborate", "repro.rtl.elaborate", "elaborate"),
    ("datasets.build_problems", "repro.datasets.nl2sva_machine.critic",
     "build_problems"),
    ("datasets.build_benchmark", "repro.datasets.design2sva.sweep",
     "build_benchmark"),
    ("datasets.merge_for_eval", "repro.datasets.design2sva.testbench_gen",
     "merge_for_eval"),
    ("formal.equiv_check", "repro.formal.equivalence", "EquivChecker.check"),
    ("formal.check_equivalence", "repro.formal.equivalence",
     "check_equivalence"),
    ("formal.solver.solve", "repro.formal.sat", "Solver.solve"),
    ("formal.prove", "repro.formal.prover", "Prover.prove"),
    ("service.presimulate", "repro.service.batch", "presimulate"),
    ("service.run", "repro.service.service", "VerificationService.run"),
    ("cache.get", "repro.core.cache", "VerdictCache.get"),
    ("cache.put", "repro.core.cache", "VerdictCache.put"),
    ("eval.sentence_bleu", "repro.eval.metrics", "sentence_bleu"),
)

MODELS_SPAN = "models.generate"


def import_program() -> None:
    """Import every ``repro`` module, so that every binding exists before
    :meth:`Tracer.install` scans for it."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":
            importlib.import_module(info.name)


class Span:
    """Aggregate of all closed spans of one name."""

    __slots__ = ("calls", "total_s", "self_s", "failed", "outside_models")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.failed = 0
        #: calls with no ``models.generate`` span above them
        self.outside_models = 0


class Tracer:
    """Wraps the :data:`TARGETS` and aggregates their spans."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        #: (parent span name, span name) -> [calls, inclusive seconds]
        self.edges: dict[tuple, list] = {}
        #: digests of the distinct texts passed to ``parse_rtl``
        self.rtl_sources: set[str] = set()
        #: every VerificationService whose ``run`` was called
        self.services: dict[int, object] = {}
        #: their counters at the last :meth:`reset`
        self._baseline: dict[int, dict] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple] = []

    # -- install / restore ----------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "repro" or name.startswith("repro.")]
        for name, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def restore(self) -> None:
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def reset(self) -> None:
        """Drop the spans recorded so far, and count service counters
        from now on.  Call it while no traced call is running."""
        self.spans, self.edges, self.rtl_sources = {}, {}, set()
        self._baseline = {key: service_counters(service)
                          for key, service in self.services.items()}

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- spans ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            in_models = (name == MODELS_SPAN
                         or (parent is not None and parent[2]))
            frame = [name, 0.0, in_models]
            stack.append(frame)
            if hook is not None:
                hook(self, args)
            failed = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                self._close(name, parent[0] if parent else None, elapsed,
                            elapsed - frame[1], failed, in_models)
        return traced

    def _close(self, name, parent, elapsed, self_s, failed,
               in_models) -> None:
        with self._lock:
            span = self.spans.get(name)
            if span is None:
                span = self.spans[name] = Span()
            span.calls += 1
            span.total_s += elapsed
            span.self_s += self_s
            span.failed += failed
            span.outside_models += not in_models
            edge = self.edges.get((parent, name))
            if edge is None:
                edge = self.edges[(parent, name)] = [0, 0.0]
            edge[0] += 1
            edge[1] += elapsed

    # -- serialization (the traced serve replica writes this on drain) ---------

    def to_json(self) -> dict:
        return {
            "spans": {name: {"calls": s.calls, "total_s": s.total_s,
                             "self_s": s.self_s, "failed": s.failed,
                             "outside_models": s.outside_models}
                      for name, s in self.spans.items()},
            "edges": [[parent, name, calls, seconds] for (parent, name),
                      (calls, seconds) in self.edges.items()],
            "rtl_sources": sorted(self.rtl_sources),
            "services": [_since(service_counters(s), self._baseline.get(key))
                         for key, s in self.services.items()],
        }


def _since(now: dict, then: dict | None) -> dict:
    return now if then is None else {k: v - then.get(k, 0)
                                     for k, v in now.items()}


def _note_rtl_source(tracer: Tracer, args) -> None:
    if args and isinstance(args[0], str):
        tracer.rtl_sources.add(
            hashlib.sha1(args[0].encode()).hexdigest())


def _note_service(tracer: Tracer, args) -> None:
    if args:
        tracer.services.setdefault(id(args[0]), args[0])


_HOOKS = {"rtl.parse_rtl": _note_rtl_source,
          "service.run": _note_service}


#: VerificationService scheduling counters reported per layer
SERVICE_KEYS = ("requests", "dedup_hits", "batch_groups", "batch_members",
                "prover_hits", "prover_builds", "equiv_hits", "equiv_builds")
#: engine profile counters (the prover's ``profile`` dict, which the
#: service shares with every prover and equivalence pool it builds)
PROFILE_KEYS = ("sim_s", "bmc_s", "kind_s", "encode_s", "sat_s", "conflicts",
                "propagations", "sim_batch_passes", "win_simulation",
                "win_bmc", "win_k-induction", "equiv_sessions",
                "equiv_candidates")


def service_counters(service) -> dict:
    """The counters of one VerificationService that the layer metrics
    read: scheduling, verdict-cache hits and misses, engine profile."""
    stats = service.stats()
    cache = stats.get("cache") or {}
    profile = getattr(service, "profile", None) or {}
    out = {key: stats.get(key, 0) for key in SERVICE_KEYS}
    out["cache_hits"] = cache.get("hits", 0)
    out["cache_misses"] = cache.get("misses", 0)
    out.update({f"profile.{key}": profile.get(key, 0)
                for key in PROFILE_KEYS})
    return out
