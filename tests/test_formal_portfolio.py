"""Portfolio proving: budgeted solving, ladder scheduling, strategy parity.

Three layers of guarantees:

* ``sat.Solver`` honours ``conflict_budget`` / ``interrupt()`` (the
  primitives the scheduler is built on);
* the ``strategy`` configurations are sound -- in particular a k-induction
  step-case proof is never accepted before its base cases are discharged;
* ``strategy="portfolio"`` verdicts are record-identical (status, engine,
  depth, vacuity, detail) to the sequential ``strategy="auto"`` oracle,
  across handcrafted designs and the Design2SVA bench generators.
"""

import random

import pytest

from repro.core.runner import RunConfig, run_model_on_task
from repro.core.tasks import Design2SvaTask
from repro.datasets.design2sva.arbiter_gen import (
    arbiter_correct_response,
    arbiter_flawed_response,
)
from repro.datasets.design2sva.sweep import build_benchmark
from repro.datasets.design2sva.testbench_gen import merge_for_eval
from repro.formal.portfolio import DEFAULT_LADDER, PortfolioScheduler
from repro.formal.prover import Prover
from repro.formal.sat import Solver
from repro.models import design_assist
from repro.rtl.elaborate import elaborate
from repro.rtl.parser import parse_rtl
from repro.sva.lexer import strip_code_fences
from repro.sva.parser import parse_assertion

COUNTER = """
module m; input clk, reset_, en; output reg [3:0] q;
always @(posedge clk) begin
  if (!reset_) q <= 'd0;
  else if (en) q <= q + 'd1;
end
endmodule
"""

# inductive invariant with a base-case violation: ``latch == 1`` is
# preserved by every step (set only ever raises it) but false at the
# post-reset initial state -- the classic trap for induction without base
STICKY = """
module m; input clk, reset_, set; output reg latch;
always @(posedge clk) begin
  if (!reset_) latch <= 1'b0;
  else if (set) latch <= 1'b1;
end
endmodule
"""

_D = "assert property (@(posedge clk) disable iff (!reset_) "

COUNTER_ASSERTS = [
    _D + "q <= 4'd15);",                          # proven invariant
    _D + "(!en) |-> ##1 (q == $past(q)));",       # proven step property
    _D + "q != 4'd3);",                           # cex
    _D + "q < 4'd2);",                            # cex (easy)
    _D + "en |-> strong(##[0:$] (q == 4'd0)));",  # liveness: undetermined
]

#: CI-subset prover settings for the generated-design parity sweeps
GEN_KWARGS = dict(max_bmc=6, max_k=4, sim_traces=6, sim_cycles=20)


def record_fields(result):
    return (result.status, result.engine, result.depth, result.vacuous,
            result.detail)


def assert_parity(design, assertion, assumes=(), **kwargs):
    auto = Prover(design, strategy="auto", **kwargs).prove(
        assertion, assumes=assumes)
    portfolio = Prover(design, strategy="portfolio", **kwargs).prove(
        assertion, assumes=assumes)
    assert record_fields(auto) == record_fields(portfolio), (
        auto, portfolio)
    return auto, portfolio


# ---------------------------------------------------------------------------
# solver primitives
# ---------------------------------------------------------------------------


def _php_clauses(holes: int):
    """Pigeonhole principle CNF (unsat, needs exponentially many conflicts):
    holes+1 pigeons into *holes* holes."""
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


class TestSolverBudget:
    def test_conflict_budget_limits_search(self):
        nv, clauses = _php_clauses(5)
        result = Solver(nv, clauses).solve(conflict_budget=3)
        assert result.status == "unknown"
        assert result.limit == "conflicts"
        assert result.conflicts <= 3 + 1

    def test_budget_is_per_call_and_retry_completes(self):
        nv, clauses = _php_clauses(4)
        solver = Solver(nv, clauses)
        first = solver.solve(conflict_budget=2)
        assert first.status == "unknown"
        # restart-and-deepen: same solver, bigger budget, learned clauses
        # from the failed attempt retained
        second = solver.solve(conflict_budget=100_000)
        assert second.status == "unsat"
        assert second.limit == ""

    def test_tighter_of_both_bounds_applies(self):
        nv, clauses = _php_clauses(5)
        result = Solver(nv, clauses).solve(max_conflicts=100_000,
                                           conflict_budget=3)
        assert result.status == "unknown" and result.limit == "conflicts"
        result = Solver(nv, clauses).solve(max_conflicts=3,
                                           conflict_budget=100_000)
        assert result.status == "unknown" and result.limit == "conflicts"

    def test_interrupt_stops_and_solver_survives(self):
        nv, clauses = _php_clauses(4)
        solver = Solver(nv, clauses)
        solver.interrupt()
        result = solver.solve()
        assert result.status == "unknown"
        assert result.limit == "interrupt"
        # sticky until cleared
        assert solver.solve().limit == "interrupt"
        solver.clear_interrupt()
        assert solver.solve().status == "unsat"

    def test_budget_does_not_affect_sat(self):
        result = Solver(2, [[1, 2], [-1, 2]]).solve(conflict_budget=1)
        assert result.is_sat


# ---------------------------------------------------------------------------
# strategy configurations
# ---------------------------------------------------------------------------


class TestStrategyConfig:
    def test_unknown_strategy_rejected(self):
        design = elaborate(COUNTER)
        with pytest.raises(ValueError, match="unknown strategy"):
            Prover(design, strategy="magic")

    @pytest.mark.parametrize("strategy", ["kind", "portfolio"])
    def test_incremental_required(self, strategy):
        design = elaborate(COUNTER)
        with pytest.raises(ValueError, match="incremental"):
            Prover(design, strategy=strategy, use_incremental=False)

    def test_bmc_strategy(self):
        design = elaborate(COUNTER)
        prover = Prover(design, strategy="bmc", use_simulation=False)
        proven = parse_assertion(COUNTER_ASSERTS[0])
        flawed = parse_assertion(COUNTER_ASSERTS[2])
        r = prover.prove(proven)
        assert r.status == "undetermined" and r.engine == "bmc"
        assert "no counterexample within bound" in r.detail
        assert prover.prove(flawed).status == "cex"

    def test_kind_strategy_proves(self):
        design = elaborate(COUNTER)
        prover = Prover(design, strategy="kind", use_simulation=False)
        r = prover.prove(parse_assertion(COUNTER_ASSERTS[0]))
        assert r.is_proven and r.engine == "k-induction"

    def test_kind_strategy_discharges_base_cases(self):
        """Inductive step + violated base must be a cex, never 'proven'."""
        design = elaborate(STICKY)
        assertion = parse_assertion(
            "assert property (@(posedge clk) disable iff (!reset_) "
            "latch == 1'b1);")
        for strategy in ("auto", "kind", "portfolio"):
            r = Prover(design, strategy=strategy,
                       use_simulation=False).prove(assertion)
            assert r.status == "cex", (strategy, r)

    def test_win_accounting(self):
        design = elaborate(COUNTER)
        prover = Prover(design, strategy="auto")
        prover.prove(parse_assertion(COUNTER_ASSERTS[0]))
        prover.prove(parse_assertion(COUNTER_ASSERTS[2]))
        prover.prove(parse_assertion(COUNTER_ASSERTS[4]))
        assert prover.profile.get("win_k-induction", 0) == 1
        assert prover.profile.get("win_simulation", 0) == 1
        assert prover.profile.get("win_none", 0) == 1


# ---------------------------------------------------------------------------
# portfolio scheduler
# ---------------------------------------------------------------------------


class TestPortfolioScheduler:
    @pytest.fixture(scope="class")
    def design(self):
        return elaborate(COUNTER)

    @pytest.mark.parametrize("text", COUNTER_ASSERTS)
    def test_counter_parity(self, design, text):
        assert_parity(design, parse_assertion(text))

    @pytest.mark.parametrize("text", COUNTER_ASSERTS)
    def test_counter_parity_sat_only(self, design, text):
        """Simulation disabled: every verdict must come from the raced
        SAT strategies themselves."""
        assert_parity(design, parse_assertion(text), use_simulation=False)

    def test_ladder_is_clipped_to_max_conflicts(self, design):
        prover = Prover(design, strategy="portfolio", max_conflicts=5_000)
        sched = PortfolioScheduler(prover, design,
                                   frozenset(design.widths),
                                   parse_assertion(COUNTER_ASSERTS[0]))
        assert sched.rungs == [1_000, 5_000]
        assert sched.rungs[-1] == prover.max_conflicts

    def test_custom_ladder(self, design):
        prover = Prover(design, strategy="portfolio",
                        portfolio_ladder=(2, 50), use_simulation=False)
        r = prover.prove(parse_assertion(COUNTER_ASSERTS[1]))
        assert r.is_proven  # tiny rungs requeue but the cap rung decides
        assert prover.profile.get("portfolio_solves", 0) > 0

    def test_default_ladder_exported(self):
        assert DEFAULT_LADDER == (1_000, 8_000, 64_000)

    def test_budget_exhaustion_matches_auto(self, design):
        """With a 1-conflict ceiling both schedulers give up identically."""
        assertion = parse_assertion(COUNTER_ASSERTS[1])
        auto, portfolio = assert_parity(design, assertion,
                                        use_simulation=False,
                                        max_conflicts=1)
        assert auto.status == "undetermined"
        assert "conflict budget exhausted" in auto.detail

    def test_proof_cancels_deeper_bmc_probes(self, design):
        # pinned to the ladder scheduler: whether the *threaded* race
        # cancels anything here depends on thread timing (covered by
        # TestThreadedPortfolio), while the ladder's requeue cancel is
        # deterministic
        prover = Prover(design, strategy="portfolio", use_simulation=False,
                        max_bmc=10, portfolio_threads=0)
        r = prover.prove(parse_assertion(COUNTER_ASSERTS[1]))
        assert r.is_proven
        # proven at small k: the BMC depths beyond k were never solved
        assert prover.profile.get("portfolio_cancelled", 0) > 0

    def test_assumption_parity(self):
        design = elaborate(STICKY)
        assertion = parse_assertion(
            "assert property (@(posedge clk) disable iff (!reset_) "
            "set |-> ##1 latch);")
        assumes = (parse_assertion(
            "assume property (@(posedge clk) disable iff (!reset_) set);"),)
        assert_parity(design, assertion, assumes=assumes)


# ---------------------------------------------------------------------------
# threaded portfolio: OS-thread race with interrupt-driven cancellation
# ---------------------------------------------------------------------------


def assert_threaded_parity(design, assertion, assumes=(), **kwargs):
    """Threaded race vs the sequential ladder vs auto: same record."""
    ladder = Prover(design, strategy="portfolio", portfolio_threads=0,
                    **kwargs).prove(assertion, assumes=assumes)
    threaded = Prover(design, strategy="portfolio", portfolio_threads=2,
                      **kwargs).prove(assertion, assumes=assumes)
    assert record_fields(ladder) == record_fields(threaded), (
        ladder, threaded)
    auto = Prover(design, strategy="auto", **kwargs).prove(
        assertion, assumes=assumes)
    assert record_fields(auto) == record_fields(threaded), (auto, threaded)
    return threaded


class TestThreadedPortfolio:
    @pytest.fixture(scope="class")
    def design(self):
        return elaborate(COUNTER)

    @pytest.mark.parametrize("text", COUNTER_ASSERTS)
    def test_counter_parity(self, design, text):
        assert_threaded_parity(design, parse_assertion(text))

    @pytest.mark.parametrize("text", COUNTER_ASSERTS)
    def test_counter_parity_sat_only(self, design, text):
        """Simulation disabled: the verdict must come from the race."""
        assert_threaded_parity(design, parse_assertion(text),
                               use_simulation=False)

    def test_sticky_base_case_trap(self):
        """The threaded race must also withhold a step-case proof until
        the base cases are discharged: inductive invariant + violated
        base is a cex, never 'proven'."""
        design = elaborate(STICKY)
        assertion = parse_assertion(
            "assert property (@(posedge clk) disable iff (!reset_) "
            "latch == 1'b1);")
        r = Prover(design, strategy="portfolio", portfolio_threads=2,
                   use_simulation=False).prove(assertion)
        assert r.status == "cex"

    def test_assumption_parity(self):
        design = elaborate(STICKY)
        assertion = parse_assertion(
            "assert property (@(posedge clk) disable iff (!reset_) "
            "set |-> ##1 latch);")
        assumes = (parse_assertion(
            "assume property (@(posedge clk) disable iff (!reset_) "
            "set);"),)
        assert_threaded_parity(design, assertion, assumes=assumes)

    def test_budget_exhaustion_parity(self, design):
        r = assert_threaded_parity(design,
                                   parse_assertion(COUNTER_ASSERTS[1]),
                                   use_simulation=False, max_conflicts=1)
        assert r.status == "undetermined"
        assert "conflict budget exhausted" in r.detail

    def test_interrupt_cancellation_observable(self, design):
        """The winning side cancels the loser: with 61 BMC depths racing
        a small-k induction proof the induction thread wins long before
        BMC drains its queue, and the dropped probes (and any interrupt
        delivered mid-solve) are visible in the profile counters."""
        assertion = parse_assertion(COUNTER_ASSERTS[1])
        for _attempt in range(3):  # timing-dependent; retry, never flake
            prover = Prover(design, strategy="portfolio",
                            portfolio_threads=2, use_simulation=False,
                            max_bmc=60)
            r = prover.prove(assertion)
            assert r.is_proven and r.engine == "k-induction"
            assert prover.profile.get("portfolio_solves", 0) > 0
            if (prover.profile.get("portfolio_cancelled", 0) > 0
                    or prover.profile.get("portfolio_interrupts", 0) > 0):
                return
        raise AssertionError(
            "no race ever cancelled the losing strategy: "
            f"profile={prover.profile}")

    def test_sessions_survive_the_race(self, design):
        """Interrupt flags are cleared post-join: the same prover keeps
        proving correctly after a race, including the vacuity check on
        the reachable-init session."""
        prover = Prover(design, strategy="portfolio", portfolio_threads=2,
                        use_simulation=False)
        first = prover.prove(parse_assertion(COUNTER_ASSERTS[2]))
        assert first.status == "cex"
        again = prover.prove(parse_assertion(COUNTER_ASSERTS[0]))
        assert again.is_proven
        # vacuously-true implication: the post-race vacuity solve must
        # run on a cleared solver, not report a stale interrupt
        vac = prover.prove(parse_assertion(
            _D + "(q == 4'd9 && q == 4'd2) |-> ##1 en);"))
        assert vac.is_proven and vac.vacuous

    def test_env_var_enables_threads(self, design, monkeypatch):
        monkeypatch.setenv("FVEVAL_PORTFOLIO_THREADS", "2")
        assert Prover(design, strategy="portfolio").portfolio_threads == 2
        # explicit configuration beats the environment
        assert Prover(design, strategy="portfolio",
                      portfolio_threads=0).portfolio_threads == 0
        monkeypatch.delenv("FVEVAL_PORTFOLIO_THREADS")
        assert Prover(design, strategy="portfolio").portfolio_threads == 0

    @pytest.mark.parametrize("category", ["fsm", "arbiter"])
    def test_bench_workload_parity(self, category):
        for design, assertion in _bench_workload(category, 2):
            assert_threaded_parity(design, assertion, **GEN_KWARGS)

    def test_task_records_identical(self):
        """End-to-end through Design2SvaTask: records under the threaded
        portfolio match the sequential auto engine field for field."""
        def run(kwargs):
            task = Design2SvaTask("fsm", count=3, use_cache=False,
                                  prover_kwargs=dict(GEN_KWARGS, **kwargs))
            result = run_model_on_task("gpt-4o", task,
                                       RunConfig(n_samples=2,
                                                 temperature=0.8))
            return [(r.problem_id, r.sample_idx, r.syntax_ok, r.verdict,
                     r.func, r.partial, r.detail, r.meta.get("engine"),
                     r.meta.get("depth"), r.meta.get("vacuous"))
                    for r in result.records]

        assert run({}) == run({"strategy": "portfolio",
                               "portfolio_threads": 2})


# ---------------------------------------------------------------------------
# bench-suite parity (the acceptance criterion)
# ---------------------------------------------------------------------------


def _bench_workload(category: str, count: int):
    """The exact (design, response) pairs scripts/bench_prover.py proves."""
    for i, generated in enumerate(build_benchmark(category, count, 0)):
        rng = random.Random(i)
        if category == "arbiter":
            responses = [arbiter_correct_response(generated, rng),
                         arbiter_flawed_response(generated, rng)]
        else:
            responses = [design_assist.correct_response(generated, rng),
                         design_assist.flawed_response(generated, rng)]
        for response in responses:
            merged = merge_for_eval(parse_rtl(generated.source),
                                    parse_rtl(generated.tb_source),
                                    generated.top,
                                    strip_code_fences(response))
            design = elaborate(merged.source_file, top=merged.top)
            yield design, design.assertions[-1]


class TestBenchSuiteParity:
    @pytest.mark.parametrize("category", ["fsm", "pipeline", "arbiter"])
    def test_record_identical_to_auto(self, category):
        statuses = set()
        for design, assertion in _bench_workload(category, 4):
            auto, _ = assert_parity(design, assertion, **GEN_KWARGS)
            statuses.add(auto.status)
        assert {"proven", "cex"} <= statuses  # the sweep exercises both

    def test_task_records_identical(self):
        """End-to-end through Design2SvaTask: every EvalRecord field that
        feeds the tables is identical under the portfolio."""
        def run(strategy):
            task = Design2SvaTask("fsm", count=4, use_cache=False,
                                  strategy=strategy,
                                  prover_kwargs=dict(GEN_KWARGS))
            result = run_model_on_task("gpt-4o", task,
                                       RunConfig(n_samples=2,
                                                 temperature=0.8))
            return [(r.problem_id, r.sample_idx, r.syntax_ok, r.verdict,
                     r.func, r.partial, r.detail, r.meta.get("engine"),
                     r.meta.get("depth"), r.meta.get("vacuous"))
                    for r in result.records]

        assert run("auto") == run("portfolio")

    def test_portfolio_under_fveval_jobs(self, monkeypatch):
        """Problem-level fan-out composes with the portfolio scheduler."""
        def run():
            task = Design2SvaTask("fsm", count=4, use_cache=False,
                                  strategy="portfolio",
                                  prover_kwargs=dict(GEN_KWARGS))
            result = run_model_on_task("gpt-4o", task, RunConfig())
            return [(r.problem_id, r.verdict, r.func) for r in result.records]

        monkeypatch.delenv("FVEVAL_JOBS", raising=False)
        serial = run()
        monkeypatch.setenv("FVEVAL_JOBS", "2")
        assert run() == serial

    def test_strategy_in_engine_cache_key(self):
        auto = Design2SvaTask("fsm", strategy="auto")
        portfolio = Design2SvaTask("fsm", strategy="portfolio")
        default = Design2SvaTask("fsm")
        assert default._engine != portfolio._engine
        # an explicit default strategy shares cache entries with an
        # unconfigured task -- same engine, same key
        assert auto._engine == default._engine
