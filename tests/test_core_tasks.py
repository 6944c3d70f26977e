"""Task-level evaluation tests (prompt construction + verdict plumbing)."""

import pytest

from repro.core.tasks import (
    Design2SvaTask, Nl2SvaHumanTask, Nl2SvaMachineTask,
)


class TestHumanTask:
    def test_prompt_contains_testbench_and_rules(self, human_task):
        p = human_task.problems()[0]
        prompt = human_task.prompt(p)
        assert "module fifo_1r1w_tb" in prompt
        assert "```systemverilog" in prompt
        assert p.question in prompt

    def test_evaluate_reference_is_equivalent(self, human_task):
        p = human_task.problems()[0]
        rec = human_task.evaluate(p, f"```systemverilog\n{p.reference}\n```")
        assert rec.syntax_ok and rec.func and rec.partial

    def test_evaluate_garbage(self, human_task):
        p = human_task.problems()[0]
        rec = human_task.evaluate(p, "not even verilog")
        assert not rec.syntax_ok and rec.verdict == "syntax_error"

    def test_evaluate_partial(self, human_task):
        p = [x for x in human_task.problems()
             if x.problem_id == "fifo_1r1w_4"][0]
        weak = ("assert property (@(posedge clk) disable iff (tb_reset) "
                "wr_push |-> ##[1:$] rd_pop);")
        rec = human_task.evaluate(p, weak)
        assert rec.partial and not rec.func

    def test_evaluate_unresolved_signal(self, human_task):
        p = human_task.problems()[0]
        rec = human_task.evaluate(
            p, "assert property (@(posedge clk) ghost |-> rd_pop);")
        assert not rec.syntax_ok


class TestMachineTask:
    @pytest.fixture(scope="class")
    def task(self):
        return Nl2SvaMachineTask(count=12)

    def test_problem_count(self, task):
        assert len(task.problems()) == 12

    def test_prompt_shots(self, task):
        p = task.problems()[0]
        p0 = task.prompt(p, shots=0)
        p3 = task.prompt(p, shots=3)
        assert "examples of correct translations" not in p0
        assert p3.count("Question:") == 4

    def test_evaluate_reference(self, task):
        p = task.problems()[0]
        rec = task.evaluate(p, p.sva)
        assert rec.func, (p.sva, rec.detail)

    def test_evaluate_hallucinated_operator(self, task):
        p = task.problems()[0]
        rec = task.evaluate(
            p, "assert property (@(posedge clk) eventually(sig_A));")
        assert rec.verdict == "syntax_error"


class TestDesignTask:
    @pytest.fixture(scope="class")
    def task(self):
        return Design2SvaTask("fsm", count=2)

    def test_prompt_mentions_rules(self, task):
        p = task.problems()[0]
        prompt = task.prompt(p)
        assert "Do NOT instantiate" in prompt
        assert "module fsm" in prompt

    def test_evaluate_correct_template(self, task):
        from repro.models.design_assist import fsm_correct_response
        import random
        p = task.problems()[0]
        resp = fsm_correct_response(p, random.Random(0))
        rec = task.evaluate(p, resp)
        assert rec.syntax_ok
        assert rec.func, rec.detail

    def test_evaluate_flawed_template(self, task):
        from repro.models.design_assist import fsm_flawed_response
        import random
        p = task.problems()[0]
        resp = fsm_flawed_response(p, random.Random(0))
        rec = task.evaluate(p, resp)
        assert rec.syntax_ok
        assert not rec.func

    def test_evaluate_broken_template(self, task):
        from repro.models.design_assist import broken_response
        import random
        p = task.problems()[0]
        resp = broken_response(p, random.Random(0))
        rec = task.evaluate(p, resp)
        assert not rec.syntax_ok

    def test_no_assertion_is_syntax_failure(self, task):
        p = task.problems()[0]
        rec = task.evaluate(p, "wire x; assign x = 1'b0;")
        assert not rec.syntax_ok

    def test_misconfigured_prover_kwargs_fail_fast(self):
        """A typo'd engine option aborts the run loudly (as the old
        Prover(**kwargs) TypeError did), never a verdict='error'
        record that silently zeroes pass@k."""
        from repro.service import RequestError
        task = Design2SvaTask("fsm", count=1,
                              prover_kwargs={"max_bcm": 9})
        p = task.problems()[0]
        from repro.models.design_assist import fsm_correct_response
        import random
        resp = fsm_correct_response(p, random.Random(0))
        with pytest.raises(RequestError, match="max_bcm"):
            task.evaluate(p, resp)


class TestDesignTaskSharedFrontend:
    """One parse per distinct DUT/testbench text per task, shared by every
    sample's merge and never mutated by merging, elaboration or proof."""

    MODELS = ("gpt-4o", "gemini-1.5-flash", "llama-3.1-70b")
    PROVER = {"max_bmc": 6, "max_k": 4, "sim_traces": 6, "sim_cycles": 20}

    @staticmethod
    def _crafted(problem):
        """Support code, a splice failure, an elaboration failure, prose."""
        import random
        from repro.datasets.design2sva.arbiter_gen import (
            arbiter_correct_response)
        from repro.models.design_assist import correct_response
        rng = random.Random(problem.instance_id)
        correct = (arbiter_correct_response(problem, rng)
                   if problem.category == "arbiter"
                   else correct_response(problem, rng))
        return [
            correct,
            "```systemverilog\nwire probe;\nassign probe = tb_reset;\n"
            "assert property (@(posedge clk) probe == tb_reset);\n```",
            "assign broken = ;\nassert property (@(posedge clk) tb_reset);",
            "assert property (@(posedge clk) ghost_signal);",
            "I cannot write this assertion.",
        ]

    @staticmethod
    def _arbiter_samples(model, problem):
        """5 samples of one model: the simulated models do not answer
        arbiter designs, so draw the arbiter templates directly."""
        import random
        from repro.datasets.design2sva.arbiter_gen import (
            arbiter_correct_response, arbiter_flawed_response)
        rng = random.Random(f"{model}/{problem.instance_id}")
        return [(arbiter_correct_response if rng.random() < 0.5
                 else arbiter_flawed_response)(problem, rng)
                for _ in range(5)]

    def _evaluate_all(self, task):
        from dataclasses import asdict
        from repro.core.runner import RunConfig, run_model_on_task
        records = []
        for model in self.MODELS:
            if task.category == "arbiter":
                for problem in task.problems():
                    records += [asdict(r) for r in task.evaluate_batch(
                        problem, self._arbiter_samples(model, problem),
                        model=model)]
                continue
            result = run_model_on_task(
                model, task, RunConfig(n_samples=5, temperature=0.8))
            records += [asdict(r) for r in result.records]
        for problem in task.problems():
            records += [asdict(r) for r in task.evaluate_batch(
                problem, self._crafted(problem), model="crafted")]
        return records

    @pytest.mark.parametrize("category", ["fsm", "pipeline", "arbiter"])
    def test_parse_once_immutable_and_record_identical(self, category,
                                                       monkeypatch):
        import collections
        import hashlib
        import pickle
        from repro.core import tasks as tasks_module
        from repro.rtl.parser import parse_rtl

        monkeypatch.delenv("FVEVAL_JOBS", raising=False)
        parses = collections.Counter()

        def counting_parse(text):
            parses[text] += 1
            return parse_rtl(text)

        monkeypatch.setattr(tasks_module, "parse_rtl", counting_parse)

        def digest(ir):
            return hashlib.sha256(pickle.dumps(ir)).hexdigest()

        task = Design2SvaTask(category, count=2,
                              prover_kwargs=dict(self.PROVER))
        for problem in task.problems():
            task._parse(problem.source)
            task._parse(problem.tb_source)
        before = digest(task._parsed)
        records = self._evaluate_all(task)
        assert digest(task._parsed) == before

        texts = {text for problem in task.problems()
                 for text in (problem.source, problem.tb_source)}
        assert set(parses) == texts
        assert all(count == 1 for count in parses.values()), parses.values()

        class ParsePerSample(Design2SvaTask):
            def _parse(self, text):
                return parse_rtl(text)

        reference = ParsePerSample(category, count=2,
                                   prover_kwargs=dict(self.PROVER))
        assert self._evaluate_all(reference) == records
        verdicts = {r["verdict"] for r in records}
        assert "syntax_error" in verdicts and len(verdicts) > 1
