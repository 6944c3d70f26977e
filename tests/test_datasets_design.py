"""Design2SVA generator tests: sweeps, testbench harness, merging."""

import pytest

from repro.datasets.design2sva.fsm_gen import FsmConfig, generate_fsm
from repro.datasets.design2sva.pipeline_gen import (
    PipelineConfig, generate_pipeline, random_arith_expr,
)
from repro.datasets.design2sva.sweep import (
    build_benchmark, fsm_configs, pipeline_configs,
)
from repro.datasets.design2sva.testbench_gen import (
    SpliceError, generate_testbench, merge_for_eval, parse_snippet_items,
)
from repro.rtl.elaborate import elaborate
from repro.rtl.parser import parse_rtl
from repro.rtl.simulator import Simulator


class TestPipelineGen:
    def test_deterministic(self):
        cfg = PipelineConfig(n_units=2, width=8, seed=4)
        assert generate_pipeline(cfg).source == generate_pipeline(cfg).source

    def test_elaborates_and_simulates(self):
        d = generate_pipeline(PipelineConfig(n_units=2, width=8, seed=1))
        design = elaborate(d.source, top="pipeline")
        sim = Simulator(design, seed=0)
        sim.reset()
        sim.step({"in_vld": 1, "in_data": 3})
        depth = d.meta["total_depth"]
        for _ in range(depth + 1):
            sim.step({"in_vld": 0})
        assert sim.history[2 + depth]["out_vld"] == 1

    def test_meta_depth_consistent(self):
        d = generate_pipeline(PipelineConfig(n_units=3, width=8, seed=2))
        assert d.meta["total_depth"] == sum(d.meta["unit_depths"])

    def test_random_expr_depth_zero_is_atomic(self):
        import random
        e = random_arith_expr(random.Random(0), "x", 0)
        assert e == "x" or e.isdigit()


class TestFsmGen:
    def test_deterministic(self):
        cfg = FsmConfig(n_states=4, n_edges=6, width=8, seed=9)
        assert generate_fsm(cfg).source == generate_fsm(cfg).source

    def test_elaborates(self):
        d = generate_fsm(FsmConfig(n_states=5, n_edges=8, width=8, seed=0))
        design = elaborate(d.source, top="fsm")
        assert design.clock == "clk"

    def test_reset_state_progresses(self):
        d = generate_fsm(FsmConfig(n_states=4, n_edges=4, width=8, seed=3))
        assert d.meta["default_next"][0] != 0

    def test_fsm_width_matches_states(self):
        d = generate_fsm(FsmConfig(n_states=8, n_edges=8, width=8, seed=0))
        assert d.meta["fsm_width"] == 3


class TestSweep:
    def test_counts(self):
        assert len(pipeline_configs(96)) == 96
        assert len(fsm_configs(96)) == 96

    def test_unique_instance_ids(self):
        ids = [c.instance_id for c in fsm_configs(96)]
        assert len(set(ids)) == 96

    def test_build_attaches_testbench(self):
        designs = build_benchmark("fsm", count=4)
        assert all(d.tb_source and d.tb_top == "fsm_tb" for d in designs)

    def test_unknown_category(self):
        with pytest.raises(ValueError):
            build_benchmark("nocategory")

    def test_width_sweep_spans(self):
        widths = {c.width for c in pipeline_configs(96)}
        assert 128 in widths and 8 in widths


class TestMerge:
    @pytest.fixture(scope="class")
    def fsm(self):
        designs = build_benchmark("fsm", count=1)
        return designs[0]

    def test_testbench_mirrors_ports(self, fsm):
        tb = generate_testbench(fsm)
        assert "module fsm_tb" in tb
        assert "input" in tb and "tb_reset" in tb

    def test_merge_without_response(self, fsm):
        merged = merge_for_eval(parse_rtl(fsm.source),
                                parse_rtl(fsm.tb_source), fsm.top, "")
        design = elaborate(merged.source_file, top=merged.top)
        assert "state" in design.widths and "tb_reset" in design.widths

    def test_merge_with_support_code(self, fsm):
        code = ("wire [1:0] probe;\n"
                "assign probe = fsm_out;\n"
                "assert property (@(posedge clk) disable iff (tb_reset) "
                "probe == fsm_out);")
        merged = merge_for_eval(parse_rtl(fsm.source),
                                parse_rtl(fsm.tb_source), fsm.top, code)
        design = elaborate(merged.source_file, top=merged.top)
        assert design.assertions

    def test_bad_snippet_rejected(self, fsm):
        with pytest.raises(SpliceError):
            parse_snippet_items("assign x = ;")

    def test_initial_block_rejected(self, fsm):
        with pytest.raises(SpliceError):
            parse_snippet_items("initial begin x = 0; end")
