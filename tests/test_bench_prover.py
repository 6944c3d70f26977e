"""Row aggregation of ``scripts/bench_prover.py``."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_prover.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_prover", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _admission(admitted, shed, peak, latency):
    return {"admitted_units": admitted, "shed_units": shed,
            "peak_inflight": peak, "unit_latency_s": latency}


class TestHttpStats:
    def test_one_replica_keeps_a_scalar_latency(self, bench):
        block = bench.http_stats([_admission(16, 0, 4, 0.25)], clients=4)
        assert block == {"clients": 4, "admitted_units": 16,
                         "shed_units": 0, "peak_inflight": 4,
                         "unit_latency_s": 0.25}

    def test_replicas_record_latency_in_replica_order(self, bench):
        block = bench.http_stats([_admission(9, 1, 3, 0.5),
                                  _admission(7, 0, 4, 0.125),
                                  _admission(0, 0, 0, None)], clients=4)
        assert block["unit_latency_s"] == [0.5, 0.125, None]
        assert block["admitted_units"] == 16
        assert block["shed_units"] == 1
        assert block["peak_inflight"] == 4
