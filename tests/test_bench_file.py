"""tools/bench_file.py turns run.py's last line into a BENCH record."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_file.py")
spec = importlib.util.spec_from_file_location("bench_file", TOOL)
bench_file = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_file)

LINE = json.dumps({"correct": True, "attempted": 145, "failed": 0,
                   "metrics": {"ops_per_s": {"value": 155.4, "unit": "1/s"}}})


def test_bench_record_keeps_the_last_line_and_adds_the_run_settings():
    record = bench_file.bench_record("calibrating\n" + LINE + "\n", "families-rank", 10,
                                     "688e398")
    assert record == {"workload": "families-rank", "seed": 20260810, "seconds": 10,
                      "nproc": len(os.sched_getaffinity(0)),
                      "python": record["python"], "head": "688e398", **json.loads(LINE)}
    assert record["python"].count(".") == 2


@pytest.mark.parametrize("stdout, message", [
    ("", "printed nothing"),
    (LINE + "\nTraceback", "not JSON"),
    ("[1, 2]", "did not pass"),
    (LINE.replace('"correct": true', '"correct": false'), "did not pass"),
    (LINE.replace('"failed": 0', '"failed": 3'), "did not pass"),
    (LINE.replace('"failed": 0, ', ''), "did not pass"),
])
def test_bench_record_refuses_a_run_that_did_not_pass(stdout, message):
    with pytest.raises(ValueError, match=f"certify-pit: .*{message}"):
        bench_file.bench_record(stdout, "certify-pit", 10, "688e398")
