"""tools/bench_pairs.py on synthetic run records."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.05},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _record(ops: float, p50: float, rss: float, setups: list[float]) -> dict:
    return {"ops_per_s": ops, "op_ms_p50": p50, "peak_rss_mib": rss,
            "setup_samples_s": setups, "setup_s": setups[-1]}


def _checkout(root, name: str, records: dict) -> str:
    out = root / name / ".qctbench_out"
    out.mkdir(parents=True)
    for filename, record in records.items():
        (out / filename).write_text(json.dumps(record))
    return str(root / name)


def test_two_pairs_give_medians_quartiles_and_wins(tmp_path):
    parent = _checkout(tmp_path, "parent", {
        "eval-refute-seed1-trace0.json": _record(30.0, 8.0, 70.0, [0.3, 0.5, 0.4]),
        "eval-refute-seed2-trace0.json": _record(34.0, 9.0, 70.0, [0.2, 0.2, 0.9]),
        "eval-refute-seed3-trace1.json": {"per_layer": {}},  # traced: ignored
        "compile-large-seed1-trace0.json": _record(10.0, 9.0, 80.0, [0.3]),  # no pair
    })
    change = _checkout(tmp_path, "change", {
        "eval-refute-seed1-trace0.json": _record(50.0, 2.0, 70.0, [0.3, 0.3, 0.3]),
        "eval-refute-seed2-trace0.json": _record(32.0, 1.0, 71.0, [0.1, 0.1, 0.1]),
    })
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    out = tmp_path / "BENCH.json"

    assert bench_pairs.main(["--parent", parent, "--change", change, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert list(data["workloads"]) == ["eval-refute"]
    w = data["workloads"]["eval-refute"]
    assert w["seeds"] == [1, 2]
    ops = w["metrics"]["ops_per_s"]
    assert ops["parent"] == {"median": 32.0, "q1": 31.0, "q3": 33.0}
    assert ops["change"]["median"] == 41.0
    assert (ops["wins"], ops["pairs"], ops["better"]) == (1, 2, "higher")
    assert w["metrics"]["op_ms_p50"]["wins"] == 2
    assert w["metrics"]["peak_rss_mib"]["wins"] == 0
    setup = w["metrics"]["setup_s"]  # the median of each run's setup samples
    assert setup["parent"]["median"] == pytest.approx(0.3)
    assert setup["change"]["median"] == pytest.approx(0.2)
    assert setup["wins"] == 2
    assert set(data["parent"]) == {"commit", "src_tree"}


def test_no_common_pair_is_an_error(tmp_path):
    parent = _checkout(tmp_path, "parent", {"eval-refute-seed1-trace0.json": _record(1, 1, 1, [1])})
    change = _checkout(tmp_path, "change", {"eval-refute-seed2-trace0.json": _record(1, 1, 1, [1])})
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    code = bench_pairs.main(["--parent", parent, "--change", change, "--out", str(tmp_path / "x.json")])
    assert code == 1
