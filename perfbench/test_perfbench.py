"""The benchmark's own tests, at laptop scale (``--tiny``).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import common  # noqa: E402
import dashboard  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.fixture(scope="module")
def outputs():
    """One tiny run per (workload, trace), shared by the tests below."""
    runs = {}
    for workload in run.WORKLOADS:
        for trace in ("0", "1"):
            done = bench("--workload", workload, "--seed", "1", "--seconds",
                         "1", "--trace", trace, "--tiny")
            runs[workload, trace] = done
    return runs


def last_line(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads_and_bounds_setup_widest():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_prints_with_its_unit(outputs, workload, trace):
    done = outputs[workload, trace]
    assert done.returncode == 0, done.stderr[-3000:]
    line = last_line(done)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] >= 1
    # Every workload measures every layer, so each result line carries
    # every metric of its kind.
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert set(line["metrics"]) == set(units)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"])
        assert f"{name} " in done.stdout  # the human table names them all


def test_designed_split_shows_in_the_traced_dashboard(outputs):
    metrics = last_line(outputs["dashboard", "1"])["metrics"]
    assert metrics["serve.wire_hit_ms"]["value"] > \
        metrics["serve.server_hit_ms_p50"]["value"]
    # Two of every three hit-phase requests (/analyze, /validate) are
    # answered from the result cache; /healthz is the third.
    assert metrics["serve.result_cache_hits"]["value"] >= \
        dashboard.MIN_HITS * 2 // 3


def test_the_seed_argument_is_honoured(outputs):
    other = bench("--workload", "error-storm", "--seed", "2", "--seconds",
                  "1", "--trace", "1", "--tiny")
    assert other.returncode == 0, other.stderr[-3000:]
    first = last_line(outputs["error-storm", "1"])["metrics"]
    second = last_line(other)["metrics"]
    assert first["logs.text_bytes"] != second["logs.text_bytes"]


def test_same_seed_writes_a_byte_identical_bundle(tmp_path):
    import ops

    spec = run.workload_spec("error-storm", tiny=True)
    digests = [ops.setup(spec, seed, str(tmp_path / f"b{n}"))["digest"]
               for n, seed in enumerate((5, 5, 6))]
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_a_perturbed_summary_trips_the_gate():
    from repro.validation.goldens import canonical_json

    summary = {"runs": 74.0, "system_failure_share": 0.0135,
               "xe_curve_growth": float("nan")}
    reference = canonical_json(summary)
    rec = common.Recorder(None, trace=False)
    # NaN growth factors compare equal in canonical form; dict == calls
    # two summaries with distinct NaN objects different.
    again = dict(summary, xe_curve_growth=float("nan"))
    assert summary != again
    assert rec.check("same", canonical_json(again), reference)
    assert rec.failed == 0
    perturbed = dict(summary, system_failure_share=0.0136)
    assert not rec.check("perturbed", canonical_json(perturbed), reference)
    assert not rec.check("missing", None, reference)
    assert rec.failed == 2


def test_reference_checks_catch_run_count_and_digest_drift():
    from repro.validation.goldens import canonical_json

    reference = canonical_json({"runs": 10.0})
    rec = common.Recorder(None, trace=False)
    common.check_reference(rec, reference, [
        {"digest": "a", "truth_runs": 10}, {"digest": "a", "truth_runs": 10}])
    assert rec.failed == 0
    common.check_reference(rec, reference, [{"digest": "a", "truth_runs": 11}])
    assert rec.failed == 1
    common.check_reference(rec, reference, [
        {"digest": "a", "truth_runs": 10}, {"digest": "b", "truth_runs": 10}])
    assert rec.failed == 2


def test_percentiles_need_ten_samples_beyond():
    assert common.percentile(list(range(19)), 0.5) is None
    assert common.percentile(list(range(20)), 0.5) == 9
    assert common.percentile(list(range(199)), 0.95) is None
    assert common.percentile(list(range(200)), 0.95) == 189


def test_self_time_subtracts_the_union_of_children():
    tree = {"name": "campaign", "t_start_s": 0.0, "duration_s": 10.0,
            "children": [
                {"name": "unit", "t_start_s": 1.0, "duration_s": 4.0,
                 "children": []},
                {"name": "unit", "t_start_s": 3.0, "duration_s": 4.0,
                 "children": []}]}
    records = common.flatten([tree], "stream#1")
    assert records[0]["self_s"] == pytest.approx(4.0)
    assert [r["parent"] for r in records] == [None, "stream#1/0",
                                              "stream#1/0"]


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "paper-batch", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
