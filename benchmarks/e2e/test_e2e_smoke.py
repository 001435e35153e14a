"""Smoke test of the end-to-end ledger.

Not part of the tier-1 suite (``testpaths`` is ``tests``); run it as
``pytest benchmarks/e2e``.  It drives ``run.py --smoke``, which shrinks
every workload so that the whole harness finishes in well under a
minute, and checks the shape of what comes out — never the numbers.
"""

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}


def run_py(*args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT)


def smoke_set(directory, *args):
    out = os.path.join(directory, "results.json")
    done = run_py("--smoke", "--reps", "1", "--out", out,
                  "--spans", os.path.join(directory, "spans.json"), *args)
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as handle:
        return json.load(handle), done


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("e2e"))
    result_set, done = smoke_set(directory)
    return directory, result_set, done


def test_benchmark_json_lists_the_workloads_of_the_harness():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] \
        == [(w.name, w.why) for w in WORKLOADS]
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert "setup_s" in END_TO_END


def test_every_listed_metric_is_emitted_with_a_finite_value(smoke):
    _, result_set, done = smoke
    assert set(result_set["workloads"]) == {w.name for w in WORKLOADS}
    for name, entry in result_set["workloads"].items():
        assert set(entry["end_to_end"]) == END_TO_END, name
        assert set(entry["per_layer"]) == PER_LAYER, name
        values = [s["median"] for s in entry["end_to_end"].values()]
        values += list(entry["per_layer"].values())
        assert all(math.isfinite(v) for v in values), name
    for metric in END_TO_END | PER_LAYER:
        assert metric in done.stdout  # printed by name


def test_no_operation_fails(smoke):
    _, result_set, done = smoke
    for name, entry in result_set["workloads"].items():
        assert entry["attempted"] >= 1, name
        assert entry["failed"] == 0, (name, entry["failures"])
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0


def test_traced_run_accounts_for_the_flow(smoke):
    directory, result_set, _ = smoke
    for name, entry in result_set["workloads"].items():
        assert entry["per_layer"]["trace.coverage_pct"] >= 95, name
        assert entry["per_layer"]["dp.replica_faithful"] == 1, name
    with open(os.path.join(directory, "spans.json")) as handle:
        spans = json.load(handle)
    assert {s["workload"] for s in spans} == {w.name for w in WORKLOADS}
    by_id = {(s["workload"], s["id"]): s for s in spans}
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = by_id[(span["workload"], span["parent"])]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]


def test_smoke_output_is_marked_and_refused_as_a_result(smoke):
    directory, result_set, _ = smoke
    assert result_set["smoke"] is True
    path = os.path.join(directory, "results.json")
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), path, path],
        capture_output=True, text=True)
    assert done.returncode != 0
    assert "smoke" in done.stderr


def test_unknown_workload_is_an_error():
    done = run_py("--smoke", "--workloads", "gp_flat,nonesuch")
    assert done.returncode == 2
    assert "nonesuch" in done.stderr


def test_another_seed_gives_other_inputs_and_the_same_metrics(
        smoke, tmp_path):
    _, base, _ = smoke
    other, _ = smoke_set(str(tmp_path), "--seed", "43",
                         "--workloads", "gp_flat,gp_cascade")
    assert other["seed"] == 43
    fingerprints = {e["fingerprint"] for e in other["workloads"].values()}
    assert len(fingerprints) == 1  # the cascade reads gp_flat's file
    for name, entry in other["workloads"].items():
        reference = base["workloads"][name]
        assert entry["fingerprint"] != reference["fingerprint"]
        assert set(entry["end_to_end"]) == set(reference["end_to_end"])
        assert set(entry["per_layer"]) == set(reference["per_layer"])


@pytest.mark.parametrize("trace, names", [("0", END_TO_END),
                                          ("1", PER_LAYER)])
def test_driver_form_prints_the_result_as_the_last_line(trace, names):
    done = run_py("--smoke", "--workload", "batch_pool", "--seed", "7",
                  "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    assert set(last["metrics"]) == names
    for metric in last["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert math.isfinite(metric["value"])
