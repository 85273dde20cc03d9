"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric the benchmark defines is emitted with its unit
on every workload, that ``BENCHMARK.json`` lists exactly those metrics,
that spans nest (no child outlasts its parent, no self time is negative),
that the reference clock samples only while it runs and leaves its
kernel's time out, that BLAS is held to one thread, and that the
benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import ksm.model  # noqa: E402
from refclock import RefClock  # noqa: E402
from spans import Tracer, per_layer_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

REPORTED = {
    "train_paper": ["train_instances_per_s", "train_loss_final"],
    "predict_long": ["predict_instances_per_s", "predict_doc_ms_p50",
                     "predict_doc_ms_tail", "prediction_digest"],
    "prepare_corpus": ["preprocess_docs_per_s"],
    "prepare_kb": ["transe_triples_per_s", "transe_energy_gap"],
}


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    assert ({m["name"]: m["unit"] for m in BENCH["end_to_end"]}
            == run.END_TO_END_UNITS)
    assert ({m["name"]: m["unit"] for m in BENCH["per_layer"]}
            == per_layer_units())
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert set(REPORTED) == set(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name, trace, tmp_path,
                                                  monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    workload = WORKLOADS[name](seed=3, tiny=True)
    result = run.run(workload, 0.0, trace, tmp_path)

    report = result.pop("report")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = per_layer_units() if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    shared = ["peak_rss_mb", "failed_share"] + ([] if trace else ["setup_s"])
    for key in REPORTED[name] + shared:
        assert report[key]["unit"], key
    if not trace:
        assert len(report["setup_s"]["samples"]) == run.SETUP_SAMPLES
    json.dumps(result)


def test_child_spans_nest_inside_their_parent(tmp_path):
    workload = WORKLOADS["train_paper"](seed=5, tiny=True)
    workload.prepare(tmp_path)
    original = ksm.model.encoder_block
    tracer = Tracer()
    with tracer.installed(), tracer.span("bench.unit"):
        assert ksm.model.encoder_block is not original
        workload.unit(workload.setup(tmp_path), tracer.paused)
    assert ksm.model.encoder_block is original

    spans = tracer.spans
    names = {s[0] for s in spans}
    assert {"autodiff.backward", "model.multi_head_attention",
            "model.encoder_block", "optim.Adadelta.step"} <= names
    for (name, start, end, parent), own in zip(spans, tracer.self_times()):
        assert end >= start
        assert own >= -1e-12, name
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end, name
            assert end - start <= p_end - p_start
    metrics = tracer.layer_metrics()
    assert metrics["autodiff.tape_nodes_per_instance"] > 0
    for layer in ("model.encoder_block", "train.train_model"):
        assert 0 <= metrics[f"{layer}.self_s"] <= metrics[f"{layer}.busy_s"]


def test_reference_clock_samples_while_running_and_hides_its_kernel():
    clock = RefClock()
    with clock.running():
        scaled, wall, start = clock.now(), clock.wall(), perf_counter()
        while perf_counter() - start < 0.3:
            pass
        scaled, wall = clock.now() - scaled, clock.wall() - wall
        elapsed = perf_counter() - start
    assert len(clock.kernel_times) >= 5
    assert 0 < wall < elapsed
    assert scaled > 0
    before, start = clock.now(), perf_counter()
    while perf_counter() - start < 0.05:
        pass
    assert clock.now() - before >= perf_counter() - start - 1e-3 > 0


def test_blas_is_held_to_one_thread_before_numpy_loads():
    proc = subprocess.run(
        [sys.executable, "-c", "import run; print(run.blas_threads())"],
        cwd=HERE, capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() in ("1", "None"), proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
