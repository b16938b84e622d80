"""Tests of the benchmark itself, on inputs far smaller than its workloads."""

import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import harness  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, observe, output_digest, prepare  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMALL = {
    "train-desk": ((2, 1, 1), (1, 1, 1)),
    "eval-desk": ((1, 1, 1), (1, 1, 1)),
    "gen-desk": ((2, 1, 1), (1, 1, 1)),
}


def small(name):
    splits, warm = SMALL[name]
    return dataclasses.replace(WORKLOADS[name], splits=splits,
                               warm_splits=warm)


def test_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += list(WORKLOADS) + [n for n, _, _ in tracing.PER_LAYER]
    names += [n for n, _ in harness.END_TO_END]
    assert all(NAME.fullmatch(n) for n in names), names
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in tracing.PER_LAYER]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(harness.END_TO_END)


@pytest.mark.parametrize("name", ["gen-desk", "eval-desk"])
def test_wrong_reference_counts_as_failed(tmp_path, name):
    w = small(name)
    inputs = prepare(w, 3, tmp_path / "ref", w.splits)
    assert harness._call(inputs.argv)[0]
    ref = observe(w, inputs.out_dir)
    if "dataset_sha256" in ref:
        ref["dataset_sha256"] = "0" * 64
    else:
        ref["y_pred"] = ref["y_pred"] + 1e-6
    result = harness.measure(name, 3, 0.0, False, tmp_path, 0.0,
                             refs={name: ref}, repeats=1, workload=w)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


def test_tolerance_passes_reordering_and_fails_changes():
    ref = {"columns": ["epoch", "val_total"], "loss_log": [[1.0, 3.9]],
           "last_param_sums": {"w": 0.25}}
    same = {**ref, "loss_log": [[1.0, 3.9 + 4e-15]]}
    assert checks.problems(same, ref) == []
    moved = {**ref, "last_param_sums": {"w": 0.25 + 1e-7}}
    assert checks.problems(moved, ref)
    assert checks.problems({**ref, "loss_log": [[1.0, np.nan]]}, None)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_untraced_outputs_are_bitwise_identical(tmp_path, name):
    w = small(name)
    inputs = prepare(w, 5, tmp_path, w.splits)
    digests = []
    for tracer in (None, tracing.Tracer("test"), None):
        assert harness._call(inputs.argv, tracer)[0]
        digests.append(output_digest(inputs.out_dir))
        if tracer is not None:
            assert not tracer._originals
            assert len(tracer.names) > 1
    assert digests[0] == digests[1] == digests[2]
