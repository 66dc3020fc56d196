"""Unit tests for the benchmark's own arithmetic and response generator.

Run from the repository root:  PYTHONPATH=src python -m pytest perfbench/tests
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import answers  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from implang import metrics, sos  # noqa: E402
from implang.mutation import MutationKind, SemanticsStyle  # noqa: E402
from implang.scoring import score_batch  # noqa: E402
from implang.syntax import parse  # noqa: E402
from implang.tasks import build_instance  # noqa: E402

LOOP_SRC = """int i;
int s;
i = 0;
s = 0;
while (i < 3)
{
    s = s + i;
    i = i + 1;
};
"""


# -- percentile rule ---------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    random.Random(0).shuffle(values)
    assert run.percentile(values, 0.5) == 5
    assert run.percentile(values, 0.9) == 9
    assert run.percentile(values, 1.0) == 10
    assert run.percentile([7.0], 0.9) == 7.0


def test_p90_of_min_ops_leaves_ten_samples_beyond_it():
    values = [float(v) for v in range(run.MIN_OPS)]
    p90 = run.percentile(values, 0.9)
    assert sum(1 for v in values if v > p90) == 10


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        run.percentile([], 0.5)


# -- self-time arithmetic ----------------------------------------------------


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert tracing.covered((0.0, 10.0), [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 6.0
    assert tracing.covered((0.0, 10.0), []) == 0.0


def test_self_time_subtracts_children_not_grandchildren():
    starts = [0.0, 1.0, 2.0, 9.5]
    ends = [10.0, 9.0, 8.0, 10.0]
    parents = [-1, 0, 1, 0]
    assert tracing.self_times(starts, ends, parents) == [1.5, 2.0, 6.0, 0.5]


def test_traced_self_times_partition_the_root_span():
    program = parse(LOOP_SRC)
    original = metrics.profile
    with tracing.Tracer() as tracer:
        assert metrics.profile is not original
        metrics.profile(program)
    assert metrics.profile is original
    assert not hasattr(sos.run, "__wrapped__")
    summary = tracer.summary()
    assert summary["metrics.profile"]["calls"] == 1
    assert summary["sos.run"]["amount"] == sos.run(program).n_steps
    root = summary["metrics.profile"]["total_s"]
    assert sum(row["self_s"] for row in summary.values()) == pytest.approx(root)


# -- corruption verdicts -----------------------------------------------------


@pytest.mark.parametrize("style", [SemanticsStyle.SOS, SemanticsStyle.K])
@pytest.mark.parametrize("task", ["state", "rule", "trace"])
def test_gold_scores_exact_and_every_corruption_does_not(task, style):
    inst = build_instance("p", parse(LOOP_SRC), task, style, MutationKind.KEYWORD_SWAP)
    for kind in (answers.GOLD, *answers.CORRUPTIONS[task]):
        for seed in range(5):
            response = answers.response_text(inst, kind, random.Random(seed))
            flags = score_batch([inst], {inst.instance_id: response}).per_instance.values()
            assert all(flags) == (kind == answers.GOLD), (kind, seed, response)


# -- BENCHMARK.json names what the benchmark prints --------------------------


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    op = workloads.Op("0", "s", 0.001)
    reported = run.end_to_end(0.1, [workloads.PassResult([op] * run.MIN_OPS, 1.0)])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in reported.items()]
    layers = run.per_layer({}, tracing.MODULES, workloads.Counts(), 0.0, 0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in layers.items()]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
