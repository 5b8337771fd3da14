"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py

(The file is not named ``test_*.py``, so the repository's own test run
does not collect it.)
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench.run import END_TO_END, EXACT_COUNTS, LAYER_TIMES, PER_LAYER  # noqa: E402
from perfbench.tracer import Tracer, covered_time, layer_self_times, self_times, window  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- self-time arithmetic -------------------------------------------------------


def _nested():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9];  d [11, 12] alone
    return [
        ["L.root", "f", 0.0, 10.0, -1, 0],
        ["L.a", "f", 1.0, 4.0, 0, 0],
        ["L.b", "f", 2.0, 3.0, 1, 0],
        ["L.c", "f", 5.0, 9.0, 0, 0],
        ["L.a", "f", 11.0, 12.0, -1, 1],
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_nested()) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_layer_self_times_sum_over_spans_and_threads():
    totals = layer_self_times([_nested(), [["L.c", "g", 0.0, 0.5, -1, 0]]])
    assert totals == {"L.root": 3.0, "L.a": 3.0, "L.b": 1.0, "L.c": 4.5}
    # Self times partition the root span's wall time.
    assert sum(self_times(_nested())[:4]) == 10.0


def test_window_drops_outside_spans_and_reroots_orphans():
    kept = window(_nested(), 1.5, 10.0)
    # root and a start before 1.5 and d ends after 10: b and c remain,
    # both now roots because their parents fell outside.
    assert [(s[0], s[4]) for s in kept] == [("L.b", -1), ("L.c", -1)]
    assert self_times(kept) == [1.0, 4.0]


def test_coverage_clips_root_spans_to_step_intervals():
    spans = _nested()
    assert covered_time(spans, [(0.0, 12.0)]) == 11.0
    assert covered_time(spans, [(9.5, 11.5)]) == 1.0
    assert covered_time(spans, [(10.0, 11.0)]) == 0.0


def test_tracer_records_nested_spans_and_restores_originals():
    import types

    mod = types.ModuleType("repro_selftest_mod")

    def inner():
        return 1

    def outer():
        return mod.inner() + 1

    def gen():
        yield from range(3)

    mod.inner, mod.outer, mod.gen = inner, outer, gen
    sys.modules[mod.__name__] = mod
    try:
        tracer = Tracer()
        tracer.wrap_attr(mod, "inner", "layer.inner")
        tracer.wrap_attr(mod, "outer", "layer.outer")
        tracer.wrap_attr(mod, "gen", "layer.gen")
        assert mod.outer() == 2
        assert list(mod.gen()) == [0, 1, 2]
        tracer.uninstall()
        assert (mod.inner, mod.outer, mod.gen) == (inner, outer, gen)
        (tid, spans), = tracer.threads()
        assert [s[0] for s in spans] == ["layer.outer", "layer.inner"] + ["layer.gen"] * 4
        assert spans[1][4] == 0  # inner nests under outer
        assert all(s[3] >= s[2] for s in spans)
    finally:
        del sys.modules[mod.__name__]


def test_layer_install_wraps_and_uninstall_restores():
    import repro.graphs.batch as batch
    import repro.graphs.pipeline as pipeline
    from repro.kernels.channelwise_tp import _ChannelwiseTPOptimized

    from perfbench import layers

    before = (batch.collate, pipeline.collate, _ChannelwiseTPOptimized.__dict__["forward"])
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert batch.collate is not before[0]
        assert pipeline.collate is batch.collate  # imported-by-name reference too
        assert _ChannelwiseTPOptimized.__dict__["forward"] is not before[2]
    finally:
        tracer.uninstall()
    assert (batch.collate, pipeline.collate, _ChannelwiseTPOptimized.__dict__["forward"]) == before


# -- driving and checks ------------------------------------------------------------


class _Counting:
    """A workload whose loop never ends on its own: it counts steps and
    reports each to the callback until that raises ``Stop``."""

    warmup_steps = 5

    def __init__(self):
        self.steps = 0

    def counters(self):
        return {"steps": self.steps}

    def run(self, stepped):
        while True:
            self.steps += 1
            stepped(10, 10, 20)


def test_phase_splits_warmup_from_the_timed_window():
    from perfbench.run import Phase

    wl = _Counting()
    phase = Phase(wl, 0.05)
    assert phase.error is None
    assert phase.warm.steps == 5 and phase.clock.steps >= 1
    assert phase.delta("steps", "warmup") == 5
    assert phase.delta("steps") == phase.clock.steps
    assert phase.m1 - phase.m0 >= 0.05
    assert phase.attempted == wl.steps


def test_phase_records_an_error_from_the_loop():
    from perfbench.run import Phase

    class Failing(_Counting):
        def run(self, stepped):
            stepped(1, 1, 1)
            raise ValueError("boom")

    phase = Phase(Failing(), 1.0)
    assert "boom" in phase.error and phase.attempted == 2


def test_step_log_catches_skipped_repeated_and_reordered_bins():
    from perfbench.workloads import StepLog

    plans = {0: ([[0, 1], [2], [3]], ["a", "b", "c"]), 1: ([[3], [1, 2], [0]], ["d", "e", "f"])}

    def ran(*signatures):
        log = StepLog(plans.__getitem__)
        for sig in signatures:
            log.step(sig, 1.0)
        return log

    assert ran("a", "b", "c", "d").checks(4) == []
    assert ran("a", "b").checks(4) == []  # cut at the deadline
    assert ran("a", "c", "b").checks(4) == ["epoch 0: trained steps differ from the planned bins"]
    assert ran("a", "b", "c", "d", "d").checks(4) == ["epoch 1: trained steps differ from the planned bins"]
    assert ran("a", "b").epoch_losses(0) == [1.0, 1.0]
    log = ran("a", "b", "c")
    log.losses[1] = float("nan")
    assert log.checks(4) == ["epoch 0: non-finite loss"]
    assert ran("a").checks(5) == ["epoch 0: plan does not cover each structure exactly once"]


# -- names -------------------------------------------------------------------------


def test_names_and_units_are_well_formed_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]), m


def test_benchmark_json_matches_the_runner():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert set(EXACT_COUNTS) <= set(PER_LAYER) and set(LAYER_TIMES) <= set(PER_LAYER)
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert "setup_s" in END_TO_END


# -- short runs ----------------------------------------------------------------------


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace,names", [(0, END_TO_END), (1, PER_LAYER)])
def test_short_run_emits_every_name_with_its_unit(trace, names):
    proc = _run(["--workload", "md_nve", "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "md_nve", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
