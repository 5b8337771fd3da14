"""Run one benchmark workload and print its result as the last line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit_memory --seed 1 --seconds 20 --trace 0

``--trace 0`` sets the workload up several times, each set-up the first
in its interpreter (``setup_s`` is the median), warms it up, measures
closed-loop steps for ``--seconds`` and prints the end-to-end metrics.
``--trace 1`` makes two sub-runs of half the time each, one untraced and
one with the program's layers wrapped (see ``layers.py``), and prints
the per-layer metrics.  Either way the workload's correctness checks run
outside the timed region; a failure counts in ``failed`` and gives exit
code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

BLOCK_STEPS = 10  # steps per throughput block (atoms_per_s is the block median)
SETUP_REPEATS = 3  # set-ups per untraced run; setup_s is their median

# name -> unit.  Mirrors BENCHMARK.json (checked by selftest.py).
END_TO_END = {
    "setup_s": "s",
    "atoms_per_s": "atoms/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "ok_frac": "frac",
}

# Per-layer self time per measured step, by layer (see layers.py).
LAYER_TIMES = {
    "distribution.plan_s": "distribution.plan",
    "graphs.collate_s": "graphs.collate",
    "graphs.neighbor_s": "graphs.neighbor",
    "mace.forward_s": "mace.forward",
    "mace.edge_geometry_s": "mace.edge_geometry",
    "kernels.tp_s": "kernels.tp",
    "kernels.sc_s": "kernels.sc",
    "autograd.backward_s": "autograd.backward",
    "runtime.key_s": "runtime.key",
    "runtime.capture_s": "runtime.capture",
    "runtime.replay_s": "runtime.replay",
    "nn.optimizer_s": "nn.optimizer",
    "nn.ema_s": "nn.ema",
    "data.load_s": "data.load",
    "data.prefetch_wait_s": "data.prefetch_wait",
    "parallel.rank_wait_s": "parallel.rank_wait",
    "parallel.broadcast_s": "parallel.broadcast",
    "parallel.overhead_s": "parallel.step",
    "md.force_s": "md.force",
    "md.integrate_s": "md.integrate",
}

# Counts over the fixed warm-up window: the same seed must give the same
# value on every run (steady.py names any that differ).
EXACT_COUNTS = {
    "kernels.tp_flops": "flop",
    "kernels.tp_bytes": "B",
    "kernels.sc_flops": "flop",
    "kernels.sc_bytes": "B",
    "kernels.launches": "count",
    "runtime.plans": "count",
    "graphs.collate_calls": "count",
    "graphs.neighbor_rebuilds": "count",
    "data.loads": "count",
    "data.maps_opened": "count",
    "parallel.staged_broadcasts": "count",
}

PER_LAYER = {
    **{name: "s/step" for name in LAYER_TIMES},
    "parallel.step_s": "s/step",
    "data.pack_s": "s",
    **EXACT_COUNTS,
    "distribution.padding_frac": "frac",
    "distribution.straggler_ratio": "ratio",
    "graphs.collate_hit_rate": "frac",
    "runtime.plan_hit_rate": "frac",
    "data.prefetch_stalls": "count",
    "data.prefetch_depth_mean": "batches",
    "parallel.worker_deaths": "count",
    "parallel.resubmitted": "count",
    "cluster.shape_error_p90": "frac",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
}


# -- run metadata -------------------------------------------------------------


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_meta() -> Dict:
    from perfbench.blas import threads

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = {}
    blas["threads"] = threads()
    blas["env"] = {
        k: os.environ.get(k)
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "commit": _git_commit(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": blas,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": src_lines,
    }


def peak_rss_mb(worker_pids: List[int]) -> float:
    """Peak resident memory of this process plus each worker's peak."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in worker_pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


# -- driving ------------------------------------------------------------------


class Stop(Exception):
    """Raised from the step callback at the deadline to end a workload's
    loop; workloads let it pass."""


class Phase:
    """One run of a set-up workload: the warm-up steps, then closed-loop
    steps until ``seconds`` have passed since the warm-up ended."""

    def __init__(self, wl, seconds: float, tracer=None) -> None:
        from repro.kernels import counting

        from perfbench.workloads import StepClock

        self.error: Optional[str] = None
        self.warm = StepClock(tracer)
        self.clock = StepClock(tracer)
        self.kernels = None  # KernelCounter over the warm-up (traced runs)
        self._wl, self._seconds = wl, seconds
        self._counting = contextlib.ExitStack()
        self.c0 = self.c1 = wl.counters()
        self.w0 = self.w1 = self.m0 = self.m1 = time.perf_counter()
        self.deadline = math.inf
        try:
            if tracer is not None:
                self.kernels = self._counting.enter_context(counting())
            self.warm.start()
            wl.run(self._stepped)
        except Stop:
            pass
        except Exception:
            self.error = traceback.format_exc()
        finally:
            self._counting.close()
        self.m1 = time.perf_counter()
        self.c2 = wl.counters()

    def _stepped(self, atoms: int, cost_atoms: int, cost_edges: int) -> None:
        if self.deadline == math.inf:
            self.warm.stop(atoms, cost_atoms, cost_edges)
            if self.warm.steps >= self._wl.warmup_steps:
                # End of the warm-up: close the count window, start the clock.
                self._counting.close()
                self.w1 = time.perf_counter()
                self.c1 = self._wl.counters()
                self.m0 = time.perf_counter()
                self.deadline = self.m0 + self._seconds
                self.clock.start()
        else:
            self.clock.stop(atoms, cost_atoms, cost_edges)
            if time.perf_counter() >= self.deadline:
                raise Stop

    @property
    def attempted(self) -> int:
        return self.warm.steps + self.clock.steps + (self.error is not None)

    def atoms_per_s(self) -> float:
        """Median throughput over consecutive blocks of ``BLOCK_STEPS``
        steps, so a stall of the host moves one block, not the result."""
        dt = self.clock.step_seconds()
        atoms = np.asarray(self.clock.atoms, dtype=np.float64)
        n = len(dt) // BLOCK_STEPS * BLOCK_STEPS
        if n == 0:
            return float(atoms.sum() / dt.sum()) if dt.size else 0.0
        blocks = atoms[:n].reshape(-1, BLOCK_STEPS).sum(1) / dt[:n].reshape(-1, BLOCK_STEPS).sum(1)
        return float(np.median(blocks))

    def delta(self, key: str, window: str = "measure") -> float:
        a, b = (self.c0, self.c1) if window == "warmup" else (self.c1, self.c2)
        return b.get(key, 0) - a.get(key, 0)

    def rate(self, hits: str, misses: str) -> float:
        h, m = self.delta(hits), self.delta(misses)
        return h / (h + m) if h + m else 0.0


def _setup(cls, seed: int, workdir: Path):
    wl = cls()
    workdir.mkdir(parents=True, exist_ok=True)
    t = time.perf_counter()
    wl.setup(seed, workdir)
    return wl, time.perf_counter() - t


def _check(wl, phase: Phase) -> List[str]:
    if phase.error is not None:
        return ["run stopped by an exception:\n" + phase.error]
    try:
        return wl.checks()
    except Exception:
        return ["correctness check raised:\n" + traceback.format_exc()]


def setup_in_child(workload: str, seed: int, workdir: Path) -> float:
    """Set-up time of ``workload`` in a fresh interpreter, so that every
    set-up builds the program's process-wide caches (CG tables,
    contraction specs) itself."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--setup-only", str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a child process failed:\n{proc.stdout}{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def plain_run(cls, workload: str, seed: int, seconds: float, workdir: Path):
    # Every set-up is the first in its interpreter: all but the last run
    # in child processes, the last here, and it is the one measured.
    setup_times = [
        setup_in_child(workload, seed, workdir / f"setup{k}")
        for k in range(SETUP_REPEATS - 1)
    ]
    wl, dt = _setup(cls, seed, workdir / "measured")
    setup_times.append(dt)
    try:
        phase = Phase(wl, seconds)
        failures = _check(wl, phase)
        rss = peak_rss_mb(wl.worker_pids())
        retried = wl.retried()
        fingerprint = wl.fingerprint()
        outputs = wl.outputs()
    finally:
        wl.close()
    steps_ms = phase.clock.step_seconds() * 1e3
    attempted = phase.attempted + 1  # the correctness check counts as one
    failed = (phase.error is not None) + retried + bool(failures)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "atoms_per_s": phase.atoms_per_s(),
        "step_ms_p50": float(np.percentile(steps_ms, 50)) if steps_ms.size else 0.0,
        "step_ms_p90": float(np.percentile(steps_ms, 90)) if steps_ms.size else 0.0,
        "ok_frac": 1.0 - failed / attempted,
    }
    extra = {
        "peak_rss_mb": rss,
        "setup_s_each": setup_times,
        "measured_steps": phase.clock.steps,
        "measured_seconds": phase.m1 - phase.m0,
        "warmup_steps": phase.warm.steps,
        "steps_beyond_p90": int((steps_ms > metrics["step_ms_p90"]).sum()),
        "step_ms": [round(float(x), 3) for x in steps_ms],
        "step_atoms": phase.clock.atoms,
        "outputs": outputs,
    }
    return metrics, END_TO_END, attempted, failed, failures, fingerprint, extra


def shape_error_p90(clock, cfg) -> float:
    """p90 relative error of the roofline step-time model against the
    measured steps, after fitting one scale factor (its median ratio)."""
    from repro.cluster import A100, MACEWorkloadModel

    if not clock.steps:
        return 0.0
    tokens = np.array([a for a, _ in clock.cost_inputs], dtype=np.float64)
    edges = np.array([e for _, e in clock.cost_inputs], dtype=np.float64)
    pred = MACEWorkloadModel.from_config(cfg).step_times(A100, tokens, edges, cfg.kernel_variant)
    meas = clock.step_seconds()
    scale = float(np.median(meas / pred))
    return float(np.percentile(np.abs(meas - scale * pred) / (scale * pred), 90))


def _spans_in(tracer, fn: str, lo: float, hi: float) -> int:
    return sum(
        1
        for _, spans in tracer.threads()
        for s in spans
        if s[1] == fn and lo <= s[2] and s[3] <= hi
    )


def traced_run(cls, seed: int, seconds: float, workdir: Path, spans_path: Path):
    from repro import MACEConfig
    from repro.distribution import evaluate_bins

    from perfbench import layers
    from perfbench.tracer import Tracer, window

    half = seconds / 2.0
    wl, _ = _setup(cls, seed, workdir / "untraced")
    try:
        base = Phase(wl, half)
        failed = (base.error is not None) + wl.retried()
    finally:
        wl.close()
    wl = None
    gc.collect()

    tracer = Tracer()
    layers.install(tracer)
    try:
        s0 = time.perf_counter()
        wl, _ = _setup(cls, seed, workdir / "traced")
        s1 = time.perf_counter()
        phase = Phase(wl, half, tracer)
        failures = _check(wl, phase)
        failed += (phase.error is not None) + wl.retried() + bool(failures)
        counts = phase.c2
        bins = wl.plan_bins()
        fingerprint = wl.fingerprint()
        outputs = wl.outputs()
    finally:
        tracer.uninstall()
        if wl is not None:
            wl.close()
    n_spans = tracer.write(spans_path, s0)

    steps = max(phase.clock.steps, 1)
    self_s = tracer.layer_self_times(phase.m0, phase.m1)
    metrics = {name: self_s.get(layer, 0.0) / steps for name, layer in LAYER_TIMES.items()}
    step_total = sum(
        s[3] - s[2]
        for _, spans in tracer.threads()
        for s in window(spans, phase.m0, phase.m1)
        if s[0] == "parallel.step"
    )
    metrics["parallel.step_s"] = step_total / steps
    metrics["data.pack_s"] = sum(
        s[3] - s[2]
        for _, spans in tracer.threads()
        for s in window(spans, s0, s1)
        if s[0] == "data.pack" and s[4] < 0
    )
    kc = phase.kernels

    def kernel_total(prefix: str, field: str) -> float:
        if kc is None:
            return 0
        return sum(v[field] for k, v in kc.by_name.items() if k.startswith(prefix))

    metrics.update(
        {
            "kernels.tp_flops": kernel_total("tp_", "flops"),
            "kernels.tp_bytes": kernel_total("tp_", "bytes"),
            "kernels.sc_flops": kernel_total("sc_", "flops"),
            "kernels.sc_bytes": kernel_total("sc_", "bytes"),
            "kernels.launches": kc.launches if kc is not None else 0,
            "runtime.plans": phase.delta("plan_captures", "warmup"),
            "graphs.collate_calls": _spans_in(tracer, "repro.graphs.batch.collate", phase.w0, phase.w1),
            "graphs.neighbor_rebuilds": phase.delta("neighbor_rebuilds", "warmup"),
            "data.loads": phase.delta("loads", "warmup"),
            "data.maps_opened": phase.delta("maps_opened", "warmup"),
            "parallel.staged_broadcasts": phase.delta("staged_broadcasts", "warmup"),
        }
    )
    dist = evaluate_bins(bins) if bins else None
    batches = phase.delta("batches")
    coverage = tracer.coverage(phase.clock.intervals)
    untraced = base.atoms_per_s()
    metrics.update(
        {
            "distribution.padding_frac": dist.padding_fraction if dist else 0.0,
            "distribution.straggler_ratio": dist.straggler_ratio if dist else 0.0,
            "graphs.collate_hit_rate": phase.rate("collate_hits", "collate_misses"),
            "runtime.plan_hit_rate": phase.rate("plan_hits", "plan_misses"),
            "data.prefetch_stalls": phase.delta("stalls"),
            "data.prefetch_depth_mean": phase.delta("depth_sum") / batches if batches else 0.0,
            "parallel.worker_deaths": counts.get("worker_deaths", 0),
            "parallel.resubmitted": counts.get("resubmitted", 0),
            "cluster.shape_error_p90": shape_error_p90(base.clock, MACEConfig()),
            "trace.overhead_frac": 1.0 - phase.atoms_per_s() / untraced if untraced else 0.0,
            "trace.coverage_frac": coverage,
        }
    )
    attempted = base.attempted + phase.attempted + 1
    extra = {
        "untraced_atoms_per_s": untraced,
        "traced_atoms_per_s": phase.atoms_per_s(),
        "measured_steps": phase.clock.steps,
        "spans": n_spans,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "layer_self_seconds": self_s,
        "outputs": outputs,
    }
    return metrics, PER_LAYER, attempted, failed, failures, fingerprint, extra


def stop_helper_processes(timeout: float = 10.0) -> None:
    """Stop and reap every process this one started and still owns.

    The program's process executor uses shared memory and multiprocessing
    queues, which start Python's resource-tracker helper.  Left alone it
    exits only after this process does and is never reaped, so it is
    stopped here (closing its pipe ends it) and waited for."""
    import multiprocessing
    from multiprocessing import resource_tracker

    gc.collect()  # finalize dead queues and segments before the tracker goes
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout)
    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
    if fd is not None:
        os.close(fd)
        deadline = time.monotonic() + timeout
        while os.waitpid(pid, os.WNOHANG)[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        return _run(WORKLOADS[args.workload], args)
    finally:
        stop_helper_processes()


def _run(cls, args) -> int:
    if args.setup_only is not None:
        wl, dt = _setup(cls, args.seed, args.setup_only)
        wl.close()
        print(json.dumps({"setup_s": dt}))
        return 0
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as tmp:
        if args.trace:
            run = traced_run(cls, args.seed, args.seconds, Path(tmp), OUT / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            run = plain_run(cls, args.workload, args.seed, args.seconds, Path(tmp))
    metrics, units, attempted, failed, failures, fingerprint, extra = run
    result = {
        "correct": not failures and failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": run_meta(),
        "fingerprint": fingerprint,
        "failures": failures,
        "details": extra,
        "result": result,
    }
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("# meta " + json.dumps(record["meta"]))
    print("# fingerprint " + json.dumps(fingerprint))
    print("# details " + json.dumps({k: v for k, v in extra.items() if k not in ("layer_self_seconds", "step_ms", "step_atoms")}, default=float))
    print(json.dumps(result, default=float))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
