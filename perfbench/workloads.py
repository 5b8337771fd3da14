"""The four benchmark workloads, each in its default configuration.

All four are closed loops driven from one process: a step starts when
the previous one returns.

* ``fit_memory`` — ``Trainer.fit`` over an in-memory corpus, one rank.
* ``fit_stream`` — the same corpus packed into a ``ShardedDataset`` whose
  resident-shard budget is below its shard count, trained through
  ``Trainer(dataset=...)`` with the dataset's shard-aware sampler.
* ``ddp_process`` — ``DistributedTrainingRun`` stepping ``ParallelDDP``
  on a two-worker process executor, world size 2, one BLAS thread per
  process.
* ``md_nve`` — velocity-Verlet NVE on one water cluster through the
  default ``MACECalculator`` (Verlet skin, padded edges, force plans).

Every training workload uses the default ``MACEConfig()``, the
``Trainer`` defaults (collate and plan caches on), a heterogeneous
corpus from ``build_training_set`` and a shuffled
``BalancedDistributedSampler``.  The training workloads call the
program's own epoch drivers (``Trainer.fit``,
``DistributedTrainingRun.run``) for more epochs than a run lasts; a hook
on the step those drivers call (``Trainer.train_batch``,
``ParallelDDP.step``) reports each step and raises ``Stop`` at the
deadline.
"""

from __future__ import annotations

import hashlib
import math
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import MACE, MACEConfig, Trainer
from repro.data import attach_labels, build_training_set, generate_structure, pack_graphs
from repro.distribution import BalancedDistributedSampler
from repro.graphs.neighborlist import DEFAULT_CUTOFF
from repro.graphs.pipeline import epoch_plan_bins
from repro.md import MACECalculator, VelocityVerlet
from repro.parallel import make_executor
from repro.training import DistributedTrainingRun

from perfbench import blas

# Training corpus: 160 structures round-robin over four systems, about
# 50 bins an epoch, so a run spans epoch boundaries and compositions
# rarely repeat within the default 64-plan cache.  One fixed corpus, as
# for MD below: the packer's bin count, and so the step-time
# distribution, is set by the corpus alone (51 to 60 bins an epoch over
# corpus seeds 0 to 2, whatever the shuffle), which spread step_ms_p50
# by 13-18% across seeds.  The run seed draws the model's initial
# weights and the sampler's shuffle, so each seed trains on its own
# epoch plans.
CORPUS_SEED = 0
CORPUS_SIZE = 160
CORPUS_MAX_ATOMS = 100
BIN_CAPACITY = 128  # bin capacity C in atoms, on every rank
# Streaming: shards of 8 structures (20 for the corpus), at most 2 mapped.
STREAM_SHARD_SIZE = 8
STREAM_RESIDENT_SHARDS = 2
# DDP: one BLAS thread per process, as DDP launchers set it (torchrun
# exports OMP_NUM_THREADS=1, which OpenBLAS reads).  Under the default
# (one thread per core in the driver and in each of the two workers)
# thread contention made step times swing: the quartile spread over five
# seeds reached 21-26% on atoms_per_s and 22-31% on step_ms_p90, against
# bounds of 25%, at a third of the pinned throughput.
DDP_BLAS_THREADS = 1
# DDP trains the same corpus at the same C over two ranks.  Bins of
# C = 64 from a 48-atom-capped corpus gave 2.5x the steps, but their
# throughput swung more with host load.
DDP_WARMUP_STEPS = 16  # untimed; also the window of the exact counts
DDP_WORLD = 2
DDP_PARITY_TOL = 1e-12
# MD: one ~64-atom water cluster at 300 K, 0.5 fs steps.
MD_ATOMS = 64
MD_CUTOFF = 4.5
MD_TEMPERATURE_K = 300.0
MD_WARMUP_STEPS = 50
MD_DRIFT_BOUND_EV = 1e-4  # max |E(t) - E(0)| over a run
# One fixed system, as MD benchmarks use: the same cluster and the same
# (untrained) potential on every run; the seed draws the initial
# velocities, so each seed is an independent trajectory.
MD_SYSTEM_SEED = 0
# Epochs asked of the training drivers: more than any run reaches.
RUN_EPOCHS = 1_000_000


def corpus(seed: int, n: int, max_atoms: int):
    """Labeled structures with neighbor lists, drawn from ``seed``."""
    return attach_labels(build_training_set(n, seed=seed, max_atoms=max_atoms))


def _hash_arrays(h, arrays) -> None:
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.tobytes())


def corpus_fingerprint(graphs, plans) -> Dict:
    """Sizes plus hashes of the structures and of the epoch plans.

    ``plans`` holds one list of ``(indices, capacity)`` bins per epoch.
    """
    h = hashlib.blake2b(digest_size=16)
    for g in graphs:
        _hash_arrays(h, (g.positions, g.species, g.edge_index, np.float64(g.energy)))
    p = hashlib.blake2b(digest_size=16)
    for rank_bins in plans:
        p.update(repr([(list(map(int, idx)), int(cap)) for idx, cap in rank_bins]).encode())
    return {
        "structures": len(graphs),
        "atoms": int(sum(g.n_atoms for g in graphs)),
        "edges": int(sum(g.n_edges for g in graphs)),
        "bins_per_epoch": [sum(1 for idx, _ in b if idx) for b in plans],
        "corpus_hash": h.hexdigest(),
        "plan_hash": p.hexdigest(),
    }


class StepClock:
    """Closed-loop step intervals: a step runs from the previous step's
    return (or the window start) to its own return."""

    def __init__(self, tracer=None) -> None:
        self.intervals: List[Tuple[float, float]] = []
        self.atoms: List[int] = []  # atoms processed, summed over ranks
        self.cost_inputs: List[Tuple[int, int]] = []  # (atoms, edges) setting the step time
        self.tracer = tracer
        self._last: Optional[float] = None

    def start(self) -> None:
        self._last = time.perf_counter()

    def stop(self, atoms: int, cost_atoms: int, cost_edges: int) -> None:
        now = time.perf_counter()
        self.intervals.append((self._last, now))
        self._last = now
        self.atoms.append(int(atoms))
        self.cost_inputs.append((int(cost_atoms), int(cost_edges)))
        if self.tracer is not None:
            self.tracer.step += 1

    @property
    def steps(self) -> int:
        return len(self.intervals)

    def step_seconds(self) -> np.ndarray:
        return np.array([hi - lo for lo, hi in self.intervals])


# Called after every step with (atoms summed over ranks, atoms and edges
# of the batch that sets the step time); it raises an exception to end
# the run, which the workload lets pass.
StepCallback = Callable[[int, int, int], None]


class Workload:
    """Interface: set up, then ``run`` the program's own loop, reporting
    each step to the callback until it raises ``Stop``.  The first
    ``warmup_steps`` steps are untimed and are the window of the exact
    counts.  ``counters()`` snapshots the program's own cumulative
    counters; the runner takes differences between windows."""

    warmup_steps = 0

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def run(self, stepped: StepCallback) -> None:
        raise NotImplementedError

    def checks(self) -> List[str]:
        """Correctness failures (empty when the outputs are right)."""
        raise NotImplementedError

    def fingerprint(self) -> Dict:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        return {}

    def plan_bins(self):
        """Epoch-0 bins (``repro.distribution.Bin``), or ``None``."""
        return None

    def worker_pids(self) -> List[int]:
        return []

    def retried(self) -> int:
        return 0

    def outputs(self) -> Dict:
        """What the run produced, for the result record."""
        return {}

    def close(self) -> None:
        pass


# -- training -----------------------------------------------------------------


class StepLog:
    """The steps a training driver ran, checked against the sampler's
    epoch plans.  ``plan(epoch)`` gives that epoch's bin index lists and
    its expected step signatures, in order."""

    def __init__(self, plan: Callable[[int], Tuple[list, list]]) -> None:
        self.plan = plan
        self.trained: list = []
        self.losses: List[float] = []

    def step(self, signature, loss: float) -> None:
        self.trained.append(signature)
        self.losses.append(loss)

    def epochs(self):
        """``(epoch, bin index lists, expected, trained, losses)`` for
        each epoch the run reached; the last may be cut short."""
        pos, epoch = 0, 0
        while pos < len(self.trained):
            members, expected = self.plan(epoch)
            n = len(expected)
            yield epoch, members, expected, self.trained[pos : pos + n], self.losses[pos : pos + n]
            pos, epoch = pos + n, epoch + 1

    def checks(self, n: int) -> List[str]:
        """Each epoch's bins partition the ``n`` structures, the driver
        trained every planned bin once and in plan order (an epoch cut
        at the deadline ran a prefix), and every loss is finite."""
        failures = []
        for e, members, expected, trained, losses in self.epochs():
            if sorted(i for idx in members for i in idx) != list(range(n)):
                failures.append(f"epoch {e}: plan does not cover each structure exactly once")
            if trained != expected[: len(trained)]:
                failures.append(f"epoch {e}: trained steps differ from the planned bins")
            if not all(math.isfinite(x) for x in losses):
                failures.append(f"epoch {e}: non-finite loss")
        return failures

    def epoch_losses(self, epoch: int) -> List[float]:
        return next((losses for e, *_, losses in self.epochs() if e == epoch), [])

    def outputs(self) -> Dict:
        means = [float(np.mean(losses)) for *_, losses in self.epochs()]
        return {"epochs": len(means), "steps": len(self.losses), "epoch_mean_losses": means}


class FitWorkload(Workload):
    """``Trainer.fit``, in memory or streamed from shards.

    The warm-up is the whole first epoch: it ends between epochs, when
    the streaming loader has finished every fetch, so the counts over it
    repeat exactly."""

    stream = False

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.graphs = corpus(CORPUS_SEED, CORPUS_SIZE, CORPUS_MAX_ATOMS)
        model = MACE(MACEConfig(), seed=seed)
        if self.stream:
            self.ds = pack_graphs(
                self.graphs,
                workdir / "shards",
                shard_size=STREAM_SHARD_SIZE,
                cutoff=DEFAULT_CUTOFF,
                resident_shards=STREAM_RESIDENT_SHARDS,
            )
            self.trainer = Trainer(model, dataset=self.ds)
            self.sampler = self.ds.sampler(BIN_CAPACITY, seed=seed)
        else:
            self.trainer = Trainer(model, self.graphs)
            self.sampler = BalancedDistributedSampler(
                [g.n_atoms for g in self.graphs], BIN_CAPACITY, 1, seed=seed
            )
        self.log = StepLog(self._plan)

    def _plan(self, epoch: int) -> Tuple[list, list]:
        bins = epoch_plan_bins(self.sampler, epoch, 0)
        signatures = [tuple(sorted(self.graphs[i].energy for i in idx)) for idx, _ in bins if idx]
        return [idx for idx, _ in bins], signatures

    def run(self, stepped: StepCallback) -> None:
        # Step hook: the in-memory and streaming paths of fit both call
        # train_batch on the instance.  Batches arrive collated (the
        # collate cache may reorder a bin's members), so a step is logged
        # by its members' sorted energy labels.
        inner = self.trainer.train_batch

        def train_batch(batch):
            loss = inner(batch)
            self.log.step(tuple(sorted(batch.energies.tolist())), loss)
            stepped(batch.n_atoms, batch.n_atoms, batch.n_edges)
            return loss

        self.warmup_steps = len(self._plan(0)[1])
        self.trainer.train_batch = train_batch
        try:
            self.trainer.fit(self.sampler, n_epochs=RUN_EPOCHS)
        finally:
            del self.trainer.train_batch

    def checks(self) -> List[str]:
        failures = self.log.checks(len(self.graphs))
        if self.stream:
            # The streamed first epoch must equal, loss for loss and bit
            # for bit, an in-memory trainer over the same plan.
            ref = Trainer(MACE(MACEConfig(), seed=self.seed), self.graphs)
            ref_losses = ref.train_epoch_bins(epoch_plan_bins(self.sampler, 0, 0), stream=False)
            if ref_losses != self.log.epoch_losses(0):
                failures.append("streamed epoch-0 losses differ from the in-memory trainer")
        return failures

    def fingerprint(self) -> Dict:
        return corpus_fingerprint(
            self.graphs, [epoch_plan_bins(self.sampler, e, 0) for e in range(3)]
        )

    def plan_bins(self):
        return self.sampler.plan_epoch(0)

    def outputs(self) -> Dict:
        return self.log.outputs()

    def counters(self) -> Dict[str, float]:
        cc = self.trainer.collate_cache
        pc = self.trainer.plan_cache
        out = {
            "collate_hits": cc.hits,
            "collate_misses": cc.misses,
            "plan_hits": pc.hits,
            "plan_misses": pc.misses,
            "plan_captures": pc.captures,
        }
        if self.stream:
            ss = self.trainer.stream_stats
            out.update(
                loads=self.ds.payload_reads,
                maps_opened=self.ds.maps_opened,
                stalls=ss.stalls,
                depth_sum=ss.depth_sum,
                batches=ss.batches,
            )
        return out

    def close(self) -> None:
        if self.stream:
            self.ds.close()


class FitStreamWorkload(FitWorkload):
    stream = True


# -- data-parallel training ---------------------------------------------------


class DDPWorkload(Workload):
    """``DistributedTrainingRun`` on a two-worker process executor, so
    each step is a ``ParallelDDP`` step."""

    warmup_steps = DDP_WARMUP_STEPS

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.graphs = corpus(CORPUS_SEED, CORPUS_SIZE, CORPUS_MAX_ATOMS)
        self.trainer = Trainer(MACE(MACEConfig(), seed=seed), self.graphs)
        self.sampler = BalancedDistributedSampler(
            [g.n_atoms for g in self.graphs], BIN_CAPACITY, DDP_WORLD, seed=seed
        )
        self.blas_threads_default = blas.threads()
        blas.set_threads(DDP_BLAS_THREADS)  # before the workers fork
        self.executor = make_executor("process", DDP_WORLD)
        self.driver = DistributedTrainingRun(
            self.trainer, self.sampler, DDP_WORLD, executor=self.executor
        )
        self.ddp = self.driver._pddp  # the ParallelDDP the driver steps
        self.log = StepLog(self._plan)
        self.first_step = None

    def _plan(self, epoch: int) -> Tuple[list, list]:
        plan = [[list(idx) for idx, _ in rank] for rank in self.sampler.all_rank_bins(epoch)]
        n_steps = max(len(r) for r in plan)
        steps = [[r[k] if k < len(r) else [] for r in plan] for k in range(n_steps)]
        return [idx for rank in plan for idx in rank], [s for s in steps if any(s)]

    def run(self, stepped: StepCallback) -> None:
        inner = self.ddp.step

        def step(rank_batches, capacity: int = 0):
            loss = inner(rank_batches, capacity=capacity)
            if self.first_step is None:
                self.first_step = (
                    [list(b) for b in rank_batches],
                    capacity,
                    loss,
                    [p.data.copy() for p in self.trainer.model.parameters()],
                )
            self.log.step([list(b) for b in rank_batches], loss)
            sizes = [
                (sum(self.graphs[i].n_atoms for i in idx), sum(self.graphs[i].n_edges for i in idx))
                for idx in rank_batches
            ]
            stepped(sum(a for a, _ in sizes), *max(sizes))
            return loss

        self.ddp.step = step
        try:
            self.driver.run(n_epochs=RUN_EPOCHS)
        finally:
            del self.ddp.step

    def checks(self) -> List[str]:
        failures = self.log.checks(len(self.graphs))
        stats = self.executor.stats
        if stats.errors or stats.worker_deaths:
            failures.append(f"{stats.errors} worker errors, {stats.worker_deaths} worker deaths")
        # The first parallel step must match the serial DDP step.
        batches, capacity, loss, params = self.first_step
        serial = Trainer(MACE(MACEConfig(), seed=self.seed), self.graphs)
        serial_loss = serial.ddp_step([b for b in batches if b], capacity=capacity)
        if abs(serial_loss - loss) > DDP_PARITY_TOL:
            failures.append(f"first DDP loss {loss!r} != serial {serial_loss!r}")
        worst = max(
            float(np.max(np.abs(p.data - q))) if p.data.size else 0.0
            for p, q in zip(serial.model.parameters(), params)
        )
        if worst > DDP_PARITY_TOL:
            failures.append(f"first DDP step parameters differ from serial by {worst:.3g}")
        return failures

    def fingerprint(self) -> Dict:
        return corpus_fingerprint(
            self.graphs,
            [[b for rank in self.sampler.all_rank_bins(e) for b in rank] for e in range(3)],
        )

    def plan_bins(self):
        return self.sampler.plan_epoch(0)

    def outputs(self) -> Dict:
        return {**self.log.outputs(), "blas_threads_default": self.blas_threads_default}

    def counters(self) -> Dict[str, float]:
        return {
            "staged_broadcasts": self.ddp.staged_broadcasts,
            "worker_deaths": self.executor.stats.worker_deaths,
            "resubmitted": self.executor.stats.resubmitted,
        }

    def worker_pids(self) -> List[int]:
        return list(self.executor.worker_pids)

    def retried(self) -> int:
        return self.executor.stats.resubmitted

    def close(self) -> None:
        self.ddp.close()
        self.executor.shutdown()


# -- molecular dynamics -------------------------------------------------------


class MDWorkload(Workload):
    """Velocity-Verlet NVE through the default ``MACECalculator``."""

    warmup_steps = MD_WARMUP_STEPS

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(MD_SYSTEM_SEED)
        self.graph = generate_structure("Water clusters", rng, MD_ATOMS)
        self.initial = (self.graph.positions.copy(), self.graph.species.copy())
        self.calc = MACECalculator(MACE(MACEConfig(), seed=MD_SYSTEM_SEED), cutoff=MD_CUTOFF)
        self.md = VelocityVerlet(self.calc, self.graph, seed=seed)
        self.md.initialize_velocities(MD_TEMPERATURE_K)
        self.initial_velocities = self.md.state.velocities.copy()
        self.initial_edges = int(self.graph.n_edges)
        self.energies: List[float] = [self._total_energy()]
        self.forces_finite = bool(np.isfinite(self.md.state.forces).all())

    def _total_energy(self) -> float:
        s = self.md.state
        return s.potential_energy + s.kinetic_energy(self.md.masses)

    def run(self, stepped: StepCallback) -> None:
        n = self.graph.n_atoms
        while True:
            s = self.md.step()
            self.energies.append(self._total_energy())
            self.forces_finite &= bool(np.isfinite(s.forces).all())
            stepped(n, n, self.graph.n_edges)

    def drift(self) -> float:
        e = np.asarray(self.energies)
        return float(np.abs(e - e[0]).max())

    def checks(self) -> List[str]:
        failures = []
        if not self.forces_finite:
            failures.append("non-finite forces")
        drift = self.drift()
        if not drift <= MD_DRIFT_BOUND_EV:
            failures.append(f"energy drift {drift:.3g} eV above {MD_DRIFT_BOUND_EV:g} eV")
        return failures

    def fingerprint(self) -> Dict:
        h = hashlib.blake2b(digest_size=16)
        _hash_arrays(h, self.initial + (self.initial_velocities,))
        return {
            "atoms": int(self.graph.n_atoms),
            "edges": self.initial_edges,
            "initial_state_hash": h.hexdigest(),
        }

    def outputs(self) -> Dict:
        return {"md_steps": len(self.energies) - 1, "energy_drift_ev": self.drift()}

    def counters(self) -> Dict[str, float]:
        pc = self.calc.plan_cache
        return {
            "plan_hits": pc.hits,
            "plan_misses": pc.misses,
            "plan_captures": pc.captures,
            "neighbor_rebuilds": self.calc.neighbor_cache.rebuilds,
        }


WORKLOADS = {
    "fit_memory": FitWorkload,
    "fit_stream": FitStreamWorkload,
    "ddp_process": DDPWorkload,
    "md_nve": MDWorkload,
}
