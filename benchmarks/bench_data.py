"""Benchmark: the streaming out-of-core data pipeline.

Two measurements, each gating an acceptance criterion of the
``repro.data.store`` subsystem:

1. **Streamed vs in-memory training** — the same epoch plan trained
   twice from identically generated corpora: once with graphs resident
   in memory, once streamed from a sharded mmap dataset through the
   double-buffered background prefetcher.  Gates: the per-epoch loss
   lists are byte-identical (``==`` on Python floats, no tolerance) and
   warmed streamed throughput is >= 0.9x in-memory.  Also checks the
   compiled-plan cache stops missing after the warm epoch and the
   resident shard budget holds.
2. **Payload-free epoch planning** — the whole planning stack (size
   index load, balanced sampler, per-epoch bins, per-rank shard
   schedules) runs from a directory holding *only* ``index.json`` +
   ``sizes.npz``, with every shard payload file deleted; on the real
   dataset the payload-read and map counters stay at zero through
   planning.  Planning cost is timed across index sizes to show it
   scales with the index, not payload bytes.

3. **Shuffled default-configuration training** — ``Trainer.fit``'s
   loop in the default configuration (``MACEConfig()``, the ``Trainer``
   defaults, a shuffled ``BalancedDistributedSampler`` at ``C = 128``)
   with the default plan cache against ``plan_cache=None``, epochs
   interleaved.  Gates: after the warm-up epoch at least 95% of loss
   steps replay a captured plan (a counted, load-insensitive check),
   the best steady-state epoch is faster than the best eager epoch
   (the ratio is printed against the 1.3x target), and both trainers'
   per-step losses agree to 1e-12.

Run standalone::

    python benchmarks/bench_data.py          # full workload
    python benchmarks/bench_data.py --smoke  # quick CI smoke pass

Both modes enforce the gates — determinism and counter checks are not
timing-sensitive, and the throughput ratio uses best-of-epoch times to
stay robust on the small smoke workload.
"""

from __future__ import annotations

import argparse
import pathlib
import shutil
import sys
import tempfile
import time

import numpy as np

# Allow running from a checkout without installation, from any CWD.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.data import (  # noqa: E402
    ReferencePotential,
    ShardedDataset,
    attach_labels,
    build_training_set,
    load_size_index,
    pack_training_set,
)
from repro.distribution import BalancedDistributedSampler  # noqa: E402
from repro.graphs.pipeline import epoch_plan_bins  # noqa: E402
from repro.mace import MACE, MACEConfig  # noqa: E402
from repro.training import Trainer  # noqa: E402

CUTOFF = 4.5


def bench_streamed_training(
    root: pathlib.Path,
    n_samples: int,
    shard_size: int,
    capacity: int,
    n_epochs: int,
    channels: int,
    resident_shards: int,
) -> list:
    """Train the same plan in-memory and streamed; return failures."""
    failures = []
    # Identical corpora: pack_training_set runs the same deterministic
    # generator + batch labeling the in-memory path uses below.
    ds = pack_training_set(
        root / "ds",
        n_samples,
        seed=0,
        cutoff=CUTOFF,
        max_atoms=40,
        shard_size=shard_size,
        resident_shards=resident_shards,
    )
    graphs = attach_labels(
        build_training_set(n_samples, seed=0, cutoff=CUTOFF, max_atoms=40),
        ReferencePotential(cutoff=CUTOFF),
        batch=True,
    )

    cfg = MACEConfig(
        num_channels=channels, lmax_sh=2, l_atomic_basis=2, correlation=2
    )
    trainer_mem = Trainer(MACE(cfg, seed=0), graphs)
    trainer_str = Trainer(MACE(cfg, seed=0), dataset=ds)
    if (trainer_mem.scaler.mean_per_atom, trainer_mem.scaler.std_per_atom) != (
        trainer_str.scaler.mean_per_atom,
        trainer_str.scaler.std_per_atom,
    ):
        failures.append("index-fitted scaler differs from in-memory fit")

    # One shard-aware plan drives both trainers (shuffle off, so every
    # epoch replays the same bins — worst case for streaming overhead:
    # all collates are cache hits, leaving nothing to overlap but the
    # hits themselves).
    sampler = ds.sampler(capacity, shuffle=False)
    epoch_bins = [sampler.plan_rank_bins(epoch, 0) for epoch in range(n_epochs)]

    times_mem, times_str = [], []
    misses_after_warm = None
    for epoch, bins in enumerate(epoch_bins):
        t0 = time.perf_counter()
        losses_mem = trainer_mem.train_epoch_bins(bins, stream=False)
        t1 = time.perf_counter()
        losses_str = trainer_str.train_epoch_bins(bins)
        t2 = time.perf_counter()
        trainer_mem.scheduler.step()
        trainer_str.scheduler.step()
        if losses_mem != losses_str:
            failures.append(f"epoch {epoch}: streamed losses != in-memory losses")
        if epoch == 0:
            misses_after_warm = trainer_str.plan_cache.misses
        else:
            times_mem.append(t1 - t0)
            times_str.append(t2 - t1)
        print(
            f"[stream]     epoch {epoch}: {len(bins)} batches, "
            f"loss {float(np.mean(losses_str)):.5f}, "
            f"mem {(t1 - t0) * 1e3:7.1f} ms  streamed {(t2 - t1) * 1e3:7.1f} ms"
            + ("  (warm-up)" if epoch == 0 else "")
        )

    ratio = min(times_mem) / min(times_str)
    stats = trainer_str.stream_stats
    print(
        f"[stream]     warmed throughput: streamed = {ratio:.2f}x in-memory "
        f"(gate >= 0.90); prefetch depth mean {stats.mean_depth:.2f}, "
        f"{stats.stalls}/{stats.batches} stalls "
        f"({stats.stall_seconds * 1e3:.1f} ms waiting)"
    )
    print(
        f"[stream]     shard maps: {ds.maps_opened} opened, "
        f"{ds.open_maps} resident (budget {resident_shards}), "
        f"{ds.payload_reads} payload reads"
    )
    if ratio < 0.90:
        failures.append(f"streamed throughput {ratio:.2f}x below the 0.9x gate")
    if trainer_str.plan_cache.misses != misses_after_warm:
        failures.append(
            "compiled-plan cache kept missing after the warm epoch "
            f"({misses_after_warm} -> {trainer_str.plan_cache.misses}): "
            "streamed batch shapes are not plan-stable"
        )
    if ds.open_maps > resident_shards:
        failures.append(
            f"{ds.open_maps} shard maps resident, budget {resident_shards}"
        )
    ds.close()
    return failures


def bench_payload_free_planning(
    root: pathlib.Path, n_samples: int, shard_size: int, capacity: int
) -> list:
    """Plan epochs with payloads deleted; time planning vs index size."""
    failures = []
    ds_path = root / "ds"  # packed by bench_streamed_training

    # 1. The real dataset: full planning pass, counters must stay zero.
    ds = ShardedDataset(ds_path, resident_shards=2)
    sampler = ds.sampler(capacity, num_replicas=2, seed=1)
    for epoch in range(3):
        sampler.all_rank_bins(epoch)
        for rank in range(2):
            sampler.plan_rank_shards(epoch, rank)
    if ds.payload_reads or ds.maps_opened:
        failures.append(
            f"epoch planning touched payloads ({ds.payload_reads} reads, "
            f"{ds.maps_opened} maps opened)"
        )
    ds.close()

    # 2. Index-only directory: every shard payload file deleted.
    index_only = root / "index-only"
    index_only.mkdir()
    for name in ("index.json", "sizes.npz"):
        shutil.copy(ds_path / name, index_only / name)
    index = load_size_index(index_only)
    sampler = BalancedDistributedSampler(
        index.n_atoms,
        capacity,
        num_replicas=2,
        seed=1,
        shard_ids=index.shard_id,
    )
    bins = sampler.all_rank_bins(0)
    shards = sampler.plan_rank_shards(0, 0)
    n_bins = sum(len(rank) for rank in bins)
    print(
        f"[planning]   index-only dir (payloads deleted): {index.n_samples} "
        f"structures -> {n_bins} bins, rank 0 walks shards {shards}"
    )
    if not n_bins or not shards:
        failures.append("index-only planning produced an empty plan")

    # 3. Planning cost scales with the index: time the full planning
    # pass at 1x and 8x index size (synthetic sizes, no payloads at all).
    rng = np.random.default_rng(0)
    timings = []
    for mult in (1, 8):
        n = n_samples * mult
        sizes = rng.integers(3, 40, n)
        shard_ids = np.arange(n) // shard_size
        s = BalancedDistributedSampler(
            sizes, capacity, num_replicas=2, seed=1, shard_ids=shard_ids
        )
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            s.all_rank_bins(0)
            s.plan_rank_shards(0, 0)
            best = min(best, time.perf_counter() - t0)
        timings.append(best)
        print(
            f"[planning]   {n:6d}-structure index: full epoch plan in "
            f"{best * 1e3:7.2f} ms"
        )
    print(
        f"[planning]   8x index -> {timings[1] / timings[0]:.1f}x planning "
        "time (payload bytes never enter)"
    )
    return failures


def bench_shuffled_default(n_samples: int, n_epochs: int) -> list:
    """Default-configuration shuffled training, plans on vs off."""
    failures = []
    graphs = attach_labels(build_training_set(n_samples, seed=0, max_atoms=100))
    sampler = BalancedDistributedSampler(
        [g.n_atoms for g in graphs], 128, num_replicas=1, seed=1
    )
    trainers = {
        "plans": Trainer(MACE(MACEConfig(), seed=1), graphs),
        "eager": Trainer(MACE(MACEConfig(), seed=1), graphs, plan_cache=None),
    }
    cache = trainers["plans"].plan_cache
    times = {name: [] for name in trainers}
    worst = 0.0
    steps = 0
    for epoch in range(n_epochs):
        bins = epoch_plan_bins(sampler, epoch, 0)
        steps += len(bins)
        if epoch == 1:
            hits0, misses0 = cache.hits, cache.misses
        # Alternate which trainer runs first so neither always gets the
        # warmer caches; fit's loop is train_epoch_bins + scheduler.step.
        names = ["plans", "eager"] if epoch % 2 else ["eager", "plans"]
        losses = {}
        for name in names:
            t0 = time.perf_counter()
            losses[name] = trainers[name].train_epoch_bins(bins)
            times[name].append(time.perf_counter() - t0)
            trainers[name].scheduler.step()
        for a, b in zip(losses["plans"], losses["eager"]):
            worst = max(worst, abs(a - b) / abs(b))
        print(
            f"[shuffled]   epoch {epoch}: {len(bins)} bins, plans "
            f"{times['plans'][-1] * 1e3:7.1f} ms  eager {times['eager'][-1] * 1e3:7.1f} ms"
            + ("  (warm-up)" if epoch == 0 else "")
        )
    hits, misses = cache.hits - hits0, cache.misses - misses0
    hit_rate = hits / (hits + misses)
    best_plan, best_eager = min(times["plans"][1:]), min(times["eager"][1:])
    ratio = best_eager / best_plan
    print(
        f"[shuffled]   {cache.captures} plans for {steps} steps; "
        f"hit rate after epoch 0 {hit_rate:.1%} (gate >= 95%)"
    )
    print(
        f"[shuffled]   best steady-state epoch: plans {best_plan * 1e3:.1f} ms "
        f"vs eager {best_eager * 1e3:.1f} ms -> {ratio:.2f}x "
        f"(gate > 1.00x, target 1.30x); loss agreement {worst:.1e} (gate 1e-12)"
    )
    if hit_rate < 0.95:
        failures.append(f"plan hit rate after epoch 0 {hit_rate:.1%} below 95%")
    if ratio <= 1.0:
        failures.append(f"planned epoch {ratio:.2f}x, not faster than plan_cache=None")
    if worst > 1e-12:
        failures.append(f"planned and eager losses differ by {worst:.1e} (relative)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small fast workload for CI"
    )
    args = parser.parse_args(argv)

    if args.smoke:
        n_samples, shard_size, capacity, n_epochs, channels = 32, 8, 128, 4, 8
        shuffled = (64, 5)  # structures, epochs of the shuffled section
    else:
        n_samples, shard_size, capacity, n_epochs, channels = 96, 16, 192, 4, 8
        shuffled = (160, 5)

    failures = []
    with tempfile.TemporaryDirectory(prefix="bench-data-") as tmp:
        root = pathlib.Path(tmp)
        failures += bench_streamed_training(
            root, n_samples, shard_size, capacity, n_epochs, channels,
            resident_shards=2,
        )
        failures += bench_payload_free_planning(
            root, n_samples, shard_size, capacity
        )
    failures += bench_shuffled_default(*shuffled)

    for f in failures:
        print(f"FAIL: {f}")
    print("data benchmark:", "OK" if not failures else "FAILED")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
