"""Which program callables the traced run wraps, and under which layer.

Spans are recorded from the benchmark's own files, around calls into
each module's public functions and methods.  Where compiled plans bypass
the Python entry points (a replay calls the autograd ``Function``
objects it captured directly), the ``forward``/``backward`` methods of
the module's ``Function`` classes are wrapped instead, so kernel time is
attributed in eager and replayed steps alike.  Wrappers must be in place
before the first plan is captured: a plan binds the methods it replays
when it is built.
"""

from __future__ import annotations

from .tracer import Tracer


def install(tracer: Tracer) -> None:
    """Wrap every traced callable.  Undo with ``tracer.uninstall()``."""
    import repro.autograd.engine as engine
    import repro.data.store as store
    import repro.data.stream as stream
    import repro.distribution.sampler as sampler
    import repro.graphs.batch as batch
    import repro.graphs.neighborlist as neighborlist
    import repro.graphs.pipeline as pipeline
    import repro.kernels.channelwise_tp as channelwise_tp
    import repro.kernels.symmetric_contraction as symmetric_contraction
    import repro.mace.geometry as geometry
    import repro.mace.model as model
    import repro.mace.radial as radial
    import repro.md.calculator as calculator
    import repro.md.integrators as integrators
    import repro.nn.optim as optim
    import repro.parallel.ddp as ddp
    import repro.parallel.executor as executor
    import repro.parallel.worker as worker
    import repro.runtime.cache as cache
    import repro.runtime.plan as plan

    wrap = tracer.wrap_attr
    # distribution: Algorithm 1 packing plus the rank dealing rule.
    wrap(sampler._EpochPlanMixin, "all_rank_bins", "distribution.plan")
    # graphs: collation (through the collate cache or direct) and
    # neighbor lists (full builds and Verlet-skin refilters).
    wrap(batch, "collate", "graphs.collate")
    wrap(pipeline.CollateCache, "get", "graphs.collate")
    wrap(neighborlist, "build_neighbor_list", "graphs.neighbor")
    wrap(pipeline.NeighborListCache, "update", "graphs.neighbor")
    # mace / kernels / autograd: the eager model pass and its hot ops.
    wrap(model.MACE, "forward", "mace.forward")
    tracer.wrap_functions_of(geometry, "mace.edge_geometry")
    tracer.wrap_functions_of(radial, "mace.edge_geometry")
    tracer.wrap_functions_of(channelwise_tp, "kernels.tp")
    tracer.wrap_functions_of(symmetric_contraction, "kernels.sc")
    wrap(engine.Tensor, "backward", "autograd.backward")
    # runtime: plan keying, capture (lowering + verification), replay.
    wrap(cache, "batch_signature", "runtime.key")
    wrap(plan.CompiledPlan, "__init__", "runtime.capture")
    wrap(cache.PlanCache, "put", "runtime.capture")
    wrap(plan.CompiledPlan, "replay", "runtime.replay")
    # nn: optimizer and weight EMA.
    wrap(optim.Adam, "step", "nn.optimizer")
    wrap(optim.ExponentialMovingAverage, "update", "nn.ema")
    # data: shard packing, payload loads, the consumer's prefetch wait.
    wrap(store, "pack_graphs", "data.pack")
    wrap(store.ShardedDataset, "load", "data.load")
    wrap(stream.StreamingLoader, "__iter__", "data.prefetch_wait")
    # parallel: the driver's DDP step, its blocking drain, and the
    # parameter broadcast (inline or staged flatten, stage join).
    wrap(ddp.ParallelDDP, "step", "parallel.step")
    wrap(executor.BaseExecutor, "drain", "parallel.rank_wait")
    wrap(worker, "flatten_params", "parallel.broadcast")
    wrap(ddp.ParallelDDP, "_join_stage", "parallel.broadcast")
    # md: force evaluation and the integrator step.
    wrap(calculator.MACECalculator, "energy_and_forces", "md.force")
    wrap(integrators.VelocityVerlet, "step", "md.integrate")
