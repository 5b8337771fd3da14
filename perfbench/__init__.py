"""The repository benchmark: four default-configuration workloads.

Run one workload (from the repository root)::

    python3 perfbench/run.py --workload fit_memory --seed 1 --seconds 20 --trace 0

``--trace 0`` measures and prints the end-to-end metrics; ``--trace 1``
makes an untraced and a traced sub-run and prints the per-layer metrics.
The last line of standard output is the JSON result.  Full records (run
metadata, input fingerprint, per-step times, program counters) and span
files go to ``.perfbench-out/``.

End-to-end metrics (``--trace 0``):

* ``setup_s`` — median of several set-ups (corpus, model, trainer,
  sampler; the shard pack for ``fit_stream``; the worker pool for
  ``ddp_process``; the first force evaluation for ``md_nve``), each the
  first in a fresh interpreter, so each builds the program's
  process-wide caches (CG tables, contraction specs) itself.  Interpreter
  start and imports are not included;
* ``atoms_per_s`` — atoms trained per second, summed over ranks
  (atom-steps per second for MD): the median over blocks of 10
  consecutive timed steps;
* ``step_ms_p50`` / ``step_ms_p90`` — closed-loop step time (optimizer,
  DDP or MD step; the record states the sample count);
* ``ok_frac`` — share of attempted operations (steps plus the
  correctness check) that neither failed nor were retried.  It replaces
  a failure fraction, which would read 0 on every good run.

The record also holds ``peak_rss_mb`` (peak resident memory of the
driver plus the peak of each DDP worker).  It is not a bounded metric:
on ``md_nve`` it is trimodal across seeds, because the calculator keeps
one compiled force plan (~67 MB) per padded edge-capacity bucket a
trajectory visits, and the capacity only grows.

Per-layer metrics (``--trace 1``), from the traced sub-run:

* ``<layer>_s`` — the layer's self time per timed step, summed over
  threads (``data.load_s`` runs on the prefetch thread); the exceptions
  are ``parallel.step_s`` (whole DDP step), ``parallel.overhead_s`` (the
  DDP step's self time: step minus drain, broadcast, optimizer and EMA)
  and ``data.pack_s`` (seconds, during set-up);
* exact counts (kernel flops, bytes and launches, plan captures, collate
  calls, neighbor rebuilds, shard loads and maps, staged broadcasts) —
  over the untimed warm-up (the first epoch for the fit workloads, 16
  DDP steps, 50 MD steps), so a seed repeats them exactly;
* rates and ratios over the timed window; ``cluster.shape_error_p90``
  compares the untraced steps with ``MACEWorkloadModel.step_times``;
  ``trace.overhead_frac`` is the traced sub-run's throughput loss
  against the untraced one, ``trace.coverage_frac`` the share of step
  time inside main-thread layer spans.

A layer a workload bypasses reads 0.  DDP workers are separate
processes, so on ``ddp_process`` the compute layers read 0 and only the
driver's layers (``parallel``, ``nn``, ``distribution``) are traced.

``python3 perfbench/steady.py`` repeats runs over seeds and reports each
metric's quartile spread against its bound in ``BENCHMARK.json``, and
with ``--counts-seed`` names any exact count that differs between two
runs of one seed.  ``python3 -m pytest perfbench/selftest.py`` runs the
benchmark's own tests.
"""
