#!/usr/bin/env bash
# Repo check: invariant linter, tier-1 test suite, plus the pipeline,
# kernel, serving, runtime, parallel and data smoke benchmarks, so
# correctness *and* perf regressions in the graph pipeline, the
# model-forward hot kernels, the serving scheduler, the compiled-plan
# runtime, the multicore worker pool and the streaming out-of-core data
# path are catchable from one command.  The linter runs first: it is the cheapest check and its
# findings (mutated Function inputs, unguarded id() keys, scatter loops
# in hot paths) usually explain downstream test failures.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python -m repro.analysis.lint src/
python -m pytest -x -q
# The benchmark's own tests install every perfbench wrap, so a src/
# refactor that drops a callable the benchmark instruments fails here.
python -m pytest -q perfbench/selftest.py
python benchmarks/bench_pipeline.py --smoke
python benchmarks/bench_kernels.py --smoke
python benchmarks/bench_serving.py --smoke
python benchmarks/bench_runtime.py --smoke
python benchmarks/bench_parallel.py --smoke
python benchmarks/bench_data.py --smoke
echo "check: OK"
