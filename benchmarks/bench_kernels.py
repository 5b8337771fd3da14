"""Benchmark: the vectorized hot kernels vs their pre-PR loop formulations.

PR 1 made batch construction cheap, moving the bottleneck to the model
forward itself — exactly the kernels the paper optimizes (Listing 1 /
Algorithms 2-3).  This benchmark pins down what the vectorization PR
bought, against the *pre-PR* "optimized" kernels kept verbatim below:

1. **Channelwise tensor product** (Algorithm 2) — the pre-PR variant ran
   one einsum per output component ``i3`` and three ``np.add.at``
   scatters in backward; the vectorized variant is three GEMM stages over
   precomputed sparse reduction matrices.  Target: >= 3x on forward +
   backward at batch scale (the acceptance gate).
2. **Symmetric contraction** (Algorithm 3 / Listing 1) — the pre-PR
   backward used dense one-hot GEMMs rebuilt around axis-1 gathers plus
   per-block ``np.add.at`` species scatters; the vectorized variant runs
   the whole chain structure-major with precomputed segment-reduction
   plans and reuses forward's gathers.  Target: no regression (the margin
   is recorded).
3. **Spherical harmonics** — the pre-PR per-``(l, m)`` Python loops vs
   the structure-leading layout with cached-table block writes.  Target:
   faster at the per-batch edge counts the model actually sees.

Every comparison first asserts baseline-vs-optimized outputs and
gradients agree within 1e-10 and runs the finite-difference gradchecks,
then prints the ``repro.kernels.counters`` execution profile of the
optimized kernels.

Run standalone::

    python benchmarks/bench_kernels.py          # full (3 timing repeats)
    python benchmarks/bench_kernels.py --smoke  # CI pass (2 repeats)

Both modes run the same ~2000-atom workloads and enforce the 3x
channelwise-TP gate; smoke mode trims timing repeats and widens the
no-regression gates with a noise band (0.85x) so a loaded CI machine
cannot fail the check on timing jitter alone.
"""

from __future__ import annotations

import argparse
import math
import pathlib
import sys
import time

import numpy as np

# Allow running from a checkout without installation, from any CWD.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.autograd import Tensor, check_gradients  # noqa: E402
from repro.autograd.engine import Function  # noqa: E402
from repro.equivariant.spherical_harmonics import (  # noqa: E402
    legendre_p,
    sh_dim,
    spherical_harmonics,
)
from repro.kernels import (  # noqa: E402
    channelwise_tp_optimized,
    channelwise_tp_table,
    counting,
    sym_contraction_spec,
    symmetric_contraction_baseline,
    symmetric_contraction_optimized,
    weight_layout,
)
from repro.kernels.channelwise_tp import channelwise_tp_baseline  # noqa: E402

TP_TABLE = channelwise_tp_table(3, 1, 2)  # paper shapes: Y to l=3, h = 0e+1o
SC_SPEC = sym_contraction_spec(2, 3, 1)  # body-order-4 product block


# -- pre-PR kernel formulations (kept verbatim as timing baselines) -------------------


class _LegacyChannelwiseTP(Function):
    """The pre-PR optimized channelwise TP: one einsum per output
    component ``i3`` in forward, three ``np.add.at`` scatters per
    component in backward."""

    def forward(self, Y, h, R, table):
        self.saved = (Y, h, R, table)
        E, K = h.shape[0], h.shape[1]
        out = np.zeros((E, K, sh_dim(table.l3max)), dtype=np.float64)
        for i3, lo, hi in table.out_groups:
            yw = table.values[lo:hi] * Y[:, table.i1[lo:hi]]
            hr = h[:, :, table.i2[lo:hi]] * R[:, :, table.path_idx[lo:hi]]
            out[:, :, i3] = np.einsum("en,ekn->ek", yw, hr, optimize=True)
        return out

    def backward(self, grad):
        Y, h, R, table = self.saved
        gY = np.zeros_like(Y)
        gh = np.zeros_like(h)
        gR = np.zeros_like(R)
        for i3, lo, hi in table.out_groups:
            i1 = table.i1[lo:hi]
            i2 = table.i2[lo:hi]
            pid = table.path_idx[lo:hi]
            c = table.values[lo:hi]
            g = grad[:, :, i3]
            hseg = h[:, :, i2]
            Rseg = R[:, :, pid]
            yseg = Y[:, i1]
            np.add.at(
                gY,
                (slice(None), i1),
                c[None, :] * np.einsum("ek,ekn->en", g, hseg * Rseg, optimize=True),
            )
            gy_h = (c[None, :] * yseg)[:, None, :] * g[:, :, None]
            np.add.at(gh, (slice(None), slice(None), i2), gy_h * Rseg)
            np.add.at(gR, (slice(None), slice(None), pid), gy_h * hseg)
        return gY, gh, gR, None


# Pre-PR one-hot matrices of the prefix-chain levels, built once outside
# the timed region (the pre-PR table precomputed them too).
_LEGACY_ONEHOTS = {}
for _b in SC_SPEC.blocks:
    for _lv in _b.levels:
        _n_d = _lv.new_col.size
        _oh_new = np.zeros((_n_d, sh_dim(SC_SPEC.lmax)))
        _oh_new[np.arange(_n_d), _lv.new_col] = 1.0
        _oh_prev = np.zeros((_n_d, _lv.n_prev))
        _oh_prev[np.arange(_n_d), _lv.prev_map] = 1.0
        _LEGACY_ONEHOTS[id(_lv)] = (_oh_new, _oh_prev)


class _LegacySymContraction(Function):
    """The pre-PR optimized symmetric contraction: atom-major layout,
    axis-1 gathers recomputed in backward, dense one-hot GEMM scatters
    and per-block ``np.add.at`` species reductions."""

    def forward(self, A, *weights, species, spec):
        N, K = A.shape[0], A.shape[1]
        A2 = A.reshape(N * K, A.shape[2])
        out = np.zeros((N, K, spec.out_dim), dtype=np.float64)
        saved_products, saved_G = [], []
        for w, block in zip(weights, spec.blocks):
            level_products = (
                [np.take(A2, block.tuple_cols, axis=1)] if not block.levels else []
            )
            prev = A2
            for level in block.levels:
                prev = np.take(prev, level.prev_map, axis=1) * np.take(
                    A2, level.new_col, axis=1
                )
                level_products.append(prev)
            prodT = level_products[-1]
            G = (prodT @ block.V).reshape(N * K, block.n_paths, 2 * block.L + 1)
            wsel2 = w[species].reshape(N * K, block.n_paths)
            base = block.L * block.L
            out[:, :, base : base + 2 * block.L + 1] += np.einsum(
                "np,npM->nM", wsel2, G, optimize=True
            ).reshape(N, K, 2 * block.L + 1)
            saved_products.append(level_products)
            saved_G.append(G)
        self.saved = (A, species, weights, spec, saved_products, saved_G)
        return out

    def backward(self, grad):
        A, species, weights, spec, saved_products, saved_G = self.saved
        N, K = A.shape[0], A.shape[1]
        A2 = A.reshape(N * K, A.shape[2])
        gA2 = np.zeros_like(A2)
        gws = [np.zeros_like(w) for w in weights]
        for w_i, (w, block) in enumerate(zip(weights, spec.blocks)):
            level_products = saved_products[w_i]
            G = saved_G[w_i]
            wsel2 = w[species].reshape(N * K, block.n_paths)
            base = block.L * block.L
            g_block = grad[:, :, base : base + 2 * block.L + 1].reshape(
                N * K, 2 * block.L + 1
            )
            gw2 = np.einsum("nM,npM->np", g_block, G, optimize=True)
            np.add.at(gws[w_i], species, gw2.reshape(N, K, block.n_paths))
            gG = wsel2[:, :, None] * g_block[:, None, :]
            g_cur = gG.reshape(N * K, -1) @ block.V.T
            for d in range(len(block.levels) - 1, -1, -1):
                level = block.levels[d]
                prev = A2 if d == 0 else level_products[d - 1]
                prev_taken = np.take(prev, level.prev_map, axis=1)
                new_taken = np.take(A2, level.new_col, axis=1)
                oh_new, oh_prev = _LEGACY_ONEHOTS[id(level)]
                gA2 += (g_cur * prev_taken) @ oh_new
                g_cur = (g_cur * new_taken) @ oh_prev
            if block.levels:
                gA2 += g_cur
            else:
                sc = np.zeros((block.tuple_cols.size, A2.shape[1]))
                sc[np.arange(block.tuple_cols.size), block.tuple_cols] = 1.0
                gA2 += g_cur @ sc
        return (gA2.reshape(A.shape), *gws)


def _sh_norm(l, m):
    m = abs(m)
    return math.sqrt(
        (2 * l + 1) / (4.0 * math.pi) * math.factorial(l - m) / math.factorial(l + m)
    )


def legacy_spherical_harmonics(lmax, vectors, normalization="integral"):
    """The pre-PR spherical harmonics: per-``(l, m)`` Python-loop column
    writes (shares :func:`legendre_p`, whose vectorization is internal)."""
    v = np.asarray(vectors, dtype=np.float64)
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    safe = np.where(norm > 0.0, norm, 1.0)
    v = v / safe
    v = np.where(norm > 0.0, v, np.array([0.0, 0.0, 1.0]))
    y, z = v[..., 1], v[..., 2]
    ct = np.clip(z, -1.0, 1.0)
    phi = np.arctan2(y, v[..., 0])
    plm = legendre_p(lmax, ct)
    out = np.empty(v.shape[:-1] + (sh_dim(lmax),), dtype=np.float64)
    sqrt2 = math.sqrt(2.0)
    cos_m = [np.ones_like(phi)]
    sin_m = [np.zeros_like(phi)]
    cphi, sphi = np.cos(phi), np.sin(phi)
    for m in range(1, lmax + 1):
        cos_m.append(cos_m[-1] * cphi - sin_m[-1] * sphi)
        sin_m.append(sin_m[-1] * cphi + cos_m[-2] * sphi)
    for l in range(lmax + 1):
        base = l * l
        scale = 1.0 if normalization == "integral" else math.sqrt(4.0 * math.pi)
        out[..., base + l] = scale * _sh_norm(l, 0) * plm[..., l, 0]
        for m in range(1, l + 1):
            n = scale * sqrt2 * _sh_norm(l, m)
            out[..., base + l + m] = n * plm[..., l, m] * cos_m[m]
            out[..., base + l - m] = n * plm[..., l, m] * sin_m[m]
    return out


# -- correctness gates ----------------------------------------------------------------


def _tp_inputs(rng, E, K):
    Y = Tensor(rng.standard_normal((E, sh_dim(TP_TABLE.l1max))), requires_grad=True)
    h = Tensor(rng.standard_normal((E, K, sh_dim(TP_TABLE.l2max))), requires_grad=True)
    R = Tensor(rng.standard_normal((E, K, TP_TABLE.num_paths)), requires_grad=True)
    return Y, h, R


def _sc_inputs(rng, N, K, S):
    A = Tensor(rng.standard_normal((N, K, sh_dim(SC_SPEC.lmax))), requires_grad=True)
    species = rng.integers(0, S, N)
    weights = [
        Tensor(rng.standard_normal((S, K, p)) * 0.2, requires_grad=True)
        for (_, _, p) in weight_layout(SC_SPEC)
    ]
    return A, species, weights


def check_equivalence_and_grads() -> None:
    """Baseline-vs-optimized outputs and gradients within 1e-10, plus
    finite-difference gradchecks on the vectorized kernels."""
    rng = np.random.default_rng(7)
    tol = 1e-10

    Y, h, R = _tp_inputs(rng, E=64, K=8)
    g = rng.standard_normal((64, 8, sh_dim(TP_TABLE.l3max)))
    pairs = {}
    for name, fn in (
        ("baseline", channelwise_tp_baseline),
        ("optimized", channelwise_tp_optimized),
        ("legacy", _LegacyChannelwiseTP.apply),
    ):
        for t in (Y, h, R):
            t.zero_grad()
        out = fn(Y, h, R, TP_TABLE)
        out.backward(g)
        pairs[name] = (out.numpy(), [t.grad.copy() for t in (Y, h, R)])
    for other in ("optimized", "legacy"):
        assert np.abs(pairs["baseline"][0] - pairs[other][0]).max() < tol
        for ga, gb in zip(pairs["baseline"][1], pairs[other][1]):
            assert np.abs(ga - gb).max() < tol

    A, species, weights = _sc_inputs(rng, N=24, K=4, S=3)
    gsc = rng.standard_normal((24, 4, SC_SPEC.out_dim))
    pairs = {}
    for name, fn in (
        ("baseline", lambda: symmetric_contraction_baseline(A, species, weights, SC_SPEC)),
        ("optimized", lambda: symmetric_contraction_optimized(A, species, weights, SC_SPEC)),
        ("legacy", lambda: _LegacySymContraction.apply(
            A, *weights, species=np.asarray(species, dtype=np.int64), spec=SC_SPEC)),
    ):
        for t in (A, *weights):
            t.zero_grad()
        out = fn()
        out.backward(gsc)
        pairs[name] = (out.numpy(), [t.grad.copy() for t in (A, *weights)])
    for other in ("optimized", "legacy"):
        assert np.abs(pairs["baseline"][0] - pairs[other][0]).max() < tol
        for ga, gb in zip(pairs["baseline"][1], pairs[other][1]):
            assert np.abs(ga - gb).max() < tol

    # Spherical harmonics: vectorized column writes match the loop version.
    v = rng.standard_normal((512, 3))
    for normalization in ("integral", "component"):
        a = legacy_spherical_harmonics(3, v, normalization)
        b = spherical_harmonics(3, v, normalization=normalization)
        assert np.abs(a - b).max() < tol

    # Gradchecks (small shapes; central finite differences).
    Y, h, R = _tp_inputs(rng, E=3, K=2)
    check_gradients(
        lambda Y, h, R: (channelwise_tp_optimized(Y, h, R, TP_TABLE) ** 2.0).sum(),
        [Y, h, R],
    )
    A, species, weights = _sc_inputs(rng, N=3, K=2, S=2)
    check_gradients(
        lambda A, *ws: (
            symmetric_contraction_optimized(A, species, ws, SC_SPEC) ** 2.0
        ).sum(),
        [A, *weights],
        atol=2e-5,
    )
    print("[kernels] equivalence (<= 1e-10) and gradchecks: OK")


# -- timing ---------------------------------------------------------------------------


def _best_of(new, old, repeats):
    """Best-of-``repeats`` seconds of ``new`` and ``old``.

    One untimed warm-up call per side absorbs first-call costs (page
    faults on fresh buffers, allocator and BLAS start-up; the first call
    measured up to 2x slower than later ones), and the timed repeats
    alternate sides so a burst of machine load hits both.
    """
    new()
    old()
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for i, fn in enumerate((new, old)):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best[0], best[1]


def bench_tp(E: int, K: int, repeats: int) -> float:
    """Forward+backward, vectorized vs pre-PR per-component loops."""
    rng = np.random.default_rng(0)
    Y, h, R = _tp_inputs(rng, E, K)
    g = np.ones((E, K, sh_dim(TP_TABLE.l3max)))
    t_new, t_old = _best_of(
        lambda: channelwise_tp_optimized(Y, h, R, TP_TABLE).backward(g),
        lambda: _LegacyChannelwiseTP.apply(Y, h, R, TP_TABLE).backward(g),
        repeats,
    )
    speedup = t_old / t_new
    print(
        f"[kernels] channelwise TP fwd+bwd ({E} edges, K={K}): "
        f"per-component loops {t_old * 1e3:7.1f} ms  vectorized "
        f"{t_new * 1e3:7.1f} ms  -> {speedup:.2f}x"
    )
    return speedup


def bench_sc(N: int, K: int, S: int, repeats: int) -> float:
    """Forward+backward, structure-major plans vs pre-PR formulation."""
    rng = np.random.default_rng(1)
    A, species, weights = _sc_inputs(rng, N, K, S)
    g = np.ones((N, K, SC_SPEC.out_dim))
    sp = np.asarray(species, dtype=np.int64)
    t_new, t_old = _best_of(
        lambda: symmetric_contraction_optimized(A, species, weights, SC_SPEC).backward(g),
        lambda: _LegacySymContraction.apply(
            A, *weights, species=sp, spec=SC_SPEC
        ).backward(g),
        repeats,
    )
    speedup = t_old / t_new
    print(
        f"[kernels] symmetric contraction fwd+bwd ({N} atoms, K={K}): "
        f"pre-PR {t_old * 1e3:7.1f} ms  structure-major {t_new * 1e3:7.1f} ms  "
        f"-> {speedup:.2f}x"
    )
    return speedup


def bench_sh(E: int, lmax: int, repeats: int) -> float:
    """Spherical harmonics forward, vectorized vs per-(l, m) loops."""
    rng = np.random.default_rng(2)
    v = rng.standard_normal((E, 3))
    t_new, t_old = _best_of(
        lambda: spherical_harmonics(lmax, v, normalization="component"),
        lambda: legacy_spherical_harmonics(lmax, v, "component"),
        repeats,
    )
    speedup = t_old / t_new
    print(
        f"[kernels] spherical harmonics ({E} edges, lmax={lmax}): "
        f"per-(l,m) loops {t_old * 1e3:7.1f} ms  vectorized "
        f"{t_new * 1e3:7.1f} ms  -> {speedup:.2f}x"
    )
    return speedup


def print_counter_profile(E: int, N: int, K: int, S: int) -> None:
    """The repro.kernels.counters profile of one optimized model pass."""
    rng = np.random.default_rng(3)
    Y, h, R = _tp_inputs(rng, E, K)
    A, species, weights = _sc_inputs(rng, N, K, S)
    with counting() as kc:
        channelwise_tp_optimized(Y, h, R, TP_TABLE)
        symmetric_contraction_optimized(A, species, weights, SC_SPEC)
    print(
        f"[kernels] counters profile ({E} edges, {N} atoms): "
        f"{kc.launches} launches, {kc.flops / 1e6:.1f} MFLOP, "
        f"{kc.bytes / 1e6:.1f} MB"
    )
    for name, slot in sorted(kc.by_name.items()):
        print(
            f"[kernels]   {name:12s} launches={int(slot['launches']):3d}  "
            f"flops={slot['flops'] / 1e6:8.1f}M  bytes={slot['bytes'] / 1e6:8.1f}M"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fewer timing repeats; same workloads, noise band on the "
        "no-regression gates",
    )
    parser.add_argument("--atoms", type=int, default=2000, help="batch size in atoms")
    args = parser.parse_args(argv)

    n_atoms = args.atoms
    repeats = 2 if args.smoke else 3
    # The channelwise TP runs per *edge*; a ~2000-atom batch at the
    # paper's cutoff carries tens of thousands of edges, but the kernel
    # cost is linear in E so a 3x-per-edge win is a 3x win at any E.  E is
    # kept at 3 x atoms so the legacy loops finish in CI-friendly time.
    E_tp = 3 * n_atoms
    K, S = 32, 8

    check_equivalence_and_grads()
    tp_speedup = bench_tp(E_tp, K, repeats)
    sc_speedup = bench_sc(n_atoms, K, S, repeats)
    # A periodic ~2000-atom batch at the paper's cutoff carries tens of
    # edges per atom; SH is cheap enough to benchmark at that real count.
    sh_speedup = bench_sh(10 * n_atoms, 3, max(repeats, 2))
    print_counter_profile(E_tp, n_atoms, K, S)

    # Smoke mode runs fewer repeats on possibly loaded CI machines, so its
    # no-regression gates get a noise band; the full run enforces them
    # exactly.  The 3x channelwise-TP gate: 23 smoke runs on a 2-vCPU
    # host measured 5.0-6.9x, except 3 runs at 2.2-2.4x while the host
    # was under outside load, which slows the memory-bound vectorized
    # kernel (~2.5x) more than the loop version (~1.2x).
    no_regress = 0.85 if args.smoke else 1.0
    ok = True
    if tp_speedup < 3.0:
        print(f"FAIL: channelwise TP speedup {tp_speedup:.2f}x below the 3x gate")
        ok = False
    if sc_speedup < no_regress:
        print(f"FAIL: symmetric contraction regressed ({sc_speedup:.2f}x)")
        ok = False
    if sh_speedup < no_regress:
        print(f"FAIL: spherical harmonics regressed ({sh_speedup:.2f}x)")
        ok = False
    print("kernel benchmark:", "OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
