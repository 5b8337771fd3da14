"""Plan caching: the bounded LRU of compiled plans and its key helper.

A :class:`~repro.runtime.plan.CompiledPlan` is specific to one *shape
bucket*.  Every compiled entry point — training loss steps, energies,
forces, serving micro-batches — binds each per-batch array (positions,
species indices, edges, graph membership, and for training the edge
mask, targets and loss weights) as a replay *input* and folds nothing
batch-specific, so one rule keys them all: the batch's shape,
:func:`batch_signature`, prefixed by what else the recorded graph
depends on (the entry point, the model, the loss weighting).  Two
batches with equal shapes share a plan whatever their content.  The
padding that makes shapes recur is the callers' policy: ``Trainer``
pads to the bin capacity and ladder rungs (``repro.graphs.pad_batch``),
padded MD to grow-only edge buckets.

:class:`PlanCache` is the bounded LRU holding the plans, with hit /
miss / capture / stale counters.  Anything the key cannot see — an
index dtype, a parameter swapped to a new shape — is caught by the
replay guard (``PlanStale``) and invalidates the entry.  Hot-swapping a
served model clears the engine's cache wholesale (see
``InferenceEngine.swap_model``); plans additionally pin their owning
model so ``id(model)``-scoped keys can never be recycled into a
collision while a plan is alive.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from .plan import CompiledPlan

__all__ = ["PlanCache", "batch_signature", "resolve_plan_cache"]


def resolve_plan_cache(value) -> Optional["PlanCache"]:
    """Normalize a ``plan_cache``/``compiled`` constructor argument.

    The shared convention across ``Trainer``, ``MACECalculator`` and
    ``InferenceEngine``: ``"auto"`` (or ``True``) builds a fresh private
    cache, ``None``/``False`` disables compiled execution, and an
    existing :class:`PlanCache` is used as-is (sharing allowed).
    """
    if value is None or value is False:
        return None
    if value == "auto" or value is True:
        return PlanCache()
    if isinstance(value, PlanCache):
        return value
    raise TypeError(
        f"plan cache must be 'auto', None, a bool or a PlanCache, got {value!r}"
    )


def batch_signature(batch) -> tuple:
    """The shape key of a batch: what a plan's guards and constants see.

    ``(n_atoms, n_edges, n_graphs, positions dtype, masked_cutoff)``.
    The counts fix every bound input's shape; the positions dtype keeps
    a float32 batch off a float64 plan; ``masked_cutoff`` is a constant
    of the recorded graph (the within-cutoff mask radius), so a masked
    batch never shares a plan with an exact-edge batch of equal shapes,
    nor with one masked at another radius.
    """
    return (
        batch.n_atoms,
        batch.n_edges,
        int(batch.n_graphs),
        batch.positions.dtype,
        batch.masked_cutoff,
    )


class PlanCache:
    """Bounded LRU cache of :class:`CompiledPlan` objects.

    Parameters
    ----------
    maxsize:
        Maximum number of cached plans (least-recently-used eviction);
        ``None`` means unbounded.
    verify:
        ``"auto"`` (default) statically verifies each plan once on
        insertion (:func:`repro.analysis.verify_plan`) so a miscompiled
        plan can never be replayed — :meth:`put` raises
        :class:`~repro.analysis.PlanInvalid` pinpointing the offending
        instruction.  ``None``/``False`` disables verification.  This is
        a build-time cost only: replays never re-verify.

    Attributes
    ----------
    hits, misses, captures, stale, verified:
        Counters: replay-served lookups, key misses, plans stored after
        a fresh capture, guard-rejected replays (``PlanStale``), and
        insertion-time verifications run.
    """

    def __init__(self, maxsize: Optional[int] = 64, verify: object = "auto") -> None:
        if maxsize is not None and maxsize <= 0:
            raise ValueError("maxsize must be positive (or None)")
        if verify not in ("auto", True, False, None):
            raise ValueError(f"verify must be 'auto', a bool or None, got {verify!r}")
        self.maxsize = maxsize
        self.verify = verify in ("auto", True)
        self.hits = 0
        self.misses = 0
        self.captures = 0
        self.stale = 0
        self.verified = 0
        self._store: "OrderedDict[object, CompiledPlan]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key) -> Optional[CompiledPlan]:
        """The cached plan for ``key``, bumping recency; ``None`` on miss."""
        plan = self._store.get(key)
        if plan is None:
            self.misses += 1
            return None
        self.hits += 1
        self._store.move_to_end(key)
        return plan

    def put(self, key, plan: CompiledPlan) -> CompiledPlan:
        """Store a freshly captured plan (evicting LRU past ``maxsize``).

        With ``verify="auto"`` the plan is statically verified first;
        :class:`~repro.analysis.PlanInvalid` propagates to the caller
        and nothing is stored — a miscompile can never be replayed.
        """
        if self.verify:
            # Imported lazily: repro.analysis pulls in the kernel and
            # model modules for its per-op rules, which themselves
            # import repro.runtime.
            from ..analysis.verifier import verify_plan

            verify_plan(plan)
            self.verified += 1
        self.captures += 1
        self._store[key] = plan
        self._store.move_to_end(key)
        if self.maxsize is not None and len(self._store) > self.maxsize:
            self._store.popitem(last=False)
        return plan

    def invalidate(self, key) -> None:
        """Drop one entry (called after a ``PlanStale`` replay guard)."""
        self.stale += 1
        self._store.pop(key, None)

    def clear(self) -> None:
        """Drop every plan (model hot-swap / registry publish path)."""
        self._store.clear()

    def stats(self) -> Dict[str, float]:
        """Counters plus the resulting replay hit rate."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "captures": self.captures,
            "stale": self.stale,
            "verified": self.verified,
            "size": len(self._store),
            "hit_rate": self.hits / total if total else 0.0,
        }
