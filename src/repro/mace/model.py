"""The MACE model: equivariant message passing with higher body-order products.

Architecture (paper Figure 2):

1. **Embedding** — species -> channel features (degree-0 block of ``h``);
   edge displacements -> spherical harmonics + Bessel radial features.
2. **Interaction** (x ``n_layers``) — channelwise tensor product of edge
   harmonics with sender features, weighted by a radial MLP (Algorithm 2),
   pooled over neighborhoods into the atomic basis ``A_{i,klm}``.  The
   first interaction's sender features are the scalar embedding (their
   ``l > 0`` blocks are exactly zero), so it contracts only the degree-0
   block against a TP table restricted to ``l2 = 0``; later interactions
   contract the full ``l <= l_hidden`` features.
3. **Product** — symmetric tensor contraction of ``A`` up to correlation
   order ``nu`` (Algorithm 3) followed by an equivariant linear update with
   a residual connection.
4. **Readout** — intermediate layers: linear on the invariant part; final
   layer: MLP.  Per-atom energies are pooled per graph.

The ``kernel_variant`` config switch selects baseline vs optimized
implementations of Algorithms 2-3 — everything else is shared, which is
what makes the ablation clean.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from ..autograd import Tensor, gather_rows, segment_sum
from ..autograd.engine import no_grad
from ..equivariant.spherical_harmonics import sh_dim
from ..runtime import CompiledPlan, PlanCache, PlanStale, batch_signature, record_tape
from ..graphs.batch import GraphBatch
from ..kernels import (
    channelwise_tp_baseline,
    channelwise_tp_optimized,
    channelwise_tp_table,
    sym_contraction_spec,
    symmetric_contraction_baseline,
    symmetric_contraction_optimized,
    weight_layout,
)
from ..nn import MLP, Embedding, EquivariantLinear, Linear, Module, Parameter
from .config import MACEConfig
from .geometry import (
    edge_lengths,
    edge_spherical_harmonics,
    edge_vectors,
    within_cutoff,
)
from .radial import RadialNetwork

__all__ = ["MACE", "InteractionLayer"]


class InteractionLayer(Module):
    """One MACE interaction + product block (Figure 2 c-d).

    ``h_lmax`` is the degree cap of the layer's input features that can
    be non-zero (default ``cfg.l_hidden``).  Below ``cfg.l_hidden`` the
    tensor product gathers only that many feature components onto edges
    and runs on a restricted table; the path list, and with it the radial
    network and every parameter, stays the same.
    """

    def __init__(
        self, cfg: MACEConfig, rng: np.random.Generator, h_lmax: Optional[int] = None
    ) -> None:
        super().__init__()
        self.cfg = cfg
        K = cfg.num_channels
        self.tp_table = channelwise_tp_table(
            cfg.lmax_sh, cfg.l_hidden, cfg.l_atomic_basis, h_lmax
        )
        self.radial = RadialNetwork(
            cfg.n_radial_basis,
            cfg.radial_mlp_hidden,
            K,
            self.tp_table.num_paths,
            cfg.cutoff,
            rng,
        )
        self.linear_A = EquivariantLinear(K, K, cfg.l_atomic_basis, rng=rng)
        self.sc_spec = sym_contraction_spec(cfg.l_atomic_basis, cfg.correlation, cfg.l_hidden)
        scale = 1.0 / math.sqrt(max(self.sc_spec.total_nnz(), 1))
        for i, (nu, L, n_paths) in enumerate(weight_layout(self.sc_spec)):
            setattr(
                self,
                f"product_weight_{i}",
                Parameter(rng.standard_normal((cfg.n_species, K, n_paths)) * scale),
            )
        self.linear_msg = EquivariantLinear(K, K, cfg.l_hidden, rng=rng)
        self.linear_skip = EquivariantLinear(K, K, cfg.l_hidden, rng=rng)

    def _product_weights(self) -> List[Parameter]:
        return [
            getattr(self, f"product_weight_{i}")
            for i in range(len(self.sc_spec.blocks))
        ]

    def forward(
        self,
        h: Tensor,
        Y: Tensor,
        r: Tensor,
        edge_index,  # (2, E) array or (send, recv) pair; rows may be Tensors
        species_idx,  # (N,) array or integer Tensor
        edge_mask: Optional[Tensor] = None,
    ) -> Tensor:
        cfg = self.cfg
        send, recv = edge_index
        n_atoms = h.shape[0]
        R = self.radial(r)  # (E, K, n_paths)
        h_dim = self.tp_table.h_dim
        h_send = h if h.shape[2] == h_dim else h[:, :, :h_dim]
        h_j = gather_rows(h_send, send)  # sender features on edges
        if edge_mask is not None:
            # Padded batches: zero the sender features of masked
            # (out-of-cutoff or ghost) edges.  The tensor product is
            # linear in them, so those edges contribute exactly nothing,
            # and h_j is several times narrower than the radial weights.
            h_j = h_j * edge_mask
        if cfg.kernel_variant == "optimized":
            A_edge = channelwise_tp_optimized(Y, h_j, R, self.tp_table)
        else:
            A_edge = channelwise_tp_baseline(Y, h_j, R, self.tp_table)
        # Pool messages onto receivers; normalize by typical neighbor count.
        A = segment_sum(A_edge, recv, n_atoms) / math.sqrt(cfg.avg_num_neighbors)
        A = self.linear_A(A)
        weights = self._product_weights()
        if cfg.kernel_variant == "optimized":
            msg = symmetric_contraction_optimized(A, species_idx, weights, self.sc_spec)
        else:
            msg = symmetric_contraction_baseline(A, species_idx, weights, self.sc_spec)
        return self.linear_msg(msg) + self.linear_skip(h)


class MACE(Module):
    """Full MACE potential: graphs in, per-graph energies out.

    Parameters
    ----------
    cfg:
        Hyperparameters; ``cfg.kernel_variant`` selects the kernel paths.
    seed:
        Initialization seed (two models with the same seed but different
        kernel variants have *identical* parameters — the property the
        loss-parity experiment relies on).
    """

    def __init__(self, cfg: MACEConfig = MACEConfig(), seed: int = 0) -> None:
        super().__init__()
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        K = cfg.num_channels
        self._z_to_idx = {z: i for i, z in enumerate(cfg.species)}
        self.embedding = Embedding(cfg.n_species, K, rng=rng)
        for t in range(cfg.n_layers):
            # Layer 0 sees only the scalar embedding (see forward).
            h_lmax = 0 if t == 0 else cfg.l_hidden
            setattr(self, f"layer{t}", InteractionLayer(cfg, rng, h_lmax))
        for t in range(cfg.n_layers - 1):
            setattr(self, f"readout{t}", Linear(K, 1, rng=rng))
        self.readout_final = MLP([K, cfg.readout_mlp_hidden, 1], rng=rng)
        self.species_energy = Parameter(np.zeros(cfg.n_species))
        self.energy_scale = Parameter(np.ones(1))

    # -- species handling -------------------------------------------------------

    def species_indices(self, atomic_numbers: np.ndarray) -> np.ndarray:
        """Map atomic numbers to embedding rows (raises on unknown species)."""
        try:
            return np.asarray(
                [self._z_to_idx[int(z)] for z in atomic_numbers], dtype=np.int64
            )
        except KeyError as exc:  # pragma: no cover - defensive
            raise KeyError(f"species {exc} not in model config") from exc

    # -- forward -----------------------------------------------------------------

    def forward(
        self,
        batch: GraphBatch,
        positions: Optional[Tensor] = None,
        edges: Optional[Tuple] = None,
        species: Optional[Tensor] = None,
        graph_index: Optional[Tensor] = None,
        edge_mask: Optional[Tensor] = None,
    ) -> Tensor:
        """Per-graph total energies, shape ``(n_graphs,)``.

        Pass a ``positions`` tensor with ``requires_grad=True`` to obtain
        forces via ``backward`` (see :meth:`forces`).  The other keyword
        tensors override batch arrays so a compiled plan listing them
        among its inputs rebinds them per replay instead of folding
        them as constants:

        * ``edges`` — a ``(send, recv, shift)`` triple of (integer)
          tensors;
        * ``species`` — ``(N,)`` embedding-row indices (already mapped
          by :meth:`species_indices`);
        * ``graph_index`` — ``(N,)`` graph id of each atom;
        * ``edge_mask`` — ``(E,)`` float, 1 for edges that count and 0
          for ghost edges.  Without it a batch with ``masked_cutoff``
          derives the mask from the edge lengths.

        Energy and force plans bind all but ``edge_mask`` (see
        :meth:`predict_energy`); training plans bind all of them (see
        :meth:`repro.training.Trainer._loss_step`).
        """
        cfg = self.cfg
        if positions is None:
            positions = Tensor(batch.positions)
        species_idx = (
            self.species_indices(batch.species) if species is None else species
        )
        if graph_index is None:
            graph_index = batch.graph_index
        n_atoms = batch.n_atoms

        if edges is None:
            send, recv = batch.edge_index
            shift = batch.edge_shift
        else:
            send, recv, shift = edges
        vec = edge_vectors(positions, (send, recv), shift)
        r = edge_lengths(vec)
        Y = edge_spherical_harmonics(vec, cfg.lmax_sh)
        masked_cutoff = getattr(batch, "masked_cutoff", None)
        if edge_mask is None and masked_cutoff is not None:
            # The batch carries a candidate edge superset (Verlet skin +
            # ghost padding); mask each interaction's messages so only
            # the within-cutoff edges contribute.  The mask is part of
            # the recorded graph: plan replays recompute it from the
            # current positions, tracking edges that cross the cutoff.
            edge_mask = within_cutoff(r, masked_cutoff)
        if edge_mask is not None:
            edge_mask = edge_mask.reshape((batch.n_edges, 1, 1))

        # Embedding: degree-0 block carries the species embedding.
        h0 = self.embedding(species_idx)  # (N, K)
        zeros = Tensor(np.zeros((n_atoms, cfg.num_channels, sh_dim(cfg.l_hidden) - 1)))
        from ..autograd.ops import concatenate

        h = concatenate(
            [h0.reshape((n_atoms, cfg.num_channels, 1)), zeros], axis=2
        )

        site_energy = gather_rows(self.species_energy, species_idx)  # (N,)
        for t in range(cfg.n_layers):
            h = getattr(self, f"layer{t}")(
                h, Y, r, (send, recv), species_idx, edge_mask=edge_mask
            )
            invariant = h[:, :, 0]  # (N, K) degree-0 part
            if t < cfg.n_layers - 1:
                contrib = getattr(self, f"readout{t}")(invariant)
            else:
                contrib = self.readout_final(invariant)
            site_energy = site_energy + self.energy_scale * contrib.reshape((n_atoms,))
        return segment_sum(site_energy, graph_index, batch.n_graphs)

    # -- compiled execution (repro.runtime) --------------------------------------

    @staticmethod
    def _plan_cache_for(compiled) -> Optional[PlanCache]:
        """Validate the ``compiled=`` argument: ``None`` (eager) or a cache."""
        if compiled is None or isinstance(compiled, PlanCache):
            return compiled
        raise TypeError(f"compiled must be None or a PlanCache, got {compiled!r}")

    def _plan_arrays(self, batch: GraphBatch) -> tuple:
        """The replay inputs of an energy/force plan, in binding order."""
        send, recv = batch.edge_index
        return (
            batch.positions,
            self.species_indices(batch.species),
            send,
            recv,
            batch.edge_shift,
            batch.graph_index,
        )

    def _forward_on(self, batch: GraphBatch, inputs: tuple) -> Tensor:
        """:meth:`forward` with every per-batch array taken from ``inputs``."""
        positions, species, send, recv, shift, graph_index = inputs
        return self.forward(
            batch,
            positions=positions,
            edges=(send, recv, shift),
            species=species,
            graph_index=graph_index,
        )

    def forces(self, batch: GraphBatch, compiled=None) -> np.ndarray:
        """``(n_atoms, 3)`` forces, ``F = -dE/dr`` via reverse-mode autograd.

        ``compiled`` selects the record-once/replay-many path (see
        :meth:`energy_and_forces`, which this delegates to).
        """
        return self.energy_and_forces(batch, compiled=compiled)[1]

    def energy_and_forces(
        self, batch: GraphBatch, compiled=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-graph energies and per-atom forces from one forward+backward.

        With ``compiled`` (a :class:`~repro.runtime.PlanCache`), the
        forward+backward pass is captured once per shape
        (:func:`~repro.runtime.batch_signature`) and replayed with no
        tape construction.  Positions (requiring grad), species indices,
        the edge arrays and ``graph_index`` are replay inputs, so any
        batch of a captured shape — an MD step, a padded-MD Verlet
        rebuild into the same edge bucket, another composition — hits
        the plan.  The compiled backward targets only the positions,
        pruning the parameter-gradient branches the eager pass always
        pays for.  Falls back to eager on a guard rejection.
        """
        cache = self._plan_cache_for(compiled)
        if cache is not None:
            # The plan pins this model as its owner, so id(self) cannot be
            # recycled into a key collision while the entry is alive.
            key = ("forces", id(self)) + batch_signature(batch)  # lint: allow-id-keyed-dict
            arrays = self._plan_arrays(batch)
            plan = cache.get(key)
            if plan is not None:
                try:
                    (energies,), grads = plan.replay(*arrays)
                    return energies, -grads[0]
                except PlanStale:
                    cache.invalidate(key)
            else:
                positions = Tensor(batch.positions.copy(), requires_grad=True)
                inputs = (positions,) + tuple(Tensor(a) for a in arrays[1:])
                with record_tape() as tape:
                    energies = self._forward_on(batch, inputs)
                    total = energies.sum()
                total.backward()
                assert positions.grad is not None
                cache.put(
                    key,
                    CompiledPlan(
                        tape,
                        outputs=(energies,),
                        seed=total,
                        inputs=inputs,
                        grad_params=False,
                        owner=self,
                    ),
                )
                return energies.numpy(), -positions.grad
        positions = Tensor(batch.positions.copy(), requires_grad=True)
        energies = self.forward(batch, positions=positions)
        energies.sum().backward()
        assert positions.grad is not None
        return energies.numpy(), -positions.grad

    def predict_energy(self, batch: GraphBatch, compiled=None) -> np.ndarray:
        """Per-graph energies as a plain array (no tape).

        With ``compiled`` (a :class:`~repro.runtime.PlanCache`), the
        inference graph is captured once per shape and replayed
        thereafter, binding the same inputs as :meth:`energy_and_forces`
        (the edge geometry is recomputed every replay), so a serving
        micro-batch hits the plan of any earlier batch of its shape.
        """
        cache = self._plan_cache_for(compiled)
        if cache is None:
            with no_grad():
                return self.forward(batch).numpy()
        # id(self) is safe here for the same owner-pinning reason as above.
        key = ("energy", id(self)) + batch_signature(batch)  # lint: allow-id-keyed-dict
        arrays = self._plan_arrays(batch)
        plan = cache.get(key)
        if plan is not None:
            try:
                (energies,), _ = plan.replay(*arrays)
                return energies
            except PlanStale:
                cache.invalidate(key)
                with no_grad():
                    return self.forward(batch).numpy()
        inputs = tuple(Tensor(a) for a in arrays)
        with record_tape() as tape, no_grad():
            out = self._forward_on(batch, inputs)
        cache.put(key, CompiledPlan(tape, outputs=(out,), inputs=inputs, owner=self))
        return out.numpy()
