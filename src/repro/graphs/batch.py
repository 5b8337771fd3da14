"""Mini-batch assembly of molecular graphs.

Graph neural network libraries combine many small graphs into one batch by
stacking adjacency structure block-diagonally (paper Figure 3): atom arrays
are concatenated and edge indices offset so each graph stays an isolated
component.  The batch additionally records *padding*: when the batch is
allocated at a fixed token capacity (the bin size ``C`` of the load
balancer), any capacity not filled by real atoms is zero-padded memory —
the quantity objective (4) of the bin-packing formulation minimizes.

Compiled plans (:mod:`repro.runtime`) go one step further and
*materialize* that padding: :func:`pad_batch` copies a batch into fixed
atom / edge / graph capacities — a plan's shape bucket — so every batch
of a bucket binds the same array shapes as replay inputs.
:func:`bucket_capacity` is the capacity ladder for the counts a bin
capacity does not fix, and :func:`pad_edges` the ghost-edge padding
shared by training and padded MD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .molecular_graph import MolecularGraph

__all__ = ["GraphBatch", "bucket_capacity", "collate", "pad_batch", "pad_edges"]


@dataclass
class GraphBatch:
    """A block-diagonal batch of molecular graphs.

    Attributes
    ----------
    positions, species:
        Concatenated per-atom arrays over all member graphs.
    edge_index:
        ``(2, n_edges)`` with per-graph vertex offsets applied.
    edge_shift:
        ``(n_edges, 3)`` periodic shift vectors.
    graph_index:
        ``(n_atoms,)`` id of the member graph owning each atom (for
        per-graph energy pooling).
    n_graphs:
        Number of member graphs.
    energies:
        ``(n_graphs,)`` reference energies (NaN where unlabeled).
    capacity:
        Token capacity the batch was packed into (0 = no fixed capacity).
    masked_cutoff:
        When set, ``edge_index`` is a candidate superset (Verlet-skin
        candidates plus ghost padding) rather than the exact
        within-cutoff set, and the model must mask every edge longer
        than this radius so it contributes exactly zero (see
        :class:`repro.md.MACECalculator`).  ``None`` (default) means the
        edges are already exact.
    """

    positions: np.ndarray
    species: np.ndarray
    edge_index: np.ndarray
    edge_shift: np.ndarray
    graph_index: np.ndarray
    n_graphs: int
    energies: np.ndarray
    capacity: int = 0
    masked_cutoff: "float | None" = None

    @property
    def n_atoms(self) -> int:
        """Token count (ghost atoms included for a :func:`pad_batch` copy)."""
        return int(self.positions.shape[0])

    @property
    def n_edges(self) -> int:
        return int(self.edge_index.shape[1])

    @property
    def padding(self) -> int:
        """Zero-padded tokens when allocated at ``capacity``."""
        if self.capacity <= 0:
            return 0
        return max(self.capacity - self.n_atoms, 0)

    @property
    def padding_fraction(self) -> float:
        """Padding as a fraction of capacity (0 when capacity unset)."""
        if self.capacity <= 0:
            return 0.0
        return self.padding / self.capacity

    def displacement_vectors(self) -> np.ndarray:
        """Edge displacement vectors r_ji = pos[j] + shift - pos[i]."""
        send, recv = self.edge_index
        return self.positions[send] + self.edge_shift - self.positions[recv]


def collate(
    graphs: Sequence[MolecularGraph],
    capacity: int = 0,
) -> GraphBatch:
    """Assemble graphs into one :class:`GraphBatch` (Figure 3's operation).

    Every graph must already carry a neighbor list.  ``capacity`` records
    the bin size used to pack the batch so padding can be accounted.
    """
    if not graphs:
        raise ValueError("cannot collate an empty list of graphs")
    for g_id, g in enumerate(graphs):
        if not g.has_edges:
            raise ValueError(
                f"graph {g_id} ({g.system}) has no neighbor list; "
                "call build_neighbor_list first"
            )
    n_atoms = np.array([g.n_atoms for g in graphs], dtype=np.int64)
    offsets = np.cumsum(n_atoms) - n_atoms  # per-graph vertex offsets
    energies = np.array(
        [np.nan if g.energy is None else g.energy for g in graphs]
    )
    batch = GraphBatch(
        positions=np.concatenate([g.positions for g in graphs], axis=0),
        species=np.concatenate([g.species for g in graphs], axis=0),
        edge_index=np.concatenate(
            [g.edge_index + off for g, off in zip(graphs, offsets)], axis=1
        ),
        edge_shift=np.concatenate(
            [
                g.edge_shift
                if g.edge_shift is not None
                else np.zeros((g.n_edges, 3))
                for g in graphs
            ],
            axis=0,
        ),
        graph_index=np.repeat(np.arange(len(graphs), dtype=np.int64), n_atoms),
        n_graphs=len(graphs),
        energies=energies,
        capacity=capacity,
    )
    if capacity and batch.n_atoms > capacity:
        raise ValueError(
            f"batch holds {batch.n_atoms} tokens, over capacity {capacity}"
        )
    return batch


# Ladder resolution: rungs are multiples of 2**(bit_length(n) - 4), i.e.
# 8 rungs per octave, so padding stays under 1/8 of the count.  The
# lowest rung keeps padded arrays non-empty (an edgeless bin still gets
# ghost edges).
_LADDER_BITS = 3
_LADDER_MIN = 16


def bucket_capacity(n: int) -> int:
    """The smallest capacity rung holding ``n`` items.

    Rungs are spaced geometrically — multiples of 256 between 2048 and
    4096, of 128 between 1024 and 2048, and so on, from 16 up — so a run
    over batches of similar size visits a handful of buckets while
    padding stays below 12.5% of the count (about 4% on average).
    """
    n = max(int(n), _LADDER_MIN)
    step = 1 << max(n.bit_length() - 1 - _LADDER_BITS, 0)
    return -(-n // step) * step


def pad_edges(
    edge_index: np.ndarray,
    edge_shift: np.ndarray,
    capacity: int,
    ghost_length: float,
    ghost_atom: int = 0,
) -> "tuple[np.ndarray, np.ndarray]":
    """Pad an edge set to ``capacity`` edges with ghost edges.

    Ghost edges are self-edges on ``ghost_atom`` displaced by
    ``ghost_length`` along x: finite geometry, so every per-edge feature
    stays finite, and the model zeroes their messages through its edge
    mask (a mask input, or the ``masked_cutoff`` radius when
    ``ghost_length`` exceeds it).
    """
    pad = int(capacity) - edge_index.shape[1]
    if pad < 0:
        raise ValueError(
            f"{edge_index.shape[1]} edges do not fit edge capacity {capacity}"
        )
    ghost_index = np.full((2, pad), ghost_atom, dtype=edge_index.dtype)
    ghost_shift = np.zeros((pad, 3))
    ghost_shift[:, 0] = ghost_length
    return (
        np.concatenate([edge_index, ghost_index], axis=1),
        np.concatenate([edge_shift, ghost_shift], axis=0),
    )


def pad_batch(
    batch: GraphBatch,
    atom_capacity: int,
    edge_capacity: int,
    graph_capacity: int,
    ghost_length: float,
) -> GraphBatch:
    """Copy ``batch`` into fixed atom / edge / graph capacities.

    Ghost atoms fill rows ``batch.n_atoms`` onward: they sit at the
    origin with the first atom's species, have no real edges, and
    belong to the last graph slot, a dummy graph (graph slots past the
    batch's own graphs hold no real atoms and have energy 0).  Real
    edges are reordered by receiver (stable) and the ghost edges of
    :func:`pad_edges` sit on the last atom, so the receiver column is
    sorted and every segment sum onto atoms reduces contiguous rows.
    The copy is float64 / int64 whatever the input dtypes, so every
    batch of one bucket binds identically typed arrays.
    ``graph_capacity`` must leave room for the dummy graph.
    """
    n, g = batch.n_atoms, batch.n_graphs
    if atom_capacity < n or graph_capacity < g + 1:
        raise ValueError(
            f"batch of {n} atoms / {g} graphs does not fit capacities "
            f"{atom_capacity} / {graph_capacity} (one graph slot is the dummy)"
        )
    positions = np.zeros((atom_capacity, 3))
    positions[:n] = batch.positions
    species = np.full(atom_capacity, batch.species[0], dtype=np.int64)
    species[:n] = batch.species
    graph_index = np.full(atom_capacity, graph_capacity - 1, dtype=np.int64)
    graph_index[:n] = batch.graph_index
    energies = np.zeros(graph_capacity)
    energies[:g] = batch.energies
    by_receiver = np.argsort(batch.edge_index[1], kind="stable")
    edge_index, edge_shift = pad_edges(
        batch.edge_index[:, by_receiver].astype(np.int64, copy=False),
        batch.edge_shift[by_receiver],
        edge_capacity,
        ghost_length,
        ghost_atom=atom_capacity - 1,
    )
    return GraphBatch(
        positions=positions,
        species=species,
        edge_index=edge_index,
        edge_shift=edge_shift,
        graph_index=graph_index,
        n_graphs=graph_capacity,
        energies=energies,
        capacity=atom_capacity,
    )
