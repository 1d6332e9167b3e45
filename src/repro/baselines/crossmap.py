"""CrossMap baseline (Zhang et al., WWW 2017) and its CrossMap(U) variant.

CrossMap "jointly maps different units into the latent space but only models
the co-occurrence and neighborhood relationships" — i.e. it is the
single-layer special case of ACTOR (Section 5.4): SGNS over the activity
graph's intra-record edge types, each word treated individually, plus
spatial/temporal neighborhood smoothing edges (LL/TT), with no user
pretraining and no bag-of-words structure.

``CrossMap(U)`` (Table 2) additionally adds user vertices and flat
``UT/UL/UW`` edges to the same graph — "extend CrossMap on the activity
graph with the auxiliary vertex type of U" — still without the hierarchical
initialization.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import GraphBaseline
from repro.core.hierarchical import random_init
from repro.data.records import Corpus
from repro.embedding.edge_sampler import TypedEdgeSampler
from repro.embedding.sgns import sgns_step
from repro.graphs.types import EdgeType
from repro.utils.rng import ensure_rng

__all__ = ["CrossMap"]

_BASE_TYPES = (EdgeType.TL, EdgeType.LW, EdgeType.WT, EdgeType.WW,
               EdgeType.LL, EdgeType.TT)
_USER_TYPES = (EdgeType.UT, EdgeType.UL, EdgeType.UW)


class CrossMap(GraphBaseline):
    """Flat cross-modal embedding over the activity graph.

    Parameters
    ----------
    dim, lr, negatives, batch_size, epochs:
        SGNS hyper-parameters (same meanings as :class:`ActorConfig`).
    include_users:
        ``True`` builds the CrossMap(U) variant.
    neighbor_smoothing:
        Add the LL/TT spatial/temporal continuity edges (CrossMap's
        distinguishing feature vs. plain LINE on the same graph).
    **shared:
        The graph settings of :class:`~repro.baselines.base.GraphBaseline`.
    """

    def __init__(
        self,
        dim: int = 64,
        *,
        lr: float = 0.02,
        negatives: int = 1,
        batch_size: int = 256,
        epochs: int = 30,
        include_users: bool = False,
        neighbor_smoothing: bool = True,
        **shared,
    ) -> None:
        super().__init__(dim, **shared)
        self.name = "CrossMap(U)" if include_users else "CrossMap"
        self.lr = float(lr)
        self.negatives = int(negatives)
        self.batch_size = int(batch_size)
        self.epochs = int(epochs)
        self.include_users = include_users
        self.neighbor_smoothing = neighbor_smoothing

    def fit(self, corpus: Corpus) -> "CrossMap":
        """Train on ``corpus`` (see :class:`SpatiotemporalModel`)."""
        rng = ensure_rng(self.seed)
        activity = self.build_graphs(corpus).activity
        self.center, self.context = random_init(activity.n_nodes, self.dim_, rng)

        edge_types = _BASE_TYPES + (_USER_TYPES if self.include_users else ())
        samplers = [
            TypedEdgeSampler(activity.edge_set(et), negatives=self.negatives)
            for et in edge_types
            if len(activity.edge_set(et)) > 0
        ]
        batches = max(
            1,
            int(np.ceil(activity.n_edges / (self.batch_size * len(samplers)))),
        )
        total_steps = self.epochs * len(samplers) * batches
        step = 0
        for _epoch in range(self.epochs):
            for sampler in samplers:
                lr = self.lr * max(0.1, 1.0 - step / max(1, total_steps))
                for _ in range(batches):
                    batch = sampler.sample_batch(self.batch_size, rng)
                    sgns_step(
                        self.center, self.context,
                        batch.src, batch.dst, batch.neg, lr,
                    )
                step += batches
        return self
