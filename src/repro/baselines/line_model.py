"""LINE and LINE(U) baselines on the activity graph (Table 2).

LINE (Tang et al., WWW 2015) is a *homogeneous* graph embedding: all
activity-graph edge types are pooled into a single edge set and embedded
with second-order proximity SGNS, ignoring vertex/edge types entirely —
which is exactly why it trails the type-aware methods in Table 2.

``LINE(U)`` is the paper's adaptation "to the activity graph with the
auxiliary vertex type of U": the pooled edge set additionally includes the
user-to-unit edges.
"""

from __future__ import annotations

from repro.baselines.base import SpatiotemporalModel
from repro.core.prediction import GraphEmbeddingModel
from repro.data.records import Corpus
from repro.data.text import Vocabulary
from repro.embedding.line import LineEmbedding, merge_edge_sets
from repro.graphs.builder import GraphBuilder
from repro.graphs.types import EdgeType
from repro.hotspots.detector import HotspotDetector

__all__ = ["LineModel"]

_UNIT_TYPES = (EdgeType.TL, EdgeType.LW, EdgeType.WT, EdgeType.WW)
_USER_TYPES = (EdgeType.UT, EdgeType.UL, EdgeType.UW)


class LineModel(GraphEmbeddingModel, SpatiotemporalModel):
    """Homogeneous LINE embedding of the (pooled) activity graph.

    Parameters
    ----------
    include_users:
        ``True`` builds the LINE(U) variant.
    order:
        LINE proximity order (2 by default, the stronger variant).
    n_samples:
        Total edge samples; ``None`` scales with the graph's edge count.
    """

    def __init__(
        self,
        dim: int = 64,
        *,
        order: int = 2,
        negatives: int = 5,
        lr: float = 0.025,
        batch_size: int = 256,
        n_samples: int | None = None,
        include_users: bool = False,
        spatial_bandwidth: float = 0.5,
        temporal_bandwidth: float = 0.75,
        vocab_min_count: int = 2,
        vocab_max_size: int | None = 20_000,
        seed: int = 0,
    ) -> None:
        self.name = "LINE(U)" if include_users else "LINE"
        self.dim_ = int(dim)
        self.order = order
        self.negatives = negatives
        self.lr = lr
        self.batch_size = batch_size
        self.n_samples = n_samples
        self.include_users = include_users
        self.spatial_bandwidth = spatial_bandwidth
        self.temporal_bandwidth = temporal_bandwidth
        self.vocab_min_count = vocab_min_count
        self.vocab_max_size = vocab_max_size
        self.seed = seed

    def fit(self, corpus: Corpus) -> "LineModel":
        """Train on ``corpus`` (see :class:`SpatiotemporalModel`)."""
        builder = GraphBuilder(
            detector=HotspotDetector(
                spatial_bandwidth=self.spatial_bandwidth,
                temporal_bandwidth=self.temporal_bandwidth,
            ),
            vocab=Vocabulary(
                min_count=self.vocab_min_count, max_size=self.vocab_max_size
            ),
            include_users=self.include_users,
        )
        self.built = builder.build(corpus)
        activity = self.built.activity
        edge_types = _UNIT_TYPES + (_USER_TYPES if self.include_users else ())
        pooled = merge_edge_sets([activity.edge_set(et) for et in edge_types])
        n_samples = self.n_samples
        if n_samples is None:
            # LINE convention: samples proportional to edge count; ~30
            # passes over the pooled edge set matches the other baselines'
            # training budget.
            n_samples = 30 * len(pooled)
        line = LineEmbedding(
            self.dim_,
            order=self.order,
            negatives=self.negatives,
            lr=self.lr,
            batch_size=self.batch_size,
        ).fit(pooled, activity.n_nodes, n_samples=n_samples, seed=self.seed)
        self.center = line.embeddings
        self.context = line.context
        return self
