"""Common interface for every compared method (paper Section 6.1.2).

All eight Table-2 rows — LGTA, MGTM, metapath2vec, LINE, LINE(U), CrossMap,
CrossMap(U) and ACTOR — are driven by the same evaluation harness through
:class:`SpatiotemporalModel`: fit on a training corpus, then score candidate
sets for the three prediction tasks.

The embedding baselines derive from :class:`GraphBaseline`, which holds
the settings they share with ACTOR's front end and the one graph recipe —
mean-shift hotspots plus a pruned vocabulary, fed to
:class:`~repro.graphs.builder.GraphBuilder` — so each baseline keeps only
its embedding objective.  They get their scoring from
:class:`~repro.core.prediction.GraphEmbeddingModel` (cosine similarity in
the shared latent space); the topic models implement probabilistic scoring
and — like in the paper, where Table 2 shows "/" — do not support the time
task (``supports_time = False``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from repro.core.prediction import GraphEmbeddingModel
from repro.data.records import Corpus
from repro.data.text import Vocabulary
from repro.graphs.builder import BuiltGraphs, GraphBuilder
from repro.hotspots.detector import HotspotDetector

__all__ = ["SpatiotemporalModel", "GraphBaseline"]


class SpatiotemporalModel(ABC):
    """Fit / score interface shared by ACTOR and every baseline."""

    #: Human-readable name used in result tables.
    name: str = "model"
    #: Whether the model can rank time candidates (topic models cannot).
    supports_time: bool = True

    @abstractmethod
    def fit(self, corpus: Corpus) -> "SpatiotemporalModel":
        """Train on ``corpus`` and return ``self``."""

    @abstractmethod
    def score_candidates(
        self,
        *,
        target: str,
        candidates: Sequence,
        time: float | None = None,
        location: tuple[float, float] | None = None,
        words: Sequence[str] | None = None,
    ) -> np.ndarray:
        """Score each candidate of the ``target`` modality (higher = better).

        Exactly two of ``time`` / ``location`` / ``words`` are given — the
        observed modalities; ``candidates`` hold values of the third:
        word bags for ``target="text"``, ``(x, y)`` pairs for
        ``"location"``, timestamps for ``"time"``.
        """


class GraphBaseline(GraphEmbeddingModel, SpatiotemporalModel):
    """An embedding baseline trained on ACTOR's activity graph.

    Subclasses add their embedding hyper-parameters and ``fit``; the graph
    comes from :meth:`build_graphs`.

    Parameters
    ----------
    dim:
        Embedding dimension.
    spatial_bandwidth / temporal_bandwidth:
        Mean-shift window radii of the :class:`HotspotDetector`, in
        kilometres / hours.
    vocab_min_count / vocab_max_size:
        Keyword pruning of the :class:`~repro.data.text.Vocabulary`.
    seed:
        Seed of the model's RNG stream.
    """

    #: Add user vertices and the UT/UL/UW edges to the graph.
    include_users: bool = False
    #: Add the LL/TT spatial/temporal neighborhood smoothing edges.
    neighbor_smoothing: bool = False

    def __init__(
        self,
        dim: int = 64,
        *,
        spatial_bandwidth: float = 0.5,
        temporal_bandwidth: float = 0.75,
        vocab_min_count: int = 2,
        vocab_max_size: int | None = 20_000,
        seed: int = 0,
    ) -> None:
        self.dim_ = int(dim)
        self.spatial_bandwidth = spatial_bandwidth
        self.temporal_bandwidth = temporal_bandwidth
        self.vocab_min_count = vocab_min_count
        self.vocab_max_size = vocab_max_size
        self.seed = seed

    def build_graphs(self, corpus: Corpus) -> BuiltGraphs:
        """Detect hotspots, fit the vocabulary and build ``self.built``."""
        self.built = GraphBuilder(
            detector=HotspotDetector(
                spatial_bandwidth=self.spatial_bandwidth,
                temporal_bandwidth=self.temporal_bandwidth,
            ),
            vocab=Vocabulary(
                min_count=self.vocab_min_count, max_size=self.vocab_max_size
            ),
            include_users=self.include_users,
            neighbor_smoothing=self.neighbor_smoothing,
        ).build(corpus)
        return self.built
