"""The ACTOR model facade — Algorithm 1 end to end.

    from repro import Actor, ActorConfig, generate_dataset

    data = generate_dataset("utgeo2011", n_records=8000, seed=7)
    model = Actor(ActorConfig(dim=64, epochs=20)).fit(data.train)
    scores = model.score_candidates(
        target="location", candidates=[...], time=21.5, words=["harbor_00"]
    )

``fit`` runs the four stages of the paper:

1. hotspot detection (mean shift on locations and times-of-day);
2. graph construction (activity graph + user interaction graph);
3. hierarchical initialization (LINE on the interaction graph, Section
   5.2.1) — skipped when ``use_inter`` / ``init_from_users`` are off or the
   corpus has no mentions;
4. alternating meta-graph SGNS training (Section 5.2.2-5.2.3).

The ablations of Table 4 are just configs: ``ActorConfig(use_inter=False)``
is *ACTOR w/o inter* and ``ActorConfig(use_intra_bow=False)`` is *ACTOR w/o
intra*.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import numpy as np

from repro.core.config import ActorConfig
from repro.core.hierarchical import initialize_from_users, random_init
from repro.core.prediction import GraphEmbeddingModel
from repro.core.trainer import ActorTrainer
from repro.data.records import Corpus
from repro.data.text import Vocabulary
from repro.embedding.line import LineEmbedding
from repro.graphs.builder import GraphBuilder
from repro.hotspots.detector import HotspotDetector
from repro.storage import DenseStore
from repro.utils.rng import ensure_rng, spawn_rng
from repro.utils.tracing import NULL_TRACER, stage

__all__ = ["Actor"]


class Actor(GraphEmbeddingModel):
    """Hierarchical cross-modal embedding model (the paper's contribution).

    Parameters
    ----------
    config:
        Hyper-parameters; defaults are laptop-scaled versions of the
        paper's Section 6.1.3 settings.
    """

    name = "ACTOR"
    supports_time = True

    def __init__(self, config: ActorConfig | None = None) -> None:
        self.config = config or ActorConfig()
        self.user_embeddings: np.ndarray | None = None
        self.trainer: ActorTrainer | None = None
        self._fitted = False

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return self._fitted

    def fit(
        self, corpus: Corpus, *, detector=None, metrics=None, tracer=None
    ) -> "Actor":
        """Run hotspot detection, graph building, initialization, training.

        Parameters
        ----------
        corpus:
            Training records.
        detector:
            Optional :class:`HotspotDetector` replacing the default
            mean-shift one — e.g. a
            :class:`~repro.hotspots.grid.GridDetector` for the
            discretization ablation.
        metrics:
            Optional :class:`~repro.utils.metrics.MetricsRegistry`.
            Forwarded to the trainer (per-epoch loss/time under
            ``train.*``), the hotspot detector (``hotspot.*``) and used
            for the stage histograms ``fit.build_graphs_seconds`` /
            ``fit.initialize_seconds`` / ``fit.train_seconds`` plus
            graph-size gauges (``graph.*``).  Detached from the trainer
            and the detector before :meth:`fit` returns, so a saved
            model never carries the caller's registry.
        tracer:
            Optional :class:`~repro.utils.tracing.Tracer`.  Emits an
            ``actor.fit`` span with ``fit.build_graphs`` /
            ``fit.initialize`` / ``fit.train`` children, one per stage
            (hotspot detection nests under the graph-build span, LINE
            pretraining under ``fit.initialize`` as
            ``fit.line_pretrain``).  Detached again before :meth:`fit`
            returns so pickled models never embed span forests.
        """
        cfg = self.config
        rng = ensure_rng(cfg.seed)
        build_rng, line_rng, init_rng, train_rng = spawn_rng(rng, 4)
        del build_rng  # graph construction is deterministic
        tracer = tracer if tracer is not None else NULL_TRACER

        if detector is None:
            detector = HotspotDetector(
                spatial_bandwidth=cfg.spatial_bandwidth,
                temporal_bandwidth=cfg.temporal_bandwidth,
                min_support=cfg.min_hotspot_support,
            )
        detector.metrics = metrics
        detector.tracer = tracer
        vocab = Vocabulary(
            min_count=cfg.vocab_min_count, max_size=cfg.vocab_max_size
        )
        builder = GraphBuilder(
            detector=detector,
            vocab=vocab,
            link_mentions=cfg.link_mentions,
            mention_link_weight=cfg.mention_link_weight,
            include_users=True,
        )
        with stage("actor.fit", tracer=tracer, records=len(corpus)) as fit:
            with stage(
                "fit.build_graphs", metrics=metrics, tracer=tracer
            ) as build:
                self.built = builder.build(corpus)
                build.set(
                    nodes=self.built.activity.n_nodes,
                    edges=self.built.activity.n_edges,
                )
            if metrics is not None:
                metrics.gauge("graph.activity_nodes").set(
                    self.built.activity.n_nodes
                )
                metrics.gauge("graph.activity_edges").set(
                    self.built.activity.n_edges
                )
                metrics.gauge("graph.interaction_edges").set(
                    self.built.interaction.n_edges
                )

            # Stage 3: LINE pretraining of the user interaction graph.
            # Only meaningful when the corpus has interaction edges *and*
            # the hierarchical machinery is enabled.
            pretrain = (
                cfg.use_inter
                and cfg.init_from_users
                and self.built.interaction.n_edges > 0
            )
            with stage("fit.initialize", metrics=metrics, tracer=tracer):
                if pretrain:
                    with stage("fit.line_pretrain", tracer=tracer):
                        line = LineEmbedding(
                            cfg.dim,
                            order=2,
                            negatives=cfg.line_negatives,
                            lr=cfg.lr,
                            batch_size=cfg.batch_size,
                        ).fit(
                            self.built.interaction.edge_set,
                            self.built.interaction.n_users,
                            n_samples=cfg.line_samples,
                            seed=line_rng,
                        )
                        self.user_embeddings = line.embeddings
                    center, context = initialize_from_users(
                        self.built.activity,
                        self.built.interaction,
                        self.user_embeddings,
                        cfg.dim,
                        seed=init_rng,
                        noise=cfg.init_noise,
                    )
                else:
                    center, context = random_init(
                        self.built.activity.n_nodes, cfg.dim, init_rng
                    )

            # Install (or refresh) the embedding storage.  A refit reuses
            # the existing dense store so its version counter keeps moving
            # monotonically — downstream caches can never mistake the new
            # matrices for the old ones.  A model loaded with a read-only
            # store trains into a fresh DenseStore.
            store = self.__dict__.get("_store")
            if not isinstance(store, DenseStore):
                store = DenseStore()
                self.adopt_store(store)
            store.set_matrix("center", center)
            store.set_matrix("context", context)
            self.trainer = ActorTrainer(
                self.built, cfg, store=store, metrics=metrics,
                tracer=tracer,
            )
            with stage("fit.train", metrics=metrics, tracer=tracer):
                self.trainer.train(seed=train_rng)
            fit.set(pretrained=bool(pretrain))
        # Detach the caller's sinks before the model can be pickled:
        # save() serializes trainer + detector, and a registry or a span
        # forest belongs to this run, not to the model.
        detector.tracer = NULL_TRACER
        self.trainer.tracer = NULL_TRACER
        detector.metrics = None
        self.trainer.metrics = None
        self._fitted = True
        return self

    # ------------------------------------------------------------ persistence

    def save(self, path: str | Path) -> None:
        """Pickle the fitted model to ``path``.

        The file embeds the full graph/hotspot/vocabulary state, so a loaded
        model answers queries identically.  Standard pickle caveats apply
        (only load files you wrote).
        """
        if not self._fitted:
            raise RuntimeError("cannot save an unfitted model")
        path = Path(path)
        with path.open("wb") as handle:
            pickle.dump(self, handle, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def load(cls, path: str | Path) -> "Actor":
        """Load a model previously written by :meth:`save`."""
        path = Path(path)
        with path.open("rb") as handle:
            model = pickle.load(handle)
        if not isinstance(model, cls):
            raise TypeError(f"{path} does not contain an Actor model")
        return model
