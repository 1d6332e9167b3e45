"""Configuration of the ACTOR model (paper Section 6.1.3 hyper-parameters).

The paper's defaults are ``d = 300, eta = 0.02, K = 1, m = 256,
MaxEpoch = 100`` on corpora of 0.5-1.2M records.  This reproduction runs on
laptop-scale synthetic corpora, so the defaults below are scaled down but
every paper knob is exposed under the same name.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_finite, check_positive

__all__ = ["ActorConfig"]


@dataclass
class ActorConfig:
    """All hyper-parameters of hotspot detection, graph building and training.

    Attributes
    ----------
    dim:
        Embedding dimension ``d``.
    lr:
        Learning rate ``eta``.
    negatives:
        Negative samples per edge ``K``.
    batch_size:
        Mini-batch size ``m`` (edges per SGD step).
    epochs:
        ``MaxEpoch`` — outer iterations alternating over meta-graph edge
        types (Algorithm 1, lines 5-11).
    batches_per_epoch:
        Mini-batches drawn per edge type per epoch.  ``None`` sizes one
        epoch to sample roughly ``|E|`` edges in total across all types,
        following the LINE convention.
    use_inter:
        Train the inter-record meta-graph edge types {UT, UW, UL} and
        pretrain/initialize from the user interaction graph.  Setting this
        to ``False`` is the *ACTOR w/o inter* ablation of Table 4.
    inter_edge_types:
        Optional subset of ``("UT", "UW", "UL")`` to train, realizing the
        paper's Section-5.4 claim that "meta-graphs can be flexibly
        assigned to probe connections between different graphs".  ``None``
        trains all three; ignored when ``use_inter`` is False.
    use_intra_bow:
        Use the bag-of-words structure for intra-record text (footnote 4).
        ``False`` treats every word individually — *ACTOR w/o intra*.
    init_from_users:
        Initialize activity-graph vertices from pretrained user embeddings
        (Algorithm 1, line 4).  Separate from ``use_inter`` so the extra
        initialization ablation can isolate its effect.
    line_samples:
        Edge samples for the LINE pretraining of the user interaction graph.
    line_negatives:
        Negative samples for the LINE pretraining.
    n_threads:
        Hogwild worker processes (Fig. 12b/c).
    spatial_bandwidth / temporal_bandwidth / min_hotspot_support:
        Mean-shift hotspot detection knobs (Section 4.3).
    vocab_min_count / vocab_max_size:
        Vocabulary pruning (Table 1's fixed vocab sizes).
    link_mentions / mention_link_weight:
        Whether mentioned users are linked to record units (the inter-record
        shortcut of Fig. 3), and with what weight.
    init_noise:
        Std of the Gaussian jitter added when copying a user vector into a
        unit vector, so initialized vectors are not exactly collinear.
    noise_power:
        Exponent of the negative-sampling noise distribution
        ``P(v) ∝ d_v^power`` (word2vec's 3/4; the noise-exponent ablation
        bench sweeps 0 / 0.75 / 1).
    seed:
        Master seed for every stochastic stage.
    """

    dim: int = 64
    lr: float = 0.02
    negatives: int = 1
    batch_size: int = 256
    epochs: int = 30
    batches_per_epoch: int | None = None
    use_inter: bool = True
    use_intra_bow: bool = True
    init_from_users: bool = True
    inter_edge_types: tuple[str, ...] | None = None
    line_samples: int = 100_000
    line_negatives: int = 5
    n_threads: int = 1
    spatial_bandwidth: float = 0.5
    temporal_bandwidth: float = 0.75
    min_hotspot_support: int = 3
    vocab_min_count: int = 2
    vocab_max_size: int | None = 20_000
    link_mentions: bool = True
    mention_link_weight: float = 1.0
    init_noise: float = 0.02
    noise_power: float = 0.75
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("dim", self.dim)
        check_positive("lr", self.lr)
        check_positive("negatives", self.negatives)
        check_positive("batch_size", self.batch_size)
        check_positive("epochs", self.epochs)
        if self.batches_per_epoch is not None:
            check_positive("batches_per_epoch", self.batches_per_epoch)
        check_positive("n_threads", self.n_threads)
        check_positive("spatial_bandwidth", self.spatial_bandwidth)
        check_positive("temporal_bandwidth", self.temporal_bandwidth)
        # An edge weight: NaN or inf would flow into the alias tables.
        check_positive("mention_link_weight", self.mention_link_weight)
        check_finite("mention_link_weight", self.mention_link_weight)
        if self.init_noise < 0:
            raise ValueError(f"init_noise must be >= 0, got {self.init_noise}")
        if self.noise_power < 0:
            raise ValueError(
                f"noise_power must be >= 0, got {self.noise_power}"
            )
        if self.inter_edge_types is not None:
            valid = {"UT", "UW", "UL"}
            unknown = set(self.inter_edge_types) - valid
            if unknown:
                raise ValueError(
                    f"inter_edge_types must be drawn from {sorted(valid)}, "
                    f"got unknown {sorted(unknown)}"
                )
            if not self.inter_edge_types:
                raise ValueError(
                    "inter_edge_types must be non-empty; use use_inter=False "
                    "to disable the inter-record structure entirely"
                )
