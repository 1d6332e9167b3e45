"""The ACTOR training loop (Algorithm 1, lines 5-11).

Each epoch alternates over the inter-record edge types ``{UT, UW, UL}`` and
then the intra-record edge types ``{TL, LW, WT, WW}``, drawing mini-batches
of ``m`` edges per type and applying the SGNS updates of Eqs. (12)-(14).

Training is organised as a list of :class:`TrainTask` objects — one per
edge type / structure — so the Hogwild scalability path and the ablations
reuse the same machinery:

* inter types and TL use :class:`PlainEdgeTask` (edge ∝ weight, random
  orientation, side-matched negatives);
* with the bag-of-words structure on (``use_intra_bow``), LW and WT get a
  :class:`BagToUnitTask` (record's summed word embedding predicts its L/T
  unit — footnote 4) *plus* an oriented unit->word plain task so the word
  context vectors still train, and WW gets a :class:`BagToWordTask`
  (CBOW-style: the other words of the record predict a target word);
* with it off (*ACTOR w/o intra*), LW/WT/WW fall back to plain per-word
  edge tasks.
"""

from __future__ import annotations

import logging

import numpy as np

from repro.core.config import ActorConfig
from repro.core.meta_graph import INTER_EDGE_TYPES, INTRA_EDGE_TYPES
from repro.embedding.alias import AliasTable
from repro.embedding.edge_sampler import NoiseSampler, TypedEdgeSampler
from repro.embedding.parallel import HogwildPool, fork_available
from repro.embedding.sgns import sgns_step, sgns_step_bow
from repro.graphs.activity_graph import ActivityGraph
from repro.graphs.builder import BuiltGraphs, RecordUnits
from repro.graphs.types import EdgeType, NodeType
from repro.storage import DenseStore, EmbeddingStore, SharedMatrix
from repro.utils.logging import NULL_LOGGER
from repro.utils.rng import ensure_rng, spawn_rng
from repro.utils.tracing import NULL_TRACER, stage

__all__ = [
    "TrainTask",
    "PlainEdgeTask",
    "BagToUnitTask",
    "BagToWordTask",
    "ActorTrainer",
]

logger = logging.getLogger(__name__)


def _noise_for_side(
    activity: ActivityGraph,
    edge_type: EdgeType,
    node_type: NodeType,
    noise_power: float,
) -> NoiseSampler:
    """Noise sampler over the ``node_type`` side of ``edge_type``.

    Candidates are the nodes of that type with positive degree in the edge
    type, weighted by degree^noise_power.
    """
    degrees = activity.degrees(edge_type)
    nodes = activity.nodes_of_type(node_type)
    nodes = nodes[degrees[nodes] > 0]
    if nodes.size == 0:
        raise ValueError(
            f"no {node_type!r} nodes participate in {edge_type!r} edges"
        )
    return NoiseSampler(nodes, degrees[nodes], noise_power=noise_power)


class TrainTask:
    """One schedulable training objective; subclasses implement ``step``."""

    name: str = "task"

    def step(
        self,
        center: np.ndarray,
        context: np.ndarray,
        batch_size: int,
        lr: float,
        rng: np.random.Generator,
    ) -> float:
        """Apply one mini-batch update in place; return the batch loss."""
        raise NotImplementedError


class PlainEdgeTask(TrainTask):
    """SGNS over one edge type (Eq. 7 applied to sampled edges)."""

    def __init__(
        self,
        edge_type: EdgeType,
        sampler: TypedEdgeSampler,
        *,
        context_side: str | None = None,
    ) -> None:
        self.name = f"plain:{edge_type.value}" + (
            f"->{context_side}" if context_side else ""
        )
        self.edge_type = edge_type
        self.sampler = sampler
        self.context_side = context_side

    def step(self, center, context, batch_size, lr, rng):
        """One SGNS mini-batch over (oriented) typed edges."""
        if self.context_side is None:
            batch = self.sampler.sample_batch(batch_size, rng)
        else:
            batch = self.sampler.sample_batch_oriented(
                batch_size, rng, context_side=self.context_side
            )
        return sgns_step(center, context, batch.src, batch.dst, batch.neg, lr)


def _word_table(
    records: list[RecordUnits],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The records' word ids in CSR form: ``(flat, starts, lengths)``.

    Record ``r`` owns ``flat[starts[r]:starts[r] + lengths[r]]``.
    """
    lengths = np.asarray([len(r.word_nodes) for r in records], dtype=np.int64)
    starts = np.zeros(len(records), dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    flat = np.fromiter(
        (w for r in records for w in r.word_nodes),
        dtype=np.int64,
        count=int(lengths.sum()),
    )
    return flat, starts, lengths


def _bag_batch(
    starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Word-table positions and ``(B + 1,)`` offsets of a batch of bags.

    Bag ``b`` is ``[starts[b], starts[b] + lengths[b])`` of a
    :func:`_word_table`; the positions list the bags back to back.
    """
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    shift = np.repeat(starts - offsets[:-1], lengths)
    return np.arange(offsets[-1]) + shift, offsets


class BagToUnitTask(TrainTask):
    """Record bag-of-words (summed word vectors) predicts the record's unit.

    Realizes the intra-record meta-graph's bag-of-words structure for the
    LW and WT edge types: one positive example per sampled record, with the
    record weighted by its word count (matching edge-proportional
    sampling), negatives drawn from the unit side's noise distribution.
    The records' words are stored once in CSR form, so a batch is built
    with a few array operations.
    """

    def __init__(
        self,
        edge_type: EdgeType,
        records: list[RecordUnits],
        unit_of: str,
        noise: NoiseSampler,
        negatives: int,
    ) -> None:
        if unit_of not in ("location", "time"):
            raise ValueError(f"unit_of must be 'location' or 'time', got {unit_of}")
        eligible = [r for r in records if len(r.word_nodes) >= 1]
        if not eligible:
            raise ValueError("no records with words for bag-of-words training")
        self.name = f"bow:{edge_type.value}"
        self._flat, self._starts, self._lengths = _word_table(eligible)
        units = [
            r.location_node if unit_of == "location" else r.time_node
            for r in eligible
        ]
        self._units = np.asarray(units, dtype=np.int64)
        self._noise = noise
        self._negatives = negatives
        self._record_table = AliasTable(self._lengths.astype(np.float64))

    def step(self, center, context, batch_size, lr, rng):
        """One bag-of-words step: record bags predict their L/T unit."""
        idx = self._record_table.sample(batch_size, seed=rng)
        positions, offsets = _bag_batch(self._starts[idx], self._lengths[idx])
        flat = self._flat[positions]
        dst = self._units[idx]
        neg = self._noise.sample((batch_size, self._negatives), rng)
        return sgns_step_bow(center, context, flat, offsets, dst, neg, lr)


class BagToWordTask(TrainTask):
    """CBOW-style WW structure: the other words of a record predict one word.

    Records with at least two (not necessarily distinct) in-vocabulary word
    occurrences are eligible; the target position is uniform within the
    record and the remaining occurrences form the bag.  As in
    :class:`BagToUnitTask` the words are stored in CSR form; all target
    positions of a batch come from one ``rng.integers(lengths)`` call,
    which reads the generator stream exactly as one scalar call per record.
    """

    def __init__(
        self,
        records: list[RecordUnits],
        noise: NoiseSampler,
        negatives: int,
    ) -> None:
        eligible = [r for r in records if len(r.word_nodes) >= 2]
        if not eligible:
            raise ValueError("no records with >= 2 words for WW bag training")
        self.name = "bow:WW"
        self._flat, self._starts, self._lengths = _word_table(eligible)
        self._noise = noise
        self._negatives = negatives
        self._record_table = AliasTable(self._lengths.astype(np.float64))

    def step(self, center, context, batch_size, lr, rng):
        """One bag-of-words step: record bags predict a member word."""
        idx = self._record_table.sample(batch_size, seed=rng)
        starts = self._starts[idx]
        lengths = self._lengths[idx]
        target_pos = rng.integers(lengths)
        targets = self._flat[starts + target_pos]
        # Each bag is its record minus the target: positions at or past
        # the target shift up by one.
        positions, offsets = _bag_batch(starts, lengths - 1)
        positions += positions >= np.repeat(starts + target_pos, lengths - 1)
        flat = self._flat[positions]
        neg = self._noise.sample((batch_size, self._negatives), rng)
        return sgns_step_bow(center, context, flat, offsets, targets, neg, lr)


class ActorTrainer:
    """Drives Algorithm 1's alternating loop over the task list.

    Parameters
    ----------
    built:
        Graphs, detector, vocabulary and per-record unit table.
    config:
        Hyper-parameters; the ablation flags ``use_inter`` /
        ``use_intra_bow`` select which tasks exist.
    center, context:
        Pre-initialized embedding matrices (see
        :mod:`repro.core.hierarchical`); updated in place.  Mutually
        exclusive with ``store``: when given, they are wrapped in a
        :class:`~repro.storage.dense.DenseStore` (zero-copy for float64
        arrays, so callers holding the originals see the updates exactly
        as before).
    store:
        A writable :class:`~repro.storage.base.EmbeddingStore` (the
        model's :class:`~repro.storage.dense.DenseStore`) already holding
        both matrices — the trainer updates it in place and bumps its
        version when training finishes.
    metrics:
        Optional :class:`~repro.utils.metrics.MetricsRegistry`; when given,
        the trainer records per-epoch loss and wall-clock
        (``train.epoch_seconds``) plus total batch counts under the
        ``train.*`` namespace, and per-edge-type latency
        (``train.task.<name>_seconds``), loss and edges-per-second under
        ``train.task.<name>.*``.  The parallel path additionally reports
        Hogwild worker utilization (``train.pool.utilization``).
    tracer:
        Optional :class:`~repro.utils.tracing.Tracer`; when given, each
        epoch records a ``train.epoch`` span whose children are one
        ``train.task.<name>`` span per edge-type objective — the same
        stages, timed once, as the histograms.
    logger:
        Optional :class:`~repro.utils.logging.StructuredLogger`; each
        epoch emits a ``train.epoch`` info record (loss, batches,
        seconds).  Defaults to the no-op
        :data:`~repro.utils.logging.NULL_LOGGER`.
    """

    def __init__(
        self,
        built: BuiltGraphs,
        config: ActorConfig,
        center: np.ndarray | None = None,
        context: np.ndarray | None = None,
        *,
        store: EmbeddingStore | None = None,
        metrics=None,
        tracer=None,
        logger=None,
    ) -> None:
        if store is None:
            if center is None or context is None:
                raise ValueError(
                    "pass either a store or both center and context matrices"
                )
            store = DenseStore(center, context)
        elif center is not None or context is not None:
            raise ValueError(
                "pass either a store or raw matrices, not both"
            )
        center = store.center
        context = store.context
        if center.shape != context.shape:
            raise ValueError("center and context must have equal shapes")
        if center.shape[0] != built.activity.n_nodes:
            raise ValueError(
                f"embedding rows {center.shape[0]} != graph nodes "
                f"{built.activity.n_nodes}"
            )
        self.built = built
        self.config = config
        self.store = store
        self.center = center
        self.context = context
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.logger = logger if logger is not None else NULL_LOGGER
        self.tasks = self._build_tasks()
        self.loss_history: list[float] = []

    def _record_epoch(self, loss: float, batches: int, seconds: float) -> None:
        """Push one epoch's numbers into the metrics registry, if any."""
        self.logger.info(
            "train.epoch",
            loss=round(float(loss), 6),
            batches=int(batches),
            seconds=round(float(seconds), 4),
        )
        if self.metrics is None:
            return
        self.metrics.counter("train.epochs").inc()
        self.metrics.counter("train.batches").inc(batches)
        self.metrics.gauge("train.epoch_loss").set(loss)

    def _record_task(
        self, task: TrainTask, loss: float, batches: int, seconds: float
    ) -> None:
        """Per-edge-type epoch stats: loss, edges/sec."""
        if self.metrics is None:
            return
        prefix = f"train.task.{task.name}"
        self.metrics.gauge(f"{prefix}.loss").set(loss / max(1, batches))
        if seconds > 0:
            self.metrics.gauge(f"{prefix}.edges_per_sec").set(
                batches * self.config.batch_size / seconds
            )

    # ------------------------------------------------------------------ tasks

    def _build_tasks(self) -> list[TrainTask]:
        cfg = self.config
        activity = self.built.activity
        tasks: list[TrainTask] = []

        if cfg.use_inter:
            selected = INTER_EDGE_TYPES
            if cfg.inter_edge_types is not None:
                selected = tuple(
                    et for et in INTER_EDGE_TYPES
                    if et.value in cfg.inter_edge_types
                )
            for edge_type in selected:
                edge_set = activity.edge_set(edge_type)
                if len(edge_set) == 0:
                    continue
                tasks.append(
                    PlainEdgeTask(
                        edge_type,
                        TypedEdgeSampler(
                            edge_set,
                            negatives=cfg.negatives,
                            noise_power=cfg.noise_power,
                        ),
                    )
                )

        for edge_type in INTRA_EDGE_TYPES:
            edge_set = activity.edge_set(edge_type)
            if len(edge_set) == 0:
                continue
            if not cfg.use_intra_bow or edge_type is EdgeType.TL:
                tasks.append(
                    PlainEdgeTask(edge_type, self._sampler(edge_set))
                )
            elif edge_type is EdgeType.LW:
                tasks.extend(
                    self._bow_unit_tasks(
                        edge_type, edge_set, "location", NodeType.LOCATION,
                        context_side="dst",  # LW endpoints: (L, W) -> words
                    )
                )
            elif edge_type is EdgeType.WT:
                tasks.extend(
                    self._bow_unit_tasks(
                        edge_type, edge_set, "time", NodeType.TIME,
                        context_side="src",  # WT endpoints: (W, T) -> words
                    )
                )
            elif edge_type is EdgeType.WW:
                try:
                    tasks.append(
                        BagToWordTask(
                            self.built.record_units,
                            _noise_for_side(
                                activity, edge_type, NodeType.WORD,
                                cfg.noise_power,
                            ),
                            cfg.negatives,
                        )
                    )
                except ValueError as exc:
                    # No record has two words: fall back to plain WW edges.
                    logger.warning(
                        "bag-of-words WW task unavailable (%s); "
                        "falling back to plain WW edges", exc
                    )
                    tasks.append(
                        PlainEdgeTask(edge_type, self._sampler(edge_set))
                    )
        if not tasks:
            raise ValueError("no trainable edge types found in the graph")
        return tasks

    def _sampler(self, edge_set) -> TypedEdgeSampler:
        cfg = self.config
        return TypedEdgeSampler(
            edge_set,
            negatives=cfg.negatives,
            noise_power=cfg.noise_power,
        )

    def _bow_unit_tasks(
        self, edge_type, edge_set, unit_of, unit_node_type, *, context_side
    ) -> list[TrainTask]:
        """The bag->unit task plus the reversed plain direction for one
        intra edge type; falls back to plain sampling when no record has
        words (degenerate corpora)."""
        cfg = self.config
        try:
            bow = BagToUnitTask(
                edge_type,
                self.built.record_units,
                unit_of,
                _noise_for_side(
                    self.built.activity, edge_type, unit_node_type,
                    cfg.noise_power,
                ),
                cfg.negatives,
            )
        except ValueError as exc:
            logger.warning(
                "bag-of-words %s task unavailable (%s); "
                "falling back to plain edges", edge_type.value, exc
            )
            return [PlainEdgeTask(edge_type, self._sampler(edge_set))]
        # Keep the unit -> word direction so word context vectors receive
        # gradient too.
        plain = PlainEdgeTask(
            edge_type, self._sampler(edge_set), context_side=context_side
        )
        return [bow, plain]

    # ------------------------------------------------------------------ train

    def batches_per_epoch(self) -> int:
        """Mini-batches per task per epoch (config override or |E|-scaled)."""
        cfg = self.config
        if cfg.batches_per_epoch is not None:
            return cfg.batches_per_epoch
        total_edges = self.built.activity.n_edges
        per_task = total_edges / (cfg.batch_size * max(1, len(self.tasks)))
        return max(1, int(np.ceil(per_task)))

    def train(
        self, *, seed: int | np.random.Generator | None = None
    ) -> "ActorTrainer":
        """Run the full alternating training loop (in place).

        With ``config.n_threads > 1`` (and a fork-capable platform) every
        task's mini-batches are executed by a lock-free process pool over
        shared-memory copies of the matrices — the paper's asynchronous
        SGD (Section 5.2.3).  Otherwise the loop runs single-process and
        fully deterministically.
        """
        cfg = self.config
        rng = ensure_rng(cfg.seed if seed is None else seed)
        batches = self.batches_per_epoch()
        if cfg.n_threads > 1 and fork_available():
            self._train_parallel(rng, batches)
        else:

            def run(task_idx: int, lr: float) -> float:
                task = self.tasks[task_idx]
                loss = 0.0
                for _ in range(batches):
                    loss += task.step(
                        self.center, self.context, cfg.batch_size, lr, rng
                    )
                return loss

            self._epochs(run, batches)
        # The SGD kernels wrote through raw views; one version bump tells
        # every store-keyed cache (query engine modality matrices, the
        # normalized view) that the embeddings moved.
        self.store.bump()
        return self

    def _train_parallel(self, rng: np.random.Generator, batches: int) -> None:
        """Train with a :class:`HogwildPool` over staged shared memory.

        The forked workers update the same pages in place, so both
        matrices are copied into private :class:`SharedMatrix` segments
        for the pool's lifetime; the result is copied back into the
        store's own arrays and the segments are unlinked.
        """
        cfg = self.config
        pool_seed = spawn_rng(rng, 1)[0]
        with (
            SharedMatrix(self.center) as center,
            SharedMatrix(self.context) as context,
            HogwildPool(
                self.tasks,
                center.array,
                context.array,
                cfg.batch_size,
                cfg.n_threads,
                seed=pool_seed,
            ) as pool,
        ):

            def run(task_idx: int, lr: float) -> float:
                loss = pool.run_task(task_idx, batches, lr) * batches
                if self.metrics is not None:
                    self.metrics.gauge("train.pool.utilization").set(
                        pool.last_utilization
                    )
                return loss

            self._epochs(run, batches)
            self.center[:] = center.array
            self.context[:] = context.array

    def _epochs(self, run, batches: int) -> None:
        """Algorithm 1's loop over epochs, tasks and the lr schedule.

        ``run(task_idx, lr)`` executes ``batches`` mini-batches of one
        task and returns their summed loss.
        """
        cfg = self.config
        total_steps = cfg.epochs * len(self.tasks) * batches
        step_counter = 0
        sinks = {"metrics": self.metrics, "tracer": self.tracer}
        for epoch in range(cfg.epochs):
            with stage("train.epoch", epoch=epoch, **sinks) as timed_epoch:
                epoch_loss = 0.0
                for task_idx, task in enumerate(self.tasks):
                    lr = cfg.lr * max(
                        0.1, 1.0 - step_counter / max(1, total_steps)
                    )
                    with stage(f"train.task.{task.name}", **sinks) as timed:
                        task_loss = run(task_idx, lr)
                    self._record_task(task, task_loss, batches, timed.seconds)
                    epoch_loss += task_loss
                    step_counter += batches
                mean_loss = epoch_loss / (len(self.tasks) * batches)
                timed_epoch.set(loss=mean_loss)
            self.loss_history.append(mean_loss)
            self._record_epoch(
                mean_loss, len(self.tasks) * batches, timed_epoch.seconds
            )
