"""Online / streaming ACTOR: recency-aware continued training.

The paper's own follow-up work (ReAct, reference [8]: "processes continuous
data streams and reveals recency-aware spatiotemporal activities") motivates
an online variant.  :class:`OnlineActor` warm-starts from a fully trained
:class:`~repro.core.actor.Actor` and then consumes new records in batches:

1. each new record is discretized with the *frozen* hotspot detector
   (hotspots are not re-detected online — the documented ReAct-style
   simplification) and its keywords are resolved against a *growable*
   vocabulary;
2. unseen words and users get fresh embedding rows (random init);
3. the record's co-occurrence and user edges enter a **recency buffer**
   whose sampling weights decay exponentially with age
   (``weight * 0.5^(age / half_life)``), so recent activity dominates;
4. a burst of SGNS steps over the buffer updates the embeddings in place.

The full query surface (prediction, neighbor search) keeps working
throughout, including for the streamed-in units.

The ingestion path is built for throughput:

* :class:`RecencyBuffer` stores edges in a preallocated NumPy ring buffer —
  O(1) amortized append, O(batch) vectorized bulk insert, and eviction by
  advancing the head pointer instead of O(n) list slicing;
* decay factors are memoized per unique integer age.  Ages are clock
  ticks, so a handful of *scalar* ``0.5 ** (age / half_life)`` values
  broadcast over the whole buffer.  This is also the bit-exactness fix:
  vectorized ``np.power`` disagrees with scalar pow in the last ulp on
  some inputs, drifting from the documented formula;
* sampling groups edges by identical decayed weight, so the alias table is
  built over the (few) distinct weights instead of every buffered edge;
* :meth:`OnlineActor.partial_fit` discretizes the whole record batch with
  one ``assign_spatial`` / ``assign_temporal`` call each and generates
  co-occurrence edges with array operations, feeding one bulk
  :meth:`RecencyBuffer.add_edges` call.

Operational state (records/sec, buffer occupancy, evictions, alias
rebuilds, per-burst loss) is recorded in the actor's
:class:`~repro.utils.metrics.MetricsRegistry`.  Each phase of
:meth:`OnlineActor.partial_fit` is one :class:`~repro.utils.tracing.stage`
— ``stream.partial_fit`` with ``stream.ingest`` / ``stream.train_burst``
children — timed once into its latency histogram
(``stream.partial_fit_seconds`` and so on, with ``buffer.add_seconds``,
``buffer.evict_seconds`` and ``buffer.rebuild_seconds`` from the buffer)
and, when a :class:`~repro.utils.tracing.Tracer` is attached, its span —
see ``docs/observability.md``.  Checkpoint/restore lives in
:mod:`repro.core.serialize`.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.actor import Actor
from repro.core.prediction import _MODALITY_TO_TYPE, GraphEmbeddingModel
from repro.data.records import Record
from repro.embedding.alias import AliasTable
from repro.embedding.edge_sampler import UniformNegativeSampler
from repro.embedding.sgns import sgns_step
from repro.graphs.types import NodeType
from repro.utils.logging import NULL_LOGGER
from repro.utils.metrics import MetricsRegistry
from repro.utils.rng import ensure_rng
from repro.utils.tracing import NULL_TRACER, stage
from repro.utils.validation import check_positive

__all__ = ["RecencyBuffer", "OnlineActor"]

_MIN_CAPACITY = 1024


class RecencyBuffer:
    """Edge buffer with exponential recency decay, backed by a ring buffer.

    Stores (src, dst, weight, born) columns in preallocated NumPy arrays;
    sampling probability is ``weight * 0.5^((clock - born) / half_life)``.
    When the buffer is full the *oldest-by-insertion* edge is overwritten
    in place (born times are non-decreasing in insertion order, so this is
    also oldest-by-age).  The grouped alias table is rebuilt lazily when
    the buffer changed since the last sample call — append-heavy workloads
    pay one rebuild per training burst.

    Parameters
    ----------
    half_life:
        Age (in clock ticks — one tick per ingested batch) at which an
        edge's sampling weight halves.
    max_size:
        Oldest edges are evicted beyond this capacity.
    """

    def __init__(self, *, half_life: float = 10.0, max_size: int = 200_000) -> None:
        check_positive("half_life", half_life)
        check_positive("max_size", max_size)
        self.half_life = float(half_life)
        self.max_size = int(max_size)
        capacity = min(self.max_size, _MIN_CAPACITY)
        self._src = np.empty(capacity, dtype=np.int64)
        self._dst = np.empty(capacity, dtype=np.int64)
        self._weight = np.empty(capacity, dtype=np.float64)
        self._born = np.empty(capacity, dtype=np.int64)
        self._head = 0
        self._size = 0
        self.clock = 0
        self.evictions = 0
        self.rebuilds = 0
        # age (int ticks) -> scalar decay factor 0.5 ** (age / half_life)
        self._decay_cache: dict[int, float] = {}
        self._version = 0
        self._sampler_state: tuple[int, int] | None = None
        # Optional observability sink (attached by OnlineActor): when set,
        # bulk inserts, evicting inserts and alias rebuilds record latency
        # histograms.  Plain attribute so checkpoint restore and direct
        # construction stay signature-compatible.
        self.metrics: MetricsRegistry | None = None

    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        """Currently allocated slots (grows geometrically up to max_size)."""
        return self._src.shape[0]

    @property
    def occupancy(self) -> float:
        """Fill fraction relative to ``max_size``."""
        return self._size / self.max_size

    def tick(self) -> None:
        """Advance the clock (call once per ingested batch)."""
        self.clock += 1

    # ---------------------------------------------------------------- storage

    def _ordered(self, column: np.ndarray) -> np.ndarray:
        """``column``'s live entries in logical (oldest-first) order.

        A view when the live region is contiguous; a copy when it wraps.
        """
        end = self._head + self._size
        capacity = column.shape[0]
        if end <= capacity:
            return column[self._head : end]
        return np.concatenate([column[self._head :], column[: end - capacity]])

    def _grow(self, needed: int) -> None:
        """Reallocate to hold ``needed`` entries, linearizing the ring."""
        capacity = self.capacity
        while capacity < needed:
            capacity *= 2
        capacity = min(capacity, self.max_size)
        for name in ("_src", "_dst", "_weight", "_born"):
            old = getattr(self, name)
            fresh = np.empty(capacity, dtype=old.dtype)
            fresh[: self._size] = self._ordered(old)
            setattr(self, name, fresh)
        self._head = 0

    def add_edge(self, src: int, dst: int, weight: float = 1.0) -> None:
        """Buffer one undirected edge with the current clock as birth time."""
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        if self._size == self.max_size:
            # Overwrite the oldest-by-insertion edge in place.
            self._head = (self._head + 1) % self.capacity
            self._size -= 1
            self.evictions += 1
        elif self._size == self.capacity:
            self._grow(self._size + 1)
        pos = (self._head + self._size) % self.capacity
        self._src[pos] = int(src)
        self._dst[pos] = int(dst)
        self._weight[pos] = float(weight)
        self._born[pos] = self.clock
        self._size += 1
        self._version += 1

    def add_edges(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        weight: np.ndarray | float = 1.0,
    ) -> None:
        """Bulk-append edges born at the current clock (vectorized).

        ``weight`` may be a scalar (applied to every edge) or a matching
        array.  Oldest edges are evicted first when the batch overflows
        ``max_size``; a batch larger than ``max_size`` keeps only its
        newest ``max_size`` edges.
        """
        src = np.asarray(src, dtype=np.int64).ravel()
        dst = np.asarray(dst, dtype=np.int64).ravel()
        if src.shape != dst.shape:
            raise ValueError("src and dst must have equal lengths")
        n = src.size
        if n == 0:
            return
        if np.isscalar(weight) or getattr(weight, "ndim", 1) == 0:
            if weight <= 0:
                raise ValueError(f"weight must be positive, got {weight}")
            weights = np.full(n, float(weight))
        else:
            weights = np.asarray(weight, dtype=np.float64).ravel()
            if weights.shape != src.shape:
                raise ValueError("weight array must match src/dst length")
            if (weights <= 0).any():
                bad = float(weights[weights <= 0][0])
                raise ValueError(f"weight must be positive, got {bad}")

        evictions_before = self.evictions
        with stage("buffer.add", metrics=self.metrics) as timed:
            if n >= self.max_size:
                # The batch alone fills the buffer: everything currently
                # held plus the batch's oldest entries are evicted.
                self.evictions += self._size + (n - self.max_size)
                if self.capacity < self.max_size:
                    self._grow(self.max_size)
                keep = slice(n - self.max_size, n)
                self._src[: self.max_size] = src[keep]
                self._dst[: self.max_size] = dst[keep]
                self._weight[: self.max_size] = weights[keep]
                self._born[: self.max_size] = self.clock
                self._head = 0
                self._size = self.max_size
            else:
                overflow = self._size + n - self.max_size
                if overflow > 0:
                    self._head = (self._head + overflow) % self.capacity
                    self._size -= overflow
                    self.evictions += overflow
                if self._size + n > self.capacity:
                    self._grow(self._size + n)
                idx = (self._head + self._size + np.arange(n)) % self.capacity
                self._src[idx] = src
                self._dst[idx] = dst
                self._weight[idx] = weights
                self._born[idx] = self.clock
                self._size += n
            self._version += 1
        if self.metrics is not None and self.evictions > evictions_before:
            # Latency of the evicting inserts specifically: a rising p99
            # here means the window is churning (see the operations
            # runbook).
            self.metrics.histogram("buffer.evict_seconds").observe(
                timed.seconds
            )

    # ---------------------------------------------------------------- decay

    def decayed_weights(self) -> np.ndarray:
        """Current sampling weights (recency decay applied), oldest first.

        Bit-exact with the documented scalar formula
        ``weight * 0.5 ** (age / half_life)``: the decay factor is computed
        once per unique integer age with scalar pow and broadcast, instead
        of a vectorized ``np.power`` sweep (which disagrees in the last ulp
        on some inputs).
        """
        if self._size == 0:
            return np.empty(0, dtype=np.float64)
        ages = self.clock - self._ordered(self._born)
        unique, inverse = np.unique(ages, return_inverse=True)
        cache = self._decay_cache
        factors = np.empty(unique.shape[0], dtype=np.float64)
        for pos, age in enumerate(unique.tolist()):
            factor = cache.get(age)
            if factor is None:
                factor = cache[age] = 0.5 ** (age / self.half_life)
            factors[pos] = factor
        return self._ordered(self._weight) * factors[inverse]

    # ---------------------------------------------------------------- sample

    def _rebuild_sampler(self) -> None:
        """Group edges by identical decayed weight; alias over the groups.

        The decay memo maps every age to one scalar, so a buffer of N edges
        holds only U << N distinct weights.  An alias table over the U
        groups (weighted by ``group_weight * group_size``) plus a uniform
        draw within the group samples each edge exactly proportionally to
        its weight at O(U) table-build cost instead of O(N).
        """
        with stage("buffer.rebuild", metrics=self.metrics):
            weights = np.maximum(self.decayed_weights(), 1e-12)
            unique, inverse, counts = np.unique(
                weights, return_inverse=True, return_counts=True
            )
            self._group_table = AliasTable(unique * counts)
            self._group_order = np.argsort(inverse, kind="stable")
            self._group_starts = np.concatenate(
                ([0], np.cumsum(counts[:-1]))
            )
            self._group_counts = counts
            self._sampler_state = (self.clock, self._version)
            self.rebuilds += 1

    def sample(
        self, size: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``size`` edges ∝ decayed weight; random orientation."""
        if self._size == 0:
            raise ValueError("buffer is empty")
        if self._sampler_state != (self.clock, self._version):
            self._rebuild_sampler()
        group = self._group_table.sample(size, seed=rng)
        offset = rng.integers(0, self._group_counts[group])
        logical = self._group_order[self._group_starts[group] + offset]
        physical = (self._head + logical) % self.capacity
        src = self._src[physical]
        dst = self._dst[physical]
        flip = rng.random(size) < 0.5
        return np.where(flip, dst, src), np.where(flip, src, dst)

    # ------------------------------------------------------------- checkpoint

    def state(self) -> dict:
        """Copy of the live buffer contents (oldest first) plus the clock."""
        return {
            "src": self._ordered(self._src).copy(),
            "dst": self._ordered(self._dst).copy(),
            "weight": self._ordered(self._weight).copy(),
            "born": self._ordered(self._born).copy(),
            "clock": int(self.clock),
            "evictions": int(self.evictions),
        }

    @classmethod
    def from_state(
        cls, state: dict, *, half_life: float, max_size: int
    ) -> "RecencyBuffer":
        """Rebuild a buffer from :meth:`state` output."""
        buffer = cls(half_life=half_life, max_size=max_size)
        src = np.asarray(state["src"], dtype=np.int64)
        dst = np.asarray(state["dst"], dtype=np.int64)
        weight = np.asarray(state["weight"], dtype=np.float64)
        born = np.asarray(state["born"], dtype=np.int64)
        n = src.size
        if not (dst.size == weight.size == born.size == n):
            raise ValueError("buffer state columns have mismatched lengths")
        if n > max_size:
            raise ValueError(
                f"buffer state holds {n} edges, exceeding max_size={max_size}"
            )
        clock = int(state["clock"])
        if n and (born > clock).any():
            raise ValueError("buffer state has edges born after the clock")
        if n:
            if buffer.capacity < n:
                buffer._grow(n)
            buffer._src[:n] = src
            buffer._dst[:n] = dst
            buffer._weight[:n] = weight
            buffer._born[:n] = born
            buffer._size = n
        buffer.clock = clock
        buffer.evictions = int(state.get("evictions", 0))
        buffer._version += 1
        return buffer


class OnlineActor(GraphEmbeddingModel):
    """Streaming wrapper around a warm-started :class:`Actor`.

    Parameters
    ----------
    base:
        A fitted Actor; its embeddings and word index are copied (the
        base model is not mutated) and then updated online.
    half_life:
        Recency half-life of the edge buffer, in ingested batches.
    online_lr:
        Learning rate for the online SGNS bursts.
    steps_per_batch:
        SGNS mini-batches run per :meth:`partial_fit` call.
    buffer_size:
        Recency-buffer capacity; oldest edges are evicted beyond it.
    metrics:
        Optional shared :class:`~repro.utils.metrics.MetricsRegistry`; a
        private one is created when omitted.  See :attr:`metrics`.
    tracer:
        Optional :class:`~repro.utils.tracing.Tracer`; each
        :meth:`partial_fit` then records a ``stream.partial_fit`` span
        tree.  Defaults to the no-op :data:`~repro.utils.tracing.NULL_TRACER`.
    logger:
        Optional :class:`~repro.utils.logging.StructuredLogger`;
        operational events (buffer saturation, drift alerts) become
        structured records.  Defaults to the no-op
        :data:`~repro.utils.logging.NULL_LOGGER`.
    """

    def __init__(
        self,
        base: Actor,
        *,
        half_life: float = 10.0,
        online_lr: float = 0.01,
        steps_per_batch: int = 50,
        batch_size: int = 256,
        negatives: int = 2,
        seed: int | np.random.Generator | None = 0,
        buffer_size: int = 200_000,
        metrics: MetricsRegistry | None = None,
        tracer=None,
        logger=None,
    ) -> None:
        if not base.is_fitted:
            raise ValueError("base Actor must be fitted before going online")
        check_positive("online_lr", online_lr)
        check_positive("steps_per_batch", steps_per_batch)
        # Graphs and detector are shared read-only; streamed-in words go
        # to a private fork of the word index.
        self.built = replace(base.built, vocab=base.built.vocab.fork())
        self.config = base.config
        self.center = np.array(base.center)      # private DenseStore copies
        self.context = np.array(base.context)
        self.buffer = RecencyBuffer(half_life=half_life, max_size=buffer_size)
        self.online_lr = float(online_lr)
        self.steps_per_batch = int(steps_per_batch)
        self.batch_size = int(batch_size)
        self.negatives = int(negatives)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.logger = logger if logger is not None else NULL_LOGGER
        self.drift = None
        self.buffer.metrics = self.metrics
        self._rng = ensure_rng(seed)
        # Rows appended beyond the base graph's node count, keyed like
        # activity-graph handles.  The finalized base graph stays immutable.
        self._extra_nodes: dict[tuple[NodeType, Hashable], int] = {}
        self.n_ingested = 0

    # ------------------------------------------------------------- node space

    def _node_of(self, modality: str, value) -> int | None:
        if modality not in _MODALITY_TO_TYPE:
            raise ValueError(
                f"modality must be one of {sorted(_MODALITY_TO_TYPE)}, "
                f"got {modality!r}"
            )
        node_type = _MODALITY_TO_TYPE[modality]
        # Streamed-in units can occupy hotspot/word/user keys the base
        # graph never saw, so every modality falls through to the extra
        # rows (and to None) instead of raising KeyError.
        if modality == "time":
            key: Hashable = int(
                self.built.detector.assign_temporal(np.asarray([value]))[0]
            )
        elif modality == "location":
            loc = np.asarray(value, dtype=float)[None, :]
            key = int(self.built.detector.assign_spatial(loc)[0])
        else:
            key = value
        activity = self.built.activity
        if activity.has_node(node_type, key):
            return activity.index_of(node_type, key)
        return self._extra_nodes.get((node_type, key))

    def _create_rows(self, handles: list[tuple[NodeType, Hashable]]) -> int:
        """Append fresh random rows for ``handles``; returns the first row.

        One vectorized ``uniform`` draw per matrix covers the whole batch
        of new units (center block first, then context — the draw order
        is part of the reproducibility contract).  Growth goes through
        ``store.grow``, which appends to both matrices and bumps the
        store version, invalidating the batched-query caches.  New words
        are registered with the model's own vocabulary fork so later
        batches see them as in-vocabulary.
        """
        k = len(handles)
        if k == 0:
            return self.center.shape[0]
        scale = 0.5 / self.dim
        first = self.store.grow(
            self._rng.uniform(-scale, scale, size=(k, self.dim)),
            self._rng.uniform(-scale, scale, size=(k, self.dim)),
        )
        for offset, (node_type, key) in enumerate(handles):
            self._extra_nodes[(node_type, key)] = first + offset
            if node_type is NodeType.WORD:
                self.built.vocab.add_word(key)
        return first

    def modality_rows(self, modality: str):
        """Like the base method, but includes streamed-in extra units."""
        keys, rows = super().modality_rows(modality)
        node_type = _MODALITY_TO_TYPE[modality]
        extra = [
            (key, row)
            for (t, key), row in self._extra_nodes.items()
            if t is node_type
        ]
        if extra:
            keys = keys + [key for key, _row in extra]
            rows = np.concatenate(
                [rows, np.asarray([row for _key, row in extra], dtype=np.int64)]
            )
        return keys, rows

    # ------------------------------------------------------------- streaming

    def partial_fit(self, records: Iterable[Record]) -> "OnlineActor":
        """Ingest a batch of new records and run an online training burst."""
        records = list(records)
        if not records:
            return self
        metrics = self.metrics
        if self.buffer.metrics is not metrics:
            # Heal after checkpoint restore or a buffer swap so latency
            # histograms always land in the deployment's registry.
            self.buffer.metrics = metrics
        tracer = self.tracer
        with stage(
            "stream.partial_fit",
            metrics=metrics,
            tracer=tracer,
            records=len(records),
        ) as batch:
            with stage("stream.ingest", metrics=metrics, tracer=tracer):
                n_edges = self._ingest(records)
            self.n_ingested += len(records)
            self.buffer.tick()
            with stage("stream.train_burst", metrics=metrics, tracer=tracer):
                self._train_burst()
            batch.set(edges=n_edges, buffer=len(self.buffer))
        # The burst updates center/context in place (same array objects),
        # so the store version must be bumped explicitly; row growth
        # already invalidates the caches via store.grow.
        self.invalidate_query_cache()
        metrics.counter("stream.records").inc(len(records))
        metrics.counter("stream.edges").inc(n_edges)
        total = metrics.histogram("stream.partial_fit_seconds").total
        if total > 0:
            metrics.gauge("stream.records_per_sec").set(
                metrics.counter("stream.records").value / total
            )
        metrics.gauge("buffer.size").set(len(self.buffer))
        metrics.gauge("buffer.occupancy").set(self.buffer.occupancy)
        metrics.histogram(
            "buffer.occupancy_ratio",
            bounds=tuple(i / 10 for i in range(1, 11)),
        ).observe(self.buffer.occupancy)
        metrics.gauge("buffer.evictions").set(self.buffer.evictions)
        metrics.gauge("buffer.rebuilds").set(self.buffer.rebuilds)
        if self.buffer.occupancy >= 1.0:
            # Rate-limited by the logger's dedup window, so a saturated
            # steady state logs once per window, not once per batch.
            self.logger.warning(
                "stream.buffer_full",
                size=len(self.buffer),
                evictions=self.buffer.evictions,
            )
        if self.drift is not None:
            # Runs outside the stream.partial_fit stage on purpose: the
            # benchmark overhead gate compares drift.observe against
            # stream.partial_fit, so the denominators must not overlap.
            self.drift.observe_batch(records)
        return self

    def attach_drift_watchdog(self, watchdog) -> "OnlineActor":
        """Attach a :class:`~repro.core.drift.DriftWatchdog` instance.

        Every subsequent :meth:`partial_fit` ends with
        ``watchdog.observe_batch(records)``.  Pass ``None`` to detach.
        """
        self.drift = watchdog
        return self

    def enable_drift_watchdog(self, probe_records=None, **kwargs):
        """Construct, attach, and return a drift watchdog for this actor.

        ``probe_records`` (held-out records or a corpus) becomes the
        frozen probe query set via
        :func:`~repro.core.drift.make_probe_queries`; ``None`` skips the
        probe-MRR signal.  Remaining keyword arguments go to
        :class:`~repro.core.drift.DriftWatchdog`.
        """
        from repro.core.drift import DriftWatchdog, make_probe_queries

        probe_queries = kwargs.pop("probe_queries", None)
        if probe_queries is None and probe_records is not None:
            probe_queries = make_probe_queries(probe_records)
        kwargs.setdefault("logger", self.logger)
        watchdog = DriftWatchdog(
            self, probe_queries=probe_queries, **kwargs
        )
        self.attach_drift_watchdog(watchdog)
        return watchdog

    def _ingest(self, records: list[Record]) -> int:
        """Discretize, grow the node space, and buffer the batch's edges.

        Returns the number of edges added to the recency buffer.
        """
        detector = self.built.detector
        vocab = self.built.vocab
        activity = self.built.activity
        extras = self._extra_nodes
        n = len(records)

        locations = np.asarray([r.location for r in records], dtype=float)
        timestamps = np.asarray([r.timestamp for r in records], dtype=float)
        s_idx = detector.assign_spatial(locations)
        t_idx = detector.assign_temporal(timestamps)

        # Rows for new units are assigned now and materialized in one
        # vectorized append after the scan.
        base_rows = self.center.shape[0]
        new_handles: list[tuple[NodeType, Hashable]] = []

        def row_of(node_type: NodeType, key: Hashable) -> int:
            if activity.has_node(node_type, key):
                return activity.index_of(node_type, key)
            handle = (node_type, key)
            row = extras.get(handle)
            if row is None:
                row = base_rows + len(new_handles)
                extras[handle] = row
                new_handles.append(handle)
            return row

        unique_t, t_inverse = np.unique(t_idx, return_inverse=True)
        t_rows = np.asarray(
            [row_of(NodeType.TIME, int(k)) for k in unique_t], dtype=np.int64
        )[t_inverse]
        unique_s, s_inverse = np.unique(s_idx, return_inverse=True)
        l_rows = np.asarray(
            [row_of(NodeType.LOCATION, int(k)) for k in unique_s], dtype=np.int64
        )[s_inverse]

        # Words: out-of-vocabulary keywords are admitted until the cap,
        # counting this batch's pending admissions so a cap reached
        # mid-batch refuses the remainder.
        max_words = vocab.max_size
        pending_words = 0
        word_rows_list: list[np.ndarray] = []
        distinct_list: list[np.ndarray] = []
        user_rows_list: list[np.ndarray] = []
        for record in records:
            rows: list[int] = []
            for word in record.words:
                if word in vocab:
                    rows.append(row_of(NodeType.WORD, word))
                    continue
                handle = (NodeType.WORD, word)
                existing = extras.get(handle)
                if existing is not None:
                    rows.append(existing)
                elif max_words is None or len(vocab) + pending_words < max_words:
                    rows.append(row_of(NodeType.WORD, word))
                    pending_words += 1
            word_rows_list.append(np.asarray(rows, dtype=np.int64))
            distinct_list.append(
                np.asarray(list(dict.fromkeys(rows)), dtype=np.int64)
            )
            linked = dict.fromkeys([record.user, *record.mentions])
            user_rows_list.append(
                np.asarray(
                    [row_of(NodeType.USER, name) for name in linked],
                    dtype=np.int64,
                )
            )

        created = len(new_handles)
        self._create_rows(new_handles)
        if created:
            self.metrics.counter("stream.rows_created").inc(created)

        # ----------------------------------------------- edge generation
        word_lengths = np.asarray([w.size for w in word_rows_list])
        distinct_lengths = np.asarray([d.size for d in distinct_list])
        user_lengths = np.asarray([u.size for u in user_rows_list])
        flat_words = (
            np.concatenate(word_rows_list)
            if word_lengths.sum()
            else np.empty(0, dtype=np.int64)
        )
        flat_users = np.concatenate(user_rows_list)
        record_of_word = np.repeat(np.arange(n), word_lengths)
        record_of_user = np.repeat(np.arange(n), user_lengths)

        parts: list[tuple[np.ndarray, np.ndarray]] = [
            (t_rows, l_rows),                                # TL per record
            (l_rows[record_of_word], flat_words),            # LW per occurrence
            (flat_words, t_rows[record_of_word]),            # WT per occurrence
            (flat_users, t_rows[record_of_user]),            # UT
            (flat_users, l_rows[record_of_user]),            # UL
        ]

        # WW: all distinct-word pairs per record, grouped by bag size so
        # each group is one triu_indices gather over a stacked matrix.
        by_size: dict[int, list[np.ndarray]] = {}
        for distinct in distinct_list:
            if distinct.size >= 2:
                by_size.setdefault(distinct.size, []).append(distinct)
        for size, bags in by_size.items():
            stacked = np.vstack(bags)
            upper_i, upper_j = np.triu_indices(size, 1)
            parts.append(
                (stacked[:, upper_i].ravel(), stacked[:, upper_j].ravel())
            )

        # UW: every linked user pairs with every distinct word of the record.
        if flat_users.size and distinct_lengths.sum():
            uw_src = np.repeat(flat_users, distinct_lengths[record_of_user])
            uw_dst = np.concatenate(
                [
                    np.tile(distinct, users.size)
                    for distinct, users in zip(distinct_list, user_rows_list)
                    if distinct.size and users.size
                ]
            )
            parts.append((uw_src, uw_dst))

        non_empty = [(s, d) for s, d in parts if s.size]
        src = np.concatenate([s for s, _d in non_empty])
        dst = np.concatenate([d for _s, d in non_empty])
        self.buffer.add_edges(src, dst)
        return int(src.size)

    def _train_burst(self) -> None:
        """Run the online SGNS steps over the recency buffer."""
        if len(self.buffer) == 0:
            return
        # Negatives: uniform over all known rows — the buffer's node
        # population is small and shifting, so degree-based noise is
        # not meaningful online.
        noise = UniformNegativeSampler(self.center.shape[0])
        total_loss = 0.0
        for _ in range(self.steps_per_batch):
            src, dst = self.buffer.sample(self.batch_size, self._rng)
            neg = noise.sample((self.batch_size, self.negatives), self._rng)
            total_loss += sgns_step(
                self.center, self.context, src, dst, neg, self.online_lr
            )
        self.metrics.counter("sgns.steps").inc(self.steps_per_batch)
        self.metrics.gauge("sgns.burst_loss").set(
            total_loss / self.steps_per_batch
        )

    # ------------------------------------------------------------- checkpoint

    def save_checkpoint(self, directory: str | Path) -> Path:
        """Write a crash-resumable checkpoint (see :mod:`repro.core.serialize`)."""
        from repro.core.serialize import save_online_checkpoint

        return save_online_checkpoint(self, directory)

    @classmethod
    def restore(cls, base: Actor, directory: str | Path) -> "OnlineActor":
        """Rebuild a streaming deployment from :meth:`save_checkpoint` output."""
        from repro.core.serialize import load_online_checkpoint

        return load_online_checkpoint(base, directory)
