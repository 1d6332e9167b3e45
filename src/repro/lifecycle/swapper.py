"""Blue/green generation management inside a live ``QueryServer``.

A *generation* is one complete serving stack over one immutable bundle:
the ``load_bundle(mmap=True)`` model, its query engine (ANN indexes
built eagerly, off the serving path) and its
:class:`~repro.serving.service.QueryService`.  :class:`ModelSwapper`
keeps at most two on hand — the **active** (blue) generation taking
traffic and the **last-good** one retained for rollback — and performs
the atomic flip.

Why the flip is torn-read-free: each generation's service/engine/model
triple is immutable and self-consistent (the engine's modality caches
and ANN indexes are stamped with its own store's ``version`` counter,
so they can never mix rows across stores), and
:meth:`~repro.serving.http_server.QueryServer.swap_model` replaces the
server's ``service`` reference in a single assignment.  Every dispatch
— the batcher trampoline reads ``server.service`` exactly once per
batch, the non-coalesced path once per request — therefore executes
entirely against one generation.  Request *validation* is
model-independent (pure shape checks), so a request validated against
the outgoing service and dispatched on the incoming one is harmless.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.utils.logging import NULL_LOGGER
from repro.utils.metrics import MetricsRegistry
from repro.utils.tracing import stage

__all__ = ["ModelSwapper", "Generation"]


@dataclass
class Generation:
    """One bundle's complete serving stack (model + engine + service)."""

    #: Lifecycle epoch this generation serves (0 for a pre-lifecycle
    #: model adopted at startup).
    epoch: int
    #: The bundle's model (typically a mmap-backed ``QueryModel``).
    model: object
    #: Engine over ``model`` (ANN-indexed when the server is).
    engine: object
    #: Dispatch service bound to ``model`` and ``engine``.
    service: object

    def close(self) -> None:
        """Release the generation's store mapping (idempotent).

        Safe under in-flight readers: ndarrays handed out by an
        ``MmapStore`` keep their own mapping alive; ``close`` only drops
        the store's references so the retired bundle's pages can be
        reclaimed once the last response drains.
        """
        store = getattr(self.model, "store", None)
        close = getattr(store, "close", None)
        if close is not None:
            close()


class ModelSwapper:
    """Open, flip and roll back serving generations on a live server.

    Parameters
    ----------
    server:
        The running :class:`~repro.serving.http_server.QueryServer`;
        candidates are opened with the *same* engine configuration
        (ANN on/off, nlist/nprobe) the server was started with.
    metrics / logger:
        Shared registry (``lifecycle.active_epoch`` gauge,
        ``lifecycle.swaps`` counter) and structured logger.
    """

    def __init__(
        self,
        server,
        *,
        metrics: MetricsRegistry | None = None,
        logger=None,
    ) -> None:
        self.server = server
        self.metrics = metrics if metrics is not None else server.metrics
        self.logger = logger if logger is not None else NULL_LOGGER
        self.active: Generation | None = None
        self.last_good: Generation | None = None

    @property
    def active_epoch(self) -> int | None:
        """Epoch of the generation currently taking traffic."""
        return self.active.epoch if self.active is not None else None

    def adopt_initial(self, epoch: int) -> Generation:
        """Wrap the server's startup model as the first active generation."""
        self.active = Generation(
            epoch=epoch,
            model=self.server.model,
            engine=self.server.engine,
            service=self.server.service,
        )
        self.metrics.gauge("lifecycle.active_epoch").set(epoch)
        self.server.active_epoch = epoch
        return self.active

    def open_candidate(self, path: str | Path, epoch: int) -> Generation:
        """Open a candidate bundle as a green (not yet serving) generation.

        The mmap store, engine and — when the server runs ANN — every
        per-modality IVF index are built here, *before* the flip, so the
        swap itself never does work on the serving path.
        """
        from repro.core.serialize import load_bundle
        from repro.serving.service import QueryService

        with stage("lifecycle.open_candidate", metrics=self.metrics):
            model = load_bundle(path, mmap=True)
            engine = self.server.build_engine(model)
            self.server.warm_engine(engine)
            service = QueryService(
                model, engine=engine, metrics=self.server.metrics
            )
        self.logger.info(
            "lifecycle.candidate_opened", epoch=epoch, path=str(path)
        )
        return Generation(
            epoch=epoch, model=model, engine=engine, service=service
        )

    def flip(self, generation: Generation) -> Generation | None:
        """Promote ``generation`` to active; returns the one it replaced.

        The outgoing active generation becomes last-good; the previous
        last-good (now two generations back) is closed.
        """
        retired = self.active
        dropped = self.last_good
        self.server.swap_model(
            generation.model, generation.engine, generation.service
        )
        self.active = generation
        self.last_good = retired
        if dropped is not None and dropped is not generation:
            dropped.close()
        self.metrics.gauge("lifecycle.active_epoch").set(generation.epoch)
        self.server.active_epoch = generation.epoch
        self.metrics.counter("lifecycle.swaps").inc()
        self.logger.info(
            "lifecycle.swapped",
            epoch=generation.epoch,
            previous=retired.epoch if retired is not None else None,
        )
        return retired

    def rollback(self) -> Generation | None:
        """Revert to the last-good generation; returns the one rolled away.

        ``None`` (and no change) when there is nothing to roll back to.
        The rolled-away generation is closed — it is *not* retained as
        last-good, since it just proved itself bad.
        """
        target = self.last_good
        if target is None:
            return None
        bad = self.active
        self.server.swap_model(target.model, target.engine, target.service)
        self.active = target
        self.last_good = None
        if bad is not None:
            bad.close()
        self.metrics.gauge("lifecycle.active_epoch").set(target.epoch)
        self.server.active_epoch = target.epoch
        self.metrics.counter("lifecycle.swaps").inc()
        self.logger.warning(
            "lifecycle.rolled_back",
            epoch=target.epoch,
            rolled_away=bad.epoch if bad is not None else None,
        )
        return bad
