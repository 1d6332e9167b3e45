"""The lifecycle control loop: watch, gate, promote, monitor, roll back.

:class:`LifecycleManager` ties the pieces together on the serving side
(``repro serve --watch-bundles``):

* a :class:`~repro.lifecycle.watcher.BundleWatcher` polls the bundle
  root for new candidates and operator rollback requests;
* each candidate is opened as a green generation
  (:class:`~repro.lifecycle.swapper.ModelSwapper`), evaluated by the
  :class:`~repro.lifecycle.gate.PromotionGate`, and either atomically
  promoted under live traffic or vetoed (``VETOED`` marker, store
  closed);
* between candidates, the active generation's probe MRR is re-measured
  every ``monitor_every`` polls; a regression below the promotion-time
  baseline triggers an automatic rollback to the last-good generation.

State machine (see ``docs/architecture.md``)::

    IDLE --candidate--> GATING --pass/force--> PROMOTING --> IDLE
      |                   \\--fail--> (veto) --> IDLE
      +--regression or ROLLBACK marker--> ROLLING_BACK --> IDLE

Every promote / veto / rollback decision is appended to
``decisions.jsonl`` in the bundle root (one JSON object per line) and
surfaced, along with the live state, through the ``/varz`` status
provider and ``lifecycle.*`` metrics.
"""

from __future__ import annotations

import json
import threading
import time

from repro.lifecycle.gate import PromotionGate
from repro.lifecycle.publisher import CURRENT_POINTER, write_pointer
from repro.lifecycle.swapper import ModelSwapper
from repro.lifecycle.watcher import BundleWatcher
from repro.utils.metrics import MetricsRegistry

__all__ = ["LifecycleManager"]

DECISIONS_LOG = "decisions.jsonl"


class LifecycleManager:
    """Run the promote/veto/rollback loop for one live server.

    Parameters
    ----------
    server:
        The running :class:`~repro.serving.http_server.QueryServer`.
    bundles_root:
        Bundle root directory shared with the publisher.
    initial_epoch:
        Epoch of the model the server started with (``0`` when serving a
        model that did not come from the bundle root).
    probe_queries:
        Frozen probe set for the gate's MRR check and the post-promotion
        monitor; ``None`` disables both MRR signals (structural gate
        checks still run).
    poll_interval:
        Seconds between bundle-root polls in the background thread.
    gate_mrr_drop:
        Relative probe-MRR regression (candidate vs baseline) that
        vetoes promotion.
    monitor_mrr_drop:
        Relative probe-MRR regression (active vs baseline) that triggers
        auto-rollback.
    monitor_every:
        Re-probe the active generation every this many idle polls.
    metrics / logger:
        Shared registry and structured logger (defaults to the
        server's).
    """

    def __init__(
        self,
        server,
        bundles_root,
        *,
        initial_epoch: int = 0,
        probe_queries=None,
        poll_interval: float = 2.0,
        gate_mrr_drop: float = 0.2,
        monitor_mrr_drop: float = 0.2,
        monitor_every: int = 5,
        metrics: MetricsRegistry | None = None,
        logger=None,
    ) -> None:
        if poll_interval <= 0:
            raise ValueError(
                f"poll_interval must be > 0, got {poll_interval}"
            )
        if monitor_every < 1:
            raise ValueError(
                f"monitor_every must be >= 1, got {monitor_every}"
            )
        self.server = server
        self.metrics = metrics if metrics is not None else server.metrics
        self.logger = logger if logger is not None else server.logger
        self.watcher = BundleWatcher(bundles_root)
        self.swapper = ModelSwapper(
            server, metrics=self.metrics, logger=self.logger
        )
        self.gate = PromotionGate(
            probe_queries=probe_queries,
            mrr_drop=gate_mrr_drop,
            metrics=self.metrics,
            logger=self.logger,
        )
        self.poll_interval = float(poll_interval)
        self.monitor_mrr_drop = float(monitor_mrr_drop)
        self.monitor_every = int(monitor_every)
        self.state = "idle"
        self.last_decision: dict | None = None
        self.baseline_mrr: float | None = None
        self._polls_since_monitor = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

        self.swapper.adopt_initial(initial_epoch)
        self.baseline_mrr = self.gate.probe_mrr(server.model)
        if self.baseline_mrr is not None:
            self.metrics.gauge("lifecycle.baseline_mrr").set(
                self.baseline_mrr
            )
        server.add_status_provider(self.status)
        # Request traces stamp the lifecycle state (swap-in-progress) so
        # a tail spike is attributable to a promotion or rollback.
        server.bind_lifecycle(lambda: self.state)

    # -------------------------------------------------------------- lifecycle

    def start(self) -> "LifecycleManager":
        """Poll the bundle root from a background daemon thread."""
        if self._thread is not None:
            raise RuntimeError("lifecycle manager already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-lifecycle", daemon=True
        )
        self._thread.start()
        self.logger.info(
            "lifecycle.started",
            root=str(self.watcher.root),
            poll_interval=self.poll_interval,
        )
        return self

    def stop(self) -> None:
        """Stop the polling thread (idempotent; joins briefly)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _run(self) -> None:
        """Thread body: poll until stopped; one failure never kills it."""
        while not self._stop.wait(self.poll_interval):
            try:
                self.poll_once()
            except Exception as exc:  # noqa: BLE001 - keep the loop alive
                self.metrics.counter("lifecycle.poll_errors").inc()
                self.logger.error(
                    "lifecycle.poll_error",
                    error=f"{type(exc).__name__}: {exc}",
                )

    # ------------------------------------------------------------- one cycle

    def poll_once(self) -> dict | None:
        """One control-loop step; returns the decision made, if any.

        Priority order: operator rollback request, then new candidate,
        then (every ``monitor_every`` calls) the active-MRR monitor.
        Exposed for deterministic tests and the CLI's foreground mode.
        """
        if self.watcher.rollback_requested():
            reason = self.watcher.clear_rollback()
            return self._rollback(reason or "operator")

        candidate = self.watcher.candidate(after=self.swapper.active_epoch)
        if candidate is not None:
            return self._evaluate_candidate(candidate)

        self._polls_since_monitor += 1
        if self._polls_since_monitor >= self.monitor_every:
            self._polls_since_monitor = 0
            return self._monitor_active()
        return None

    def _evaluate_candidate(self, candidate) -> dict:
        """Open, gate and promote-or-veto one candidate bundle."""
        self.state = "gating"
        try:
            generation = self.swapper.open_candidate(
                candidate.path, candidate.epoch
            )
        except Exception as exc:  # noqa: BLE001 - a bad bundle must veto
            self.state = "idle"
            self.watcher.veto(
                candidate.epoch, f"unloadable: {type(exc).__name__}: {exc}"
            )
            self.metrics.counter("lifecycle.vetoes").inc()
            return self._record(
                {
                    "action": "veto",
                    "epoch": candidate.epoch,
                    "reason": f"unloadable: {type(exc).__name__}: {exc}",
                }
            )
        decision = self.gate.evaluate(
            generation.model,
            epoch=candidate.epoch,
            reference_model=self.swapper.active.model
            if self.swapper.active is not None
            else None,
            reference_mrr=self.baseline_mrr,
            force=candidate.force,
        )
        if decision.verdict != "promote":
            self.state = "idle"
            self.watcher.veto(
                candidate.epoch, "gate: " + ", ".join(decision.failures())
            )
            generation.close()
            self.metrics.counter("lifecycle.vetoes").inc()
            return self._record(
                {"action": "veto", **decision.to_payload()}
            )

        self.state = "promoting"
        self.swapper.flip(generation)
        write_pointer(self.watcher.root, candidate.epoch, CURRENT_POINTER)
        # A forced promotion of a failing candidate must NOT move the
        # quality baseline — the monitor keeps holding the new active
        # generation to the last *gated* bar, which is exactly what lets
        # it catch the regression and auto-roll back.
        if not decision.forced and decision.candidate_mrr is not None:
            self.baseline_mrr = decision.candidate_mrr
            self.metrics.gauge("lifecycle.baseline_mrr").set(
                self.baseline_mrr
            )
        self.metrics.counter("lifecycle.promotions").inc()
        self._polls_since_monitor = 0
        self.state = "idle"
        return self._record({"action": "promote", **decision.to_payload()})

    def _monitor_active(self) -> dict | None:
        """Re-probe the active generation; auto-roll back on regression."""
        if self.baseline_mrr is None or self.swapper.last_good is None:
            return None
        active = self.swapper.active
        mrr = self.gate.probe_mrr(active.model)
        if mrr is None:
            return None
        self.metrics.gauge("lifecycle.active_mrr").set(mrr)
        floor = self.baseline_mrr * (1.0 - self.monitor_mrr_drop)
        if mrr >= floor:
            return None
        return self._rollback(
            f"active MRR {mrr:.4f} fell below floor {floor:.4f} "
            f"(baseline {self.baseline_mrr:.4f})"
        )

    def _rollback(self, reason: str) -> dict | None:
        """Revert to last-good, veto the bad epoch, repoint CURRENT."""
        self.state = "rolling_back"
        bad = self.swapper.rollback()
        self.state = "idle"
        if bad is None:
            return self._record(
                {
                    "action": "rollback_failed",
                    "reason": f"{reason} (no last-good generation)",
                }
            )
        self.watcher.veto(bad.epoch, f"rolled back: {reason}")
        write_pointer(
            self.watcher.root, self.swapper.active_epoch, CURRENT_POINTER
        )
        self.metrics.counter("lifecycle.rollbacks").inc()
        return self._record(
            {
                "action": "rollback",
                "epoch": bad.epoch,
                "restored_epoch": self.swapper.active_epoch,
                "reason": reason,
            }
        )

    # ------------------------------------------------------------ reporting

    def _record(self, decision: dict) -> dict:
        """Stamp, persist and expose one lifecycle decision."""
        decision = {"ts": time.time(), **decision}
        self.last_decision = decision
        try:
            with open(
                self.watcher.root / DECISIONS_LOG, "a", encoding="utf-8"
            ) as fh:
                fh.write(json.dumps(decision, sort_keys=True) + "\n")
        except OSError:
            self.metrics.counter("lifecycle.decision_log_errors").inc()
        self.logger.info("lifecycle.decision", decision=decision)
        return decision

    def status(self) -> dict:
        """Status-provider payload merged into ``/varz`` and ``/healthz``.

        Includes the server's SLO evaluation so an operator reading the
        lifecycle state also sees whether the active generation is
        burning error budget — the pair of facts a promote/rollback
        decision actually needs.
        """
        payload = {
            "lifecycle": {
                "state": self.state,
                "active_epoch": self.swapper.active_epoch,
                "last_good_epoch": (
                    self.swapper.last_good.epoch
                    if self.swapper.last_good is not None
                    else None
                ),
                "baseline_mrr": self.baseline_mrr,
                "last_decision": self.last_decision,
            }
        }
        evaluation = self.server.slo_engine.evaluate()
        payload["lifecycle"]["slo_status"] = evaluation["status"]
        return payload
