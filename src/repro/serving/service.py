"""Query service: request validation + batched execution over the engine.

:class:`QueryService` is the transport-independent core of ``repro
serve``: it turns untrusted JSON bodies into typed requests
(:class:`PredictRequest`, :class:`NeighborsRequest`), rejecting anything
malformed with :class:`BadRequest` — a *client* error the HTTP layer maps
to a structured 400 body instead of letting a handler thread die with a
500 — and executes whole mixed batches through the
:class:`~repro.core.query_engine.QueryEngine`'s vectorized paths.

Parity contract: :meth:`QueryService.dispatch` produces, for every
request, a response bit-identical to dispatching that request alone
(``dispatch([r])[0]``).  Predict requests ride
:meth:`~repro.core.query_engine.QueryEngine.score_ragged_batch` (exact
per-row determinism); neighbor requests share one
:meth:`~repro.core.query_engine.QueryEngine.query_matrix` call and score
against the cached normalized modality matrix row by row.  The request
coalescer and the ``bench_serve_latency`` gates both lean on this.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.prediction import TARGETS, top_k
from repro.core.query_engine import QueryEngine
from repro.utils.metrics import MetricsRegistry

__all__ = [
    "BadRequest",
    "PredictRequest",
    "NeighborsRequest",
    "QueryService",
    "NEIGHBOR_MODALITIES",
]

NEIGHBOR_MODALITIES = ("word", "time", "location")

_MAX_CANDIDATES = 4096
_MAX_K = 1024
# Largest accepted coordinate magnitude: beyond ~1e154 the squared
# distance to every spatial hotspot overflows, and the snap then finds
# no nearest hotspot at all.
_MAX_COORDINATE = 1e150
# Longest client value (as its repr) an error message echoes.
_MAX_ECHO = 64


class BadRequest(ValueError):
    """A malformed client request (maps to HTTP 400, never a 500).

    Parameters
    ----------
    message:
        Human-readable description of what failed validation.
    field:
        Name of the offending request field, when attributable.
    """

    def __init__(self, message: str, *, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field

    def to_payload(self) -> dict:
        """The structured JSON error body served to the client."""
        payload = {"error": str(self)}
        if self.field is not None:
            payload["field"] = self.field
        return payload


@dataclass(frozen=True)
class PredictRequest:
    """A validated cross-modal prediction request.

    Attributes
    ----------
    target:
        Candidate modality being ranked (``"text"`` / ``"location"`` /
        ``"time"``).
    candidates:
        Normalized candidate values: word-bag tuples for text, ``(x, y)``
        tuples for location, floats for time.
    time / location / words:
        The observed query modalities (each may be ``None``; at least one
        is present).
    k:
        Ranking length to return (``None`` ranks every candidate).
    """

    target: str
    candidates: tuple
    time: float | None = None
    location: tuple[float, float] | None = None
    words: tuple[str, ...] | None = None
    k: int | None = None


@dataclass(frozen=True)
class NeighborsRequest:
    """A validated per-modality nearest-neighbor request.

    Attributes
    ----------
    modality:
        Unit space searched (``"word"`` / ``"time"`` / ``"location"``).
    time / location / words:
        The query modalities composing the probe vector.
    k:
        Number of neighbors to return.
    """

    modality: str
    time: float | None = None
    location: tuple[float, float] | None = None
    words: tuple[str, ...] | None = None
    k: int = 10


def _echo(value) -> str:
    """``repr(value)`` for an error message, cut to a marked prefix.

    A 400 body and its ``serve.bad_request`` log line must not grow with
    the client's value: anything past :data:`_MAX_ECHO` characters is
    replaced by ``...`` and the full length.
    """
    text = repr(value)
    if len(text) <= _MAX_ECHO:
        return text
    return f"{text[:_MAX_ECHO]}... ({len(text)} chars)"


def _require_dict(body) -> dict:
    """The request body as a dict, or a :class:`BadRequest`."""
    if not isinstance(body, dict):
        raise BadRequest(
            f"request body must be a JSON object, got {type(body).__name__}"
        )
    return body


def _number(value, field: str, limit: float = math.inf) -> float:
    """Coerce a finite JSON number of magnitude at most ``limit``.

    Bools are not numbers here, and neither are NaN and ±Infinity
    (which Python's JSON parser accepts) or integers too large for a
    float.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequest(
            f"{field} must be a number, got {type(value).__name__}",
            field=field,
        )
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise BadRequest(f"{field} must be a finite number", field=field)
    if abs(number) > limit:
        raise BadRequest(
            f"{field} must be at most {limit:g} in magnitude", field=field
        )
    return number


def _opt_time(body: dict) -> float | None:
    """The optional ``time`` query field."""
    value = body.get("time")
    return None if value is None else _number(value, "time")


def _opt_location(body: dict) -> tuple[float, float] | None:
    """The optional ``location`` query field (an ``[x, y]`` pair)."""
    value = body.get("location")
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise BadRequest(
            "location must be an [x, y] pair", field="location"
        )
    return (
        _number(value[0], "location", _MAX_COORDINATE),
        _number(value[1], "location", _MAX_COORDINATE),
    )


def _opt_words(body: dict, field: str = "words") -> tuple[str, ...] | None:
    """The optional ``words`` query field (a list of keywords)."""
    value = body.get(field)
    if value is None:
        return None
    if not isinstance(value, (list, tuple)):
        raise BadRequest(
            f"{field} must be a list of strings", field=field
        )
    for word in value:
        if not isinstance(word, str):
            raise BadRequest(
                f"{field} entries must be strings, got "
                f"{type(word).__name__}",
                field=field,
            )
    return tuple(value)


def _opt_k(body: dict, *, default: int | None = None) -> int | None:
    """The optional ``k`` field (positive, bounded)."""
    value = body.get("k", default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(
            f"k must be an integer, got {type(value).__name__}", field="k"
        )
    if not 1 <= value <= _MAX_K:
        raise BadRequest(
            f"k must be between 1 and {_MAX_K}, got {value}", field="k"
        )
    return value


def _candidate(value, target: str):
    """Normalize one candidate of ``target``; raises on shape errors."""
    if target == "text":
        if not isinstance(value, (list, tuple)):
            raise BadRequest(
                "text candidates must be lists of keywords",
                field="candidates",
            )
        for word in value:
            if not isinstance(word, str):
                raise BadRequest(
                    "text candidate entries must be strings",
                    field="candidates",
                )
        return tuple(value)
    if target == "location":
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise BadRequest(
                "location candidates must be [x, y] pairs",
                field="candidates",
            )
        return (
            _number(value[0], "candidates", _MAX_COORDINATE),
            _number(value[1], "candidates", _MAX_COORDINATE),
        )
    return _number(value, "candidates")


class QueryService:
    """Validate and execute serve requests against one fitted model.

    Parameters
    ----------
    model:
        Any :class:`~repro.core.prediction.GraphEmbeddingModel` (a live
        Actor or a read-only ``load_bundle(mmap=True)`` QueryModel).
    engine:
        Optional pre-built :class:`~repro.core.query_engine.QueryEngine`
        over ``model``; one is created against ``metrics`` otherwise.
    metrics:
        Optional shared :class:`~repro.utils.metrics.MetricsRegistry`.
    """

    def __init__(
        self,
        model,
        *,
        engine: QueryEngine | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.model = model
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.engine = (
            engine
            if engine is not None
            else QueryEngine(model, metrics=self.metrics)
        )

    # ------------------------------------------------------------- validation

    def validate_predict(self, body) -> PredictRequest:
        """Parse an untrusted ``/v1/predict`` body into a typed request."""
        body = _require_dict(body)
        target = body.get("target")
        if target not in TARGETS:
            raise BadRequest(
                f"target must be one of {list(TARGETS)}, got {_echo(target)}",
                field="target",
            )
        raw = body.get("candidates")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise BadRequest(
                "candidates must be a non-empty list", field="candidates"
            )
        if len(raw) > _MAX_CANDIDATES:
            raise BadRequest(
                f"at most {_MAX_CANDIDATES} candidates per request, got "
                f"{len(raw)}",
                field="candidates",
            )
        request = PredictRequest(
            target=target,
            candidates=tuple(_candidate(c, target) for c in raw),
            time=_opt_time(body),
            location=_opt_location(body),
            words=_opt_words(body),
            k=_opt_k(body),
        )
        if (
            request.time is None
            and request.location is None
            and request.words is None
        ):
            raise BadRequest(
                "at least one query modality (time, location, words) is "
                "required"
            )
        return request

    def validate_neighbors(self, body) -> NeighborsRequest:
        """Parse an untrusted ``/v1/neighbors`` body into a typed request."""
        body = _require_dict(body)
        modality = body.get("modality")
        if modality not in NEIGHBOR_MODALITIES:
            raise BadRequest(
                f"modality must be one of {list(NEIGHBOR_MODALITIES)}, "
                f"got {_echo(modality)}",
                field="modality",
            )
        request = NeighborsRequest(
            modality=modality,
            time=_opt_time(body),
            location=_opt_location(body),
            words=_opt_words(body),
            k=_opt_k(body, default=10) or 10,
        )
        if (
            request.time is None
            and request.location is None
            and request.words is None
        ):
            raise BadRequest(
                "at least one query modality (time, location, words) is "
                "required"
            )
        return request

    # -------------------------------------------------------------- execution

    def dispatch(self, requests: Sequence) -> list[dict]:
        """Execute a mixed batch of typed requests, preserving order.

        Predict requests sharing a target modality are scored through one
        :meth:`~repro.core.query_engine.QueryEngine.score_ragged_batch`
        call; neighbor requests share one
        :meth:`~repro.core.query_engine.QueryEngine.query_matrix` pass.
        Element ``i`` of the result is bit-identical to
        ``dispatch([requests[i]])[0]`` — the coalescing parity contract.
        """
        responses: list[dict | None] = [None] * len(requests)
        predict_by_target: dict[str, list[int]] = {}
        neighbor_indices: list[int] = []
        for i, request in enumerate(requests):
            if isinstance(request, PredictRequest):
                predict_by_target.setdefault(request.target, []).append(i)
            elif isinstance(request, NeighborsRequest):
                neighbor_indices.append(i)
            else:
                raise TypeError(
                    f"unsupported request type {type(request).__name__}"
                )
        for target, indices in predict_by_target.items():
            group = [requests[i] for i in indices]
            scores = self.engine.score_ragged_batch(
                target=target,
                candidates=[r.candidates for r in group],
                times=[r.time for r in group],
                locations=[r.location for r in group],
                words=[r.words for r in group],
            )
            for i, request, row in zip(indices, group, scores):
                responses[i] = self._predict_response(request, row)
        if neighbor_indices:
            group = [requests[i] for i in neighbor_indices]
            probes = self.engine.query_matrix(
                times=[r.time for r in group],
                locations=[r.location for r in group],
                words=[r.words for r in group],
            )
            for i, request, probe in zip(neighbor_indices, group, probes):
                responses[i] = self._neighbors_response(request, probe)
        self.metrics.counter("serve.requests").inc(len(requests))
        return responses

    def _predict_response(
        self, request: PredictRequest, scores: np.ndarray
    ) -> dict:
        """Build the ``/v1/predict`` response body for one scored request."""
        k = request.k if request.k is not None else len(scores)
        order = top_k(scores, k)
        return {
            "target": request.target,
            "n_candidates": int(len(scores)),
            "scores": [float(s) for s in scores],
            "ranking": [int(i) for i in order],
        }

    def _neighbors_response(
        self, request: NeighborsRequest, probe: np.ndarray
    ) -> dict:
        """Build the ``/v1/neighbors`` response body for one probe vector.

        Retrieval goes through the *engine's* ``neighbors`` seam: the
        exact :class:`~repro.core.query_engine.QueryEngine` delegates to
        the model's dense scan, while an
        :class:`~repro.ann.engine.IndexedQueryEngine` (``repro serve
        --ann``) answers from its IVF index — same response shape, same
        per-request determinism, so coalescing parity holds either way.
        """
        raw = self.engine.neighbors(probe, request.modality, request.k)
        detector = self.model.built.detector
        neighbors = []
        for key, score in raw:
            entry: dict = {"score": float(score)}
            if request.modality == "time":
                entry["hotspot"] = int(key)
                entry["hour"] = float(detector.temporal_hotspots[int(key)])
            elif request.modality == "location":
                entry["hotspot"] = int(key)
                center = detector.spatial_hotspots[int(key)]
                entry["center"] = [float(center[0]), float(center[1])]
            else:
                entry["word"] = str(key)
            neighbors.append(entry)
        return {
            "modality": request.modality,
            "k": request.k,
            "neighbors": neighbors,
        }
