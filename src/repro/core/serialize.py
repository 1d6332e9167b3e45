"""Portable, pickle-free model serialization.

:meth:`Actor.save`/:meth:`Actor.load` use pickle, which is convenient but
carries the usual trust caveats and ties the file to this codebase's
internals.  This module writes a *portable inference bundle* instead — a
directory of plain ``.npy``/``.npz``/``.json`` files containing exactly
what the query surface needs:

```
bundle/
  manifest.json     format version, dims, detector period, config snapshot
  center.npy        center embeddings (float64, raw — mmap-able)
  context.npy       context embeddings (float64, raw — mmap-able)
  hotspots.npz      spatial (S, 2), temporal (T,)
  nodes.json        node registry: ordered [type, key] pairs
  vocab.json        retained keywords in id order
```

Format **v2** (the default) stores the embeddings as raw ``.npy``
sidecars so :func:`load_bundle` can memory-map them (``mmap=True``):
startup becomes an ``mmap(2)`` call, pages fault in as queries touch
rows, and models larger than RAM serve fine.  Format **v1** bundles
(compressed ``embeddings.npz``) still load — only eagerly, since zip
members can't be mapped.

Format **v3** (``save_bundle(..., shards=K)``) hash-partitions the
matrices over per-shard sidecar directories::

    bundle/
      manifest.json       format_version 3 + {"sharding": {...}}
      shards/00/center.npy  shard 0's rows, ascending global id
      shards/00/context.npy
      shards/01/...
      hotspots.npz nodes.json vocab.json   (as v2)

Row placement is the deterministic splitmix64 vertex hash of
:class:`~repro.sharding.HashPartitioner` — nothing but the shard count
is recorded, and :func:`load_bundle` re-derives the layout and wraps the
shards in a :class:`~repro.sharding.ShardedStore` (each shard
memory-mapped read-only under ``mmap=True``).  Malformed bundles of any
version raise :class:`BundleFormatError` naming the offending field and
format version.

:func:`load_bundle` reconstructs a :class:`QueryModel` — the full
:class:`~repro.core.prediction.GraphEmbeddingModel` query surface
(prediction, neighbor search) without training state.  Retraining requires
the original corpus; persist the fitted :class:`Actor` with pickle if you
need that.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.core.actor import Actor
from repro.core.prediction import GraphEmbeddingModel
from repro.data.text import Vocabulary
from repro.graphs.activity_graph import ActivityGraph
from repro.graphs.builder import BuiltGraphs
from repro.graphs.interaction_graph import UserInteractionGraph
from repro.graphs.types import NodeType
from repro.hotspots.detector import HotspotDetector
from repro.storage import DenseStore, EmbeddingStore, MmapStore

__all__ = [
    "save_bundle",
    "load_bundle",
    "QueryModel",
    "BundleFormatError",
    "FORMAT_VERSION",
    "SHARDED_FORMAT_VERSION",
    "SUPPORTED_FORMAT_VERSIONS",
    "save_online_checkpoint",
    "load_online_checkpoint",
    "ONLINE_FORMAT_VERSION",
]

FORMAT_VERSION = 2
SHARDED_FORMAT_VERSION = 3
SUPPORTED_FORMAT_VERSIONS = (1, 2, 3)
ONLINE_FORMAT_VERSION = 2
SUPPORTED_ONLINE_FORMAT_VERSIONS = (1, 2)


class BundleFormatError(ValueError):
    """A bundle/checkpoint directory is missing, truncated or incompatible.

    Raised instead of bare ``KeyError``/``ValueError`` so callers (and
    operators reading logs) see *which* manifest field or file is at
    fault and which format version the bundle declared.
    """


def _read_json(path: Path, *, kind: str, expect: type = dict):
    """Load one JSON file of a bundle or checkpoint, or raise BundleFormatError.

    A missing file, undecodable text or a top-level value that is not an
    ``expect`` (``dict`` for manifests, ``list`` for ``nodes.json`` and
    ``vocab.json``) raises an error naming the file.
    """
    if not path.exists():
        raise BundleFormatError(f"{kind} at {path.parent} has no {path.name}")
    try:
        value = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BundleFormatError(
            f"{kind} file {path} is corrupt or truncated: {exc}"
        ) from exc
    if not isinstance(value, expect):
        raise BundleFormatError(
            f"{kind} file {path} must hold a JSON {expect.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def _require(manifest: dict, field: str, *, version, directory: Path):
    """Fetch a manifest field or raise a BundleFormatError naming it."""
    try:
        return manifest[field]
    except KeyError:
        raise BundleFormatError(
            f"bundle at {directory} (format v{version}) is missing "
            f"manifest field {field!r}"
        ) from None


def _check_version(manifest: dict, supported, *, kind: str, directory: Path):
    """Validate the declared format version against ``supported``."""
    version = manifest.get("format_version")
    if version not in supported:
        raise BundleFormatError(
            f"unsupported {kind} format {version!r} at {directory}; "
            f"this build reads versions {supported}"
        )
    return version


def _load_array(path: Path, *, mmap: bool, version, directory: Path):
    """Read one ``.npy`` sidecar, mapped or eager, with clear errors."""
    if not path.exists():
        raise BundleFormatError(
            f"bundle at {directory} (format v{version}) is missing {path.name}"
        )
    try:
        if mmap:
            return np.load(path, mmap_mode="r", allow_pickle=False)
        return np.load(path, allow_pickle=False)
    except ValueError as exc:
        raise BundleFormatError(
            f"bundle file {path} is corrupt or truncated: {exc}"
        ) from exc


class QueryModel(GraphEmbeddingModel):
    """Inference-only model reconstructed from a serialized bundle.

    Exposes the complete query surface (``score_candidates``,
    ``neighbors``, ``unit_vector`` ...) but has no trainer and no edges —
    only the node registry, hotspots, vocabulary and embeddings.  When
    constructed with a ``store`` (e.g. a read-only
    :class:`~repro.storage.mmap.MmapStore` over the bundle directory)
    the matrices are served straight from it, zero-copy.
    """

    name = "ACTOR(bundle)"
    supports_time = True

    def __init__(
        self,
        built: BuiltGraphs,
        center: np.ndarray | None = None,
        context: np.ndarray | None = None,
        *,
        store: EmbeddingStore | None = None,
    ) -> None:
        self.built = built
        if store is not None:
            if center is not None or context is not None:
                raise ValueError(
                    "pass either a store or raw matrices, not both"
                )
            self.adopt_store(store)
        else:
            self.center = center
            self.context = context


def save_bundle(
    model: Actor | QueryModel,
    directory: str | Path,
    *,
    shards: int = 1,
) -> Path:
    """Write ``model``'s inference state to ``directory`` (created if needed).

    Embeddings go out as raw ``.npy`` sidecars (format v2) so the bundle
    can later be served zero-copy via ``load_bundle(..., mmap=True)``.
    With ``shards=K > 1`` the matrices are hash-partitioned into
    ``shards/NN`` sidecar directories (format v3).  Raises ``ValueError``
    for ``shards < 1`` before anything is written.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    # QueryModel and OnlineActor are fitted by construction; a bare Actor
    # must have been trained.
    if not getattr(model, "is_fitted", True):
        raise ValueError("cannot serialize an unfitted model")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    activity = model.built.activity
    nodes = [
        [activity.type_of(i).value, activity.key_of(i)]
        for i in range(activity.n_nodes)
    ]
    # Streaming models (OnlineActor) grow rows past the base registry;
    # append those nodes in row order so nodes.json matches the matrices
    # and the bundle loads as a self-consistent QueryModel.
    extra_nodes = getattr(model, "_extra_nodes", None)
    if extra_nodes:
        base_rows = model.center.shape[0] - len(extra_nodes)
        if base_rows != activity.n_nodes:
            raise ValueError(
                f"cannot serialize: {activity.n_nodes} registry nodes plus "
                f"{len(extra_nodes)} extra nodes do not account for "
                f"{model.center.shape[0]} embedding rows"
            )
        ordered = sorted(extra_nodes.items(), key=lambda item: item[1])
        for offset, ((node_type, key), row) in enumerate(ordered):
            if row != base_rows + offset:
                raise ValueError(
                    "extra node rows are not contiguous; refusing to export"
                )
            nodes.append(
                [
                    node_type.value,
                    int(key) if isinstance(key, (int, np.integer)) else key,
                ]
            )
    detector = model.built.detector

    center = np.asarray(model.center, dtype=np.float64)
    context = np.asarray(model.context, dtype=np.float64)
    if shards == 1:
        np.save(directory / "center.npy", center)
        np.save(directory / "context.npy", context)
    else:
        from repro.sharding import HashPartitioner, shard_subdir

        _, _, shard_rows = HashPartitioner(shards).build_maps(
            center.shape[0]
        )
        for s, rows in enumerate(shard_rows):
            sdir = shard_subdir(directory, s)
            sdir.mkdir(parents=True, exist_ok=True)
            np.save(sdir / "center.npy", center[rows])
            np.save(sdir / "context.npy", context[rows])
    np.savez_compressed(
        directory / "hotspots.npz",
        spatial=detector.spatial_hotspots,
        temporal=detector.temporal_hotspots,
    )
    (directory / "nodes.json").write_text(json.dumps(nodes))
    (directory / "vocab.json").write_text(
        json.dumps(model.built.vocab.words)
    )
    config = getattr(model, "config", None)
    manifest = {
        "format_version": (
            FORMAT_VERSION if shards == 1 else SHARDED_FORMAT_VERSION
        ),
        "dim": int(center.shape[1]),
        "n_nodes": int(center.shape[0]),
        "period": float(getattr(detector, "period", 24.0)),
        "config": asdict(config) if config is not None else None,
    }
    if shards > 1:
        manifest["sharding"] = {
            "n_shards": shards,
            "partitioner": HashPartitioner.name,
        }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return directory


def load_bundle(directory: str | Path, *, mmap: bool = False) -> QueryModel:
    """Reconstruct a :class:`QueryModel` from a bundle directory.

    With ``mmap=True`` (format v2/v3 bundles) the embedding matrices
    are memory-mapped read-only straight from the bundle's ``.npy``
    sidecars — no copy, near-instant startup, identical query results.
    Format v1 bundles store compressed ``embeddings.npz`` archives, whose
    members cannot be mapped; re-export with :func:`save_bundle` to get
    a mappable v2 bundle.  Format v3 bundles come back behind a
    :class:`~repro.sharding.ShardedStore` over the per-shard sidecars
    (each shard mapped read-only under ``mmap=True``), with the row
    layout re-derived from the manifest's shard count.
    """
    directory = Path(directory)
    manifest = _read_json(directory / "manifest.json", kind="bundle")
    version = _check_version(
        manifest, SUPPORTED_FORMAT_VERSIONS, kind="bundle", directory=directory
    )

    store: EmbeddingStore | None = None
    center = context = None
    if version == 3:
        from repro.sharding import HashPartitioner, ShardedStore, shard_subdir

        sharding = _require(
            manifest, "sharding", version=version, directory=directory
        )
        n_shards = sharding.get("n_shards")
        if not isinstance(n_shards, int) or n_shards < 1:
            raise BundleFormatError(
                f"bundle at {directory} (format v3) declares invalid "
                f"sharding.n_shards {n_shards!r}"
            )
        partitioner = sharding.get("partitioner")
        if partitioner != HashPartitioner.name:
            raise BundleFormatError(
                f"bundle at {directory} (format v3) uses unknown "
                f"partitioner {partitioner!r}; this build reads "
                f"{HashPartitioner.name!r}"
            )
        children: list[EmbeddingStore] = []
        for s in range(n_shards):
            sdir = shard_subdir(directory, s)
            if mmap:
                if not (sdir / "center.npy").exists():
                    raise BundleFormatError(
                        f"bundle at {directory} (format v3) is missing "
                        f"shard sidecar {sdir.name}/center.npy"
                    )
                children.append(MmapStore.open(sdir))
            else:
                children.append(
                    DenseStore(
                        _load_array(
                            sdir / "center.npy", mmap=False,
                            version=version, directory=directory,
                        ),
                        _load_array(
                            sdir / "context.npy", mmap=False,
                            version=version, directory=directory,
                        ),
                    )
                )
        try:
            store = ShardedStore.from_children(children)
        except ValueError as exc:
            raise BundleFormatError(
                f"bundle at {directory} (format v3) is mis-sharded: {exc}"
            ) from exc
    elif version == 1:
        if mmap:
            raise BundleFormatError(
                f"bundle at {directory} is format v1 (compressed "
                "embeddings.npz), which cannot be memory-mapped; re-export "
                "it with save_bundle to get a mmap-able v2 bundle"
            )
        npz_path = directory / "embeddings.npz"
        if not npz_path.exists():
            raise BundleFormatError(
                f"bundle at {directory} (format v1) is missing embeddings.npz"
            )
        try:
            with np.load(npz_path) as data:
                center = np.array(data["center"])
                context = np.array(data["context"])
        except (ValueError, KeyError, OSError) as exc:
            raise BundleFormatError(
                f"bundle file {npz_path} is corrupt or truncated: {exc}"
            ) from exc
    elif mmap:
        store = MmapStore.open(directory)
        center = _load_array(
            directory / "center.npy", mmap=True, version=version,
            directory=directory,
        )
        context = _load_array(
            directory / "context.npy", mmap=True, version=version,
            directory=directory,
        )
    else:
        center = _load_array(
            directory / "center.npy", mmap=False, version=version,
            directory=directory,
        )
        context = _load_array(
            directory / "context.npy", mmap=False, version=version,
            directory=directory,
        )
    if center is not None and center.shape != context.shape:
        raise BundleFormatError(
            f"bundle at {directory} (format v{version}) has mismatched "
            f"center {center.shape} vs context {context.shape} shapes"
        )
    n_rows = store.n_rows if center is None else center.shape[0]

    period = _require(manifest, "period", version=version, directory=directory)
    n_nodes = _require(manifest, "n_nodes", version=version, directory=directory)
    hotspots_path = directory / "hotspots.npz"
    if not hotspots_path.exists():
        raise BundleFormatError(
            f"bundle at {directory} (format v{version}) is missing hotspots.npz"
        )
    try:
        with np.load(hotspots_path) as data:
            detector = HotspotDetector.from_arrays(
                data["spatial"], data["temporal"], period=period
            )
    except (ValueError, KeyError, OSError) as exc:
        raise BundleFormatError(
            f"bundle file {hotspots_path} is corrupt or truncated: {exc}"
        ) from exc

    nodes = _read_json(directory / "nodes.json", kind="bundle", expect=list)
    if len(nodes) != n_nodes or n_rows != len(nodes):
        raise BundleFormatError(
            f"bundle at {directory} (format v{version}) is inconsistent: "
            f"manifest n_nodes={n_nodes}, nodes.json holds {len(nodes)}, "
            f"embeddings hold {n_rows} rows"
        )

    activity = ActivityGraph()
    # One enum lookup per distinct type value, not per node — bundles hold
    # tens of thousands of nodes and this loop dominates non-mmap load.
    type_cache: dict = {}
    index_types = (NodeType.TIME, NodeType.LOCATION)
    for type_value, key in nodes:
        node_type = type_cache.get(type_value)
        if node_type is None:
            node_type = type_cache[type_value] = NodeType(type_value)
        # JSON round-trips hotspot indices as ints and words/users as str;
        # T/L keys are indices.
        if node_type in index_types:
            key = int(key)
        activity.add_node(node_type, key)
    activity.finalize()

    words = _read_json(directory / "vocab.json", kind="bundle", expect=list)
    vocab = Vocabulary(min_count=1)
    vocab.fit([])  # freeze empty, then append in stored id order
    for word in words:
        vocab.add_word(word)

    interaction = UserInteractionGraph()
    interaction.finalize()
    built = BuiltGraphs(
        activity=activity,
        interaction=interaction,
        detector=detector,
        vocab=vocab,
        record_units=[],
    )
    if store is not None:
        return QueryModel(built=built, store=store)
    return QueryModel(built=built, center=center, context=context)


# --------------------------------------------------------------------------
# Streaming checkpoints
#
# An OnlineActor's state beyond its base Actor is: the (grown) embedding
# matrices, the registry of streamed-in extra nodes, the recency buffer
# contents, and the online RNG stream.  A checkpoint directory holds
#
#   online_manifest.json   format version, hyper-params, extra node registry,
#                          buffer clock, RNG state
#   center.npy/context.npy (grown) embedding matrices, raw — mmap-able
#   online_state.npz       recency-buffer columns
#
# so a streaming deployment can crash and resume against the same base
# model without replaying the stream.  Checkpoint format v1 kept the
# matrices inside online_state.npz; those still load.


def save_online_checkpoint(model, directory: str | Path) -> Path:
    """Write ``model``'s (an :class:`~repro.core.streaming.OnlineActor`)
    resumable streaming state to ``directory`` (created if needed)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    # Extra nodes in row order, so restore can rebuild the registry by
    # enumeration.  Keys are hotspot ints or word/user strings — JSON-safe.
    base_rows = model.center.shape[0] - len(model._extra_nodes)
    ordered = sorted(model._extra_nodes.items(), key=lambda item: item[1])
    extra_nodes = []
    for offset, ((node_type, key), row) in enumerate(ordered):
        if row != base_rows + offset:
            raise ValueError(
                "extra node rows are not contiguous; refusing to checkpoint"
            )
        extra_nodes.append(
            [node_type.value, int(key) if isinstance(key, (int, np.integer)) else key]
        )

    buffer_state = model.buffer.state()
    np.save(directory / "center.npy", np.asarray(model.center, dtype=np.float64))
    np.save(directory / "context.npy", np.asarray(model.context, dtype=np.float64))
    np.savez_compressed(
        directory / "online_state.npz",
        buf_src=buffer_state["src"],
        buf_dst=buffer_state["dst"],
        buf_weight=buffer_state["weight"],
        buf_born=buffer_state["born"],
    )
    manifest = {
        "format_version": ONLINE_FORMAT_VERSION,
        "dim": int(model.center.shape[1]),
        "base_rows": int(base_rows),
        "n_rows": int(model.center.shape[0]),
        "n_ingested": int(model.n_ingested),
        "half_life": float(model.buffer.half_life),
        "online_lr": float(model.online_lr),
        "steps_per_batch": int(model.steps_per_batch),
        "batch_size": int(model.batch_size),
        "negatives": int(model.negatives),
        "buffer_max_size": int(model.buffer.max_size),
        "buffer_clock": int(buffer_state["clock"]),
        "buffer_evictions": int(buffer_state["evictions"]),
        "extra_nodes": extra_nodes,
        "rng_state": model._rng.bit_generator.state,
    }
    (directory / "online_manifest.json").write_text(
        json.dumps(manifest, indent=2)
    )
    return directory


def load_online_checkpoint(base: Actor, directory: str | Path):
    """Rebuild an :class:`~repro.core.streaming.OnlineActor` from a
    :func:`save_online_checkpoint` directory, resuming against ``base``.

    ``base`` must be the fitted Actor the checkpointed deployment was
    warm-started from (same node count and dimension); its built graphs
    supply the detector, the base node registry and the vocabulary that
    the restored model forks (``base`` itself is not mutated).
    Reads checkpoint formats v1 (matrices inside ``online_state.npz``)
    and v2 (raw ``.npy`` sidecars).
    """
    from repro.core.streaming import OnlineActor, RecencyBuffer

    directory = Path(directory)
    manifest = _read_json(
        directory / "online_manifest.json", kind="checkpoint"
    )
    version = _check_version(
        manifest, SUPPORTED_ONLINE_FORMAT_VERSIONS,
        kind="checkpoint", directory=directory,
    )
    if not base.is_fitted:
        raise ValueError("base Actor must be fitted to restore a checkpoint")
    base_rows = _require(
        manifest, "base_rows", version=version, directory=directory
    )
    dim = _require(manifest, "dim", version=version, directory=directory)
    if base.center.shape[0] != base_rows or base.center.shape[1] != dim:
        raise ValueError(
            f"checkpoint was taken against a base model with "
            f"{base_rows} nodes of dim {dim}, got "
            f"{base.center.shape[0]} nodes of dim {base.center.shape[1]}"
        )

    model = OnlineActor(
        base,
        half_life=manifest["half_life"],
        online_lr=manifest["online_lr"],
        steps_per_batch=manifest["steps_per_batch"],
        batch_size=manifest["batch_size"],
        negatives=manifest["negatives"],
        buffer_size=manifest["buffer_max_size"],
        seed=0,
    )
    state_path = directory / "online_state.npz"
    if not state_path.exists():
        raise BundleFormatError(
            f"checkpoint at {directory} (format v{version}) is missing "
            "online_state.npz"
        )
    try:
        with np.load(state_path) as data:
            if version == 1:
                center = np.array(data["center"])
                context = np.array(data["context"])
            buffer_state = {
                "src": data["buf_src"],
                "dst": data["buf_dst"],
                "weight": data["buf_weight"],
                "born": data["buf_born"],
                "clock": manifest["buffer_clock"],
                "evictions": manifest["buffer_evictions"],
            }
    except (ValueError, KeyError, OSError) as exc:
        raise BundleFormatError(
            f"checkpoint file {state_path} is corrupt or truncated: {exc}"
        ) from exc
    if version >= 2:
        center = _load_array(
            directory / "center.npy", mmap=False, version=version,
            directory=directory,
        )
        context = _load_array(
            directory / "context.npy", mmap=False, version=version,
            directory=directory,
        )

    extra_nodes = _require(
        manifest, "extra_nodes", version=version, directory=directory
    )
    if (
        center.shape != (manifest["n_rows"], dim)
        or center.shape != context.shape
        or manifest["n_rows"] != base_rows + len(extra_nodes)
    ):
        raise BundleFormatError(
            f"checkpoint at {directory} (format v{version}) is inconsistent: "
            "row/extra-node count mismatch"
        )

    model.center = center
    model.context = context
    vocab = model.built.vocab
    for offset, (type_value, key) in enumerate(extra_nodes):
        node_type = NodeType(type_value)
        if node_type in (NodeType.TIME, NodeType.LOCATION):
            key = int(key)
        model._extra_nodes[(node_type, key)] = base_rows + offset
        # Streamed-in words get their entry back in the restored model's
        # vocabulary fork; a full vocabulary simply leaves the word
        # resolvable through the extra-node registry.
        if (
            node_type is NodeType.WORD
            and key not in vocab
            and (vocab.max_size is None or len(vocab) < vocab.max_size)
        ):
            vocab.add_word(key)
    model.buffer = RecencyBuffer.from_state(
        buffer_state,
        half_life=manifest["half_life"],
        max_size=manifest["buffer_max_size"],
    )
    model.n_ingested = int(manifest["n_ingested"])
    rng_state = manifest["rng_state"]
    if rng_state.get("bit_generator") == model._rng.bit_generator.state.get(
        "bit_generator"
    ):
        model._rng.bit_generator.state = rng_state
    return model
