"""Versioned bundle publication: the write side of the model lifecycle.

A *bundle root* is a directory of numbered epoch directories plus two
pointer entries::

    bundles/
      000001/           v2 inference bundle (manifest.json, center.npy, ...)
        promote.json    publish metadata: {"force": bool}
        VETOED          (optional) gate verdict marker — never promote this
      000002/
      CURRENT           pointer: epoch currently promoted for serving
      LATEST            pointer: newest published epoch
      ROLLBACK          (optional) operator request: revert to last-good
      decisions.jsonl   append-only gate/rollback decision log

Publication is atomic: the bundle is written to a ``.tmp-*`` sibling and
``os.rename``\\ d into place, so a :class:`~repro.lifecycle.watcher
.BundleWatcher` polling the root can never observe a half-written epoch.
Pointers are symlinks where the filesystem allows them, with a plain-file
fallback (a file whose content is the epoch name) — both written via a
temp entry + ``os.replace`` so readers always see the old or new target,
never a missing one.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

from repro.utils.logging import NULL_LOGGER
from repro.utils.metrics import MetricsRegistry

__all__ = [
    "BundlePublisher",
    "epoch_name",
    "parse_epoch",
    "list_epochs",
    "read_pointer",
    "write_pointer",
]

#: Pointer-entry names recognised in a bundle root.
CURRENT_POINTER = "CURRENT"
LATEST_POINTER = "LATEST"

_EPOCH_DIGITS = 6


def epoch_name(epoch: int) -> str:
    """Zero-padded directory name of ``epoch`` (``3`` -> ``"000003"``)."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return f"{int(epoch):0{_EPOCH_DIGITS}d}"


def parse_epoch(name: str) -> int | None:
    """Inverse of :func:`epoch_name`; ``None`` for non-epoch entries."""
    if len(name) != _EPOCH_DIGITS or not name.isdigit():
        return None
    return int(name)


def list_epochs(root: str | Path) -> list[tuple[int, Path]]:
    """Published epochs under ``root``, oldest first.

    Only fully-published epochs count: a directory qualifies by holding a
    ``manifest.json``, which excludes in-flight ``.tmp-*`` siblings and
    stray files.
    """
    root = Path(root)
    if not root.is_dir():
        return []
    epochs = []
    for entry in root.iterdir():
        epoch = parse_epoch(entry.name)
        if epoch is None or not entry.is_dir():
            continue
        if (entry / "manifest.json").exists():
            epochs.append((epoch, entry))
    epochs.sort()
    return epochs


def read_pointer(root: str | Path, name: str = CURRENT_POINTER) -> int | None:
    """Epoch a pointer entry designates, or ``None`` if unset/dangling."""
    path = Path(root) / name
    target: str | None = None
    if path.is_symlink():
        target = os.path.basename(os.readlink(path))
    elif path.is_file():
        target = path.read_text().strip()
    if target is None:
        return None
    epoch = parse_epoch(target)
    if epoch is None:
        return None
    if not (Path(root) / epoch_name(epoch) / "manifest.json").exists():
        return None
    return epoch


def write_pointer(
    root: str | Path, epoch: int, name: str = CURRENT_POINTER
) -> None:
    """Atomically point ``root/name`` at ``epoch``'s directory.

    Prefers a relative symlink (the v2 ``CURRENT`` protocol: readers can
    ``open(root / "CURRENT" / "manifest.json")`` directly); on
    filesystems without symlink support it degrades to a plain file
    holding the epoch name, which :func:`read_pointer` reads identically.
    Either way the switch is ``os.replace`` — readers see old or new,
    never neither.
    """
    root = Path(root)
    target = epoch_name(epoch)
    tmp = root / f".{name}.tmp-{os.getpid()}"
    if tmp.exists() or tmp.is_symlink():
        tmp.unlink()
    try:
        tmp.symlink_to(target)
    except (OSError, NotImplementedError):
        tmp.write_text(target + "\n")
    os.replace(tmp, root / name)


class BundlePublisher:
    """Exports versioned bundles into a bundle root, atomically.

    Parameters
    ----------
    root:
        The bundle root directory (created if needed).
    shards:
        Hash-partition every published bundle over this many shard
        sidecars (format v3, see :mod:`repro.sharding`); ``1`` (default)
        publishes plain v2 bundles.  Must be >= 1.
    retain:
        How many published epochs to keep; older ones are pruned after
        each publish.  Epochs referenced by the ``CURRENT`` or ``LATEST``
        pointer are never pruned regardless of age.  ``None`` disables
        retention entirely.
    metrics / logger:
        Shared registry (``lifecycle.published`` counter,
        ``lifecycle.latest_epoch`` gauge) and structured logger.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        shards: int = 1,
        retain: int | None = 8,
        metrics: MetricsRegistry | None = None,
        logger=None,
    ) -> None:
        if retain is not None and retain < 1:
            raise ValueError(f"retain must be >= 1 or None, got {retain}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.shards = int(shards)
        self.retain = retain
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.logger = logger if logger is not None else NULL_LOGGER

    def next_epoch(self) -> int:
        """The epoch number the next :meth:`publish` will use."""
        epochs = list_epochs(self.root)
        return (epochs[-1][0] + 1) if epochs else 1

    def publish(self, model, *, force: bool = False) -> Path:
        """Export ``model`` as the next epoch; returns its directory.

        The bundle lands via tmp-dir + ``os.rename`` so watchers never
        see a partial epoch.  ``force=True`` is recorded in the bundle's
        ``promote.json`` and tells the serving-side gate to promote the
        candidate even if its quality checks fail (operator override —
        see ``docs/operations.md`` §7).
        """
        from repro.core.serialize import save_bundle

        epoch = self.next_epoch()
        final = self.root / epoch_name(epoch)
        tmp = self.root / f".tmp-{epoch_name(epoch)}-{os.getpid()}"
        if tmp.exists():
            shutil.rmtree(tmp)
        try:
            save_bundle(model, tmp, shards=self.shards)
            (tmp / "promote.json").write_text(
                json.dumps({"force": bool(force)})
            )
            os.rename(tmp, final)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        write_pointer(self.root, epoch, LATEST_POINTER)
        self.metrics.counter("lifecycle.published").inc()
        self.metrics.gauge("lifecycle.latest_epoch").set(epoch)
        self.logger.info(
            "lifecycle.published", epoch=epoch, path=str(final), force=force
        )
        self._prune()
        return final

    def _prune(self) -> None:
        """Drop epochs beyond the retention window (pointers are pinned)."""
        if self.retain is None:
            return
        pinned = {
            read_pointer(self.root, CURRENT_POINTER),
            read_pointer(self.root, LATEST_POINTER),
        }
        epochs = list_epochs(self.root)
        excess = len(epochs) - self.retain
        for epoch, path in epochs:
            if excess <= 0:
                break
            if epoch in pinned:
                continue
            shutil.rmtree(path, ignore_errors=True)
            excess -= 1
            self.metrics.counter("lifecycle.pruned").inc()
            self.logger.info("lifecycle.pruned", epoch=epoch)
