"""Lifecycle fixtures: a bundle root seeded from the tiny actor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Actor, ActorConfig
from repro.lifecycle import BundlePublisher


@pytest.fixture(scope="session")
def alt_actor(dataset):
    """A second, distinct model (different seed) for swap tests.

    Seed 13 scores within the default gate's probe-MRR floor of the
    session ``tiny_actor`` (seed 5), so promoting one over the other in
    either direction passes an honest gate.
    """
    config = ActorConfig(
        dim=16,
        epochs=3,
        line_samples=5_000,
        batches_per_epoch=4,
        seed=13,
    )
    return Actor(config).fit(dataset.train)


@pytest.fixture(scope="module")
def stream_actor():
    """A private fitted base + fresh records for streaming-growth tests.

    Session fixtures must stay immutable, and ``OnlineActor.partial_fit``
    grows the *shared* built vocabulary — so streamed-publish tests get
    their own model.
    """
    from repro.data import generate_dataset

    data = generate_dataset("utgeo2011", n_records=1000, seed=31)
    config = ActorConfig(
        dim=16,
        epochs=2,
        line_samples=5_000,
        batches_per_epoch=4,
        seed=2,
    )
    base = Actor(config).fit(data.train)
    return base, list(data.test)[:120]


@pytest.fixture()
def bundles_root(tmp_path):
    """An empty bundle root directory."""
    return tmp_path / "bundles"


@pytest.fixture()
def publisher(bundles_root):
    """A publisher over the empty root (retention disabled)."""
    return BundlePublisher(bundles_root, retain=None)


def scrambled_center(reference_center, seed=0):
    """Random rows rescaled to the reference's mean norm.

    A maximally degraded model whose norm mass still matches the
    reference, so gate vetoes (and monitor rollbacks) can only come from
    the probe-MRR regression — the signal these tests inject.
    """
    reference = np.asarray(reference_center)
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=reference.shape)
    rows *= (
        np.linalg.norm(reference, axis=1).mean()
        / np.linalg.norm(rows, axis=1).mean()
    )
    return rows
