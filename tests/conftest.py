"""Shared fixtures: small seeded corpora and pre-built graphs.

Expensive artifacts (generated corpora, built graphs, a trained tiny ACTOR)
are session-scoped so the suite stays fast; tests must not mutate them.
"""

from __future__ import annotations

import pytest

from repro.core import Actor, ActorConfig
from repro.data import CityConfig, CityModel, generate_dataset
from repro.graphs import GraphBuilder

SMALL_CITY = CityConfig(
    n_neighborhoods=4,
    n_topics=5,
    venues_per_topic=6,
    n_users=60,
    keywords_per_topic=20,
    n_common_words=30,
    mention_rate=0.2,
)


@pytest.fixture(scope="session")
def city():
    """A small deterministic city model (ground truth available)."""
    return CityModel(SMALL_CITY, seed=11)


@pytest.fixture(scope="session")
def corpus(city):
    """800 records drawn from the small city."""
    return city.generate_corpus(800)


@pytest.fixture(scope="session")
def built(corpus):
    """Finalized activity + interaction graphs over the small corpus."""
    return GraphBuilder().build(corpus)


@pytest.fixture(scope="session")
def dataset():
    """A small utgeo2011-preset dataset bundle with splits."""
    return generate_dataset("utgeo2011", n_records=1500, seed=3)


@pytest.fixture(scope="session")
def tiny_actor(dataset):
    """A quickly-trained ACTOR model for query-surface tests."""
    config = ActorConfig(
        dim=16,
        epochs=3,
        line_samples=5_000,
        batches_per_epoch=4,
        seed=5,
    )
    return Actor(config).fit(dataset.train)
