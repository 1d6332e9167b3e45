"""The embedding baselines score through the shared cosine query surface."""

import pytest

from repro.baselines import (
    CrossMap,
    DeepWalk,
    LineModel,
    MetaPath2Vec,
    Node2Vec,
    SpatiotemporalModel,
)
from repro.core.prediction import GraphEmbeddingModel


@pytest.mark.parametrize(
    "cls", [CrossMap, DeepWalk, Node2Vec, MetaPath2Vec, LineModel]
)
def test_score_candidates_is_the_graph_embedding_model_method(cls):
    assert cls.score_candidates is GraphEmbeddingModel.score_candidates
    # Listing GraphEmbeddingModel first still satisfies the ABC.
    assert issubclass(cls, SpatiotemporalModel)
    assert not cls.__abstractmethods__
