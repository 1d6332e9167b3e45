"""Compared methods from the paper's Section 6.1.2 plus related-work
homogeneous embeddings (DeepWalk / node2vec, Section 2.2)."""

from repro.baselines.base import GraphBaseline, SpatiotemporalModel
from repro.baselines.crossmap import CrossMap
from repro.baselines.deepwalk import DeepWalk, Node2Vec
from repro.baselines.lgta import LGTA
from repro.baselines.line_model import LineModel
from repro.baselines.metapath2vec import MetaPath2Vec
from repro.baselines.mgtm import MGTM

__all__ = [
    "SpatiotemporalModel",
    "GraphBaseline",
    "CrossMap",
    "LineModel",
    "MetaPath2Vec",
    "LGTA",
    "MGTM",
    "DeepWalk",
    "Node2Vec",
]
