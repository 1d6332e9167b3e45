"""Embedding substrate: alias sampling, SGNS kernels, LINE, Hogwild SGD."""

from repro.embedding.alias import AliasTable
from repro.embedding.edge_sampler import (
    NOISE_POWER,
    EdgeBatch,
    NoiseSampler,
    TypedEdgeSampler,
    UniformNegativeSampler,
)
from repro.embedding.line import LineEmbedding, merge_edge_sets
from repro.embedding.parallel import HogwildPool, fork_available
from repro.embedding.sgns import sgns_batch_loss, sgns_step, sgns_step_bow, sigmoid
from repro.storage.shared import SharedMatrix

__all__ = [
    "AliasTable",
    "NoiseSampler",
    "UniformNegativeSampler",
    "TypedEdgeSampler",
    "EdgeBatch",
    "NOISE_POWER",
    "LineEmbedding",
    "merge_edge_sets",
    "HogwildPool",
    "fork_available",
    "SharedMatrix",
    "sgns_step",
    "sgns_step_bow",
    "sgns_batch_loss",
    "sigmoid",
]
