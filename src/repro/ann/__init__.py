"""Approximate-nearest-neighbor retrieval layer (IVF over modalities).

Takes full-vocabulary retrieval from O(V) per query to sub-linear: a
spherical k-means coarse quantizer (:mod:`repro.ann.kmeans`) partitions
each modality's normalized embedding matrix into inverted lists
(:mod:`repro.ann.ivf`), and the drop-in
:class:`~repro.ann.engine.IndexedQueryEngine` serves nearest-neighbor
queries by probing only the ``nprobe`` best lists — invalidated lazily by
the embedding store's ``version`` counter so streaming growth and
in-place bursts stay correct.  Explicit-candidate ranking keeps the exact
engine paths (Table-2 evaluation is identical under the index); the
recall / throughput frontier is gated by
``benchmarks/bench_ann_recall.py``.
"""

from repro.ann.engine import ANN_MODALITIES, IndexedQueryEngine
from repro.ann.ivf import IVFIndex, SearchStats
from repro.ann.kmeans import kmeans, kmeans_seeds, nearest_centroid

__all__ = [
    "ANN_MODALITIES",
    "IndexedQueryEngine",
    "IVFIndex",
    "SearchStats",
    "kmeans",
    "kmeans_seeds",
    "nearest_centroid",
]
