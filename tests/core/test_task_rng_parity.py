"""Bag-of-words batches built from arrays match a per-record loop exactly.

``BagToUnitTask`` and ``BagToWordTask`` keep their records in CSR form
and build each batch with array operations; ``BagToWordTask`` draws every
target position with one ``rng.integers(lengths)`` call.  The kernel must
receive exactly the arrays the per-record reference loop below builds,
and the generator must be left in the same state, or training would
diverge.  A fixed-seed fit must also be reproducible, in the same process
(the kernels' scratch buffers carry nothing between calls) and in a
fresh one.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import trainer
from repro.core.trainer import BagToUnitTask, BagToWordTask
from repro.embedding import AliasTable, NoiseSampler
from repro.graphs import EdgeType
from repro.graphs.builder import RecordUnits

SRC = str(Path(repro.__file__).resolve().parents[1])


def records(seed=0, n=80):
    """Records of 0-12 words drawn from a small vocabulary (repeats kept)."""
    rng = np.random.default_rng(seed)
    return [
        RecordUnits(
            record_id=i,
            time_node=int(rng.integers(0, 4)),
            location_node=int(rng.integers(4, 9)),
            word_nodes=tuple(
                int(w) for w in rng.integers(9, 30, rng.integers(0, 13))
            ),
            user_nodes=(),
        )
        for i in range(n)
    ]


# --------------------------------------------------------------- reference


def reference_unit_batch(recs, noise, negatives, batch_size, rng):
    """The per-record BagToUnitTask batch (location units)."""
    eligible = [r for r in recs if len(r.word_nodes) >= 1]
    words = [np.asarray(r.word_nodes, dtype=np.int64) for r in eligible]
    units = np.asarray([r.location_node for r in eligible], dtype=np.int64)
    table = AliasTable(np.asarray([len(w) for w in words], dtype=np.float64))
    idx = table.sample(batch_size, seed=rng)
    bags = [words[i] for i in idx]
    flat = np.concatenate(bags)
    lengths = np.asarray([b.size for b in bags])
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    dst = units[idx]
    neg = noise.sample((batch_size, negatives), rng)
    return flat, offsets, dst, neg


def reference_word_batch(recs, noise, negatives, batch_size, rng):
    """The per-record BagToWordTask batch: one scalar draw per record."""
    eligible = [r for r in recs if len(r.word_nodes) >= 2]
    words = [np.asarray(r.word_nodes, dtype=np.int64) for r in eligible]
    table = AliasTable(np.asarray([w.size for w in words], dtype=np.float64))
    idx = table.sample(batch_size, seed=rng)
    bags = []
    targets = np.empty(batch_size, dtype=np.int64)
    for b, i in enumerate(idx):
        t = int(rng.integers(words[i].size))
        targets[b] = words[i][t]
        bags.append(np.delete(words[i], t))
    flat = np.concatenate(bags)
    lengths = np.asarray([b.size for b in bags])
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    neg = noise.sample((batch_size, negatives), rng)
    return flat, offsets, targets, neg


# ------------------------------------------------------------------ checks


@pytest.fixture
def captured(monkeypatch):
    """Record the arrays each task step hands to the bag-of-words kernel."""
    calls = []

    def fake(center, context, flat, offsets, dst, neg, lr):
        calls.append((flat, offsets, dst, neg))
        return 0.0

    monkeypatch.setattr(trainer, "sgns_step_bow", fake)
    return calls


def assert_same_arrays(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


@pytest.mark.parametrize("negatives", [1, 5])
def test_bag_to_unit_matches_per_record_loop(captured, negatives):
    recs = records(seed=negatives)
    noise = NoiseSampler(np.arange(4, 9), np.arange(1.0, 6.0))
    task = BagToUnitTask(EdgeType.LW, recs, "location", noise, negatives)
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    for batch_size in (1, 7, 256, 7):
        task.step(None, None, batch_size, 0.1, rng)
        want = reference_unit_batch(recs, noise, negatives, batch_size, ref_rng)
        assert_same_arrays(captured[-1], want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("negatives", [1, 5])
def test_bag_to_word_matches_per_record_loop(captured, negatives):
    recs = records(seed=10 + negatives)
    noise = NoiseSampler(np.arange(9, 30), np.ones(21))
    task = BagToWordTask(recs, noise, negatives)
    rng, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
    for batch_size in (1, 7, 256, 7):
        task.step(None, None, batch_size, 0.1, rng)
        want = reference_word_batch(recs, noise, negatives, batch_size, ref_rng)
        assert_same_arrays(captured[-1], want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


FIT_SCRIPT = textwrap.dedent(
    """
    import hashlib
    import numpy as np
    from repro.core import Actor, ActorConfig
    from repro.data.datasets import generate_dataset

    def fit_digest():
        data = generate_dataset("utgeo2011", n_records=400, seed=21)
        model = Actor(ActorConfig(dim=8, epochs=2, line_samples=2000, seed=21))
        model.fit(data.train)
        digest = hashlib.sha256()
        for matrix in (model.center, model.context):
            digest.update(np.ascontiguousarray(matrix).tobytes())
        return digest.hexdigest()
    """
)


def test_fixed_seed_fit_is_reproducible_in_process_and_subprocess():
    namespace = {}
    exec(FIT_SCRIPT, namespace)
    first = namespace["fit_digest"]()
    assert namespace["fit_digest"]() == first
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", FIT_SCRIPT + "\nprint(fit_digest())"],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert out.stdout.strip() == first
