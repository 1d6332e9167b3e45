"""Scalability harness for Fig. 12 (a: edges, b: strong, c: weak scaling).

The paper measures total training time while (a) multiplying the number of
sampled edges 1-4x at fixed threads, (b) varying threads 1-4 at fixed
samples, and (c) growing both together.  These helpers time the ACTOR
trainer on a pre-built graph so graph construction is excluded, exactly as
the paper times the embedding stage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.config import ActorConfig
from repro.core.hierarchical import random_init
from repro.core.trainer import ActorTrainer
from repro.graphs.builder import BuiltGraphs
from repro.utils.rng import ensure_rng
from repro.utils.tracing import stage

__all__ = [
    "ScalabilityPoint",
    "time_training",
    "edges_scaling",
    "strong_scaling",
    "weak_scaling",
]


@dataclass(frozen=True)
class ScalabilityPoint:
    """One measured configuration of the scalability study."""

    multiplier: int
    threads: int
    samples: int
    seconds: float


def time_training(
    built: BuiltGraphs,
    config: ActorConfig,
    *,
    batches_per_epoch: int,
    n_threads: int,
) -> float:
    """Wall-clock seconds for one full training run on ``built``."""
    cfg = replace(
        config, batches_per_epoch=batches_per_epoch, n_threads=n_threads
    )
    rng = ensure_rng(cfg.seed)
    center, context = random_init(built.activity.n_nodes, cfg.dim, rng)
    trainer = ActorTrainer(built, cfg, center, context)
    with stage("scalability.train") as timed:
        trainer.train(seed=rng)
    return timed.seconds


def edges_scaling(
    built: BuiltGraphs,
    config: ActorConfig,
    *,
    base_batches: int = 20,
    multipliers: tuple[int, ...] = (1, 2, 3, 4),
    threads: int = 1,
) -> list[ScalabilityPoint]:
    """Fig. 12a: running time vs. number of sampled edges (fixed threads)."""
    points = []
    for m in multipliers:
        batches = base_batches * m
        seconds = time_training(
            built, config, batches_per_epoch=batches, n_threads=threads
        )
        samples = batches * config.batch_size * config.epochs
        points.append(
            ScalabilityPoint(
                multiplier=m, threads=threads, samples=samples, seconds=seconds
            )
        )
    return points


def strong_scaling(
    built: BuiltGraphs,
    config: ActorConfig,
    *,
    base_batches: int = 20,
    thread_counts: tuple[int, ...] = (1, 2, 3, 4),
) -> list[ScalabilityPoint]:
    """Fig. 12b: fixed samples, varying thread count."""
    points = []
    for t in thread_counts:
        seconds = time_training(
            built, config, batches_per_epoch=base_batches, n_threads=t
        )
        samples = base_batches * config.batch_size * config.epochs
        points.append(
            ScalabilityPoint(
                multiplier=1, threads=t, samples=samples, seconds=seconds
            )
        )
    return points


def weak_scaling(
    built: BuiltGraphs,
    config: ActorConfig,
    *,
    base_batches: int = 20,
    steps: tuple[int, ...] = (1, 2, 3, 4),
) -> list[ScalabilityPoint]:
    """Fig. 12c: threads and sampled edges grow in lockstep."""
    points = []
    for s in steps:
        batches = base_batches * s
        seconds = time_training(
            built, config, batches_per_epoch=batches, n_threads=s
        )
        samples = batches * config.batch_size * config.epochs
        points.append(
            ScalabilityPoint(
                multiplier=s, threads=s, samples=samples, seconds=seconds
            )
        )
    return points
