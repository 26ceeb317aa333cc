"""End-to-end embed / embed-and-partition runs behind a single config.

A run derives all randomness from one seed through a spawned generator
tree (numpy PCG64): child 0 drives the solver initialization, child 1 the
partition restarts. Repeating a config therefore reproduces every stage
bit for bit, and the partition stage stays reproducible whether or not it
shares a process with the embedding stage.

Embedding dimension d0 and centroid count k are clamped to the node count,
since column sampling and centroid seeding draw without replacement. Every
setting is checked when the config is built, before any stage runs.
"""

from dataclasses import dataclass, fields, replace

import numpy as np

from .embedding import svd_embedding
from .metrics import nmi as nmi_metric
from .metrics import summarize
from .operators import ShiftedOperator, make_descriptor
from .partition import best_of_restarts
from .solver import SolverConfig, solve


@dataclass
class PipelineConfig(SolverConfig):
    """Solver settings plus those of the descriptor, embedding and partition stages."""

    descriptor: str = "modularity"
    shift_epsilon: float = 0.0
    epsilon: float = 0.01
    k: int = 100
    restarts: int = 5
    max_rounds: int = 200
    jobs: int = None
    embedding_kind: str = "spherical"

    def __post_init__(self):
        super().__post_init__()
        if self.descriptor not in ("modularity", "normlap"):
            raise ValueError(f"unknown descriptor kind {self.descriptor!r}")
        if self.embedding_kind not in ("spherical", "ellipsoidal"):
            raise ValueError(f"unknown embedding kind {self.embedding_kind!r}")
        if not self.shift_epsilon >= 0:
            raise ValueError("shift epsilon must be non-negative")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_rounds < 0:
            raise ValueError(f"max_rounds must be >= 0, got {self.max_rounds}")
        if self.jobs is not None and self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    def echo(self, with_partition=False):
        """Config section for the run summary; jobs never changes a result."""
        skip = {"jobs"}
        if not self.momentum:
            skip.add("momentum_variant")
        if not with_partition:
            skip.update(("k", "restarts", "max_rounds"))
        return {f.name: f.type(getattr(self, f.name)) for f in fields(self)
                if f.name not in skip}


def seed_tree(cfg):
    """(solver rng, partition rng) spawned from the run seed."""
    return np.random.default_rng(cfg.seed).spawn(2)


def run_embedding(graph, cfg, rng=None):
    """Solve for the embedding of a graph; returns (SolveResult, EmbeddingResult)."""
    if rng is None:
        rng = seed_tree(cfg)[0]
    op = make_descriptor(graph, cfg.descriptor)
    shifted = ShiftedOperator(op, cfg.shift_epsilon)
    result = solve(shifted, replace(cfg, d0=min(cfg.d0, graph.n)), rng=rng)
    embedding = svd_embedding(result.x, epsilon=cfg.epsilon,
                              provenance={"config": cfg.echo(),
                                          "graph_hash": graph.content_hash()})
    return result, embedding


def run_partition(graph, rows, cfg, rng=None):
    """Vector-partition embedding rows; returns the best-restart Partition.

    k is clamped to n - 1: at k = n every node seeds its own centroid and
    the synchronous update never leaves the all-singletons state, so the
    large default k would strand small graphs there.
    """
    if rng is None:
        rng = seed_tree(cfg)[1]
    k_eff = max(1, min(cfg.k, graph.n - 1))
    return best_of_restarts(rows, graph, k_eff, cfg.restarts, rng,
                            max_rounds=cfg.max_rounds, jobs=cfg.jobs)


def run_pipeline(graph, cfg, truth=None):
    """Embed then partition; returns (SolveResult, EmbeddingResult, Partition, RunSummary)."""
    solver_rng, partition_rng = seed_tree(cfg)
    result, embedding = run_embedding(graph, cfg, rng=solver_rng)
    partition = run_partition(graph, embedding.spherical(), cfg, rng=partition_rng)
    nmi_value = None if truth is None else nmi_metric(partition.labels, truth)
    summary = summarize(graph, config=cfg.echo(with_partition=True),
                        solve_result=result, embedding=embedding,
                        partition=partition, nmi_value=nmi_value)
    return result, embedding, partition, summary
