"""End-to-end embed / embed-and-partition runs behind a single config.

A run derives all randomness from one seed through a spawned generator
tree (numpy PCG64): child 0 drives the solver initialization, child 1 the
partition restarts. Repeating a config therefore reproduces every stage
bit for bit, and the partition stage stays reproducible whether or not it
shares a process with the embedding stage.

Embedding dimension d0 is clamped to the node count n, since column
sampling draws without replacement, and centroid count k to max(1, n - 1)
(see run_partition). Every setting is checked when the config is built,
before any stage runs.
"""

from dataclasses import dataclass, fields, replace

import numpy as np

from .embedding import svd_embedding
from .metrics import nmi as nmi_metric
from .metrics import summarize
from .operators import ShiftedOperator, make_descriptor
from .partition import best_of_restarts
from .solver import SolverConfig, _check_count, solve


@dataclass
class PipelineConfig(SolverConfig):
    """Solver settings plus those of the descriptor, embedding and partition stages."""

    descriptor: str = "modularity"
    k: int = 100
    restarts: int = 5
    jobs: int = None
    embedding_kind: str = "spherical"

    def __post_init__(self):
        super().__post_init__()
        if self.descriptor not in ("modularity", "normlap"):
            raise ValueError(f"unknown descriptor kind {self.descriptor!r}")
        if self.embedding_kind not in ("spherical", "ellipsoidal"):
            raise ValueError(f"unknown embedding kind {self.embedding_kind!r}")
        _check_count(self, "k", 1)
        _check_count(self, "restarts", 1)
        if self.jobs is not None:
            _check_count(self, "jobs", 1)

    def echo(self, with_partition=False):
        """Config section for the run summary; jobs never changes a result."""
        skip = {"jobs"}
        if not with_partition:
            skip.update(("k", "restarts"))
        return {f.name: f.type(getattr(self, f.name)) for f in fields(self)
                if f.name not in skip}


def seed_tree(cfg):
    """(solver rng, partition rng) spawned from the run seed."""
    return np.random.default_rng(cfg.seed).spawn(2)


def run_embedding(graph, cfg):
    """Solve for the embedding of a graph; returns (SolveResult, EmbeddingResult)."""
    op = make_descriptor(graph, cfg.descriptor)
    shifted = ShiftedOperator(op)
    result = solve(shifted, replace(cfg, d0=min(cfg.d0, graph.n)), rng=seed_tree(cfg)[0])
    return result, svd_embedding(result.x)


def run_partition(graph, rows, cfg):
    """Vector-partition embedding rows; returns the best-restart Partition.

    k is clamped to n - 1: at k = n every node seeds its own centroid and
    the synchronous update never leaves the all-singletons state, so the
    large default k would strand small graphs there.
    """
    k_eff = max(1, min(cfg.k, graph.n - 1))
    return best_of_restarts(rows, graph, k_eff, cfg.restarts, seed_tree(cfg)[1], jobs=cfg.jobs)


def run_pipeline(graph, cfg, truth=None):
    """Embed then partition; returns (SolveResult, EmbeddingResult, Partition, RunSummary)."""
    result, embedding = run_embedding(graph, cfg)
    partition = run_partition(graph, embedding.spherical(), cfg)
    nmi_value = None if truth is None else nmi_metric(partition.labels, truth)
    summary = summarize(graph, config=cfg.echo(with_partition=True),
                        solve_result=result, embedding=embedding,
                        partition=partition, nmi_value=nmi_value)
    return result, embedding, partition, summary
