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

Under glibc, run_embedding and run_partition (and so run_pipeline) fix the
allocator's mmap threshold at MMAP_THRESHOLD for the rest of the process, as
every command of the CLI does; see _fix_mmap_threshold.
"""

import ctypes
import functools
from dataclasses import dataclass, fields, replace

import numpy as np

from .embedding import svd_embedding
from .metrics import nmi as nmi_metric
from .metrics import summarize
from .operators import ShiftedOperator, make_descriptor
from .partition import best_of_restarts
from .solver import SolverConfig, _check_count, solve

M_MMAP_THRESHOLD = -3  # mallopt(3) parameter number in glibc's malloc.h
MMAP_THRESHOLD = 1 << 20


@dataclass
class PipelineConfig(SolverConfig):
    """Solver settings plus those of the descriptor, embedding and partition stages."""

    descriptor: str = "modularity"
    k: int = 100
    restarts: int = 5
    jobs: int = None

    def __post_init__(self):
        super().__post_init__()
        if self.descriptor not in ("modularity", "normlap"):
            raise ValueError(f"unknown descriptor kind {self.descriptor!r}")
        _check_count("k", self.k, 1)
        _check_count("restarts", self.restarts, 1)
        if self.jobs is not None:
            _check_count("jobs", self.jobs, 1)

    def echo(self, with_embedding=True, with_partition=False):
        """Config section for the run summary: the settings of the stages that ran."""
        # seed drives both stages and jobs changes no result; the rest is the embedding's
        ran = {"seed": True, "jobs": False, "k": with_partition, "restarts": with_partition}
        return {f.name: f.type(getattr(self, f.name)) for f in fields(self)
                if ran.get(f.name, with_embedding)}


@functools.cache
def _fix_mmap_threshold():
    """Give every block of MMAP_THRESHOLD bytes or more its own mapping (glibc).

    glibc raises its mmap threshold each time it frees a mapped block, up to
    32 MiB, and from then on serves the multi-megabyte numpy temporaries of
    loading, solving and partitioning from its heap. Whether the heap hands
    that memory back or keeps it resident then turns on the heap's layout: the
    peak RSS of the same partition command on the same 100k-node inputs was
    either about 370 MB or about 465 MB from one process to the next. A fixed
    threshold stops the adjustment, so freed large blocks go straight back to
    the system and the peak is the same in every run. Each new mapping is
    paid for in page faults, which is why a solver update allocates no block.

    generate_planted_partition does not call this: a fixed mmap threshold
    also pins glibc's trim threshold at 128 KiB, and the generator frees and
    remakes sub-MiB blocks on every call. At n = 4000 it ran slower under the
    fixed threshold in 7 of 9 alternating in-process runs (median +4%).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # a C library without mallopt
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)


def seed_tree(cfg):
    """(solver rng, partition rng) spawned from the run seed."""
    return np.random.default_rng(cfg.seed).spawn(2)


def run_embedding(graph, cfg):
    """Solve for the embedding of a graph; returns (SolveResult, EmbeddingResult).

    The stage holds K and the solver's three n x d0 blocks, and K is freed
    before the SVD, which then holds the result's block and its own.
    """
    _fix_mmap_threshold()
    shifted = ShiftedOperator(make_descriptor(graph, cfg.descriptor))
    result = solve(shifted, replace(cfg, d0=min(cfg.d0, graph.n)), rng=seed_tree(cfg)[0])
    del shifted  # K is not needed by the SVD
    return result, svd_embedding(result.x)


def run_partition(graph, rows, cfg):
    """Vector-partition embedding rows; returns the best-restart Partition.

    k is clamped to n - 1: at k = n every node seeds its own centroid and
    the synchronous update never leaves the all-singletons state, so the
    large default k would strand small graphs there.
    """
    _fix_mmap_threshold()
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
