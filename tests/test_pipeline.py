"""Pipeline glue: config echo, seed tree, clamping, and stage wiring."""

import numpy as np
import pytest

from spherembed import (PipelineConfig, PlantedPartitionSpec, generate_planted_partition, nmi,
                        run_embedding, run_partition, run_pipeline, seed_tree)


def test_config_echo_embed_only():
    cfg = PipelineConfig(seed=4, d0=12)
    echo = cfg.echo()
    assert echo["seed"] == 4
    assert echo["d0"] == 12
    assert "k" not in echo and "restarts" not in echo


def test_config_echo_with_partition():
    echo = PipelineConfig(k=30, restarts=3).echo(with_partition=True)
    assert echo["k"] == 30
    assert echo["restarts"] == 3
    assert "epsilon" not in echo and "max_rounds" not in echo


def test_echo_keys_do_not_depend_on_momentum():
    on, off = PipelineConfig(momentum=True).echo(), PipelineConfig(momentum=False).echo()
    assert on.keys() == off.keys()


@pytest.mark.parametrize("setting, match", [
    ({"descriptor": "laplacian"}, "unknown descriptor kind"),
    ({"k": 0}, "k must be >= 1"),
    ({"restarts": 0}, "restarts must be >= 1"),
    ({"jobs": 0}, "jobs must be >= 1"),
    # counts must be integers, checked here rather than deep inside a stage
    ({"k": 2.5}, "k must be an integer"),
    ({"restarts": 2.5}, "restarts must be an integer"),
    ({"jobs": 1.5}, "jobs must be an integer"),
    # the solver fields are still checked
    ({"tol": 5.0}, "tol must lie in"),
    ({"d0": 10.0}, "d0 must be an integer"),
    ({"d0": "10"}, "d0 must be an integer"),
    ({"max_iter": 1.5}, "max_iter must be an integer"),
    ({"max_iter": 0}, "max_iter must be >= 1"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"seed": 0.5}, "seed must be an integer"),
    # momentum picks the solver, so only a bool may set it
    ({"momentum": "no"}, "momentum must be a bool"),
    ({"momentum": 0.0}, "momentum must be a bool"),
    ({"momentum": 1}, "momentum must be a bool"),
    ({"momentum": None}, "momentum must be a bool"),
    # a bool is not a count, though operator.index(True) == 1
    ({"k": True}, "k must be an integer"),
    ({"restarts": True}, "restarts must be an integer"),
    ({"jobs": True}, "jobs must be an integer"),
    ({"seed": False}, "seed must be an integer"),
    ({"d0": np.True_}, "d0 must be an integer"),
    ({"max_iter": True}, "max_iter must be an integer"),
])
def test_config_rejects_bad_settings_when_built(setting, match):
    with pytest.raises(ValueError, match=match):
        PipelineConfig(**setting)


def test_config_accepts_boundary_settings():
    PipelineConfig(k=1, restarts=1, jobs=1, seed=0, max_iter=1, d0=2, momentum=np.bool_(False))
    PipelineConfig(d0=np.int64(10), k=np.int32(4), seed=np.uint64(7))  # numpy integers are counts
    PipelineConfig(descriptor="normlap", jobs=None)


def test_seed_tree_matches_spawn_layout():
    # the documented layout: run seed -> (solver stream, partition stream)
    a1, a2 = seed_tree(PipelineConfig(seed=9))
    b1, b2 = np.random.default_rng(9).spawn(2)
    assert a1.integers(0, 1 << 30) == b1.integers(0, 1 << 30)
    assert a2.integers(0, 1 << 30) == b2.integers(0, 1 << 30)


def test_d0_clamped_to_node_count(triangle):
    result, emb = run_embedding(triangle, PipelineConfig(d0=30))
    assert result.x.shape == (3, 3)
    assert emb.rank <= 3


def test_k_clamped_below_node_count(barbell, rng):
    # the huge default k must not strand a 6-node graph in singletons
    rows = np.array([[1.0, 0.0]] * 3 + [[-1.0, 0.0]] * 3)
    rows += 1e-3 * rng.standard_normal((6, 2))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    part = run_partition(barbell, rows, PipelineConfig(k=100, restarts=5))
    assert part.k_init <= 5


def test_pipeline_summary_sections(barbell):
    cfg = PipelineConfig(d0=6, k=4, restarts=2, seed=0)
    result, emb, part, summary = run_pipeline(barbell, cfg)
    doc = summary.to_dict()
    assert set(doc) == {"config", "graph", "solver", "embedding", "partition",
                        "schema_version"}
    assert doc["partition"]["n_c"] == part.n_clusters
    assert doc["solver"]["objective"] == result.objective
    assert doc["solver"]["relgrad"] == result.relgrad
    assert doc["embedding"]["d_eff"] == emb.d_eff


def test_pipeline_with_truth_reports_nmi(barbell):
    truth = np.array([0, 0, 0, 1, 1, 1])
    cfg = PipelineConfig(d0=6, k=4, restarts=5, seed=0)
    _, _, part, summary = run_pipeline(barbell, cfg, truth=truth)
    doc = summary.to_dict()
    assert doc["partition"]["nmi"] == pytest.approx(nmi(part.labels, truth), abs=0)


def test_pipeline_partitions_spherical_rows(barbell):
    # the partition stage consumes the unit-norm spherical coordinates
    cfg = PipelineConfig(d0=6, k=4, restarts=5, seed=1)
    _, emb, part, _ = run_pipeline(barbell, cfg)
    from spherembed.partition import _centroids_for

    R = _centroids_for(emb.spherical(), part.labels, part.n_clusters)
    assert np.allclose(R, part.centroids, atol=1e-10)


def test_pipeline_hashes_graph_once(barbell, monkeypatch):
    # only the summary asks for the hash, which Graph computes once and caches
    from spherembed import Graph

    hash_of = Graph.content_hash
    calls = []
    monkeypatch.setattr(Graph, "content_hash", lambda g: calls.append(g) or hash_of(g))
    _, _, _, summary = run_pipeline(barbell, PipelineConfig(d0=4, k=2, restarts=1))
    assert calls == [barbell]
    assert summary.graph["hash"] == hash_of(barbell)


def test_relgrad_shows_the_early_stop_at_n_2000():
    # the relative-change stop passes at update 2 on 2 000 nodes, far from critical
    spec = PlantedPartitionSpec(n=2000, k=10, p_in=12 / 199, p_out=3 / 1800, seed=1)
    graph, _ = generate_planted_partition(spec)
    result, _ = run_embedding(graph, PipelineConfig(d0=10))
    assert result.converged
    assert result.relgrad > 0.5
