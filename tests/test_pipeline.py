"""Pipeline glue: config echo, seed tree, clamping, and stage wiring."""

import numpy as np
import pytest

from spherembed import (PipelineConfig, nmi, run_embedding, run_partition,
                        run_pipeline, seed_tree)


def test_config_echo_embed_only():
    cfg = PipelineConfig(seed=4, d0=12)
    echo = cfg.echo()
    assert echo["seed"] == 4
    assert echo["d0"] == 12
    assert echo["momentum_variant"] == "main"
    assert "k" not in echo and "restarts" not in echo


def test_config_echo_with_partition():
    echo = PipelineConfig(k=30, restarts=3).echo(with_partition=True)
    assert echo["k"] == 30
    assert echo["restarts"] == 3
    assert echo["max_rounds"] == 200


def test_momentum_variant_echoed_only_when_momentum_on():
    assert "momentum_variant" in PipelineConfig(momentum=True).echo()
    assert "momentum_variant" not in PipelineConfig(momentum=False).echo()


@pytest.mark.parametrize("setting, match", [
    ({"descriptor": "laplacian"}, "unknown descriptor kind"),
    ({"embedding_kind": "polar"}, "unknown embedding kind"),
    ({"shift_epsilon": -0.5}, "shift epsilon must be non-negative"),
    ({"shift_epsilon": float("nan")}, "shift epsilon must be non-negative"),
    ({"epsilon": 0.0}, "epsilon must lie in"),
    ({"epsilon": 1.0}, "epsilon must lie in"),
    ({"k": 0}, "k must be >= 1"),
    ({"restarts": 0}, "restarts must be >= 1"),
    ({"max_rounds": -1}, "max_rounds must be >= 0"),
    ({"jobs": 0}, "jobs must be >= 1"),
    ({"tol": 5.0}, "tol must lie in"),  # the solver fields are still checked
])
def test_config_rejects_bad_settings_when_built(setting, match):
    with pytest.raises(ValueError, match=match):
        PipelineConfig(**setting)


def test_config_accepts_boundary_settings():
    PipelineConfig(k=1, restarts=1, max_rounds=0, jobs=1, shift_epsilon=0.0)
    PipelineConfig(descriptor="normlap", embedding_kind="ellipsoidal", jobs=None)


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


def test_embedding_provenance_records_run(triangle):
    _, emb = run_embedding(triangle, PipelineConfig(seed=2))
    assert emb.provenance["graph_hash"] == triangle.content_hash()
    assert emb.provenance["config"]["seed"] == 2


def test_pipeline_hashes_graph_once(barbell, monkeypatch):
    # the summary reuses the hash the embedding's provenance already holds
    from spherembed import Graph

    hash_of = Graph.content_hash
    calls = []
    monkeypatch.setattr(Graph, "content_hash", lambda g: calls.append(g) or hash_of(g))
    _, emb, _, summary = run_pipeline(barbell, PipelineConfig(d0=4, k=2, restarts=1))
    assert calls == [barbell]
    assert summary.graph["hash"] == emb.provenance["graph_hash"] == hash_of(barbell)
