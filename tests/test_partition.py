"""Vector partitioning: seeding, synchronous rounds, move gains, restarts."""

import json
import tracemalloc

import numpy as np
import pytest

import oracles
from oracles import (all_partitions, dense_adjacency, make_graph, modularity_value,
                     random_connected_graph, reference_centroids_for, reference_compact,
                     reference_modularity_of_partition, reference_vp_run, z_tilde_of)
import spherembed.partition as partition_module
from spherembed import (PipelineConfig, PlantedPartitionSpec, best_of_restarts,
                        generate_planted_partition, init_centroids, run_partition,
                        vp_run, vp_step)
from spherembed.metrics import internal_degrees
from spherembed.partition import (Partition, write_partition_csv, write_run_log,
                                  z_tilde_value, _centroids_for, _compact, _moved_counts)
from spherembed.solver import project_rows


def unit_rows(rng, n, d):
    return project_rows(rng.standard_normal((n, d)))


def planted_rows(n, blocks, seed, p_in=0.15, p_out=0.02, noise=0.5):
    """A planted graph and unit rows: each node's block direction plus noise."""
    graph, truth = generate_planted_partition(
        PlantedPartitionSpec(n=n, k=blocks, p_in=p_in, p_out=p_out, seed=seed))
    gen = np.random.default_rng(seed)
    directions = unit_rows(gen, blocks, 6)
    return graph, project_rows(directions[truth] + noise * gen.standard_normal((graph.n, 6)))


def test_init_centroids_validation(rng):
    rows = unit_rows(rng, 5, 2)
    deg = np.ones(5)
    with pytest.raises(ValueError):
        init_centroids(rows, deg, 0, rng)
    with pytest.raises(ValueError):
        init_centroids(rows, deg, 6, rng)


def test_init_centroids_cluster_count(rng):
    rows = unit_rows(rng, 30, 4)
    deg = np.ones(30)
    labels, R = init_centroids(rows, deg, 5, rng)
    assert R.shape[0] <= 5
    assert labels.max() == R.shape[0] - 1
    assert labels.min() == 0


def test_k_equals_n_seeds_every_node(rng):
    # with k = n each distinct row is its own centroid and keeps itself
    rows = unit_rows(rng, 12, 4)
    labels, R = init_centroids(rows, np.ones(12), 12, rng)
    assert R.shape[0] == 12
    assert len(set(labels.tolist())) == 12


def test_degree_proportional_seeding(star6):
    # hub has degree 5 of total 10, so it should seed about half the time
    rows = np.eye(6)
    hits = 0
    trials = 400
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        idx = rng.choice(6, size=1, replace=False,
                         p=star6.degrees / star6.degrees.sum())
        hits += int(idx[0] == 0)
    observed = hits / trials
    assert abs(observed - 0.5) < 0.08  # ~3 sigma for 400 draws

    # and the package path accepts the same degree vector
    labels, R = init_centroids(rows, star6.degrees, 2, np.random.default_rng(0))
    assert R.shape[0] <= 2


def test_centroids_are_member_sums(rng):
    rows = unit_rows(rng, 10, 3)
    labels = np.array([0, 0, 1, 1, 1, 0, 2, 2, 1, 0])
    R = _centroids_for(rows, labels, 3)
    for c in range(3):
        assert np.allclose(R[c], rows[labels == c].sum(axis=0), atol=1e-14)
    assert z_tilde_value(R) == pytest.approx(z_tilde_of(rows, labels), abs=1e-12)


def test_blocked_scores_pick_the_centroids_of_the_full_product(rng, monkeypatch):
    monkeypatch.setattr(partition_module, "SCORE_ROWS", 5)
    for n in (1, 4, 5, 6, 10, 11, 23, 26):
        rows = unit_rows(rng, n, 3)
        centroids = rng.standard_normal((4, 3))
        centroids[3] = centroids[1]  # a tie goes to the lower index
        want = np.argmax(rows @ centroids.T, axis=1)
        assert np.array_equal(partition_module._nearest_centroids(rows, centroids), want)


def test_vp_step_hand_example():
    # two tight pairs on the circle: one round recovers the pairs from a
    # lopsided split (node 1 sits much closer to node 0 than to cluster 1)
    rows = project_rows(np.array([[1.0, 0.01], [1.0, -0.01],
                                  [-1.0, 0.01], [-1.0, -0.01]]))
    labels = np.array([0, 1, 1, 1])
    R = _centroids_for(rows, labels, 2)
    labels2, R2 = vp_step(rows, labels, R)
    assert labels2[0] == labels2[1]
    assert labels2[2] == labels2[3]
    assert labels2[0] != labels2[2]


def test_vp_step_drops_empty_clusters(rng):
    rows = project_rows(np.array([[1.0, 0.0], [0.9, 0.1], [0.95, -0.05]]))
    # third centroid points away from every row and must lose all members
    R = np.array([[1.0, 0.0], [0.8, 0.1], [-5.0, 0.0]])
    labels = np.array([0, 1, 2])
    labels2, R2 = vp_step(rows, labels, R)
    assert R2.shape[0] <= 2
    assert labels2.max() <= 1


def test_move_gain_matches_objective_recompute(rng):
    """Moving a unit row from a to b changes z_tilde by 2 U_i (R_b - R_a)^T + 2."""
    rows = unit_rows(rng, 14, 4)
    labels = rng.integers(0, 4, size=14)
    R = _centroids_for(rows, labels, 4)
    for _ in range(50):
        i = int(rng.integers(0, 14))
        a = int(labels[i])
        b = (a + int(rng.integers(1, 4))) % 4
        before = z_tilde_of(rows, labels)
        moved = labels.copy()
        moved[i] = b
        after = z_tilde_of(rows, moved)
        assert 2.0 * rows[i] @ (R[b] - R[a]) + 2.0 == pytest.approx(
            after - before, abs=1e-10)


def test_vp_run_history_structure(rng, barbell):
    rows = unit_rows(rng, 6, 3)
    part = vp_run(rows, barbell, 3, np.random.default_rng(0))
    assert part.history[0]["round"] == 0
    for entry in part.history:
        assert set(entry) == {"round", "z_tilde", "modularity", "clusters"}
    rounds = [e["round"] for e in part.history]
    assert rounds == list(range(len(rounds)))
    assert part.k_init == 3
    assert part.n_clusters == part.centroids.shape[0]


def test_vp_run_returns_best_modularity_seen(rng, barbell):
    rows = unit_rows(rng, 6, 3)
    part = vp_run(rows, barbell, 3, np.random.default_rng(4))
    best_in_history = max(e["modularity"] for e in part.history)
    assert part.modularity == best_in_history


def test_barbell_brute_force_optimum(barbell):
    """The triangle split is the unique modularity maximizer over all 203 partitions."""
    A = dense_adjacency(barbell)
    best_q, best_labels, count = -np.inf, None, 0
    for labels in all_partitions(6):
        count += 1
        q = modularity_value(A, labels)
        if q > best_q:
            best_q, best_labels = q, labels
    assert count == 203  # Bell number B(6)
    assert best_q == pytest.approx(5.0 / 14.0, abs=1e-12)
    assert best_labels == [0, 0, 0, 1, 1, 1]


def test_vp_recovers_barbell_split_from_good_rows(barbell):
    # ideal embedding: the two triangles sit at antipodal points
    rows = np.array([[1.0, 0.0]] * 3 + [[-1.0, 0.0]] * 3)
    rows = project_rows(rows + 1e-3 * np.random.default_rng(0).standard_normal((6, 2)))
    part = vp_run(rows, barbell, 2, np.random.default_rng(1))
    assert part.modularity == pytest.approx(5.0 / 14.0, abs=1e-9)
    assert len(set(part.labels[:3].tolist())) == 1
    assert len(set(part.labels[3:].tolist())) == 1


def test_best_of_restarts_indexing(rng, barbell):
    rows = unit_rows(rng, 6, 3)
    part = best_of_restarts(rows, barbell, 3, 4, np.random.default_rng(9))
    assert part.restart_index in range(4)
    with pytest.raises(ValueError):
        best_of_restarts(rows, barbell, 3, 0, np.random.default_rng(9))


@pytest.mark.parametrize("name, value", [
    ("k", 2.5), ("k", 0), ("restarts", 2.5), ("restarts", 0), ("jobs", 1.5), ("jobs", 0),
])
def test_best_of_restarts_checks_its_counts_before_any_restart(rng, barbell, monkeypatch,
                                                               name, value):
    def restart(*args):
        raise AssertionError("a restart ran")

    monkeypatch.setattr(partition_module, "vp_run", restart)
    counts = {"k": 3, "restarts": 2, "jobs": None, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be"):
        best_of_restarts(unit_rows(rng, 6, 3), barbell, counts["k"], counts["restarts"],
                         np.random.default_rng(9), jobs=counts["jobs"])


def test_vp_run_stops_at_the_round_cap(monkeypatch):
    graph, rows = planted_rows(300, 5, 3)
    full = vp_run(rows, graph, 60, np.random.default_rng(1))
    assert len(full.history) > 3  # more rounds than the cap below
    monkeypatch.setattr(partition_module, "MAX_ROUNDS", 2)
    capped = vp_run(rows, graph, 60, np.random.default_rng(1))
    assert capped.history == full.history[:3]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_best_of_restarts_rejects_non_finite_rows(rng, barbell, bad):
    rows = unit_rows(rng, 6, 3)
    rows[4, 1] = bad
    with pytest.raises(ValueError, match="partition rows contain non-finite values"):
        best_of_restarts(rows, barbell, 3, 2, np.random.default_rng(9))
    with pytest.raises(ValueError, match="non-finite"):
        run_partition(barbell, rows, PipelineConfig(k=3, restarts=2))


def test_single_restart_equals_vp_run_on_child(rng, barbell):
    # restarts=1 degenerates to one vp_run fed the first spawned generator
    rows = unit_rows(rng, 6, 3)
    picked = best_of_restarts(rows, barbell, 3, 1, np.random.default_rng(8))
    direct = vp_run(rows, barbell, 3, np.random.default_rng(8).spawn(1)[0])
    assert np.array_equal(picked.labels, direct.labels)
    assert picked.z_tilde == direct.z_tilde
    assert picked.restart_index == 0


def test_more_restarts_never_worse(rng, barbell):
    # spawned children are shared prefixes, so the winner's modularity is monotone
    rows = unit_rows(rng, 6, 3)
    q3 = best_of_restarts(rows, barbell, 3, 3, np.random.default_rng(2)).modularity
    q6 = best_of_restarts(rows, barbell, 3, 6, np.random.default_rng(2)).modularity
    assert q6 >= q3


def test_restart_winner_has_the_largest_modularity():
    """The winner is the largest-Q restart, also where another has the larger z_tilde."""
    graph, rows = planted_rows(200, 5, 5)
    runs = [vp_run(rows, graph, 10, child) for child in np.random.default_rng(5).spawn(5)]
    q = [run.modularity for run in runs]
    assert np.argmax([run.z_tilde for run in runs]) != np.argmax(q)  # the rules disagree here
    picked = best_of_restarts(rows, graph, 10, 5, np.random.default_rng(5))
    assert picked.restart_index == np.argmax(q)
    assert picked.modularity == max(q)
    assert picked.labels.tobytes() == runs[picked.restart_index].labels.tobytes()


def test_restart_modularity_tie_goes_to_the_lowest_index(barbell):
    # identical rows give every restart the same partition, so Q ties
    rows = np.ones((6, 3)) / np.sqrt(3)
    picked = best_of_restarts(rows, barbell, 1, 4, np.random.default_rng(0))
    assert picked.restart_index == 0


def test_parallel_restarts_match_serial(rng, barbell):
    rows = unit_rows(rng, 6, 3)
    serial = best_of_restarts(rows, barbell, 3, 5, np.random.default_rng(3), jobs=None)
    threaded = best_of_restarts(rows, barbell, 3, 5, np.random.default_rng(3), jobs=3)
    assert np.array_equal(serial.labels, threaded.labels)
    assert serial.z_tilde == threaded.z_tilde
    assert serial.restart_index == threaded.restart_index


def test_vp_step_permutation_consistent(rng):
    # relabeling nodes permutes the resulting partition structure
    rows = unit_rows(rng, 9, 3)
    labels = rng.integers(0, 3, size=9)
    R = _centroids_for(rows, labels, 3)
    out, _ = vp_step(rows, labels, R)
    perm = rng.permutation(9)
    labels_p = labels[perm]
    out_p, _ = vp_step(rows[perm], labels_p, _centroids_for(rows[perm], labels_p, 3))
    groups = lambda lab: {frozenset(np.flatnonzero(lab == c).tolist())
                          for c in set(lab.tolist())}
    inv = np.empty(9, dtype=int)
    inv[perm] = np.arange(9)
    assert groups(out_p) == {frozenset(int(inv[i]) for i in grp) for grp in groups(out)}


def test_partition_csv_and_run_log(rng, barbell):
    rows = unit_rows(rng, 6, 3)
    part = vp_run(rows, barbell, 3, np.random.default_rng(0))
    lines = write_partition_csv(part, barbell).splitlines()
    assert lines[0] == "node_label,cluster_id"
    assert len(lines) == 7

    log = json.loads(write_run_log(part))
    assert log["schema_version"] == 1
    assert log["rounds"][0]["round"] == 0


@pytest.mark.parametrize("edges", [
    [(10, 3), (3, 7), (7, 10), (7, 250)],
    [("b", "a"), ("a", "x-y"), ("x-y", "b"), ("b", "07")],
])
def test_partition_csv_matches_per_row_formatting(edges):
    graph = make_graph(edges)
    labels = np.array([2, 0, 1, 0])[:graph.n]
    part = Partition(labels=labels, k_init=3, centroids=np.zeros((3, 2)),
                     z_tilde=0.0, modularity=0.0, history=[])
    want = ["node_label,cluster_id"] + [f"{graph.node_labels[i]},{int(labels[i])}"
                                        for i in range(graph.n)]
    assert write_partition_csv(part, graph) == "\n".join(want) + "\n"


def test_compact_matches_reference_on_gapped_labels(rng):
    for d in (1, 3, 10):
        rows = rng.standard_normal((300, d))
        ids = rng.choice(1000, size=int(rng.integers(1, 60)), replace=False)
        labels = ids[rng.integers(0, len(ids), size=300)]
        got_labels, got_R = _compact(rows, labels)
        want_labels, want_R = reference_compact(rows, labels)
        assert got_labels.dtype == want_labels.dtype
        assert np.array_equal(got_labels, want_labels)
        assert got_R.tobytes() == want_R.tobytes()
        assert (_centroids_for(rows, labels, 1000).tobytes()
                == reference_centroids_for(rows, labels, 1000).tobytes())


@pytest.mark.parametrize("n, d, k", [(1, 3, 4), (50, 2, 9), (3000, 10, 40)])
def test_centroids_match_reference_bitwise_with_empty_clusters(rng, n, d, k):
    rows = unit_rows(rng, n, d)
    labels = rng.integers(0, k, size=n)
    labels[(labels == k // 2) | (labels == k - 1)] = 0  # empty in the middle and at the end
    got = _centroids_for(rows, labels, k)
    assert got.shape == (k, d) and got.dtype == np.float64
    assert got.tobytes() == reference_centroids_for(rows, labels, k).tobytes()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("n, blocks, k, seed", [
    (150, 3, 4, 1), (240, 4, 12, 2), (300, 5, 60, 3), (120, 2, 119, 4),
])
def test_best_of_restarts_matches_reference(n, blocks, k, seed, jobs, monkeypatch):
    # bitwise equal to full-recount rounds of np.add.at / np.unique / full-COO
    # kernels, winner included
    graph, rows = planted_rows(n, blocks, seed)
    k = min(k, graph.n - 1)
    updates = []

    def counted_moved_counts(*args):
        updates.append(args)
        return _moved_counts(*args)

    monkeypatch.setattr(partition_module, "_moved_counts", counted_moved_counts)
    got = best_of_restarts(rows, graph, k, 5, np.random.default_rng(seed), jobs=jobs)
    assert updates  # some round updated its counts from the moved nodes alone
    # reference_vp_run looks its helpers up in oracles; vp_step and
    # init_centroids look theirs up in partition
    monkeypatch.setattr(partition_module, "vp_run", reference_vp_run)
    monkeypatch.setattr(partition_module, "_centroids_for", reference_centroids_for)
    for module in (partition_module, oracles):
        monkeypatch.setattr(module, "_compact", reference_compact)
    monkeypatch.setattr(oracles, "modularity_of_partition", reference_modularity_of_partition)
    want = best_of_restarts(rows, graph, k, 5, np.random.default_rng(seed), jobs=jobs)
    assert got.labels.dtype == want.labels.dtype
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.centroids.shape == want.centroids.shape
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.z_tilde == want.z_tilde and got.modularity == want.modularity
    assert got.history == want.history
    assert got.restart_index == want.restart_index


@pytest.mark.parametrize("chunk", [1, 3, 1024])
def test_moved_counts_match_a_full_recount(rng, chunk, monkeypatch):
    # chunks of 1 and 3 split many edges between two moved nodes across chunks
    monkeypatch.setattr(partition_module, "MOVED_NODES", chunk)
    for _ in range(30):
        n = int(rng.integers(8, 60))
        graph = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 3 * n)))
        k = int(rng.integers(2, 7))
        labels = np.arange(n) % k  # every cluster used, as vp_run's labels are
        rng.shuffle(labels)
        internal = internal_degrees(graph, labels, k)
        some = labels.copy()
        picked = rng.random(n) < 0.3
        some[picked] = rng.integers(0, k, size=picked.sum())
        emptied = labels.copy()  # cluster 0 empties while others move into it
        emptied[labels == 0] = rng.integers(1, k, size=(labels == 0).sum())
        incoming = (labels != 0) & (rng.random(n) < 0.3)
        emptied[incoming] = 0
        left = labels.copy()  # cluster k - 1 empties and stays empty
        left[labels == k - 1] = 0
        everyone = (labels + rng.integers(1, k, size=n)) % k
        for assign in (some, emptied, left, everyone):
            got = _moved_counts(graph, labels, assign, internal)
            assert got.dtype == np.int64
            assert np.array_equal(got, internal_degrees(graph, assign, k))
        assert np.array_equal(internal, internal_degrees(graph, labels, k))  # not updated in place


def test_run_partition_peak_memory_no_higher_than_full_recounts(monkeypatch):
    graph, rows = planted_rows(20_000, 10, 1, p_in=12 / 1999, p_out=3 / 18000, noise=0.3)
    cfg = PipelineConfig(restarts=2)
    peaks = {}
    for name, run in (("reference", reference_vp_run), ("incremental", vp_run)):
        monkeypatch.setattr(partition_module, "vp_run", run)
        tracemalloc.start()
        try:
            part = run_partition(graph, rows, cfg)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(part.history) > 2  # rounds after the first, where counts carry over
    assert peaks["incremental"] <= peaks["reference"], peaks
