"""Acceptance gate: end-to-end guarantees the package commits to.

Each test prints one `[acceptance N] name: PASS/FAIL` line on the real
terminal (bypassing capture) so the gate can be scanned at a glance.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import BARBELL_EDGES, BARBELL_MODULARITY
from oracles import (all_partitions, dense_adjacency, dense_objective,
                     dense_shift_vector, dense_shifted, dense_laplacian_descriptor,
                     dense_modularity_matrix, make_graph, modularity_value,
                     random_connected_graph)
from spherembed import (PipelineConfig, PlantedPartitionSpec, ShiftedOperator,
                        SolverConfig, cli, first_order_criterion,
                        generate_planted_partition, make_descriptor,
                        modularity_of_partition, nmi, objective, project_rows,
                        run_pipeline, solve, svd_embedding, truncate_embedding)
from spherembed.pipeline import run_embedding


def report(capsys, num, name, ok, detail=""):
    line = f"[acceptance {num}] {name}: " + ("PASS" if ok else "FAIL")
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def planted(n, k, p_in, p_out, seed):
    return generate_planted_partition(
        PlantedPartitionSpec(n=n, k=k, p_in=p_in, p_out=p_out, seed=seed))


def shifted(graph, kind):
    return ShiftedOperator(make_descriptor(graph, kind))


def test_criterion_1_monotonicity(capsys):
    """50 plain-iteration runs never gain less than the squared step norm."""
    start = time.perf_counter()
    worst = np.inf
    for s in range(50):
        if s % 3 == 0:
            graph = make_graph(BARBELL_EDGES)
            d0 = 4
        elif s % 3 == 1:
            graph, _ = planted(50, 2, 0.3, 0.05, seed=s)
            d0 = 8
        else:
            graph, _ = planted(300, 3, 0.2, 0.01, seed=s)
            d0 = 10
        kind = "modularity" if s % 2 == 0 else "normlap"
        res = solve(shifted(graph, kind),
                    SolverConfig(d0=d0, seed=s, tol=1e-8, momentum=False))
        margins = np.diff(res.trace) - res.step_norms_sq
        worst = min(worst, float(margins.min()))
        if not np.all(margins > -1e-10):
            break
    elapsed = time.perf_counter() - start
    ok = worst > -1e-10 and elapsed < 30.0
    report(capsys, 1, "monotonicity over 50 runs", ok,
           f"worst margin {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_criticality(capsys):
    """Converged runs are near-critical; fixed point iff zero criterion gap."""
    worst_rel = 0.0
    for s in range(12):
        graph, _ = planted(50 if s % 2 else 100, 2, 0.3, 0.05, seed=s)
        kind = "modularity" if s % 3 else "normlap"
        op = shifted(graph, kind)
        res = solve(op, SolverConfig(d0=6, seed=s, tol=1e-8, momentum=False))
        worst_rel = max(worst_rel, res.delta / res.objective)
    near_critical = worst_rel <= 1e-6

    rng = np.random.default_rng(1234)
    agreements = 0
    total = 1000
    for t in range(total):
        n = int(rng.integers(4, 21))
        graph = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 12)))
        op = shifted(graph, "modularity" if t % 2 else "normlap")
        d = int(rng.integers(2, 5))
        if t % 5 == 0:
            # exact fixed point: rank-one sign configuration, which diagonal
            # dominance of the shifted matrix makes invariant under the update
            sigma = rng.choice([-1.0, 1.0], size=graph.n)
            u = project_rows(rng.standard_normal((1, d)))[0]
            x = sigma[:, None] * u[None, :]
        else:
            x = project_rows(rng.standard_normal((graph.n, d)))
        step = project_rows(op.apply(x))
        is_fixed = np.abs(step - x).max() <= 1e-10
        gap_zero = first_order_criterion(op, x) <= 1e-10
        agreements += int(is_fixed == gap_zero)
    ok = near_critical and agreements == total
    report(capsys, 2, "criticality and fixed-point equivalence", ok,
           f"max delta/f {worst_rel:.2e}, {agreements}/{total} agree")


def test_criterion_3_oracle_equivalence(capsys):
    """Matrix-free paths match dense brute-force oracles to 1e-10."""
    rng = np.random.default_rng(777)
    worst = 0.0
    for t in range(100):
        n = int(rng.integers(4, 51))
        graph = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 40)))
        A = dense_adjacency(graph)
        kind = "modularity" if t % 2 else "normlap"
        M = dense_modularity_matrix(A) if kind == "modularity" \
            else dense_laplacian_descriptor(A)
        op = make_descriptor(graph, kind)
        X = rng.standard_normal((n, 4))
        worst = max(worst, float(np.abs(op.apply(X) - M @ X).max()))

        from spherembed.operators import diagonal_shift_vector
        worst = max(worst, float(np.abs(diagonal_shift_vector(op)
                                        - dense_shift_vector(M)).max()))

        K = dense_shifted(M)
        x = project_rows(rng.standard_normal((n, 3)))
        worst = max(worst, abs(objective(ShiftedOperator(op), x)
                               - dense_objective(K, x)))

        labels = rng.integers(0, 4, size=n)
        worst = max(worst, abs(modularity_of_partition(graph, labels)
                               - modularity_value(A, labels)))
    ok = worst <= 1e-10
    report(capsys, 3, "dense-oracle equivalence on 100 graphs", ok,
           f"max abs deviation {worst:.2e}")


def test_criterion_4_truncation_bound(capsys):
    """Nuclear mass dropped by truncation never exceeds epsilon * n."""
    cases = []
    for kind in ("modularity", "normlap"):
        for n, graph_fn in ((6, lambda: make_graph(BARBELL_EDGES)),
                            (300, lambda: planted(300, 3, 0.2, 0.01, seed=0)[0])):
            graph = graph_fn()
            cfg = PipelineConfig(descriptor=kind, d0=min(10, n), seed=1)
            _, emb = run_embedding(graph, cfg)
            cut = truncate_embedding(emb)
            cases.append((cut.truncation_loss(), 0.01 * graph.n))
    rng = np.random.default_rng(5)
    for eps in (0.01, 0.05, 0.2):
        H = project_rows(rng.standard_normal((40, 7)))
        cut = truncate_embedding(svd_embedding(H, epsilon=eps))
        cases.append((cut.truncation_loss(), eps * 40))
    worst = max(loss - bound for loss, bound in cases)
    ok = worst <= 1e-12
    report(capsys, 4, "truncation mass bound", ok,
           f"max excess {worst:.2e} over {len(cases)} runs")


def test_criterion_5_planted_recovery(capsys):
    """3-block planted graphs: exact recovery with low effective dimension."""
    successes = 0
    slowest = 0.0
    for s in range(10):
        graph, truth = planted(300, 3, 0.2, 0.01, seed=s)
        cfg = PipelineConfig(d0=10, k=30, restarts=5, seed=s)
        t0 = time.perf_counter()
        _, emb, part, _ = run_pipeline(graph, cfg)
        slowest = max(slowest, time.perf_counter() - t0)
        score = nmi(part.labels, truth)
        if score >= 1.0 - 1e-9 and emb.d_eff <= 3:
            successes += 1
    ok = successes >= 9 and slowest < 10.0
    report(capsys, 5, "planted-partition recovery", ok,
           f"{successes}/10 exact, slowest {slowest:.2f}s")


def test_criterion_6_barbell_exactness(capsys):
    """Embed-and-partition finds the brute-force optimal triangle split."""
    graph = make_graph(BARBELL_EDGES)
    A = dense_adjacency(graph)
    brute = max(modularity_value(A, labels) for labels in all_partitions(6))
    assert brute == pytest.approx(BARBELL_MODULARITY, abs=1e-12)

    hits = 0
    for s in range(10):
        cfg = PipelineConfig(d0=6, k=4, restarts=5, seed=s)
        _, _, part, _ = run_pipeline(graph, cfg)
        if abs(part.modularity - BARBELL_MODULARITY) <= 1e-9:
            hits += 1
    ok = hits >= 9
    report(capsys, 6, "barbell exact optimum", ok, f"{hits}/10 runs at 5/14")


def test_criterion_7_momentum_speedup(capsys):
    """Momentum needs no more iterations than the plain method, same quality."""
    wins = 0
    worst_rel = -np.inf
    for s in range(10):
        graph, _ = planted(300, 3, 0.2, 0.01, seed=100 + s)
        op = shifted(graph, "modularity")
        x0 = project_rows(op.sample_columns(10, np.random.default_rng(s)))
        plain = solve(op, SolverConfig(d0=10, tol=1e-8, seed=s, momentum=False), x0=x0)
        mom = solve(op, SolverConfig(d0=10, tol=1e-8, seed=s, momentum=True), x0=x0)
        wins += int(mom.iterations <= plain.iterations)
        worst_rel = max(worst_rel,
                        (plain.objective - mom.objective) / plain.objective)
    ok = wins >= 8 and worst_rel <= 1e-6
    report(capsys, 7, "momentum speedup", ok,
           f"{wins}/10 iteration wins, worst rel objective gap {worst_rel:.2e}")


def _polblogs_path():
    env = os.environ.get("SPHEREMBED_POLBLOGS")
    if env and Path(env).exists():
        return Path(env)
    local = Path(__file__).parent / "data" / "polblogs.txt"
    return local if local.exists() else None


def test_criterion_8_polblogs(capsys):
    """Real-network check, skipped unless the dataset file is present."""
    path = _polblogs_path()
    if path is None:
        with capsys.disabled():
            print("[acceptance 8] PolBlogs pipeline: SKIP (dataset not present; "
                  "set SPHEREMBED_POLBLOGS or add tests/data/polblogs.txt)")
        pytest.skip("PolBlogs dataset not available")
    from spherembed import load_edge_list

    graph = load_edge_list(path)
    cfg = PipelineConfig(d0=10, k=100, restarts=5, seed=0)
    t0 = time.perf_counter()
    _, emb, part, _ = run_pipeline(graph, cfg)
    elapsed = time.perf_counter() - t0
    ok = part.modularity >= 0.41 and emb.d_eff == 2 and elapsed < 60.0
    report(capsys, 8, "PolBlogs pipeline", ok,
           f"Q={part.modularity:.3f}, d_eff={emb.d_eff}, {elapsed:.1f}s")


def test_criterion_9_determinism(capsys, tmp_path):
    """Identical flags and seed produce byte-identical artifacts."""
    edges = tmp_path / "graph.txt"
    edges.write_text("\n".join(f"{u} {v}" for u, v in BARBELL_EDGES) + "\n")
    identical = True
    for args, names in [
        (["embed", "--input", str(edges), "--d0", "6", "--seed", "5"],
         ["embedding.csv", "spectrum.csv", "trace.csv", "summary.json"]),
        (["partition", "--input", str(edges), "--pipeline", "--d0", "6",
          "--k", "4", "--seed", "5"],
         ["embedding.csv", "partition.csv", "run_log.json", "summary.json"]),
    ]:
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(args + ["--output-dir", str(out)]) == 0
        for name in names:
            identical &= (a / name).read_bytes() == (b / name).read_bytes()
    svg_a = tmp_path / "a.svg"
    svg_b = tmp_path / "b.svg"
    for target in (svg_a, svg_b):
        rc = cli.main(["plot", "--embedding", str(tmp_path / "a" / "embedding.csv"),
                       "--partition", str(tmp_path / "a" / "partition.csv"),
                       "--output", str(target)])
        assert rc == 0
    identical &= svg_a.read_bytes() == svg_b.read_bytes()
    report(capsys, 9, "byte-identical reruns", identical)
