"""Projected power iteration: monotonicity, stopping, criticality, momentum."""

import tracemalloc

import numpy as np
import pytest

from conftest import CHILD_SKIP, run_child
from oracles import (REFERENCE_DESCRIPTORS, ReferenceShiftedOperator, dense_adjacency,
                     dense_criterion, dense_laplacian_descriptor, dense_modularity_matrix,
                     dense_objective, dense_shifted, random_connected_graph, reference_solve)
from spherembed import (PlantedPartitionSpec, ShiftedOperator, SolverConfig,
                        first_order_criterion, generate_planted_partition, make_descriptor,
                        objective, project_rows, solve)
from spherembed.solver import write_trace_csv


def shifted_op(graph, kind="modularity"):
    return ShiftedOperator(make_descriptor(graph, kind))


def test_project_rows_unit_norms(rng):
    X = rng.standard_normal((7, 3))
    P = project_rows(X)
    assert np.allclose(np.linalg.norm(P, axis=1), 1.0, atol=1e-14)
    with pytest.raises(ValueError):
        project_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_objective_and_criterion_match_dense(rng):
    g = random_connected_graph(rng, 14, extra_edges=10)
    K = dense_shifted(dense_modularity_matrix(dense_adjacency(g)))
    op = shifted_op(g)
    x = project_rows(rng.standard_normal((g.n, 4)))
    assert objective(op, x) == pytest.approx(dense_objective(K, x), abs=1e-11)
    assert first_order_criterion(op, x) == pytest.approx(dense_criterion(K, x), abs=1e-11)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(d0=1)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(d0=10.0)


def test_gpm_trace_starts_at_initial_objective(barbell):
    op = shifted_op(barbell)
    res = solve(op, SolverConfig(d0=4, seed=1, momentum=False))
    x0 = project_rows(op.sample_columns(4, np.random.default_rng(1)))
    assert res.trace[0] == pytest.approx(objective(op, x0), abs=1e-12)


def test_gpm_monotone_beyond_squared_step(rng):
    """Each iteration gains more than the squared step norm."""
    for seed in range(4):
        g = random_connected_graph(rng, 40, extra_edges=60)
        res = solve(shifted_op(g), SolverConfig(d0=6, seed=seed, momentum=False))
        gaps = np.diff(res.trace)
        assert np.all(gaps > res.step_norms_sq - 1e-10)
        assert np.all(gaps > -1e-12)


def test_gpm_stops_on_relative_tolerance(barbell):
    cfg = SolverConfig(d0=4, tol=1e-8, seed=5, momentum=False)
    res = solve(shifted_op(barbell), cfg)
    assert res.converged
    rel = abs(res.trace[-1] - res.trace[-2]) / res.trace[-2]
    assert rel < cfg.tol
    assert res.objective == res.trace[-1]


def test_gpm_small_criticality_at_convergence(rng):
    for seed in range(3):
        g = random_connected_graph(rng, 30, extra_edges=40)
        res = solve(shifted_op(g), SolverConfig(d0=5, tol=1e-10, seed=seed, momentum=False))
        assert res.delta / res.objective < 1e-7


def test_gpm_fixed_point_start_terminates_immediately(barbell):
    # rank-one sign configurations are exact fixed points under diagonal dominance
    op = shifted_op(barbell)
    sigma = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    u = np.array([0.6, 0.8])
    x0 = sigma[:, None] * u[None, :]
    res = solve(op, SolverConfig(d0=2, seed=0, momentum=False), x0=x0)
    assert res.converged
    assert res.iterations == 2
    assert np.allclose(res.x, x0, atol=1e-12)
    assert first_order_criterion(op, x0) < 1e-12
    assert res.relgrad < 1e-12


def dense_relgrad(M, x):
    mx = M @ x
    grad = mx - np.sum(x * mx, axis=1, keepdims=True) * x
    return np.linalg.norm(grad) / np.linalg.norm(mx)


@pytest.mark.parametrize("method", [False, True], ids=["gpm", "gpmm"])
@pytest.mark.parametrize("kind, dense", [("modularity", dense_modularity_matrix),
                                         ("normlap", dense_laplacian_descriptor)])
def test_relgrad_matches_dense_oracle(rng, kind, dense, method):
    for max_iter in (1, 4, 10000):
        g = random_connected_graph(rng, 30, extra_edges=40)
        res = solve(shifted_op(g, kind),
                    SolverConfig(d0=5, seed=2, max_iter=max_iter, momentum=method))
        want = dense_relgrad(dense(dense_adjacency(g)), res.x)
        assert res.relgrad == pytest.approx(want, rel=1e-10)


def test_max_iter_exhaustion_flags_not_converged(barbell):
    res = solve(shifted_op(barbell), SolverConfig(d0=4, max_iter=3, seed=2, momentum=False))
    assert not res.converged
    assert res.iterations == 3


def test_gpmm_reaches_gpm_quality(rng):
    g = random_connected_graph(rng, 50, extra_edges=80)
    op = shifted_op(g)
    x0 = project_rows(op.sample_columns(6, np.random.default_rng(7)))
    plain = solve(op, SolverConfig(d0=6, seed=0, momentum=False), x0=x0)
    mom = solve(op, SolverConfig(d0=6, seed=0, momentum=True), x0=x0)
    assert mom.method == "gpmm"
    rel_drop = (plain.objective - mom.objective) / plain.objective
    assert rel_drop < 1e-6
    assert mom.iterations <= plain.iterations


def test_gpmm_final_objective_is_recomputed(barbell):
    op = shifted_op(barbell)
    res = solve(op, SolverConfig(d0=4, seed=3, momentum=True))
    assert res.objective == pytest.approx(objective(op, res.x), abs=1e-12)
    assert res.delta == pytest.approx(first_order_criterion(op, res.x), abs=1e-12)


def test_solve_dispatch(barbell):
    op = shifted_op(barbell)
    assert solve(op, SolverConfig(d0=4, momentum=False)).method == "gpm"
    assert solve(op, SolverConfig(d0=4, momentum=True)).method == "gpmm"


class CountingOperator:
    """Forwards to an operator and counts apply calls."""

    def __init__(self, op):
        self.op = op
        self.applies = 0

    def apply(self, x, out=None):
        self.applies += 1
        return self.op.apply(x, out=out)

    def sample_columns(self, d, rng):
        return self.op.sample_columns(d, rng)

    def diagonal_delta(self):
        return self.op.diagonal_delta()


METHODS = [dict(momentum=False), dict(momentum=True)]
METHOD_IDS = ["gpm", "gpmm"]


@pytest.mark.parametrize("method", METHODS)
def test_one_apply_per_update_and_trace_per_update(rng, method):
    g = random_connected_graph(rng, 30, extra_edges=40)
    for max_iter in (1, 2, 5, 10000):
        op = CountingOperator(shifted_op(g))
        res = solve(op, SolverConfig(d0=5, seed=4, max_iter=max_iter, **method))
        assert res.iterations <= max_iter
        assert len(res.trace) == res.iterations + 1
        assert op.applies == res.iterations + 1
        x0 = project_rows(op.op.sample_columns(5, np.random.default_rng(4)))
        assert res.trace[0] == pytest.approx(objective(op.op, x0), abs=1e-12)


@pytest.mark.parametrize("method", METHODS, ids=METHOD_IDS)
def test_solve_through_a_forwarding_wrapper_gives_the_same_bits(rng, method):
    """A wrapper of the three methods solve calls gives the operator's bits, with or without x0."""
    g = random_connected_graph(rng, 60, extra_edges=120)
    op = shifted_op(g)
    assert not hasattr(CountingOperator(op), "block")
    x0 = project_rows(rng.standard_normal((g.n, 4)))
    kept = x0.copy()
    for start in (None, x0):
        cfg = SolverConfig(d0=4, seed=2, max_iter=40, **method)
        direct, counted = solve(op, cfg, x0=start), solve(CountingOperator(op), cfg, x0=start)
        assert direct.x.tobytes() == counted.x.tobytes()
        assert direct.trace.tobytes() == counted.trace.tobytes()
        assert (direct.objective, direct.delta, direct.relgrad) == \
            (counted.objective, counted.delta, counted.relgrad)
    assert x0.tobytes() == kept.tobytes()  # x0 was copied, not overwritten


@pytest.mark.parametrize("method", METHODS, ids=METHOD_IDS)
def test_nonfinite_iterate_fails_fast(rng, method):
    """A NaN in K x raises at once instead of running on to max_iter."""
    g = random_connected_graph(rng, 30, extra_edges=40)
    op = shifted_op(g)
    x0 = project_rows(op.sample_columns(5, np.random.default_rng(4)))
    op._u = op._u.copy()
    op._u[3] = np.nan
    counting = CountingOperator(op)
    with pytest.raises(FloatingPointError, match=r"at update [01]:"):
        solve(counting, SolverConfig(d0=5, max_iter=10000, **method), x0=x0)
    assert counting.applies <= 2


class ScriptedOperator:
    """Returns the scripted images K x in turn, whatever x is."""

    def __init__(self, images):
        self.images = [np.array(y, dtype=float) for y in images]
        self.n = len(self.images[0])

    def apply(self, x, out=None):
        y = self.images.pop(0)
        if out is None:
            return y
        out[...] = y
        return out

    def diagonal_delta(self):
        return np.zeros(self.n)


def test_momentum_zero_row_falls_back_to_power_row():
    # row 0 of K x_1 is one fifth of K x_0's, so at update 2, where r = 1/4,
    # z = K x_1 + (K x_1 - K x_0) / 4 is exactly zero in row 0
    y0 = np.array([[15.0, 20.0], [1.0, 0.0], [0.0, 1.0]])
    y1 = np.array([[3.0, 4.0], [0.0, 1.0], [1.0, 1.0]])
    op = ScriptedOperator([y0, y1, y1])
    res = solve(op, SolverConfig(d0=2, max_iter=2), x0=project_rows(np.ones((3, 2))))
    assert res.iterations == 2
    np.testing.assert_array_equal(res.x[0], y1[0] / 5.0)  # P(K x_1), the power-iteration row
    z = y1 + (y1 - y0) / 4
    np.testing.assert_allclose(res.x[1:], project_rows(z[1:]), rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(res.x, axis=1), 1.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("method", METHODS, ids=METHOD_IDS)
@pytest.mark.parametrize("kind", ["modularity", "normlap"])
def test_matches_reference_solver_on_planted_graph(kind, method):
    """300 updates on the folded K track the former operator and loop to rounding."""
    spec = PlantedPartitionSpec(n=2000, k=10, p_in=12 / 199, p_out=3 / 1800, seed=5)
    g, _ = generate_planted_partition(spec)
    cfg = SolverConfig(d0=10, tol=1e-300, max_iter=300, seed=3, **method)
    res = solve(ShiftedOperator(make_descriptor(g, kind)), cfg)
    ref = reference_solve(ReferenceShiftedOperator(REFERENCE_DESCRIPTORS[kind](g)), cfg)
    assert (res.iterations, res.method) == (ref.iterations, ref.method)
    np.testing.assert_allclose(res.x, ref.x, rtol=0, atol=1e-11)
    np.testing.assert_allclose(res.trace, ref.trace, rtol=0,
                               atol=1e-11 * np.abs(ref.trace).max())
    if method["momentum"]:
        assert res.step_norms_sq is None
        return
    np.testing.assert_allclose(res.step_norms_sq, ref.step_norms_sq, rtol=0,
                               atol=1e-11 * ref.step_norms_sq.max())
    # delta is sum_i ||y_i|| - f, a difference of two sums of size ~n, so
    # its rounding is on f's scale
    np.testing.assert_allclose(res.delta, ref.delta, rtol=0, atol=1e-14 * ref.objective)


@pytest.mark.parametrize("momentum", [False, True], ids=["gpm", "gpmm"])
def test_solve_peak_memory_within_reference(momentum):
    """On the same operator, the buffer-reusing loop peaks no higher than the former one."""
    spec = PlantedPartitionSpec(n=20_000, k=10, p_in=12 / 1_999, p_out=3 / 18_000, seed=1)
    g, _ = generate_planted_partition(spec)
    op = shifted_op(g)
    x0 = project_rows(op.sample_columns(10, np.random.default_rng(1)))
    cfg = SolverConfig(d0=10, tol=1e-300, max_iter=50, momentum=momentum)
    peaks = []
    for run in (solve, reference_solve):
        tracemalloc.start()
        try:
            run(op, cfg, x0=x0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1], f"solve peaked at {peaks[0]} B, the reference at {peaks[1]} B"


# run in a fresh interpreter: the fixed threshold changes the allocator for
# the rest of the process. Prints the extra minor page faults per update
FAULT_CHECK = f"""
import ctypes
import resource
import sys

from spherembed import (PlantedPartitionSpec, ShiftedOperator, SolverConfig, cli,
                        generate_planted_partition, make_descriptor, solve)

if not hasattr(ctypes.CDLL(None), "mallopt"):
    sys.exit({CHILD_SKIP})
cli._fix_mmap_threshold()  # as every command does: blocks of 1 MiB or more are mapped
spec = PlantedPartitionSpec(n=20_000, k=10, p_in=12 / 1_999, p_out=3 / 18_000, seed=1)
graph, _ = generate_planted_partition(spec)
op = ShiftedOperator(make_descriptor(graph, "modularity"))


def faults(updates, momentum):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    cfg = SolverConfig(d0=10, tol=1e-300, max_iter=updates, momentum=momentum, seed=1)
    assert solve(op, cfg).iterations == updates
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


for momentum in (False, True):
    faults(10, momentum)  # first-call costs, such as the heap growing, land here
    print((faults(110, momentum) - faults(10, momentum)) / 100)
"""


def test_solver_updates_map_no_new_blocks_under_the_fixed_threshold():
    """No update allocates an n x d0 block, so none costs fresh page faults.

    Under the CLI's 1 MiB mmap threshold every 20k x 10 block (1.6 MB) is a
    new mapping; a loop that allocated two per update paid about 1 170 minor
    faults per update.
    """
    per_update = [float(v) for v in run_child(FAULT_CHECK, skip_reason="needs glibc's mallopt")
                  .split()]
    assert len(per_update) == 2
    for method, faults in zip(METHOD_IDS, per_update):
        assert faults <= 10, f"{method}: {faults} minor page faults per update"


def test_same_seed_bitwise_reproducible(rng):
    g = random_connected_graph(rng, 25, extra_edges=30)
    op = shifted_op(g)
    a = solve(op, SolverConfig(d0=5, seed=11))
    b = solve(op, SolverConfig(d0=5, seed=11))
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective
    c = solve(op, SolverConfig(d0=5, seed=12))
    assert not np.array_equal(c.x, a.x)


def test_normlap_descriptor_solves_too(barbell):
    res = solve(shifted_op(barbell, "normlap"), SolverConfig(d0=4, seed=0))
    assert res.converged
    assert res.objective > 0


def test_trace_csv_layout(barbell):
    res = solve(shifted_op(barbell), SolverConfig(d0=4, seed=0, momentum=False))
    lines = write_trace_csv(res).splitlines()
    assert lines[0] == "iteration,objective"
    assert len(lines) == len(res.trace) + 1
    assert lines[1].startswith("0,")
    # float cells round-trip exactly through repr
    assert float(lines[-1].split(",")[1]) == res.trace[-1]
