"""Plain power iteration versus the momentum-accelerated variant.

Both solvers start from the same sampled point on each graph, so the
iteration counts are directly comparable. Momentum typically cuts the count
by a large factor while landing at an equal-or-better objective; its trace
is not monotone, which is visible in the last few recorded values.
"""

import numpy as np

from spherembed import (PlantedPartitionSpec, ShiftedOperator, SolverConfig,
                        generate_planted_partition, make_descriptor,
                        project_rows, solve)

print(f"{'seed':>4} {'plain':>6} {'momentum':>8} {'speedup':>8} {'rel. gap':>10}")
ratios = []
for seed in range(6):
    graph, _ = generate_planted_partition(
        PlantedPartitionSpec(n=300, k=3, p_in=0.2, p_out=0.01, seed=seed))
    op = ShiftedOperator(make_descriptor(graph, "modularity"))
    x0 = project_rows(op.sample_columns(10, np.random.default_rng(seed)))

    plain = solve(op, SolverConfig(d0=10, tol=1e-8, seed=seed, momentum=False), x0=x0)
    mom = solve(op, SolverConfig(d0=10, tol=1e-8, seed=seed, momentum=True), x0=x0)
    rel = (mom.objective - plain.objective) / plain.objective
    ratios.append(plain.iterations / mom.iterations)
    print(f"{seed:>4} {plain.iterations:>6} {mom.iterations:>8} "
          f"{ratios[-1]:>7.1f}x {rel:>+10.2e}")

print(f"\nmedian speedup: {np.median(ratios):.1f}x "
      "(positive rel. gap means momentum finished higher)")

# the momentum trace overshoots and corrects: show the last few surrogate values
tail = mom.trace[-5:]
print("last momentum trace values:", np.array2string(tail, precision=10))
print("plain method is monotone, momentum is not required to be")
