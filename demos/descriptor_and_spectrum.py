"""Compare the two descriptor matrices and export plotting artifacts.

The modularity descriptor and the degree-normalized one usually agree on
clear-cut community structure but weight hubs differently. This script
embeds the same 4-block graph under both, prints their spectra side by
side, and writes an SVG scatter (colored by the recovered communities)
plus the spectrum CSV into ./demo_output/.
"""

from pathlib import Path

import numpy as np

from spherembed import (PipelineConfig, PlantedPartitionSpec,
                        generate_planted_partition, nmi, run_pipeline)
from spherembed.embedding import write_spectrum_csv
from spherembed.plotting import render_scatter_svg

graph, truth = generate_planted_partition(
    PlantedPartitionSpec(n=400, k=4, p_in=0.15, p_out=0.01, seed=3))
print(f"4-block planted graph: n={graph.n}, m={graph.m}")

out = Path("demo_output")
out.mkdir(exist_ok=True)

results = {}
for kind in ("modularity", "normlap"):
    cfg = PipelineConfig(descriptor=kind, d0=10, k=30, restarts=5, seed=3)
    _, embedding, part, _ = run_pipeline(graph, cfg)
    results[kind] = (embedding, part)
    print(f"\n{kind}: d_eff={embedding.d_eff}, rank={embedding.rank}, "
          f"n_c={part.n_clusters}, NMI={nmi(part.labels, truth):.3f}")
    head = embedding.rho_spectrum()[:6]
    print("  spectrum head:", np.array2string(head, precision=4))

embedding, part = results["modularity"]
(out / "spectrum.csv").write_text(write_spectrum_csv(embedding), encoding="utf-8")
svg = render_scatter_svg(embedding.spherical(), part.labels)
(out / "embedding.svg").write_text(svg, encoding="utf-8")
print(f"\nwrote {out / 'spectrum.csv'} and {out / 'embedding.svg'}")
print("three coordinates carry nearly all the mass: four blocks embed "
      "into a low-dimensional simplex")
