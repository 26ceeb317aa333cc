"""Command-line interface: embed, partition, and plot subcommands.

All outputs are deterministic for fixed inputs, flags, and seed. Files are
written only after a command's computation fully succeeds, and then all or
none of them, so failed runs leave no partial outputs. Exit codes:
0 success, 1 numerical failure, 2 usage or input errors.
"""

import argparse
import errno
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .embedding import read_embedding_csv, write_embedding_csv, write_spectrum_csv
from .graphs import EdgeListError, _csv_rows, load_edge_list, load_ground_truth
from .metrics import nmi as nmi_metric
from .metrics import summarize, write_summary_json
from .partition import write_partition_csv, write_run_log
from .pipeline import (PipelineConfig, _fix_mmap_threshold, run_embedding, run_partition,
                       run_pipeline)
from .plotting import render_scatter_svg
from .solver import write_trace_csv

OUTPUT_DIR_ENV = "SPHEREMBED_OUTPUT_DIR"
DEFAULTS = {f.name: f.default for f in fields(PipelineConfig)}
# a final relgrad above this marks a stop far from critical: healthy runs on
# planted graphs read below 0.05, the early stops at n >= 2 000 near 0.6
RELGRAD_WARNING = 0.1
# options of the embedding stage, which a partition --embedding run does not run
SOLVER_ONLY = ("descriptor", "d0", "tol", "max_iter", "momentum", "embedding_kind", "trace_delta")


def _add_embed_options(p):
    p.add_argument("--input", required=True, help="edge-list file")
    p.add_argument("--descriptor", choices=["modularity", "normlap"],
                   default=DEFAULTS["descriptor"], help="descriptor matrix")
    p.add_argument("--d0", type=int, default=DEFAULTS["d0"],
                   help="embedding dimension upper bound (clamped to n)")
    p.add_argument("--tol", type=float, default=DEFAULTS["tol"],
                   help="relative objective tolerance")
    p.add_argument("--max-iter", type=int, default=DEFAULTS["max_iter"],
                   help="iteration cap")
    p.add_argument("--momentum", action=argparse.BooleanOptionalAction,
                   default=DEFAULTS["momentum"], help="use the momentum solver")
    p.add_argument("--seed", type=int, default=DEFAULTS["seed"], help="run seed")
    p.add_argument("--embedding-kind", choices=["spherical", "ellipsoidal"],
                   default="spherical", help="coordinate system for the embedding CSV only")
    p.add_argument("--trace-delta", action="store_true",
                   help="add the criticality column to the trace CSV "
                        "(plain solver only, --no-momentum)")
    p.add_argument("--timings", action="store_true",
                   help="report per-stage wall-clock times on stderr")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spherembed",
        description="Spherical/ellipsoidal graph embeddings and embed-and-partition "
                    "community detection.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_embed, p_part, p_plot = (
        sub.add_parser(name, help=text, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        for name, text in [("embed", "compute an embedding and export CSV/JSON artifacts"),
                           ("partition", "cluster nodes by vector partitioning"),
                           ("plot", "render an embedding CSV as an SVG scatter")])
    _add_embed_options(p_embed)
    _add_embed_options(p_part)

    p_part.add_argument("--k", type=int, default=DEFAULTS["k"],
                        help="initial centroid count (clamped to n - 1)")
    p_part.add_argument("--restarts", type=int, default=DEFAULTS["restarts"],
                        help="partitioner restarts")
    p_part.add_argument("--jobs", type=int, default=DEFAULTS["jobs"],
                        help="parallel restart workers")
    p_part.add_argument("--truth", help="ground-truth community file for NMI")
    source = p_part.add_mutually_exclusive_group(required=True)
    source.add_argument("--embedding", help="embedding CSV to reuse; takes no solver option")
    source.add_argument("--pipeline", action="store_true",
                        help="run the embedding stage in-process instead of reading a CSV")

    p_plot.add_argument("--embedding", required=True, help="embedding CSV")
    p_plot.add_argument("--partition", help="partition CSV for point colors")
    p_plot.add_argument("--output", help="SVG output path (default: <output-dir>/embedding.svg)")
    parser.commands = {"embed": p_embed, "partition": p_part, "plot": p_plot}
    for p in parser.commands.values():
        p.add_argument("--output-dir",
                       help=f"output directory (default: ${OUTPUT_DIR_ENV} or '.')")
    return parser


def _parse_args(argv):
    """Parsed argv; exits 2, reading no input, on an option that would change nothing."""
    parser = build_parser()
    args = parser.parse_args(argv)
    sub = parser.commands[args.command]
    if args.command == "partition" and args.embedding is not None:
        # argparse sets defaults only on missing attributes: an option still None was not given
        given = vars(sub.parse_args(argv[argv.index("partition") + 1:],
                                    argparse.Namespace(**dict.fromkeys(SOLVER_ONLY))))
        for dest in (dest for dest in SOLVER_ONLY if given[dest] is not None):
            option = ("--no-" if given[dest] is False else "--") + dest.replace("_", "-")
            sub.error(f"{option} needs --pipeline: a run from --embedding runs no solver")
    elif args.command != "plot" and args.trace_delta and args.momentum:
        sub.error("--trace-delta needs --no-momentum: the momentum solver records no delta")
    return args


def _output_dir(args):
    # not created here: a failed run must leave nothing behind
    return Path(args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or ".")


def _config_from(args):
    return PipelineConfig(**{name: getattr(args, name) for name in DEFAULTS
                             if hasattr(args, name)})


def _write_all(outputs):
    """Write (path, text) pairs all or none.

    A target that is a directory fails the call before anything is written.
    Every text goes to a temporary file beside its target first; only when
    all are written does each replace its target, so a failed write leaves
    neither an artifact nor a temporary file behind.
    """
    for path, _ in outputs:
        if path.is_dir() and not path.is_symlink():  # os.replace would fail on it
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    temps = []
    try:
        for path, text in outputs:
            path.parent.mkdir(parents=True, exist_ok=True)
            temps.append(path.with_name(f".{path.name}.{os.getpid()}.tmp"))
            temps[-1].write_text(text, encoding="utf-8")
        for (path, _), tmp in zip(outputs, temps):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            tmp.unlink(missing_ok=True)
        raise


def _warn_if_far_from_critical(result):
    """One stderr line when the solver stopped with relgrad above RELGRAD_WARNING."""
    if result.relgrad > RELGRAD_WARNING:
        print(f"warning: the solver stopped far from a critical point (relgrad "
              f"{result.relgrad:.3g} > {RELGRAD_WARNING}); the embedding may be poor",
              file=sys.stderr)


def cmd_run(args):
    """embed or partition: read the inputs, run the stages asked for, write their artifacts."""
    outdir = _output_dir(args)
    cfg = _config_from(args)
    graph = load_edge_list(args.input)
    truth = None
    if getattr(args, "truth", None):
        # the loader kept only the largest component: skip truth lines of the nodes it cut
        truth = load_ground_truth(args.truth, graph, ignore_extra=True)

    t0 = time.perf_counter()
    result = part = None
    if args.command == "embed":
        result, embedding = run_embedding(graph, cfg)
        summary = summarize(graph, config=cfg.echo(), solve_result=result, embedding=embedding)
    elif args.pipeline:
        result, embedding, part, summary = run_pipeline(graph, cfg, truth=truth)
    else:
        labels, rows = read_embedding_csv(args.embedding)
        if labels != [str(lab) for lab in graph.node_labels]:
            raise EdgeListError("embedding/graph node mismatch: the embedding CSV "
                                "does not cover the graph's nodes in order")
        part = run_partition(graph, rows, cfg)
        nmi_value = None if truth is None else nmi_metric(part.labels, truth)
        summary = summarize(graph, config=cfg.echo(with_embedding=False, with_partition=True),
                            partition=part, nmi_value=nmi_value)
    elapsed = time.perf_counter() - t0

    outputs = [] if result is None else [
        (outdir / "embedding.csv",
         write_embedding_csv(embedding, graph, kind=args.embedding_kind)),
        (outdir / "spectrum.csv", write_spectrum_csv(embedding)),
        (outdir / "trace.csv", write_trace_csv(result, include_delta=args.trace_delta)),
    ]
    if part is not None:
        outputs += [(outdir / "partition.csv", write_partition_csv(part, graph)),
                    (outdir / "run_log.json", write_run_log(part))]
    _write_all(outputs + [(outdir / "summary.json", write_summary_json(summary))])
    if result is not None:
        _warn_if_far_from_critical(result)
    if args.timings:
        print(f"{args.command} stage: {elapsed:.3f}s", file=sys.stderr)
    return 0


def _read_cluster_ids(source, node_labels):
    """Cluster id of each of node_labels, read from a partition CSV.

    The rules of graphs._csv_rows apply under the exact header
    "node_label,cluster_id": each row is a node label and an integer id,
    and a row that breaks a rule raises ValueError naming its line. Rows
    may come in any order; a node's last row wins and rows of other nodes
    are ignored.
    """
    nodes, ids = _csv_rows(source, "node_label,cluster_id".__eq__,
                           "not a partition CSV: missing header", np.int64)
    ids = ids[:, 0]
    if nodes == node_labels and len(set(nodes)) == len(nodes):
        return ids  # rows in node order, each node once: the writer's layout
    row_of = dict(zip(nodes, range(len(nodes))))
    try:
        return ids[[row_of[lab] for lab in node_labels]]
    except KeyError as exc:
        raise EdgeListError(f"partition CSV is missing node {exc.args[0]!r}") from None


def cmd_plot(args):
    outdir = _output_dir(args)
    # only the coordinates render_scatter_svg draws are parsed; every row's cell count is checked
    labels_order, coords = read_embedding_csv(args.embedding, columns=3)
    cluster_labels = None
    if args.partition:
        cluster_labels = _read_cluster_ids(args.partition, labels_order)
    svg = render_scatter_svg(coords, cluster_labels)
    _write_all([(Path(args.output) if args.output else outdir / "embedding.svg", svg)])
    return 0


HANDLERS = {"embed": cmd_run, "partition": cmd_run, "plot": cmd_plot}


def main(argv=None):
    _fix_mmap_threshold()
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return HANDLERS[args.command](args)
    except (np.linalg.LinAlgError, RuntimeError, FloatingPointError) as exc:
        # first: LinAlgError is a ValueError
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 1
    except (EdgeListError, FileNotFoundError, IsADirectoryError, PermissionError,
            json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
