"""Runs one workload's operations in a fresh process and checks their outputs.

Started by run.py with a JSON spec as its only argument. It imports
spherembed from the checkout's ``src``, prepares and warms up, prints a
``ready`` line, then (unless the spec asks for set-up only) runs timed
operations until the time budget and the minimum count are both met,
checks every operation's outputs, and prints one ``result`` line. Both
lines go to the original standard output; anything the library prints
goes to standard error.

Each operation's peak memory is this process's peak resident set size,
which the operations, all of one size, dominate.
"""

import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from spans import Tracer, layer_report  # noqa: E402

Q_TOL = 1e-9
CLI_PIPELINE_ARTIFACTS = ["embedding.csv", "spectrum.csv", "trace.csv",
                          "partition.csv", "run_log.json", "summary.json"]
CLI_REUSE_ARTIFACTS = ["partition.csv", "run_log.json", "summary.json", "plot.svg"]


class CheckFailed(Exception):
    pass


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def _graph_from(directory):
    """spherembed Graph and truth from the arrays the inputs were written from."""
    from spherembed import Graph
    with np.load(Path(directory) / "graph.npz") as z:
        g = inputs.PlantedGraph(int(z["n"]), z["edges"], z["truth"])
    adj = g.csr()
    graph = Graph(adjacency=adj, degrees=np.diff(adj.indptr).astype(np.int64),
                  node_labels=tuple(range(g.n)))
    return graph, g.truth


def _read_partition_csv(data, n):
    lines = data.decode().splitlines()
    _require(lines and lines[0] == "node_label,cluster_id", "partition.csv header")
    body = np.array([line.split(",") for line in lines[1:]], dtype=np.int64).reshape(-1, 2)
    _require(len(body) == n and np.array_equal(np.sort(body[:, 0]), np.arange(n)),
             "partition.csv does not cover every node once")
    labels = np.empty(n, dtype=np.int64)
    labels[body[:, 0]] = body[:, 1]
    return labels


def _check_partition_summary(graph, truth, labels, summary):
    """Q recomputed from the labels must match the summary; returns (Q, NMI)."""
    from spherembed import modularity_of_partition, nmi
    _require(labels.min() >= 0, "negative cluster id")
    q = modularity_of_partition(graph, labels)
    q_summary = summary["partition"]["modularity"]
    _require(abs(q - q_summary) <= Q_TOL,
             f"summary modularity {q_summary!r} != recomputed {q!r}")
    value = nmi(labels, truth)
    _require(abs(value - summary["partition"]["nmi"]) <= Q_TOL, "summary nmi disagrees")
    _require(summary["graph"]["n"] == graph.n and summary["graph"]["m"] == graph.m,
             "summary graph size disagrees with the input")
    return q, value


class CliWorkload:
    """Operations that drive ``spherembed.cli.main`` on files in the input directory."""

    def __init__(self, spec, reuse):
        self.spec = spec
        self.reuse = reuse
        self.inputs = Path(spec["input_dir"])
        self.out = Path(spec["out_dir"])
        self.artifacts = CLI_REUSE_ARTIFACTS if reuse else CLI_PIPELINE_ARTIFACTS

    def commands(self, src, outdir):
        common = ["--input", str(src / "edges.txt"), "--truth", str(src / "truth.txt"),
                  "--output-dir", str(outdir)]
        if not self.reuse:
            return [["partition", "--pipeline", *common, "--d0", "10",
                     "--max-iter", str(self.spec["max_iter"])]]
        embedding = str(src / "embedding.csv")
        return [["partition", "--embedding", embedding, *common,
                 "--jobs", str(self.spec["jobs"])],
                ["plot", "--embedding", embedding,
                 "--partition", str(outdir / "partition.csv"),
                 "--output", str(outdir / "plot.svg")]]

    def _run(self, src, outdir):
        from spherembed import cli
        for argv in self.commands(src, outdir):
            code = cli.main(argv)
            if code != 0:
                return f"exit code {code} from {argv[0]}"
        return None

    def warm_up(self):
        self._run(self.inputs / "warmup", self.out / "warmup")

    def run(self, i):
        return self._run(self.inputs, self.out / f"op{i}")

    def check(self, i, first_digest):
        outdir = self.out / f"op{i}"
        data = {}
        for name in self.artifacts:
            path = outdir / name
            _require(path.is_file(), f"missing artifact {name}")
            data[name] = path.read_bytes()
        shutil.rmtree(outdir)
        digest = _digest(b"".join(data[name] for name in self.artifacts))
        summary = json.loads(data["summary.json"])
        json.loads(data["run_log.json"])
        graph, truth = self.graph
        labels = _read_partition_csv(data["partition.csv"], graph.n)
        if digest != first_digest:  # the same bytes were already parsed
            self._check_text(data, graph.n)
        q, value = _check_partition_summary(graph, truth, labels, summary)
        return {"modularity": q, "nmi": value, "digest": digest}

    def _check_text(self, data, n):
        if self.reuse:
            svg = data["plot.svg"]
            _require(svg.startswith(b"<svg") and svg.endswith(b"</svg>\n"), "plot.svg unparsable")
            return
        for name in ("embedding.csv", "spectrum.csv", "trace.csv"):
            lines = data[name].decode().splitlines()
            np.array([line.split(",")[1:] for line in lines[1:]], dtype=float)  # raises if unparsable
        _require(data["embedding.csv"].count(b"\n") == n + 1, "embedding.csv row count")

    def prepare(self):
        self.graph = _graph_from(self.inputs)


class SolveBudgetWorkload:
    """In-memory ``run_pipeline`` with the plain solver and a fixed iteration budget."""

    def __init__(self, spec):
        self.spec = spec
        self.last = None

    def _config(self, budget):
        from spherembed import PipelineConfig
        # tol far below reach: the budget, not the stopping rule, sets the work
        return PipelineConfig(d0=10, momentum=False, max_iter=budget, tol=1e-300)

    def prepare(self):
        self.graph, self.truth = _graph_from(self.spec["input_dir"])
        self.warm_graph = _graph_from(Path(self.spec["input_dir"]) / "warmup")

    def warm_up(self):
        from spherembed import pipeline
        graph, truth = self.warm_graph
        pipeline.run_pipeline(graph, self._config(20), truth=truth)

    def run(self, i):
        from spherembed import pipeline
        self.last = pipeline.run_pipeline(self.graph, self._config(self.spec["max_iter"]),
                                          truth=self.truth)
        return None

    def check(self, i, first_digest):
        _, embedding, part, summary = self.last
        summary = json.loads(summary.to_json())
        labels = np.asarray(part.labels, dtype=np.int64)
        _require(labels.shape == (self.graph.n,), "partition does not cover every node")
        q, value = _check_partition_summary(self.graph, self.truth, labels, summary)
        digest = _digest(embedding.U.tobytes() + labels.tobytes()
                         + json.dumps(summary, sort_keys=True).encode())
        return {"modularity": q, "nmi": value, "digest": digest}


class GenerateWorkload:
    """The library's planted-partition generator, a different seed per operation."""

    def __init__(self, spec):
        self.spec = spec
        self.last = None

    def _spec(self, n, seed):
        from spherembed import PlantedPartitionSpec
        size = n / inputs.BLOCKS
        return PlantedPartitionSpec(n=n, k=inputs.BLOCKS, p_in=inputs.DEG_IN / (size - 1),
                                    p_out=inputs.DEG_OUT / (n - size), seed=seed)

    def _seed(self, i):
        return self.spec["seed"] * 1000 + i

    def prepare(self):
        pass

    def warm_up(self):
        from spherembed import generators
        generators.generate_planted_partition(self._spec(self.spec["warmup_n"], 0))

    def run(self, i):
        from spherembed import generators
        self.last = generators.generate_planted_partition(
            self._spec(self.spec["n"], self._seed(i)))
        return None

    def check(self, i, first_digest):
        from spherembed import modularity_of_partition
        graph, labels = self.last
        n, k = self.spec["n"], inputs.BLOCKS
        adj = graph.adjacency
        _require(graph.n >= 0.95 * n, f"largest component covers {graph.n} of {n} nodes")
        _require(adj.diagonal().sum() == 0 and np.all(adj.data == 1.0)
                 and (adj != adj.T).nnz == 0 and adj.has_canonical_format,
                 "not a simple undirected graph")
        sizes = np.full(k, n // k)
        sizes[: n % k] += 1
        blocks = np.repeat(np.arange(k), sizes)
        _require(np.array_equal(labels, blocks[np.array(graph.node_labels)]),
                 "labels are not the planted blocks")
        row = np.repeat(np.arange(graph.n), np.diff(adj.indptr))
        within = labels[row] == labels[adj.indices]
        deg_in, deg_out = within.sum() / graph.n, (~within).sum() / graph.n
        # each mean degree is 2 (edge count) / n with a Poisson edge count,
        # so its standard error is sqrt(2 degree / n); allow five of them
        for label, got, want in (("within", deg_in, inputs.DEG_IN),
                                 ("between", deg_out, inputs.DEG_OUT)):
            _require(abs(got - want) <= 5 * np.sqrt(2 * want / graph.n),
                     f"mean {label}-block degree {got:.3f} is off the spec's {want}")
        data = graph.adjacency.indices.tobytes() + graph.adjacency.indptr.tobytes()
        return {"modularity": modularity_of_partition(graph, labels), "nmi": None,
                "digest": _digest(data + labels.tobytes())}

    def rerun_digest(self, i):
        """Digest of operation i's seed generated again."""
        self.run(i)
        return self.check(i, None)["digest"]


def make_workload(spec):
    name = spec["workload"]
    if name == "cli-pipeline-100k":
        return CliWorkload(spec, reuse=False)
    if name == "reuse-embedding-100k":
        return CliWorkload(spec, reuse=True)
    if name == "solve-budget-20k":
        return SolveBudgetWorkload(spec)
    if name == "generate-4k":
        return GenerateWorkload(spec)
    raise ValueError(f"unknown workload {name!r}")


def _check(workload, i, record, first_digest):
    """Check one operation's outputs; a failed check fails the operation.

    Returns the digest later operations with the same inputs must match.
    """
    try:
        outcome = workload.check(i, first_digest)
    except (CheckFailed, ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        record["error"] = f"check failed: {exc}"
        return first_digest
    record.update(modularity=outcome["modularity"], nmi=outcome["nmi"])
    if isinstance(workload, GenerateWorkload):
        record["digest"] = outcome["digest"]  # every operation has its own seed
    elif first_digest is None:
        return outcome["digest"]
    elif outcome["digest"] != first_digest:
        record["error"] = "artifacts differ from an earlier operation with the same inputs"
    return first_digest


def run_ops(workload, spec, tracer):
    """Run and check operations until the budget and minimum count are met.

    In a traced run every second operation is traced, starting with an
    untraced one, so the run measures its own tracing overhead. Checks run
    between operations, outside the timed and traced regions.
    """
    ops = []
    first_digest = None
    start = time.perf_counter()
    i = 0
    while i < spec["min_ops"] or time.perf_counter() - start < spec["seconds"]:
        traced = spec["trace"] and i % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        error = None
        t0 = time.perf_counter()
        try:
            error = workload.run(i)
        except Exception:  # an operation that raises is counted as failed
            error = traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0
        record = {"wall_s": wall, "traced": traced, "error": error}
        if traced:
            tracer.remove()
            record["layers"] = layer_report(tracer, wall)
            record["spans"] = tracer.spans
        if error is None:
            first_digest = _check(workload, i, record, first_digest)
        ops.append(record)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if isinstance(workload, GenerateWorkload) and ops[0]["error"] is None:
        if workload.rerun_digest(0) != ops[0]["digest"]:
            ops[0]["error"] = "generator output differs for the same seed"
    return ops, peak_rss_mb


def main(spec):
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)  # library output goes to stderr; the protocol keeps stdout

    def send(payload):
        proto.write(json.dumps(payload) + "\n")
        proto.flush()

    t0 = time.perf_counter()
    import spherembed
    import_s = time.perf_counter() - t0
    src = Path(spec["root"]) / "src"
    if Path(spherembed.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"spherembed imported from {spherembed.__file__}, not from {src}")
    workload = make_workload(spec)
    workload.prepare()
    workload.warm_up()
    send({"ready": time.monotonic(), "import_s": import_s})
    if spec["setup_only"]:
        return
    ops, peak_rss_mb = run_ops(workload, spec, Tracer())
    send({"result": ops, "peak_rss_mb": peak_rss_mb})


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
