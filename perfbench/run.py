#!/usr/bin/env python3
"""The spherembed benchmark: one workload per invocation.

    python3 perfbench/run.py --workload cli-pipeline-100k --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The inputs are generated from ``--seed``
by ``perfbench/inputs.py``; spherembed is imported from the checkout's
``src`` in a worker process (``perfbench/worker.py``) that runs the
operations and checks their outputs. Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the
per-layer ones. Inputs, artifacts, spans and a results file go under
``.perfbench-work/`` in the checkout; the inputs and artifacts are removed
when the run ends.

``--size smoke`` runs the same workloads on graphs of about a thousand
nodes in seconds, for the benchmark's own tests.
"""

import os

# one BLAS thread per process: with --jobs min(2, nproc) on
# reuse-embedding-100k the busy threads then never outnumber the processors
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

START = time.monotonic()
DEADLINE_S = 170        # a run must end within 180 s
SETUP_REPEATS = 3       # worker set-ups per run; setup_s takes their median
MIN_OPS = 2             # per untraced run unless the workload sets more; twice when traced
ACCURACY_GATE = 0.99    # ROADMAP item 1: NMI on cli-pipeline-100k

# n is (full, smoke); "inputs" is "files" for the CLI workloads (edge list,
# truth, optionally the stored embedding) and "arrays" for an in-memory graph.
# solve-budget-20k runs three operations: its sparse products slow down the
# most when the host is busy, and a median of three drops one slow operation.
WORKLOADS = {
    "cli-pipeline-100k": {"n": (100_000, 1_000), "max_iter": 1000, "inputs": "files"},
    "reuse-embedding-100k": {"n": (100_000, 1_000), "inputs": "files", "embedding": True},
    "solve-budget-20k": {"n": (20_000, 1_000), "max_iter": (500, 50), "inputs": "arrays",
                         "min_ops": 3},
    "generate-4k": {"n": (4_000, 400)},
}
WARMUP_N = 300
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "modularity_gap": "ratio"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--size", choices=["full", "smoke"], default="full")
    return p.parse_args(argv)


def _pick(value, smoke):
    return value[1 if smoke else 0] if isinstance(value, tuple) else value


def _write_graph(directory, cfg, n, seed):
    """Generate one graph and write its inputs; returns its n, m and digests."""
    g = inputs.planted_graph(n, seed)
    directory.mkdir(parents=True, exist_ok=True)
    np.savez(directory / "graph.npz", n=g.n, edges=g.edges, truth=g.truth)
    record = {"n": g.n, "m": g.m, "graph": g.digest()}
    if cfg["inputs"] == "files":
        emb_seed = seed + 1 if cfg.get("embedding") else None
        record.update(inputs.write_inputs(directory, g, embedding_seed=emb_seed))
    return record


def prepare_inputs(args, cfg, work):
    """Write the run's inputs and the warm-up inputs; returns the run's record."""
    if "inputs" not in cfg:
        return {}
    record = _write_graph(work / "inputs", cfg, _pick(cfg["n"], args.size == "smoke"), args.seed)
    _write_graph(work / "inputs" / "warmup", cfg, WARMUP_N, args.seed)
    return record


def start_worker(args, cfg, work, setup_only):
    smoke = args.size == "smoke"
    spec = {
        "root": str(ROOT), "workload": args.workload, "seed": args.seed,
        "input_dir": str(work / "inputs"), "out_dir": str(work / "out"),
        "trace": bool(args.trace), "seconds": args.seconds,
        "min_ops": cfg.get("min_ops", MIN_OPS) * (1 + args.trace), "setup_only": setup_only,
        "max_iter": _pick(cfg.get("max_iter"), smoke), "jobs": min(2, os.cpu_count() or 1),
        "n": _pick(cfg["n"], smoke), "warmup_n": WARMUP_N,
    }
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT))


def finish(worker):
    """Wait for a worker within the run's deadline; returns its protocol lines."""
    try:
        out, _ = worker.communicate(timeout=max(1.0, DEADLINE_S - (time.monotonic() - START)))
    except subprocess.TimeoutExpired:
        raise SystemExit("error: the run did not finish within its deadline")
    finally:
        if worker.poll() is None:
            worker.kill()
            worker.wait()
    if worker.returncode != 0:
        raise SystemExit(f"error: worker exited with code {worker.returncode}")
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def set_up_and_run(args, cfg, work):
    """Write the inputs once, then start a worker SETUP_REPEATS times.

    Only the worker's part of set-up (start, import spherembed, prepare,
    warm up) runs code under test, so only that part is repeated; setup_s
    is the input time plus the median worker set-up. The last worker goes
    on to run the operations. Returns (input record, setup_s, result line).
    """
    t0 = time.monotonic()
    record = prepare_inputs(args, cfg, work)
    input_s = time.monotonic() - t0
    worker_setups = []
    for rep in range(SETUP_REPEATS):
        t0 = time.monotonic()
        lines = finish(start_worker(args, cfg, work, setup_only=rep < SETUP_REPEATS - 1))
        worker_setups.append(lines[0]["ready"] - t0)
    return record, input_s + statistics.median(worker_setups), lines[-1]


def machine_metadata():
    meta = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]), "scipy": scipy.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        meta["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        meta["blas"] = "unknown"
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        meta["cpu_model"] = next(line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                                 if line.startswith("model name"))
        mem = Path("/proc/meminfo").read_text().split("\n", 1)[0]
        meta["ram_gb"] = round(int(mem.split()[1]) / 2**20, 1)
        caches = {}
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        meta["caches"] = caches
    except (OSError, StopIteration, ValueError):
        pass
    head = ROOT / ".git" / "HEAD"
    meta["commit"] = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        meta["commit"] = ref
    return meta


def median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(ops, setup_s, peak_rss_mb):
    ok = [op for op in ops if op["error"] is None and not op["traced"]]
    return {
        "setup_s": setup_s,
        "wall_s": median([op["wall_s"] for op in ok]),
        "peak_rss_mb": peak_rss_mb,
        # 1 - Q: near random answers (Q ~ 0.002) spread too much across
        # seeds for a bound on Q itself, while 1 - Q stays steady at every Q
        "modularity_gap": median([1.0 - op["modularity"] for op in ok if "modularity" in op]),
    }


def per_layer(ops):
    traced = [op for op in ops if op["traced"] and op["error"] is None]
    plain = [op["wall_s"] for op in ops if not op["traced"] and op["error"] is None]
    names = traced[0]["layers"] if traced else {}
    out = {name: median([op["layers"][name] for op in traced]) for name in names}
    out["trace.untraced_wall_s"] = median(plain)
    out["trace.overhead_s"] = out.get("trace.wall_s", float("nan")) - median(plain)
    nmis = [op["nmi"] for op in traced if op.get("nmi") is not None]
    out["metrics.nmi"] = median(nmis) if nmis else 0.0
    return out


def self_time_consistent(ops):
    """Per traced op, layer self times and probes add up to the traced wall time.

    What is left is time spent outside every span: the worker's own call
    and the wrappers' bookkeeping, which must stay within 1% of the wall.
    """
    return all(op["layers"]["trace.unattributed_s"] <= 0.001 + 0.01 * op["wall_s"]
               for op in ops if op["traced"] and op["error"] is None)


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("calls", "iterations", "rounds", "attempts", "n_clusters")):
        return "count"
    return "ratio"


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "spherembed" / "__init__.py").is_file():
        raise SystemExit(f"error: no spherembed sources under {ROOT / 'src'}")
    cfg = WORKLOADS[args.workload]
    work = ROOT / ".perfbench-work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("error: terminated"))
    try:
        record, setup_s, result = set_up_and_run(args, cfg, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = result["result"]
    failed = [op for op in ops if op["error"] is not None]
    correct = not failed
    for op in failed:
        print(f"operation failed: {op['error']}", file=sys.stderr)
    if all(op["error"] is not None for op in ops if op["traced"] == bool(args.trace)):
        raise SystemExit("error: no operation succeeded, so there is nothing to report")
    e2e = end_to_end(ops, setup_s, result["peak_rss_mb"])
    metrics = e2e
    if args.trace:
        metrics = per_layer(ops)
        if not self_time_consistent(ops):
            print("error: layer self times do not add up to the traced wall time",
                  file=sys.stderr)
            correct = False

    nmis = [op["nmi"] for op in ops if op.get("nmi") is not None and op["error"] is None]
    mods = [op["modularity"] for op in ops if "modularity" in op and op["error"] is None]
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}")
    print(f"inputs {json.dumps(record)}")
    for name, unit in END_TO_END.items():
        print(f"  {name} = {e2e[name]:.6g} {unit}")
    print(f"  failed_share = {len(failed)}/{len(ops)} = {len(failed) / len(ops):.3g} ratio")
    if nmis:
        print(f"  nmi = {median(nmis):.6g} ratio")
        print(f"  modularity = {median(mods):.6g} ratio")
    if args.trace:
        for op in ops:
            if op["traced"] and op["error"] is None:
                lay = op["layers"]
                layer_sum = lay["trace.wall_s"] - lay["trace.probe_s"] - lay["trace.unattributed_s"]
                print(f"  traced op: wall {op['wall_s']:.4f} s = layer self times "
                      f"{layer_sum:.4f} s + probes {lay['trace.probe_s']:.4f} s + outside spans "
                      f"{lay['trace.unattributed_s']:.5f} s; tracing overhead "
                      f"{metrics['trace.overhead_s']:.4f} s")
    if args.workload == "cli-pipeline-100k" and nmis:
        passed = sum(v >= ACCURACY_GATE for v in nmis)
        print(f"  accuracy gate nmi >= {ACCURACY_GATE}: {passed}/{len(nmis)} operations pass"
              + ("" if passed == len(nmis) else " (the gate of ROADMAP item 1)"))

    meta = machine_metadata()
    meta.update(seed=args.seed, size=args.size, seconds=args.seconds, inputs=record)
    results_dir = ROOT / ".perfbench-work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{work.name}.json").write_text(json.dumps(
        {"meta": meta, "ops": ops, "metrics": metrics}))
    print(f"meta {json.dumps(meta)}")

    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit_of(name) if args.trace
                           else END_TO_END[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
