"""End-to-end command-line behavior: artifacts, exit codes, determinism."""

import ctypes
import io
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import BARBELL_EDGES
from spherembed import PlantedPartitionSpec, cli, generate_planted_partition, write_edge_list

EMBED_FILES = ["embedding.csv", "spectrum.csv", "trace.csv", "summary.json"]
PIPELINE_FILES = EMBED_FILES + ["partition.csv", "run_log.json"]
# the summary's config section under default flags, as written before the
# CLI built its config from the dataclass fields
DEFAULT_EMBED_CONFIG = {
    "d0": 30, "descriptor": "modularity", "embedding_kind": "spherical", "epsilon": 0.01,
    "max_iter": 10000, "momentum": True, "momentum_variant": "main", "seed": 0,
    "shift_epsilon": 0.0, "tol": 1e-08,
}
DEFAULT_PARTITION_CONFIG = {**DEFAULT_EMBED_CONFIG, "k": 100, "max_rounds": 200,
                            "restarts": 5}


def write_edges(path, edges):
    path.write_text("\n".join(f"{u} {v}" for u, v in edges) + "\n")
    return str(path)


@pytest.fixture
def k3_file(tmp_path):
    return write_edges(tmp_path / "k3.txt", [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def barbell_file(tmp_path):
    return write_edges(tmp_path / "barbell.txt", BARBELL_EDGES)


def read_json(path):
    return json.loads(path.read_text())


def test_embed_triangle_writes_artifacts(tmp_path, k3_file):
    out = tmp_path / "out"
    rc = cli.main(["embed", "--input", k3_file, "--d0", "4",
                   "--output-dir", str(out)])
    assert rc == 0
    for name in EMBED_FILES:
        assert (out / name).exists()
    summary = read_json(out / "summary.json")
    # d0 is clamped to n=3; nearly all mass sits on the leading direction
    assert summary["embedding"]["d_eff"] in (1, 2)
    assert summary["graph"]["n"] == 3
    assert summary["solver"]["converged"] is True
    header = (out / "embedding.csv").read_text().splitlines()[0]
    assert header == "node,coord_1,coord_2,coord_3"


def test_embed_momentum_flags(tmp_path, k3_file):
    out_on = tmp_path / "on"
    out_off = tmp_path / "off"
    cli.main(["embed", "--input", k3_file, "--output-dir", str(out_on)])
    cli.main(["embed", "--input", k3_file, "--no-momentum", "--output-dir", str(out_off)])
    cfg_on = read_json(out_on / "summary.json")["config"]
    cfg_off = read_json(out_off / "summary.json")["config"]
    assert cfg_on["momentum_variant"] == "main"
    assert "momentum_variant" not in cfg_off  # only echoed when momentum is on
    assert read_json(out_off / "summary.json")["solver"]["method"] == "gpm"


def test_embed_deterministic_bytes(tmp_path, k3_file):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        cli.main(["embed", "--input", k3_file, "--seed", "7", "--output-dir", str(out)])
    for name in EMBED_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_missing_input_exits_2_without_outputs(tmp_path):
    out = tmp_path / "missing_out"
    rc = cli.main(["embed", "--input", str(tmp_path / "nope.txt"),
                   "--output-dir", str(out)])
    assert rc == 2
    assert not out.exists()


def test_weighted_input_exits_2(tmp_path):
    bad = tmp_path / "weighted.txt"
    bad.write_text("0 1 3.5\n")
    rc = cli.main(["embed", "--input", str(bad), "--output-dir", str(tmp_path / "o")])
    assert rc == 2


def test_unknown_flag_usage_error(k3_file):
    with pytest.raises(SystemExit) as err:
        cli.main(["embed", "--input", k3_file, "--frobnicate"])
    assert err.value.code == 2


def test_numerical_failure_exits_1(tmp_path, k3_file, monkeypatch):
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "run_embedding", boom)
    rc = cli.main(["embed", "--input", k3_file, "--output-dir", str(tmp_path / "o")])
    assert rc == 1
    assert not (tmp_path / "o").exists()


def test_partition_pipeline_barbell(tmp_path, barbell_file):
    out = tmp_path / "out"
    rc = cli.main(["partition", "--input", barbell_file, "--pipeline",
                   "--d0", "6", "--k", "4", "--output-dir", str(out)])
    assert rc == 0
    for name in EMBED_FILES + ["partition.csv", "run_log.json"]:
        assert (out / name).exists()
    summary = read_json(out / "summary.json")
    assert summary["partition"]["modularity"] == pytest.approx(5.0 / 14.0, abs=1e-9)
    assert summary["partition"]["n_c"] == 2
    assert summary["config"]["k"] == 4
    lines = (out / "partition.csv").read_text().splitlines()
    assert lines[0] == "node_label,cluster_id"
    assert len(lines) == 7


def test_partition_reuses_embedding_csv(tmp_path, barbell_file):
    emb_dir = tmp_path / "emb"
    cli.main(["partition", "--input", barbell_file, "--pipeline", "--d0", "6",
              "--k", "4", "--output-dir", str(emb_dir)])
    out = tmp_path / "part2"
    rc = cli.main(["partition", "--input", barbell_file,
                   "--embedding", str(emb_dir / "embedding.csv"),
                   "--k", "4", "--output-dir", str(out)])
    assert rc == 0
    summary = read_json(out / "summary.json")
    assert "solver" not in summary  # no embedding stage ran
    assert summary["partition"]["modularity"] == pytest.approx(5.0 / 14.0, abs=1e-9)


def test_partition_embedding_mismatch_exits_2(tmp_path, barbell_file, k3_file):
    emb_dir = tmp_path / "emb"
    cli.main(["embed", "--input", k3_file, "--output-dir", str(emb_dir)])
    rc = cli.main(["partition", "--input", barbell_file,
                   "--embedding", str(emb_dir / "embedding.csv"),
                   "--output-dir", str(tmp_path / "o")])
    assert rc == 2
    assert not (tmp_path / "o").exists()


def test_partition_requires_source(tmp_path, barbell_file):
    rc = cli.main(["partition", "--input", barbell_file,
                   "--output-dir", str(tmp_path / "o")])
    assert rc == 2


def test_partition_with_ground_truth_nmi(tmp_path, barbell_file):
    truth = tmp_path / "truth.txt"
    truth.write_text("0 0\n1 0\n2 0\n3 1\n4 1\n5 1\n")
    out = tmp_path / "out"
    rc = cli.main(["partition", "--input", barbell_file, "--pipeline",
                   "--d0", "6", "--k", "4", "--truth", str(truth),
                   "--output-dir", str(out)])
    assert rc == 0
    summary = read_json(out / "summary.json")
    assert summary["partition"]["nmi"] == pytest.approx(1.0, abs=1e-9)


def test_partition_deterministic_bytes(tmp_path, barbell_file):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        cli.main(["partition", "--input", barbell_file, "--pipeline",
                  "--d0", "6", "--k", "4", "--seed", "3", "--output-dir", str(out)])
    for name in EMBED_FILES + ["partition.csv", "run_log.json"]:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_partition_jobs_byte_identical(tmp_path):
    graph, _ = generate_planted_partition(
        PlantedPartitionSpec(n=120, k=3, p_in=0.3, p_out=0.02, seed=1))
    edges = tmp_path / "planted.txt"
    edges.write_text(write_edge_list(graph))
    for jobs in ("1", "2"):
        rc = cli.main(["partition", "--input", str(edges), "--pipeline", "--d0", "8",
                       "--restarts", "6", "--jobs", jobs,
                       "--output-dir", str(tmp_path / f"jobs{jobs}")])
        assert rc == 0
    for name in PIPELINE_FILES:
        assert (tmp_path / "jobs1" / name).read_bytes() == \
            (tmp_path / "jobs2" / name).read_bytes()


def test_summary_config_section_under_default_flags(tmp_path, barbell_file):
    cli.main(["embed", "--input", barbell_file, "--output-dir", str(tmp_path / "e")])
    cli.main(["partition", "--input", barbell_file, "--pipeline",
              "--output-dir", str(tmp_path / "p")])
    # compared as JSON text too, so an int written as a float also fails
    for out, want in (("e", DEFAULT_EMBED_CONFIG), ("p", DEFAULT_PARTITION_CONFIG)):
        config = read_json(tmp_path / out / "summary.json")["config"]
        assert config == want
        assert json.dumps(config, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_bad_solver_value_exits_2_without_solving(tmp_path, barbell_file):
    emb_dir = tmp_path / "emb"
    cli.main(["partition", "--input", barbell_file, "--pipeline", "--d0", "6",
              "--k", "4", "--output-dir", str(emb_dir)])
    # the config validates its solver fields when built, even when no solver runs
    rc = cli.main(["partition", "--input", barbell_file,
                   "--embedding", str(emb_dir / "embedding.csv"), "--tol", "5",
                   "--output-dir", str(tmp_path / "o")])
    assert rc == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, value", [
    ("--restarts", "0"), ("--epsilon", "1.5"), ("--epsilon", "0"), ("--shift-epsilon", "-1"),
    ("--k", "0"), ("--max-rounds", "-1"), ("--jobs", "0"),
])
@pytest.mark.parametrize("source", ["pipeline", "embedding"])
def test_bad_partition_value_exits_2_before_loading(tmp_path, barbell_file, monkeypatch,
                                                    flag, value, source):
    emb_dir = tmp_path / "emb"
    cli.main(["embed", "--input", barbell_file, "--d0", "6", "--output-dir", str(emb_dir)])
    monkeypatch.setattr(cli, "load_edge_list", lambda *a, **k: pytest.fail("graph loaded"))
    given = (["--pipeline"] if source == "pipeline"
             else ["--embedding", str(emb_dir / "embedding.csv")])
    out = tmp_path / "out"
    rc = cli.main(["partition", "--input", barbell_file, *given, flag, value,
                   "--output-dir", str(out)])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--epsilon", "1.5"), ("--shift-epsilon", "-1")])
def test_bad_embed_value_exits_2_before_loading(tmp_path, barbell_file, monkeypatch,
                                                flag, value):
    monkeypatch.setattr(cli, "load_edge_list", lambda *a, **k: pytest.fail("graph loaded"))
    out = tmp_path / "out"
    rc = cli.main(["embed", "--input", barbell_file, flag, value, "--output-dir", str(out)])
    assert rc == 2
    assert not out.exists()


def test_write_failure_leaves_no_partial_outputs(tmp_path, barbell_file, monkeypatch):
    write_text = Path.write_text
    calls = []

    def third_write_fails(self, *args, **kwargs):
        calls.append(self)
        if len(calls) == 3:
            raise PermissionError(f"cannot write {self}")
        return write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", third_write_fails)
    out = tmp_path / "out"
    rc = cli.main(["partition", "--input", barbell_file, "--pipeline",
                   "--d0", "6", "--k", "4", "--output-dir", str(out)])
    assert rc == 2
    assert len(calls) == 3
    for name in PIPELINE_FILES:
        assert not (out / name).exists()
    assert not out.exists() or list(out.iterdir()) == []  # no temporary file either


def test_plot_with_partition_colors(tmp_path, barbell_file):
    out = tmp_path / "out"
    cli.main(["partition", "--input", barbell_file, "--pipeline",
              "--d0", "6", "--k", "4", "--output-dir", str(out)])
    rc = cli.main(["plot", "--embedding", str(out / "embedding.csv"),
                   "--partition", str(out / "partition.csv"),
                   "--output", str(out / "plot.svg")])
    assert rc == 0
    svg = (out / "plot.svg").read_text()
    assert svg.startswith("<svg")
    from spherembed.plotting import PALETTE
    assert PALETTE[0] in svg and PALETTE[1] in svg

    again = tmp_path / "again.svg"
    cli.main(["plot", "--embedding", str(out / "embedding.csv"),
              "--partition", str(out / "partition.csv"), "--output", str(again)])
    assert again.read_bytes() == (out / "plot.svg").read_bytes()


def test_plot_partition_with_byte_order_mark(tmp_path, barbell_file):
    out = tmp_path / "out"
    cli.main(["partition", "--input", barbell_file, "--pipeline",
              "--d0", "6", "--k", "4", "--output-dir", str(out)])
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + (out / "partition.csv").read_bytes())
    for name, partition in (("plain.svg", out / "partition.csv"), ("marked.svg", marked)):
        assert cli.main(["plot", "--embedding", str(out / "embedding.csv"),
                         "--partition", str(partition),
                         "--output", str(tmp_path / name)]) == 0
    assert (tmp_path / "marked.svg").read_bytes() == (tmp_path / "plain.svg").read_bytes()


def test_plot_partition_missing_node_exits_2(tmp_path, barbell_file, capsys):
    out = tmp_path / "out"
    cli.main(["partition", "--input", barbell_file, "--pipeline",
              "--d0", "6", "--k", "4", "--output-dir", str(out)])
    lines = (out / "partition.csv").read_text().splitlines()
    short = tmp_path / "short.csv"
    short.write_text("\n".join(line for line in lines if not line.startswith("3,")) + "\n")
    assert cli.main(["plot", "--embedding", str(out / "embedding.csv"),
                     "--partition", str(short), "--output", str(tmp_path / "x.svg")]) == 2
    assert "partition CSV is missing node '3'" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


def test_partition_csv_rows_in_any_order():
    # rows shuffled, padded by blank and extra rows; a node's last row wins
    text = "node_label,cluster_id\r\nb,1\r\n\r\nz,7\r\na,0\r\nb,2\r\n  \r\nx,y,3\r\n"
    ids = cli._read_cluster_ids(io.StringIO(text), ["a", "b", "x,y"])
    assert list(ids) == [0, 2, 3]
    assert list(cli._read_cluster_ids(io.StringIO("node_label,cluster_id\na,4\nb,-1\n"),
                                      ["a", "b"])) == [4, -1]
    assert list(cli._read_cluster_ids(io.StringIO("node_label,cluster_id\n\xe9,5\n"),
                                      ["\xe9"])) == [5]
    for bad in ("node_label,cluster\na,1\n", "", "node_label,cluster_id\n",
                "node_label,cluster_id\na\n", "node_label,cluster_id\na,\n",
                "node_label,cluster_id\na, \n", "node_label,cluster_id\na,x\n"):
        with pytest.raises(ValueError):
            cli._read_cluster_ids(io.StringIO(bad), ["a"])


def test_non_finite_embedding_exits_2_without_outputs(tmp_path, barbell_file):
    emb_dir = tmp_path / "emb"
    cli.main(["partition", "--input", barbell_file, "--pipeline", "--d0", "6",
              "--k", "4", "--output-dir", str(emb_dir)])
    lines = (emb_dir / "embedding.csv").read_text().splitlines()
    label, _, rest = lines[3].partition(",")
    lines[3] = ",".join([label, "nan"] + rest.split(",")[1:])
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert cli.main(["partition", "--input", barbell_file, "--embedding", str(bad),
                     "--k", "4", "--output-dir", str(out)]) == 2
    assert cli.main(["plot", "--embedding", str(bad),
                     "--partition", str(emb_dir / "partition.csv"),
                     "--output", str(out / "plot.svg")]) == 2
    assert not out.exists()


def test_plot_rejects_one_dimensional_embedding(tmp_path):
    emb = tmp_path / "one.csv"
    emb.write_text("node,coord_1\n0,1.0\n1,-1.0\n")
    rc = cli.main(["plot", "--embedding", str(emb),
                   "--output", str(tmp_path / "x.svg")])
    assert rc == 2
    assert not (tmp_path / "x.svg").exists()


def test_output_dir_env_var(tmp_path, k3_file, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(target))
    rc = cli.main(["embed", "--input", k3_file])
    assert rc == 0
    assert (target / "summary.json").exists()


def test_trace_delta_column(tmp_path, k3_file):
    out = tmp_path / "out"
    cli.main(["embed", "--input", k3_file, "--no-momentum", "--trace-delta",
              "--output-dir", str(out)])
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header == "iteration,objective,delta_criterion"


def test_ellipsoidal_embedding_kind(tmp_path, barbell_file):
    out = tmp_path / "out"
    cli.main(["embed", "--input", barbell_file, "--d0", "4",
              "--embedding-kind", "ellipsoidal", "--output-dir", str(out)])
    rows = [l.split(",")[1:] for l in
            (out / "embedding.csv").read_text().splitlines()[1:]]
    U = np.array([[float(v) for v in r] for r in rows])
    spectrum = [float(l.split(",")[1]) for l in
                (out / "spectrum.csv").read_text().splitlines()[1:]]
    s_sq = np.array(spectrum) * 6  # eigenvalues of rho are s^2 / n
    # rows satisfy the ellipsoid equation sum_l s_l^2 u_l^2 = 1, not unit norm
    quad = np.einsum("ij,j,ij->i", U, s_sq, U)
    assert np.allclose(quad, 1.0, atol=1e-9)
    assert not np.allclose(np.linalg.norm(U, axis=1), 1.0, atol=1e-6)


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


def test_large_blocks_get_their_own_mapping_after_a_command(tmp_path, k3_file):
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "mallinfo2"):
        pytest.skip("needs glibc's mallinfo2")
    libc.mallinfo2.restype = _MallInfo2
    # freeing a mapped 16 MiB block raises glibc's adaptive threshold past 2 MiB
    del_me = np.ones(16 << 20, dtype=np.uint8)
    del del_me
    assert cli.main(["embed", "--input", k3_file, "--output-dir", str(tmp_path)]) == 0
    mapped = libc.mallinfo2().hblks
    block = np.ones(2 << 20, dtype=np.uint8)
    assert libc.mallinfo2().hblks == mapped + 1  # mapped, not carved from the heap
    assert block.sum() == 2 << 20
