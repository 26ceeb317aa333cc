"""End-to-end command-line behavior: artifacts, exit codes, determinism."""

import io
import json
import re
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import BARBELL_EDGES, CHILD_SKIP, run_child
from oracles import reference_read_cluster_ids
from spherembed import (PlantedPartitionSpec, cli, generate_planted_partition, graphs,
                        make_descriptor, pipeline, write_edge_list)
from spherembed.embedding import read_embedding_csv

EMBED_FILES = ["embedding.csv", "spectrum.csv", "trace.csv", "summary.json"]
PIPELINE_FILES = EMBED_FILES + ["partition.csv", "run_log.json"]
# the summary's config section under default flags, spelled out so that a
# change to the config's fields shows here as a change to summary.json
DEFAULT_EMBED_CONFIG = {
    "d0": 30, "descriptor": "modularity", "max_iter": 10000, "momentum": True, "seed": 0,
    "tol": 1e-08,
}
DEFAULT_PARTITION_CONFIG = {**DEFAULT_EMBED_CONFIG, "k": 100, "restarts": 5}
# a run from --embedding solves nothing, so it records only the partition's settings
DEFAULT_REUSE_CONFIG = {"k": 100, "restarts": 5, "seed": 0}


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
    on, off = read_json(out_on / "summary.json"), read_json(out_off / "summary.json")
    assert (on["config"]["momentum"], off["config"]["momentum"]) == (True, False)
    assert on["config"].keys() == off["config"].keys()
    assert (on["solver"]["method"], off["solver"]["method"]) == ("gpmm", "gpm")


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


@pytest.mark.parametrize("flag, value", [("--momentum-variant", "appendix"),
                                         ("--shift-epsilon", "0.5"), ("--epsilon", "0.5"),
                                         ("--max-rounds", "3")])
@pytest.mark.parametrize("command", [["embed"], ["partition", "--pipeline"]])
def test_removed_solver_flags_are_usage_errors(tmp_path, k3_file, command, flag, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        cli.main([*command, "--input", k3_file, flag, value, "--output-dir", str(out)])
    assert err.value.code == 2
    assert not out.exists()


# options that steer the command rather than the computation
CLI_ONLY = {"input", "output_dir", "timings", "trace_delta", "embedding_kind", "truth",
            "embedding", "pipeline"}
PARTITION_ONLY = {"k", "restarts", "jobs"}
# all that a partition --embedding run accepts
REUSE_OPTIONS = {"input", "seed", "k", "restarts", "jobs", "truth", "embedding", "output_dir",
                 "timings"}


@pytest.mark.parametrize("argv, excluded", [(["embed"], PARTITION_ONLY),
                                            (["partition", "--pipeline"], set())])
def test_flags_match_config_fields(argv, excluded):
    # _config_from passes on only the options named like a field, so a flag
    # without one would be accepted and do nothing
    options = vars(cli.build_parser().parse_args([*argv, "--input", "g.txt"]))
    options.pop("command")
    field_defaults = {f.name: f.default for f in fields(pipeline.PipelineConfig)
                      if f.name not in excluded}
    assert set(options) - CLI_ONLY == set(field_defaults)
    assert {name: options[name] for name in field_defaults} == field_defaults


def test_numerical_failure_exits_1(tmp_path, k3_file, monkeypatch):
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "run_embedding", boom)
    rc = cli.main(["embed", "--input", k3_file, "--output-dir", str(tmp_path / "o")])
    assert rc == 1
    assert not (tmp_path / "o").exists()


def test_nonfinite_solve_exits_1_at_first_update(tmp_path, barbell_file, monkeypatch, capsys):
    """A NaN in the descriptor stops the solver at once: exit 1, not 2 after max_iter."""
    def nan_descriptor(graph, kind):
        op = make_descriptor(graph, kind)
        op._u = np.full(graph.n, np.nan)
        return op

    monkeypatch.setattr(pipeline, "make_descriptor", nan_descriptor)
    rc = cli.main(["partition", "--pipeline", "--input", barbell_file,
                   "--output-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "numerical failure: objective is nan at update 0" in capsys.readouterr().err
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


# two triangles joined by an edge, and a separate edge the loader cuts away
CUT_COMPONENT_EDGES = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (10, 11)]


def test_partition_truth_skips_nodes_outside_the_kept_component(tmp_path):
    edges = write_edges(tmp_path / "edges.txt", CUT_COMPONENT_EDGES)
    truth = tmp_path / "truth.txt"
    truth.write_text("0 0\n1 0\n2 0\n3 1\n4 1\n5 1\n10 2\n11 2\n")
    out = tmp_path / "out"
    rc = cli.main(["partition", "--pipeline", "--input", edges, "--d0", "3", "--k", "2",
                   "--truth", str(truth), "--output-dir", str(out)])
    assert rc == 0
    summary = read_json(out / "summary.json")
    assert summary["graph"]["n"] == 6
    assert summary["partition"]["nmi"] == pytest.approx(1.0, abs=1e-9)


def test_partition_truth_missing_a_kept_node_exits_2(tmp_path, capsys):
    edges = write_edges(tmp_path / "edges.txt", CUT_COMPONENT_EDGES)
    truth = tmp_path / "truth.txt"
    truth.write_text("0 0\n1 0\n2 0\n3 1\n4 1\n10 2\n11 2\n")
    rc = cli.main(["partition", "--pipeline", "--input", edges, "--d0", "3", "--k", "2",
                   "--truth", str(truth), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "missing community labels for 1 nodes (first: 5)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["", "# no node here\n", "10 2\n11 2\n"],
                         ids=["empty", "comment", "only-cut-nodes"])
def test_partition_truth_naming_no_kept_node_exits_2(tmp_path, capsys, text):
    edges = write_edges(tmp_path / "edges.txt", CUT_COMPONENT_EDGES)
    truth = tmp_path / "truth.txt"
    truth.write_text(text)
    rc = cli.main(["partition", "--pipeline", "--input", edges, "--d0", "3", "--k", "2",
                   "--truth", str(truth), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "missing community labels for 6 nodes (first: 0)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n, warns", [(None, False), (300, False), (2000, True)],
                         ids=["barbell", "planted-300", "planted-2000"])
@pytest.mark.parametrize("command", [["embed"], ["partition", "--pipeline"]],
                         ids=["embed", "pipeline"])
def test_far_from_critical_stop_warns_on_stderr(tmp_path, capsys, command, n, warns):
    # at n = 2 000 with d0 = 10 the relative-change stop passes at update 2,
    # relgrad near 0.6; the barbell and 300 nodes run on to near-critical points
    if n is None:
        edges = write_edges(tmp_path / "edges.txt", BARBELL_EDGES)
    else:
        graph, _ = generate_planted_partition(PlantedPartitionSpec(
            n=n, k=10, p_in=12 / (n // 10 - 1), p_out=3 / (n - n // 10), seed=1))
        edges = tmp_path / "edges.txt"
        edges.write_text(write_edge_list(graph))
    out = tmp_path / "out"
    rc = cli.main([*command, "--input", str(edges), "--d0", "10", "--output-dir", str(out)])
    assert rc == 0
    relgrad = read_json(out / "summary.json")["solver"]["relgrad"]
    assert (relgrad > cli.RELGRAD_WARNING) == warns
    err = capsys.readouterr().err
    if warns:
        assert err == ("warning: the solver stopped far from a critical point "
                       f"(relgrad {relgrad:.3g} > 0.1); the embedding may be poor\n")
    else:
        assert err == ""


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


@pytest.fixture
def planted_files(tmp_path):
    graph, truth = generate_planted_partition(
        PlantedPartitionSpec(n=300, k=3, p_in=0.1, p_out=0.01, seed=2))
    edges, truth_file = tmp_path / "planted.txt", tmp_path / "truth.txt"
    edges.write_text(write_edge_list(graph))
    truth_file.write_text("".join(f"{lab} {c}\n" for lab, c in zip(graph.node_labels, truth)))
    return str(edges), str(truth_file)


@pytest.mark.parametrize("options", [
    ["--d0", "8"],
    ["--d0", "6", "--descriptor", "normlap", "--no-momentum", "--trace-delta", "--tol", "1e-6",
     "--max-iter", "40", "--seed", "5", "--embedding-kind", "ellipsoidal"],
], ids=["defaults", "every-solver-option"])
def test_embed_and_partition_pipeline_write_the_same_embedding(tmp_path, planted_files,
                                                                 options):
    edges, _ = planted_files
    for argv in (["embed"], ["partition", "--pipeline", "--k", "4"]):
        assert cli.main([*argv, "--input", edges, *options,
                         "--output-dir", str(tmp_path / argv[0])]) == 0
    for name in ["embedding.csv", "spectrum.csv", "trace.csv"]:
        assert (tmp_path / "embed" / name).read_bytes() == \
            (tmp_path / "partition" / name).read_bytes(), name


def test_partition_from_a_pipeline_runs_embedding_repeats_its_partition(tmp_path, planted_files):
    edges, truth = planted_files
    common = ["--input", edges, "--truth", truth, "--seed", "3", "--k", "6", "--restarts", "3"]
    assert cli.main(["partition", "--pipeline", "--d0", "8", *common,
                     "--output-dir", str(tmp_path / "pipeline")]) == 0
    assert cli.main(["partition", "--embedding", str(tmp_path / "pipeline" / "embedding.csv"),
                     *common, "--output-dir", str(tmp_path / "reuse")]) == 0
    for name in ["partition.csv", "run_log.json"]:
        assert (tmp_path / "pipeline" / name).read_bytes() == \
            (tmp_path / "reuse" / name).read_bytes(), name
    sections = [read_json(tmp_path / run / "summary.json")["partition"]
                for run in ("pipeline", "reuse")]
    assert sections[0] == sections[1]
    assert sections[0]["nmi"] is not None


@pytest.mark.parametrize("command", [["embed"], ["partition", "--pipeline"], ["partition"]],
                         ids=["embed", "pipeline", "reuse"])
def test_timings_leave_out_the_load_and_the_write(tmp_path, barbell_file, monkeypatch, capsys,
                                                  command):
    if command == ["partition"]:
        cli.main(["embed", "--input", barbell_file, "--d0", "4", "--output-dir", str(tmp_path)])
        command = ["partition", "--embedding", str(tmp_path / "embedding.csv")]
    load, write_all = cli.load_edge_list, cli._write_all
    monkeypatch.setattr(cli, "load_edge_list", lambda *a: (time.sleep(0.3), load(*a))[1])
    monkeypatch.setattr(cli, "_write_all", lambda *a: (time.sleep(0.3), write_all(*a))[1])
    capsys.readouterr()
    assert cli.main([*command, "--input", barbell_file, "--timings",
                     "--output-dir", str(tmp_path / "out")]) == 0
    err = capsys.readouterr().err
    match = re.fullmatch(rf"{command[0]} stage: (\d+\.\d{{3}})s\n", err)
    assert match, err
    assert float(match[1]) < 0.3


def test_summary_config_section_under_default_flags(tmp_path, barbell_file):
    cli.main(["embed", "--input", barbell_file, "--output-dir", str(tmp_path / "e")])
    cli.main(["partition", "--input", barbell_file, "--pipeline",
              "--output-dir", str(tmp_path / "p")])
    cli.main(["partition", "--input", barbell_file, "--embedding",
              str(tmp_path / "e" / "embedding.csv"), "--output-dir", str(tmp_path / "r")])
    # compared as JSON text too, so an int written as a float also fails
    for out, want in (("e", DEFAULT_EMBED_CONFIG), ("p", DEFAULT_PARTITION_CONFIG),
                      ("r", DEFAULT_REUSE_CONFIG)):
        config = read_json(tmp_path / out / "summary.json")["config"]
        assert config == want
        assert json.dumps(config, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_bad_solver_value_exits_2_without_solving(tmp_path, barbell_file, monkeypatch):
    # the config validates its solver fields when built, before the graph is read
    monkeypatch.setattr(cli, "load_edge_list", lambda *a, **k: pytest.fail("graph loaded"))
    monkeypatch.setattr(pipeline, "solve", lambda *a, **k: pytest.fail("solver ran"))
    rc = cli.main(["partition", "--input", barbell_file, "--pipeline", "--tol", "5",
                   "--output-dir", str(tmp_path / "o")])
    assert rc == 2
    assert not (tmp_path / "o").exists()


def test_every_option_is_a_setting_or_cli_only():
    field_names = {f.name for f in fields(pipeline.PipelineConfig)}
    options = {name: {a.dest for a in sub._actions} - {"help"}
               for name, sub in cli.build_parser().commands.items()}
    assert set(options) == {"embed", "partition", "plot"}
    for name in ("embed", "partition"):
        assert options[name] <= field_names | CLI_ONLY, name
    assert options["plot"] == {"embedding", "partition", "output", "output_dir"}
    # a run from --embedding takes every partition option but the solver's and the other source
    assert options["partition"] - set(cli.SOLVER_ONLY) - {"pipeline"} == REUSE_OPTIONS


# --max abbreviates --max-iter, and the message names the option in full
REUSE_SOLVER_OPTIONS = [(["--descriptor", "normlap"], "--descriptor"), (["--d0", "6"], "--d0"),
                        (["--tol", "1e-3"], "--tol"), (["--max-iter", "5"], "--max-iter"),
                        (["--max", "5"], "--max-iter"), (["--momentum"], "--momentum"),
                        (["--no-momentum"], "--no-momentum"),
                        (["--embedding-kind", "spherical"], "--embedding-kind"),
                        (["--trace-delta"], "--trace-delta")]
USAGE_ERRORS = [
    *[(["partition", "--input", "G", "--embedding", "E", *given], named)
      for given, named in REUSE_SOLVER_OPTIONS],
    (["partition", "--input", "G", "--pipeline", "--embedding", "E"], "not allowed with"),
    (["partition", "--input", "G"], "one of the arguments --embedding --pipeline is required"),
    (["plot", "--embedding", "E", "--timings"], "unrecognized arguments: --timings"),
    (["embed", "--input", "G", "--trace-delta"], "--trace-delta needs --no-momentum"),
    (["partition", "--input", "G", "--pipeline", "--trace-delta"], "--trace-delta needs"),
    (["embed", "--input", "G", "--momentum", "--trace-delta"], "--trace-delta needs"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                         ids=[" ".join(argv) for argv, _ in USAGE_ERRORS])
def test_usage_errors_exit_2_before_reading_input(tmp_path, barbell_file, monkeypatch, capsys,
                                                   argv, message):
    monkeypatch.setattr(cli, "load_edge_list", lambda *a, **k: pytest.fail("graph loaded"))
    monkeypatch.setattr(cli, "read_embedding_csv", lambda *a, **k: pytest.fail("CSV read"))
    files = {"G": barbell_file, "E": str(tmp_path / "embedding.csv")}
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        cli.main([files.get(arg, arg) for arg in argv] + ["--output-dir", str(out)])
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--restarts", "0"), ("--seed", "-1"), ("--k", "0"), ("--jobs", "0"),
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


@pytest.mark.parametrize("flag, value", [("--d0", "1"), ("--seed", "-1")])
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


def test_a_target_that_is_a_directory_fails_before_any_write(tmp_path, barbell_file, capsys):
    out = tmp_path / "out"
    (out / "summary.json").mkdir(parents=True)
    kept = [name for name in PIPELINE_FILES if name != "summary.json"]
    for name in kept:
        (out / name).write_text("earlier run\n")
    rc = cli.main(["partition", "--input", barbell_file, "--pipeline",
                   "--d0", "6", "--k", "4", "--output-dir", str(out)])
    assert rc == 2
    assert "Is a directory" in capsys.readouterr().err
    for name in kept:  # replaced by none of this run's artifacts
        assert (out / name).read_text() == "earlier run\n"
    assert sorted(p.name for p in out.iterdir()) == sorted(PIPELINE_FILES)  # no temporary file
    assert list((out / "summary.json").iterdir()) == []


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
    text = "node_label,cluster_id\r\nb,1\r\n\r\nz,7\r\na,0\r\nb,2\r\n  \r\nx y,3\r\n"
    ids = cli._read_cluster_ids(io.StringIO(text), ["a", "b", "x y"])
    assert list(ids) == [0, 2, 3]
    assert list(cli._read_cluster_ids(io.StringIO("node_label,cluster_id\na,4\nb,-1\n"),
                                      ["a", "b"])) == [4, -1]
    assert list(cli._read_cluster_ids(io.StringIO("node_label,cluster_id\n\xe9,5\n"),
                                      ["\xe9"])) == [5]
    for bad in ("node_label,cluster\na,1\n", "", "node_label,cluster_id\n",
                "node_label,cluster_id\na\n", "node_label,cluster_id\na,\n",
                "node_label,cluster_id\na, \n", "node_label,cluster_id\na,x\n",
                "node_label,cluster_id\nx,y,3\n"):
        with pytest.raises(ValueError):
            cli._read_cluster_ids(io.StringIO(bad), ["a"])


def _partition_csv_variants(rng, labels):
    """Partition CSVs for labels: writer layout, then rows shuffled and padded."""
    ids = rng.integers(-3, 40, size=len(labels)).tolist()
    rows = [f"{lab},{i}" for lab, i in zip(labels, ids)]
    yield "node_label,cluster_id\n" + "".join(row + "\n" for row in rows)
    rows += [f"{labels[0]},{ids[0] + 1}", "extra,5", "other node,-2"]  # a node twice, extra nodes
    rows += ["", "  ", "\t"]
    for _ in range(3):
        rows = [rows[i] for i in rng.permutation(len(rows))]
        text = "node_label,cluster_id\n" + "\n".join(rows) + "\n"
        yield from (text, text.replace("\n", "\r\n"), "\ufeff" + text)


@pytest.mark.parametrize("chunk_bytes", [1, 9, 40, graphs.CHUNK_BYTES])
def test_partition_reader_matches_reference(rng, chunk_bytes, monkeypatch):
    monkeypatch.setattr(graphs, "CHUNK_BYTES", chunk_bytes)
    for n in (1, 2, 7, 30):
        labels = [str(i) if i % 3 else f"n #{i}\xe9" for i in range(n)]
        for text in _partition_csv_variants(rng, labels):
            for source in (io.StringIO(text), io.BytesIO(text.encode())):
                want = reference_read_cluster_ids(io.StringIO(text), labels)
                got = cli._read_cluster_ids(source, labels)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


PARTITION_ERRORS = [
    ("node_label,cluster_id\na,1\nb\n", "line 3: expected 2 cells as in the header, got 1"),
    ("node_label,cluster_id\na,\n", "line 2: empty coordinate"),
    ("node_label,cluster_id\na,x\n", "line 2: could not convert string 'x' to int64"),
    ("node_label,cluster_id\na,1.5\n", "line 2: could not convert string '1.5' to int64"),
    ("node_label,cluster_id\na,1,2\n", "line 2: expected 2 cells as in the header, got 3"),
    ("node_label,cluster_id\n" + "a,1\n\n\n" * 4 + "b,x\n",
     "line 14: could not convert string 'x' to int64"),
]


@pytest.mark.parametrize("chunk_bytes", [1, 9, 40, graphs.CHUNK_BYTES])
@pytest.mark.parametrize("text, message", PARTITION_ERRORS)
def test_partition_reader_names_the_bad_line(text, message, chunk_bytes, monkeypatch):
    monkeypatch.setattr(graphs, "CHUNK_BYTES", chunk_bytes)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cli._read_cluster_ids(io.StringIO(text), ["a", "b"])


def test_plot_partition_bad_row_exits_2(tmp_path, barbell_file, capsys):
    out = tmp_path / "out"
    cli.main(["partition", "--input", barbell_file, "--pipeline",
              "--d0", "6", "--k", "4", "--output-dir", str(out)])
    lines = (out / "partition.csv").read_text().splitlines()
    lines[3] = lines[3].partition(",")[0] + ",x"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert cli.main(["plot", "--embedding", str(out / "embedding.csv"),
                     "--partition", str(bad), "--output", str(tmp_path / "x.svg")]) == 2
    assert "line 4: could not convert string 'x' to int64" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


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


def _plot_embedding_lines():
    """Lines of a 5-coordinate embedding CSV, with a blank line and a CRLF row."""
    rows = [",".join([f"n{i}", repr(i / 7), repr(-i / 3), repr(i * i / 11), "0.5", "-0.5"])
            for i in range(10)]
    return ["node,coord_1,coord_2,coord_3,coord_4,coord_5", *rows[:4], "", rows[4] + "\r",
            *rows[5:]]


def _with_cell(line, column, cell):
    cells = line.split(",")
    cells[column] = cell
    return ",".join(cells)


@pytest.mark.parametrize("chunk_bytes", [1, 9, 40, graphs.CHUNK_BYTES])
@pytest.mark.parametrize("cell", ["x", "nan", "-inf", ""])
def test_plot_parses_only_the_drawn_coordinates(tmp_path, cell, chunk_bytes, monkeypatch):
    monkeypatch.setattr(graphs, "CHUNK_BYTES", chunk_bytes)
    lines = _plot_embedding_lines()
    clean, dirty = tmp_path / "clean.csv", tmp_path / "dirty.csv"
    clean.write_text("\n".join(lines) + "\n")
    lines[3] = _with_cell(lines[3], 4, cell)
    lines[9] = _with_cell(_with_cell(lines[9], 5, cell), 4, cell)
    dirty.write_text("\n".join(lines) + "\n")
    for source in (clean, dirty):
        assert cli.main(["plot", "--embedding", str(source),
                         "--output", str(tmp_path / f"{source.stem}.svg")]) == 0
    assert (tmp_path / "dirty.svg").read_bytes() == (tmp_path / "clean.svg").read_bytes()
    # partition --embedding reads every cell
    with pytest.raises(ValueError, match="^line 4: "):
        read_embedding_csv(str(dirty))


PLOT_ROW_ERRORS = {
    "text": (lambda line: _with_cell(line, 2, "x"), "could not convert string 'x' to float64"),
    "nan": (lambda line: _with_cell(line, 3, "nan"), "non-finite coordinate"),
    "empty": (lambda line: _with_cell(line, 1, " "), "empty coordinate"),
    "short": (lambda line: line.rpartition(",")[0], "expected 6 cells as in the header, got 5"),
    "long": (lambda line: line + ",1.0", "expected 6 cells as in the header, got 7"),
    "label only": (lambda line: line.partition(",")[0],
                   "expected 6 cells as in the header, got 1"),
}


@pytest.mark.parametrize("chunk_bytes", [1, 9, 40, graphs.CHUNK_BYTES])
@pytest.mark.parametrize("case", PLOT_ROW_ERRORS)
def test_plot_names_the_line_of_a_bad_row(tmp_path, case, chunk_bytes, monkeypatch, capsys):
    monkeypatch.setattr(graphs, "CHUNK_BYTES", chunk_bytes)
    edit, message = PLOT_ROW_ERRORS[case]
    lines = _plot_embedding_lines()
    lines[2] = _with_cell(lines[2], 5, "x")  # undrawn: not what is reported
    lines[8] = edit(lines[8])
    lines[10] += ",1.0"  # a later long row: with a short one, the comma total is right
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert cli.main(["plot", "--embedding", str(bad), "--output", str(tmp_path / "x.svg")]) == 2
    assert capsys.readouterr().err == f"error: line 9: {message}\n"
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


def test_embedding_kind_changes_only_the_embedding_csv(tmp_path):
    # the partition reads the spherical rows whichever rows the CSV gets
    graph, _ = generate_planted_partition(
        PlantedPartitionSpec(n=120, k=3, p_in=0.3, p_out=0.02, seed=1))
    edges = tmp_path / "planted.txt"
    edges.write_text(write_edge_list(graph))
    for kind in ("spherical", "ellipsoidal"):
        rc = cli.main(["partition", "--input", str(edges), "--pipeline", "--d0", "8",
                       "--embedding-kind", kind, "--output-dir", str(tmp_path / kind)])
        assert rc == 0
    sph, ell = tmp_path / "spherical", tmp_path / "ellipsoidal"
    for name in PIPELINE_FILES:
        if name != "embedding.csv":
            assert (sph / name).read_bytes() == (ell / name).read_bytes(), name
    assert (sph / "embedding.csv").read_bytes() != (ell / "embedding.csv").read_bytes()


# run in a fresh interpreter: free chunks that earlier tests left in this
# process's heap could serve the block without a new mapping
MMAP_CHECK = """
import ctypes
import sys

import numpy as np


class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


libc = ctypes.CDLL(None)
if not hasattr(libc, "mallinfo2"):
    sys.exit({skip})
libc.mallinfo2.restype = MallInfo2
# freeing a mapped 16 MiB block raises glibc's adaptive threshold past 2 MiB
del_me = np.ones(16 << 20, dtype=np.uint8)
del del_me
{run}
mapped = libc.mallinfo2().hblks
block = np.ones(2 << 20, dtype=np.uint8)
assert libc.mallinfo2().hblks == mapped + 1  # mapped, not carved from the heap
assert block.sum() == 2 << 20
"""


def test_large_blocks_get_their_own_mapping_after_a_command(tmp_path, k3_file):
    run = """
from spherembed import cli
assert cli.main(["embed", "--input", sys.argv[1], "--output-dir", sys.argv[2]]) == 0
"""
    run_child(MMAP_CHECK.format(skip=CHILD_SKIP, run=run), k3_file, str(tmp_path),
              skip_reason="needs glibc's mallinfo2")


def test_large_blocks_get_their_own_mapping_after_run_pipeline(k3_file):
    """The library's pipeline fixes the threshold as the CLI does."""
    run = """
from spherembed import PipelineConfig, load_edge_list, run_pipeline
run_pipeline(load_edge_list(sys.argv[1]), PipelineConfig())
"""
    run_child(MMAP_CHECK.format(skip=CHILD_SKIP, run=run), k3_file,
              skip_reason="needs glibc's mallinfo2")
