import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spherembed
from oracles import make_graph

# the exit status by which a child script says its C library lacks what it needs
CHILD_SKIP = 77

# two triangles joined by a bridge; the optimal split is the two triangles
BARBELL_EDGES = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]
BARBELL_MODULARITY = 5.0 / 14.0


@pytest.fixture
def barbell():
    return make_graph(BARBELL_EDGES)


@pytest.fixture
def triangle():
    return make_graph([(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def single_edge():
    return make_graph([(0, 1)])


@pytest.fixture
def star6():
    return make_graph([(0, i) for i in range(1, 6)])


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def run_child(script, *args, skip_reason):
    """Run script in a fresh interpreter that imports this spherembed; skip on CHILD_SKIP.

    A fresh process starts with glibc's default allocator settings and an
    empty heap, so what the script measures does not depend on earlier tests.
    """
    src = str(Path(spherembed.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env)
    if proc.returncode == CHILD_SKIP:
        pytest.skip(skip_reason)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
