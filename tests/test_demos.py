"""The quick demos run to completion against the installed package."""

import os
import subprocess
import sys

import pytest

import adaptnets

DEMOS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "demos")
SOURCE = os.path.dirname(os.path.dirname(adaptnets.__file__))


@pytest.mark.parametrize("name", ["01_graph_spectra.py",
                                  "03_spectral_kernels.py",
                                  "05_sparse_differences.py",
                                  "06_overlapping_interests.py",
                                  "07_clustered_networks.py"])
def test_demo_runs(name, tmp_path):
    path = filter(None, [SOURCE, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, os.path.join(DEMOS, name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
