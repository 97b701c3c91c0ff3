"""Import smoke test: every exported name and the claims script resolve."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import simplex_gibbs

CLAIMS_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_claims.py"


def test_star_import_and_claims_script_load():
    namespace: dict = {}
    exec("from simplex_gibbs import *", namespace)
    assert set(simplex_gibbs.__all__) <= set(namespace)
    # loading the script resolves its imports without running any claim
    spec = importlib.util.spec_from_file_location("run_claims", CLAIMS_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_connectivity_does_not_import_scipy_stats():
    # scipy.stats is most of the package's import time and memory, and only
    # the drivers with a KS test or a binomial quantile need it
    code = (
        "import sys, simplex_gibbs.cli as cli\n"
        "cli.main(['connectivity', '--n', '8', '--trials', '2'])\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats imported'\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
