"""Import smoke test: every exported name and the claims script resolve."""

from __future__ import annotations

import importlib.util
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
