"""Bitwise golden outputs: perfect samples, coupled runs and driver reports.

``golden/outputs.json`` pins, bit for bit, what the package computes on a
small grid of arguments: ``cftp_sample`` points and doubling counts, the
tracked window records of ``run_epoch`` with replays through each of them,
the final states, post-burn-in sup difference and squared-distance trace
of ``full_coupling_run``, and the JSON report of every CLI driver minus
its wall-clock field.  A refactor that keeps behaviour must
pass this file unchanged.  Points are stored as ``float.hex`` strings and
reports are compared as canonical JSON text, so -0.0 against 0.0 or a
last-bit difference both fail.

Each entry has a key named like its test id, such as ``epochs/n4-m0-r2-k1``
or ``drivers/cftp_n_3_samples_12_seed_6``.  Run as a script:

    PYTHONPATH=src python tests/test_golden.py --diff
    PYTHONPATH=src python tests/test_golden.py --update KEY...
    PYTHONPATH=src python tests/test_golden.py

``--diff`` prints the key of each entry whose computed value differs from
the file, with its old and new values, and prints nothing when all agree.
``--update`` rewrites only the named entries.  With no argument the whole
file is regenerated.  The rule for a declared change: paste the ``--diff``
key list into CHANGES.md, check that it equals the declared entries, and
rewrite exactly those with ``--update``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from simplex_gibbs.cftp import cftp_sample, propagate_through_epoch, run_epoch
from simplex_gibbs.chain import SimplexPoint, sample_uniform_simplex
from simplex_gibbs.cli import main
from simplex_gibbs.two_stage import full_coupling_run

GOLDEN = Path(__file__).with_name("golden") / "outputs.json"

CFTP_GRID = [(n, master, replica) for n in (2, 3, 5) for master in (0, 1) for replica in range(4)]
EPOCH_GRID = [
    (n, master, replica, k)
    for n in (4, 8, 16)
    for master in (0, 1)
    for replica in range(8)
    for k in (1, 2)
]
RUN_GRID = [(n, seed) for n in (2, 5, 8, 16) for seed in (0, 1, 2)]
DRIVER_ARGV = [
    ["simulate", "--n", "5", "--T", "40", "--replicas", "20", "--seed", "3"],
    ["simulate", "--n", "4", "--T", "30", "--replicas", "10", "--seed", "3", "--law", "beta:2.5"],
    ["contraction", "--n", "4", "--replicas", "300", "--seed", "1"],
    ["contraction", "--n", "5", "--replicas", "300", "--seed", "1", "--law", "beta:0.05"],
    ["couple", "--n", "5", "--replicas", "12", "--seed", "2"],
    ["connectivity", "--n", "16", "--trials", "40", "--seed", "4"],
    ["lowerbound", "--n", "8", "--trials", "200", "--seed", "5"],
    ["cftp", "--n", "3", "--samples", "12", "--seed", "6"],
    ["discrete", "--n", "4", "--M", "1000", "--T", "8", "--replicas", "6", "--seed", "7"],
]


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def cftp_entry(n: int, master: int, replica: int) -> dict:
    res = cftp_sample(n, master, replica)
    return {
        "n": n,
        "master": master,
        "replica": replica,
        "doublings": res.doublings,
        "point": _hex(res.point.values),
    }


def epoch_entry(n: int, master: int, replica: int, k: int) -> dict:
    """A window record and three replays through it.

    The replays push e_1 and a fixed uniform point through the recorded
    window.  A failed window is also replayed with its cutoff dropped,
    starting from the vertex whose column failed: that replay repeats the
    tracked failure and resolves it from the block's remainder draw, a
    branch that ordinary sampling rarely reaches.
    """
    rec = run_epoch(n, master, replica, k)
    record = rec.to_json_dict()
    if rec.final is not None:
        record["final"] = _hex(rec.final.values)
    forced = None
    if rec.failure is not None:
        start = SimplexPoint.vertex(n, rec.failure.column)
        forced = _hex(propagate_through_epoch(start, dataclasses.replace(rec, cutoff=None)).values)
    fixed = sample_uniform_simplex(n, np.random.default_rng(0))
    return {
        "n": n,
        "master": master,
        "replica": replica,
        "k": k,
        "record": record,
        "replay_vertex": _hex(propagate_through_epoch(SimplexPoint.vertex(n, 1), rec).values),
        "replay_uniform": _hex(propagate_through_epoch(fixed, rec).values),
        "replay_forced": forced,
    }


def run_entry(n: int, seed: int) -> dict:
    z: list[float] = []
    res = full_coupling_run(n, 1.0, np.random.default_rng(seed), z_out=z)
    return {
        "n": n,
        "seed": seed,
        "burn": res.burn,
        "x": _hex(res.stage.x.values),
        "y": _hex(res.stage.y.values),
        "sup_diff_after_burn": float(res.sup_diff_after_burn).hex(),
        "z": _hex(z),
    }


def driver_entry(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*argv, "--json"])
    report = json.loads(buf.getvalue())
    del report["elapsed_seconds"]
    return {"argv": argv, "exit": code, "report": report}


def _cftp_id(args) -> str:
    return "n%d-m%d-r%d" % args


def _epoch_id(args) -> str:
    return "n%d-m%d-r%d-k%d" % args


def _run_id(args) -> str:
    return "n%d-s%d" % args


def _driver_id(argv) -> str:
    return "_".join(w.lstrip("-") for w in argv)


# section of outputs.json -> (its grid, the entry of one grid point, its id)
SECTIONS = {
    "cftp": (CFTP_GRID, lambda args: cftp_entry(*args), _cftp_id),
    "epochs": (EPOCH_GRID, lambda args: epoch_entry(*args), _epoch_id),
    "full_coupling_run": (RUN_GRID, lambda args: run_entry(*args), _run_id),
    "drivers": (DRIVER_ARGV, driver_entry, _driver_id),
}


def compute() -> dict:
    return {name: [entry(args) for args in grid] for name, (grid, entry, _id) in SECTIONS.items()}


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def golden_keys() -> list[str]:
    return [f"{name}/{key(args)}" for name, (grid, _entry, key) in SECTIONS.items() for args in grid]


def diff(golden: dict, keys=None):
    """Yield (section, index, key, new) for each entry whose computed value
    differs from ``golden``, over the named keys or, by default, all."""
    for name, (grid, entry, key) in SECTIONS.items():
        for k, args in enumerate(grid):
            full = f"{name}/{key(args)}"
            if keys is not None and full not in keys:
                continue
            new = entry(args)
            if _canonical(new) != _canonical(golden[name][k]):
                yield name, k, full, new


def _write(golden: dict) -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_grids_match_file(golden):
    assert [(e["n"], e["master"], e["replica"]) for e in golden["cftp"]] == CFTP_GRID
    assert [(e["n"], e["master"], e["replica"], e["k"]) for e in golden["epochs"]] == EPOCH_GRID
    assert [(e["n"], e["seed"]) for e in golden["full_coupling_run"]] == RUN_GRID
    assert [e["argv"] for e in golden["drivers"]] == DRIVER_ARGV


@pytest.mark.parametrize("args", CFTP_GRID, ids=_cftp_id)
def test_cftp_sample_bitwise(golden, args):
    expected = golden["cftp"][CFTP_GRID.index(args)]
    assert cftp_entry(*args) == expected


@pytest.mark.parametrize("args", EPOCH_GRID, ids=_epoch_id)
def test_epoch_and_replays_bitwise(golden, args):
    expected = golden["epochs"][EPOCH_GRID.index(args)]
    assert _canonical(epoch_entry(*args)) == _canonical(expected)


@pytest.mark.parametrize("args", RUN_GRID, ids=_run_id)
def test_full_coupling_run_bitwise(golden, args):
    expected = golden["full_coupling_run"][RUN_GRID.index(args)]
    assert run_entry(*args) == expected


@pytest.mark.parametrize("argv", DRIVER_ARGV, ids=_driver_id)
def test_driver_report_bitwise(golden, argv):
    expected = golden["drivers"][DRIVER_ARGV.index(argv)]
    assert _canonical(driver_entry(argv)) == _canonical(expected)


def test_diff_names_exactly_the_altered_entry(golden):
    altered = json.loads(json.dumps(golden))
    altered["cftp"][1]["doublings"] += 1
    keys = ["cftp/n2-m0-r0", "cftp/n2-m0-r1", "drivers/cftp_n_3_samples_12_seed_6"]
    found = list(diff(altered, keys))
    assert [(name, k, key) for name, k, key, _new in found] == [("cftp", 1, "cftp/n2-m0-r1")]
    assert found[0][3] == golden["cftp"][1]
    assert len(set(golden_keys())) == sum(len(grid) for grid, _e, _k in SECTIONS.values())


def _main(argv: list[str]) -> None:
    if argv[:1] == ["--diff"] and len(argv) == 1:
        golden = json.loads(GOLDEN.read_text())
        for name, k, key, new in diff(golden):
            print(f"{key}\n  old: {_canonical(golden[name][k])}\n  new: {_canonical(new)}")
    elif argv[:1] == ["--update"] and len(argv) > 1:
        unknown = sorted(set(argv[1:]) - set(golden_keys()))
        if unknown:
            sys.exit(f"unknown keys: {' '.join(unknown)}")
        golden = json.loads(GOLDEN.read_text())
        for name, k, key, new in diff(golden, argv[1:]):
            golden[name][k] = new
            print(f"updated {key}")
        _write(golden)
    elif not argv:
        _write(compute())
        print(f"wrote {GOLDEN}")
    else:
        sys.exit("usage: test_golden.py [--diff | --update KEY...]")


if __name__ == "__main__":
    _main(sys.argv[1:])
