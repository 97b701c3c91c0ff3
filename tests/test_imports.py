"""Import smoke test: every exported name and the claims script resolve."""

from __future__ import annotations

import ast
import importlib.util
import inspect
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import simplex_gibbs

CLAIMS_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_claims.py"
PACKAGE_DIR = Path(simplex_gibbs.__file__).resolve().parent


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


def _module_level_public_names(tree) -> set[str]:
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def _referenced_names(tree) -> set[str]:
    """Names read as a bare name or an attribute; docstrings and imports do not count."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_public_functions_have_a_caller_outside_tests():
    # a public function or class that only the tests use belongs in the tests
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "simplex_gibbs").glob("*.py"))
    callers = package + sorted((root / "scripts").glob("*.py"))
    used: set[str] = set()
    for path in callers:
        used |= _referenced_names(ast.parse(path.read_text(), str(path)))
    unused = [
        f"{path.stem}.{name}"
        for path in package
        for name in sorted(_module_level_public_names(ast.parse(path.read_text(), str(path))))
        if name not in used
    ]
    assert not unused, f"public names with no caller in src/ or scripts/: {unused}"


def _attribute_reads(tree) -> Counter:
    """How often each name is read as an attribute (``x.name``)."""
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def test_public_members_have_a_reader_outside_tests():
    # a method or property of a public class that only the tests read is API
    # that exists for them; a read inside the member's own body does not count
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "simplex_gibbs").glob("*.py"))
    readers = package + sorted((root / "scripts").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    reads = sum((_attribute_reads(ast.parse(p.read_text(), str(p))) for p in readers), Counter())
    unread = [
        f"{path.stem}.{cls.name}.{node.name}"
        for path in package
        for cls in ast.parse(path.read_text(), str(path)).body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and reads[node.name] == _attribute_reads(node)[node.name]
    ]
    assert not unread, f"public members with no reader in src/, scripts/ or perfbench/: {unread}"


def _call_key(func) -> str | None:
    """``Class.method`` for a call through a capitalised name or attribute,
    else the bare name or attribute called."""
    if isinstance(func, ast.Name):
        return func.id
    if not isinstance(func, ast.Attribute):
        return None
    receiver = func.value
    owner = receiver.id if isinstance(receiver, ast.Name) else getattr(receiver, "attr", "")
    return f"{owner}.{func.attr}" if owner[:1].isupper() else func.attr


def _passed_arguments(paths) -> dict[str, tuple[set[str], float]]:
    """Per call key (see ``_call_key``): the keywords passed and the most
    positional arguments.

    ``*args`` counts as every position and ``**kwargs`` as every keyword
    (``"**"``).
    """
    passed: dict[str, tuple[set[str], float]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = _call_key(node.func)
            keywords, most = passed.get(name, (set(), 0))
            keywords |= {kw.arg or "**" for kw in node.keywords}
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            passed[name] = (keywords, max(most, math.inf if starred else len(node.args)))
    return passed


def _public_defaulted_parameters(tree):
    """Yield (qualified name, parameter, position) for each defaulted
    parameter of a public function, or of a public method of a public class.

    The position skips self or cls, and is None for a keyword-only parameter.
    """
    defs = [(node.name, node, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                    defs.append((f"{cls.name}.{node.name}", node, 0 if static else 1))
    for qualname, node, skip in defs:
        if node.name.startswith("_"):
            continue
        positional = node.args.posonlyargs + node.args.args
        for k in range(len(positional) - len(node.args.defaults), len(positional)):
            yield qualname, positional[k].arg, k - skip
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield qualname, arg.arg, None


def test_public_defaults_have_a_caller_outside_tests():
    # a parameter that only the tests set is API that exists for them, and a
    # default that no caller overrides is a constant; perfbench/ counts as a
    # caller because its worker runs the CLI
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "simplex_gibbs").glob("*.py"))
    passed = _passed_arguments(
        package + sorted((root / "scripts").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    )
    unset = []
    for path in package:
        tree = ast.parse(path.read_text(), str(path))
        for qualname, param, position in _public_defaulted_parameters(tree):
            # a method is called through its class or through an instance
            calls = [passed.get(k, (set(), 0)) for k in {qualname, qualname.rpartition(".")[2]}]
            keywords = set().union(*(kw for kw, _ in calls))
            most = max(m for _, m in calls)
            if not (param in keywords or "**" in keywords or (position is not None and most > position)):
                unset.append(f"{path.stem}.{qualname}({param}=)")
    assert not unset, f"defaulted public parameters that no call in src/, scripts/ or perfbench/ sets: {unset}"


def test_package_loads_under_another_name():
    # relative imports only: a second copy of the package, loaded under
    # another name, must not pick up modules of the first
    alias = "simplex_gibbs_alias"
    before = {name for name in sys.modules if name.startswith("simplex_gibbs.")}
    spec = importlib.util.spec_from_file_location(
        alias, PACKAGE_DIR / "__init__.py", submodule_search_locations=[str(PACKAGE_DIR)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    try:
        spec.loader.exec_module(module)
        loaded = [m for name, m in sys.modules.items() if name.split(".")[0] == alias]
        strays = [
            f"{m.__name__}.{key} from {value.__module__}"
            for m in loaded
            for key, value in vars(m).items()
            if (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__.split(".")[0] == "simplex_gibbs"
        ]
        assert not strays, f"functions of the alias from the other copy: {strays}"
        got = module.run_epoch(3, 0, 0, 1).to_json_dict()
        assert got == simplex_gibbs.run_epoch(3, 0, 0, 1).to_json_dict()
        after = {name for name in sys.modules if name.startswith("simplex_gibbs.")}
        assert after == before
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == alias]:
            del sys.modules[name]
