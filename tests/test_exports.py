"""Every public export resolves, so a deletion cannot leave a stale name;
every import is used, so a deletion cannot leave a stale import; and
every export is used by code that ships, so no public helper serves only
the tests."""

from __future__ import annotations

import ast
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import renyibounds

MODULES = ["renyibounds"] + sorted(
    info.name
    for info in pkgutil.walk_packages(renyibounds.__path__, "renyibounds.")
    if not info.name.endswith("__main__")  # importing it runs the CLI
)
PACKAGE = Path(renyibounds.__file__).resolve().parent
SOURCES = sorted(PACKAGE.rglob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []


def _exported(tree: ast.Module) -> list[str]:
    """The names in a module's __all__, if it sets one."""
    return [name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - set(_exported(tree))) == []


# what only the Monte Carlo engine may touch: the thread class and the CPU count
THREAD_ENGINE = PACKAGE / "montecarlo.py"
THREAD_NAMES = {"threading": {"Thread"}, "os": {"sched_getaffinity", "cpu_count"}}


@pytest.mark.parametrize("path", [p for p in SOURCES if p != THREAD_ENGINE],
                         ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_one_thread_engine(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.attr in THREAD_NAMES.get(node.value.id, ())):
            found.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module in THREAD_NAMES:
            found += [f"{node.module}.{a.name}" for a in node.names
                      if a.name in THREAD_NAMES[node.module] or a.name == "*"]
    assert found == []


def test_cli_loads_no_optional_modules():
    # the closed-form and Monte Carlo commands run on numpy and the stdlib;
    # scipy and mpmath are test-only oracles, and numpy.polynomial is large
    script = (
        "import json, sys\n"
        "from renyibounds.cli import main\n"
        "codes = [main(['laplace', '--gamma', '1', '--alpha', '3', '--mu', '0.1']),\n"
        "         main(['mc', 'argmax', '--paths', '100', '--mu', '0.1']),\n"
        "         main(['queue', '--C', '2', '--b', '1'])]\n"
        "mods = [m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')\n"
        "        or m.startswith('numpy.polynomial')]\n"
        "print(json.dumps({'codes': codes, 'modules': mods}), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=PACKAGE.parent, check=True)
    assert json.loads(proc.stderr.strip().splitlines()[-1]) == {"codes": [0, 0, 0], "modules": []}


BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
# the north star names the Gaussian study, whose sides and witness only its
# acceptance check and tests call
STUDY_ONLY = {"gaussian_rs_sides", "tightness_witness"}
# the alpha -> 1 and beta -> 0 limits of the divergence and of the
# risk-sensitive value: library primitives the limit dualities are tested with
LIMIT_PRIMITIVES = {"kl_discrete", "expectation"}


def test_every_export_ships():
    # a name in a submodule's __all__ must be loaded by code that ships: the
    # package outside its __init__ re-exports, or the benchmark harness
    assert BENCHMARKS.is_dir()
    shipping = [p for p in SOURCES if p.name != "__init__.py"]
    exported, loaded = {}, set()
    for path in shipping + sorted(BENCHMARKS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded.update(node.id if isinstance(node, ast.Name) else node.attr
                      for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
                      and isinstance(node.ctx, ast.Load))
        if path in shipping:
            exported.update(dict.fromkeys(_exported(tree), path.stem))
    unshipped = set(exported) - loaded - STUDY_ONLY - LIMIT_PRIMITIVES
    assert sorted(f"{exported[n]}.{n}" for n in unshipped) == []
