import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import entforge

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

EXPORTS = {
    "__version__",
    "MapParams",
    "ValidationError",
    "build_step_circuit",
    "evolve_circuit",
    "evolve_exact",
    "mixed_spectrum",
    "momentum_basis_state",
    "page_value",
    "pure_spectrum",
    "run_trajectories",
    "stats",
}


def readme_imports() -> set[str]:
    """Names of the README's ``from entforge import (...)`` block."""
    block = re.search(r"from entforge import \(([^)]*)\)", README.read_text()).group(1)
    return {name.strip() for name in block.split(",") if name.strip()}


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from entforge import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(entforge.__all__) == EXPORTS


def test_readme_imports_are_exported():
    names = readme_imports()
    assert names
    assert names <= set(entforge.__all__)


def unused_imports(source: str) -> set[str]:
    """Names a module imports but never reads; names in ``__all__`` count as read."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return imported - used


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom a import b, c\nc()\n"
    assert unused_imports(source) == {"os", "np", "b"}
    source = "from __future__ import annotations\nfrom a import b\n__all__ = ['b']\n"
    assert unused_imports(source) == set()


def test_no_module_imports_an_unused_name():
    paths = sorted((ROOT / "src" / "entforge").rglob("*.py")) + sorted(
        (ROOT / "tests").rglob("*.py")
    )
    assert paths
    unused = {p.relative_to(ROOT).as_posix(): unused_imports(p.read_text()) for p in paths}
    assert {name: names for name, names in unused.items() if names} == {}


def unread_private_names(sources: dict[str, str]) -> set[str]:
    """Module-level ``_name`` functions, classes and constants of ``sources``
    (module name -> text) that none of them reads.  A read is a loaded
    name, an attribute or an imported name; dunder names are exempt."""
    defined, read = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            defined |= {
                f"{module}.{n}" for n in names if n.startswith("_") and not n.startswith("__")
            }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names}
    return {name for name in defined if name.rsplit(".", 1)[1] not in read}


def test_unread_private_names_are_found():
    sources = {
        "a": "_LIMIT = 3\n_used: int = 1\n__all__ = []\ndef _helper():\n    return _used\n"
             "class _Orphan:\n    pass\n",
        "b": "from .a import _helper\nimport a\nx = a._LIMIT\n",
    }
    assert unread_private_names(sources) == {"a._Orphan"}
    assert unread_private_names({"c": "_gone = 1\n"}) == {"c._gone"}


def test_every_private_name_is_read():
    paths = sorted((ROOT / "src" / "entforge").rglob("*.py"))
    assert paths
    sources = {p.relative_to(ROOT).as_posix(): p.read_text() for p in paths}
    assert unread_private_names(sources) == set()


def test_benchmark_tracer_wraps_the_package(tmp_path):
    # perfbench's --trace 1 wraps entforge callables by name, so a rename
    # or deletion it relies on fails here rather than in a benchmark run
    script = (
        "import entforge\n"
        f"assert entforge.__file__.startswith({str(ROOT / 'src')!r}), entforge.__file__\n"
        "from entforge import cli\n"
        "from tracer import Tracer, install, layer_metrics\n"
        "tracer = Tracer()\n"
        "install(tracer)\n"
        "argv = ['noise-sweep', '--nq', '4', '--eps-grid', '3e-3', '--steps', '2',\n"
        "        '--realizations', '16', '--out', 'out']\n"
        "assert cli.main(argv) == 0\n"
        "metrics = layer_metrics(tracer)\n"
        "assert metrics['sawtooth.apply.calls'] == 16, metrics\n"
        "assert metrics['experiments.points'] == 1, metrics\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert run.returncode == 0, run.stderr
