import re
from pathlib import Path

import entforge

README = Path(__file__).resolve().parents[1] / "README.md"

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
