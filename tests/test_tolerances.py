"""Every tolerance lives in ``errors``: no other module defines one."""

import ast
import pathlib

import pytest

from nsgames import errors

PACKAGE = pathlib.Path(errors.__file__).parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "errors.py")


def module_level_names(path):
    """Names bound by module-level assignments, including tuple targets."""
    targets = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets.append(node.target)
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name)]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_tolerance_outside_errors(path):
    stray = [name for name in module_level_names(path) if name.endswith(("_TOL", "_FLOOR"))]
    assert not stray, f"{path.name} defines {stray}; name tolerances in errors.py"


def test_errors_defines_four_tolerances():
    names = module_level_names(PACKAGE / "errors.py")
    assert sorted(name for name in names if name.endswith("_TOL")) == [
        "FACTOR_TOL", "INVARIANT_TOL", "ROUNDING_TOL", "SYMMETRIZE_TOL"]
