"""Every tolerance, size budget and cap lives in ``errors``: no other module
defines one or writes a threshold as a literal, and only
``errors.require_budget`` raises ``TooLargeError``.  Only ``textfile`` splits
text into lines."""

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


def raised_names(path):
    """Names of the exceptions that ``raise`` statements anywhere in the module
    name, called or not, bare or as a module attribute."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.append(getattr(exc, "id", getattr(exc, "attr", None)))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_tolerance_outside_errors(path):
    stray = [name for name in module_level_names(path) if name.endswith(("_TOL", "_FLOOR"))]
    assert not stray, f"{path.name} defines {stray}; name tolerances in errors.py"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_threshold_literal_outside_errors(path):
    # a float literal this small is a threshold; its value belongs to an errors name
    tree = ast.parse(path.read_text(encoding="utf-8"))
    stray = sorted((node.lineno, node.value) for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, float)
                   and 0 < abs(node.value) < 1e-3)
    assert not stray, f"{path.name} writes thresholds {stray}; use the names in errors.py"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_budget_outside_errors(path):
    stray = [name for name in module_level_names(path) if name.endswith(("_CAP", "_BUDGET"))]
    assert not stray, f"{path.name} defines {stray}; name budgets in errors.py"
    assert "TooLargeError" not in raised_names(path), \
        f"{path.name} raises TooLargeError; call errors.require_budget"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_textfile_splits_lines(path):
    calls = [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "splitlines"]
    assert path.name == "textfile.py" or not calls, \
        f"{path.name} splits text into lines; read it through textfile.ContentLines"


def test_errors_defines_one_cap_and_two_budgets():
    names = module_level_names(PACKAGE / "errors.py")
    assert sorted(name for name in names if name.endswith(("_CAP", "_BUDGET"))) == [
        "ENTRY_BUDGET", "RELABELING_CAP", "WORK_BUDGET"]
    errors.require_budget(errors.WORK_BUDGET, errors.WORK_BUDGET, "at the budget")
    with pytest.raises(errors.TooLargeError, match="over the budget"):
        errors.require_budget(errors.ENTRY_BUDGET + 1, errors.ENTRY_BUDGET, "one over")


def test_errors_defines_five_tolerances():
    names = module_level_names(PACKAGE / "errors.py")
    assert sorted(name for name in names if name.endswith("_TOL")) == [
        "FACTOR_TOL", "INVARIANT_TOL", "ROUNDING_TOL", "SYMMETRIZE_TOL", "TIE_TOL"]
