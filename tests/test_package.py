import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import qaoa_e3lin2
from qaoa_e3lin2.instance import Instance

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in qaoa_e3lin2.__all__ if not hasattr(qaoa_e3lin2, name)]
    assert missing == []
    assert len(set(qaoa_e3lin2.__all__)) == len(qaoa_e3lin2.__all__)


def test_kernels_are_exported():
    kernels = ("term_parity", "parity_grid", "clause_parity", "code_bits", "clause_sum_blocks")
    assert set(kernels + ("sample_bits",)) <= set(qaoa_e3lin2.__all__)


def test_readme_names_resolve():
    """Every backticked ``<module>.<name>`` of the package, or ``Instance.<name>``, exists."""
    owners = {"qaoa_e3lin2": qaoa_e3lin2, "Instance": Instance}
    for info in pkgutil.iter_modules(qaoa_e3lin2.__path__):
        owners[info.name] = importlib.import_module(f"qaoa_e3lin2.{info.name}")
    named = re.findall(r"`(\w+)\.(\w+)`", README.read_text(encoding="utf-8"))
    checked = [(owner, name) for owner, name in named if owner in owners]
    assert checked
    assert [f"{o}.{n}" for o, n in checked if not hasattr(owners[o], n)] == []


def test_docstring_references_resolve():
    """Every ``:func:``, ``:class:`` or ``:meth:`` target in a docstring of the package exists.

    A target resolves when it is an attribute path of some package module or
    of some class defined in one.
    """
    modules = [qaoa_e3lin2] + [
        importlib.import_module(f"qaoa_e3lin2.{info.name}")
        for info in pkgutil.iter_modules(qaoa_e3lin2.__path__)
    ]
    classes = [obj for mod in modules for obj in vars(mod).values() if inspect.isclass(obj)]
    owners = modules + classes

    def resolves(owner, target):
        for part in target.split("."):
            owner = getattr(owner, part, None)
        return owner is not None

    targets = []
    for mod in modules:
        for node in ast.walk(ast.parse(inspect.getsource(mod))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node) or ""
                targets += re.findall(r":(?:func|class|meth):`([\w.]+)`", doc)
    assert targets
    assert [t for t in targets if not any(resolves(o, t) for o in owners)] == []
