import importlib
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
    kernels = ("term_parity", "parity_grid", "clause_parity", "code_bits", "objective_grid")
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
