"""The package resolves each export on first use, and each CLI command loads
only the modules it runs.

Each check that depends on what is already imported runs in a fresh
interpreter, since the rest of the suite imports every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qaoa_e3lin2

COMMAND_MODULES = {
    "qaoa_e3lin2.sampler",
    "qaoa_e3lin2.schedule",
    "qaoa_e3lin2.statevector",
    "qaoa_e3lin2.typical",
}


def fresh(code: str):
    """The JSON that ``code`` prints, run in a new interpreter on this checkout's package."""
    src = str(Path(qaoa_e3lin2.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(result.stdout)


def test_importing_the_cli_loads_no_command_module():
    loaded = fresh("import json, sys, qaoa_e3lin2.cli; print(json.dumps(sorted(sys.modules)))")
    assert "qaoa_e3lin2.instance" not in loaded
    assert COMMAND_MODULES.isdisjoint(loaded) and "qaoa_e3lin2.analytic" not in loaded
    assert [name for name in loaded if name == "click" or name.startswith("click.")] == []


def loaded_by(argv) -> list[str]:
    """The modules loaded in a fresh interpreter once ``main(argv)`` has run, its output discarded."""
    code = (
        "import contextlib, io, json, sys\n"
        "from qaoa_e3lin2.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    return fresh(code)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_bounds_loads_neither_analytic_nor_instance(fmt):
    loaded = loaded_by(["bounds", "-m", "100", "-D", "3", "--format", fmt])
    assert {"qaoa_e3lin2.schedule", "qaoa_e3lin2.typical"} <= set(loaded)
    assert "qaoa_e3lin2.analytic" not in loaded and "qaoa_e3lin2.instance" not in loaded
    assert ("csv" in loaded) == (fmt == "csv")


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "-n", "12", "-m", "14", "-D", "3", "--seed", "7", "-o", "{dir}/demo.e3lin2"],
        ["sample", "{golden}/demo.e3lin2", "--gamma", "0.2", "--samples", "50"],
    ],
)
def test_gen_and_sample_never_load_analytic(args, tmp_path):
    golden = Path(__file__).parent / "golden"
    loaded = loaded_by([a.format(dir=tmp_path, golden=golden) for a in args])
    assert "qaoa_e3lin2.instance" in loaded
    assert "qaoa_e3lin2.analytic" not in loaded


def test_importing_the_package_loads_no_module():
    loaded = fresh("import json, sys, qaoa_e3lin2; print(json.dumps(sorted(sys.modules)))")
    assert [name for name in loaded if name.startswith("qaoa_e3lin2.")] == []


def test_dir_lists_every_export_before_any_is_used():
    listed = fresh("import json, qaoa_e3lin2; print(json.dumps(dir(qaoa_e3lin2)))")
    assert set(qaoa_e3lin2.__all__) <= set(listed)
    assert listed == sorted(listed)


def test_star_import_binds_every_export_to_its_owner():
    code = (
        "import json\n"
        "from qaoa_e3lin2 import *\n"
        "import qaoa_e3lin2\n"
        "owners = {name: getattr(globals()[name], '__module__', None) for name in qaoa_e3lin2.__all__}\n"
        "print(json.dumps(owners))\n"
    )
    owners = fresh(code)
    assert sorted(owners) == qaoa_e3lin2.__all__
    # every export is a class or function defined in the module the table names
    assert owners == {
        name: f"qaoa_e3lin2.{module}" for name, module in qaoa_e3lin2._EXPORTS.items()
    }


def test_an_export_is_kept_after_its_first_use():
    from qaoa_e3lin2 import schedule

    assert qaoa_e3lin2.scan is schedule.scan
    assert vars(qaoa_e3lin2)["scan"] is schedule.scan


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'qaoa_e3lin2' has no attribute 'nope'"):
        qaoa_e3lin2.nope
    assert not hasattr(qaoa_e3lin2, "nope")


@pytest.mark.parametrize("args", [["scan"], ["eval", "--gamma", "0.2"]])
def test_scan_and_eval_of_a_file_never_load_numpy_ma(args):
    # numpy.ma costs about 13 ms to import, and np.unique on a void array loads it
    path = Path(__file__).parent / "golden" / "entangled.e3lin2"
    loaded = loaded_by([args[0], str(path), *args[1:]])
    assert "qaoa_e3lin2.instance" in loaded
    assert [name for name in loaded if name == "numpy.ma" or name.startswith("numpy.ma.")] == []
