"""Every refusal of the command line: its exit code, an empty stdout and its exact stderr.

Each case runs under both program names a user meets: ``python -m
qaoa_e3lin2.cli`` and the ``qaoa-e3lin2`` console script (``argv[0]`` as
``perfbench/run.py``'s entry sets it). All cases of one name run in one fresh
interpreter, which sets ``__main__.__package__`` and ``argv[0]`` as that way
of starting does, so the program name is found as it is in use.

A usage error prints the command's usage line and a pointer to its help
before the error; an output file that cannot be written, a missing option
value and a value given to a flag print the error line alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qaoa_e3lin2
from qaoa_e3lin2.instance import generate_random, serialize

PROGRAMS = {"module": "python -m qaoa_e3lin2.cli", "script": "qaoa-e3lin2"}

#: Commands whose usage line ends in the instance argument.
TAKES_PATH = {"eval", "scan", "sample", "typical"}

USAGE, PLAIN = "usage", "plain"

CASES = [
    # every out-of-range option
    (["gen", "-n", "9", "-m", "7", "-D", "2", "--seed", "-1", "-o", "x.e3lin2"], USAGE,
     "Invalid value for '--seed': -1 is not in the range x>=0."),
    (["eval", "small.e3lin2", "--gamma", "0.3", "--seed", "-1"], USAGE,
     "Invalid value for '--seed': -1 is not in the range x>=0."),
    (["eval", "small.e3lin2", "--gamma", "0.3", "--mc-samples", "0"], USAGE,
     "Invalid value for '--mc-samples': 0 is not in the range x>=1."),
    (["scan", "small.e3lin2", "--seed", "-1"], USAGE,
     "Invalid value for '--seed': -1 is not in the range x>=0."),
    (["scan", "small.e3lin2", "--mode", "mc", "--seed", "-1"], USAGE,
     "Invalid value for '--seed': -1 is not in the range x>=0."),
    (["scan", "small.e3lin2", "--mc-samples", "0"], USAGE,
     "Invalid value for '--mc-samples': 0 is not in the range x>=1."),
    (["sample", "small.e3lin2", "--gamma", "0.3", "--seed", "-1"], USAGE,
     "Invalid value for '--seed': -1 is not in the range x>=0."),
    (["typical", "small.e3lin2", "--seed", "-2"], USAGE,
     "Invalid value for '--seed': -2 is not in the range x>=0."),
    (["sample", "small.e3lin2", "--gamma", "0.3", "--samples", "abc"], USAGE,
     "Invalid value for '--samples': 'abc' is not a positive integer"),
    (["sample", "small.e3lin2", "--gamma", "0.3", "--samples", "0"], USAGE,
     "Invalid value for '--samples': '0' is not a positive integer"),
    (["sample", "small.e3lin2", "--gamma", "0.3", "--samples", "-3"], USAGE,
     "Invalid value for '--samples': '-3' is not a positive integer"),
    (["sample", "small.e3lin2", "--gamma", "0.3", "--samples", "2.5"], USAGE,
     "Invalid value for '--samples': '2.5' is not a positive integer"),
    (["sample", "small.e3lin2", "--gamma", "nan", "--samples", "5"], USAGE,
     "Invalid value for '--gamma': nan is not a finite number"),
    (["sample", "small.e3lin2", "--gamma", "0.2", "--beta", "inf"], USAGE,
     "Invalid value for '--beta': inf is not a finite number"),
    (["typical", "small.e3lin2", "--trials", "1"], USAGE,
     "Invalid value for '--trials': 1 is neither 0 nor at least 2"),
    (["typical", "small.e3lin2", "--trials", "-4"], USAGE,
     "Invalid value for '--trials': -4 is neither 0 nor at least 2"),
    (["eval", "small.e3lin2", "--gamma", "0.3", "--compare-statevector", "--n-max", "-1"], USAGE,
     "Invalid value for '--n-max': -1 is not in the range x>=1."),
    (["sample", "small.e3lin2", "--gamma", "0.3", "--n-max", "0"], USAGE,
     "Invalid value for '--n-max': 0 is not in the range x>=1."),
    (["eval", "small.e3lin2", "--gamma", "0.3", "--q-max", "-1"], USAGE,
     "Invalid value for '--q-max': -1 is not in the range x>=0."),
    (["scan", "small.e3lin2", "--q-max", "-1"], USAGE,
     "Invalid value for '--q-max': -1 is not in the range x>=0."),
    (["typical", "small.e3lin2", "--q-max", "-1"], USAGE,
     "Invalid value for '--q-max': -1 is not in the range x>=0."),
    # values that are no number, or no finite one
    (["gen", "-n", "abc", "-m", "7", "-D", "2", "-o", "x.e3lin2"], USAGE,
     "Invalid value for '-n': 'abc' is not a valid integer."),
    (["bounds", "-m", "1e3", "-D", "3"], USAGE,
     "Invalid value for '-m': '1e3' is not a valid integer."),
    (["typical", "small.e3lin2", "--trials", "x"], USAGE,
     "Invalid value for '--trials': 'x' is not a valid integer."),
    (["eval", "small.e3lin2", "--gamma", "abc"], USAGE,
     "Invalid value for '--gamma': 'abc' is not a valid float."),
    (["eval", "small.e3lin2", "--gamma=abc"], USAGE,
     "Invalid value for '--gamma': 'abc' is not a valid float."),
    (["eval", "small.e3lin2", "--gamma", "nan"], USAGE,
     "Invalid value for '--gamma': nan is not a finite number"),
    (["eval", "small.e3lin2", "--gamma", "-inf"], USAGE,
     "Invalid value for '--gamma': -inf is not a finite number"),
    (["eval", "small.e3lin2", "--gamma", "1e400"], USAGE,
     "Invalid value for '--gamma': inf is not a finite number"),
    (["typical", "small.e3lin2", "--gamma", "nan"], USAGE,
     "Invalid value for '--gamma': 'nan' is not a finite number"),
    (["gen", "-n9", "-m", "7", "-D", "2", "--seed=-1", "-o", "x.e3lin2"], USAGE,
     "Invalid value for '--seed': -1 is not in the range x>=0."),
    # every missing required option and argument
    (["gen", "-m", "7", "-D", "2", "-o", "x.e3lin2"], USAGE, "Missing option '-n'."),
    (["gen", "-n", "9", "-D", "2", "-o", "x.e3lin2"], USAGE, "Missing option '-m'."),
    (["gen", "-n", "9", "-m", "7", "-o", "x.e3lin2"], USAGE, "Missing option '-D' / '--d-bound'."),
    (["gen", "-n", "9", "-m", "7", "-D", "2"], USAGE, "Missing option '-o' / '--output'."),
    (["eval", "small.e3lin2"], USAGE, "Missing option '--gamma'."),
    (["sample", "small.e3lin2"], USAGE, "Missing option '--gamma'."),
    (["bounds", "-D", "3"], USAGE, "Missing option '-m'."),
    (["bounds", "-m", "10"], USAGE, "Missing option '-D' / '--d-bound'."),
    (["eval", "--gamma", "0.3"], USAGE, "Missing argument 'INSTANCE_PATH'."),
    (["scan", "-o", "x.json"], USAGE, "Missing argument 'INSTANCE_PATH'."),
    # instance paths
    (["eval", "missing.e3lin2", "--gamma", "0.3"], USAGE,
     "Invalid value for 'INSTANCE_PATH': File 'missing.e3lin2' does not exist."),
    (["scan", "missing.e3lin2"], USAGE,
     "Invalid value for 'INSTANCE_PATH': File 'missing.e3lin2' does not exist."),
    (["eval", "sub", "--gamma", "0.3"], USAGE,
     "Invalid value for 'INSTANCE_PATH': File 'sub' is a directory."),
    (["scan", "bad.e3lin2"], USAGE, "bad.e3lin2: bad token in '0 1 +3 0', line 3"),
    # choices
    (["eval", "small.e3lin2", "--gamma", "0.3", "--mode", "fast"], USAGE,
     "Invalid value for '--mode': 'fast' is not one of 'exact', 'auto', 'mc'."),
    (["scan", "small.e3lin2", "--mode", "--seed"], USAGE,
     "Invalid value for '--mode': '--seed' is not one of 'exact', 'auto', 'mc'."),
    (["scan", "small.e3lin2", "--format", "xml"], USAGE,
     "Invalid value for '--format': 'xml' is not one of 'json', 'csv'."),
    (["gen", "-n", "9", "-m", "7", "-D", "2", "--sign-mode", "odd", "-o", "x.e3lin2"], USAGE,
     "Invalid value for '--sign-mode': 'odd' is not one of 'uniform-random', 'all-zero-rhs'."),
    # combinations and inputs the library refuses
    (["eval", "small.e3lin2", "--gamma", "0.3", "--compare-statevector", "--format", "csv"], USAGE,
     "--compare-statevector has no CSV form; drop it or use --format json"),
    (["sample", "one.e3lin2", "--gamma", "0.2"], USAGE,
     "Invalid value for '--samples': \"auto\" is ceil(m ln m), 0 shots at m=1; give an explicit count"),
    (["typical", "big.e3lin2"], USAGE, "m=24 too large for exhaustive ensemble (max 20)"),
    (["gen", "-n", "10", "-m", "40", "-D", "1", "-o", "x.e3lin2"], USAGE,
     "120 variable slots needed but only 20 available (n=10, m=40, D=1)"),
    (["bounds", "-m", "0", "-D", "3"], USAGE, "m must be >= 1, got 0"),
    (["bounds", "-m", "10", "-D", "0"], USAGE, "d_bound must be >= 1, got 0"),
    # output files
    (["gen", "-n", "5", "-m", "3", "-D", "1", "-o", "nodir/out"], PLAIN,
     "cannot write nodir/out: No such file or directory"),
    (["eval", "small.e3lin2", "--gamma", "0.3", "-o", "nodir/out"], PLAIN,
     "cannot write nodir/out: No such file or directory"),
    (["eval", "small.e3lin2", "--gamma", "0.3", "-o", "sub"], USAGE,
     "Invalid value for '-o' / '--output': File 'sub' is a directory."),
    (["bounds", "-m", "10", "-D", "3", "--format", "csv", "-o", "sub"], USAGE,
     "Invalid value for '-o' / '--output': File 'sub' is a directory."),
    # the shape of the command line
    (["scan", "small.e3lin2", "extra"], USAGE, "Got unexpected extra argument (extra)"),
    (["scan", "small.e3lin2", "a", "b"], USAGE, "Got unexpected extra arguments (a b)"),
    (["eval", "small.e3lin2", "--gamma"], PLAIN, "Option '--gamma' requires an argument."),
    (["eval", "small.e3lin2", "--gamma", "0.3", "--compare-statevector=1"], PLAIN,
     "Option '--compare-statevector' does not take a value."),
]

#: Unknown names: exit 2 and a last line naming the token; the text may suggest a name.
UNKNOWN = [
    (["scan", "small.e3lin2", "--bogus"], "--bogus"),
    (["scan", "small.e3lin2", "-h"], "-h"),
    (["frobnicate"], "frobnicate"),
    (["--bogus"], "--bogus"),
]

DRIVER = """
import contextlib, io, json, sys
from qaoa_e3lin2 import cli
form, cases = json.load(sys.stdin)
if form == "module":
    sys.modules["__main__"].__package__ = "qaoa_e3lin2"
    sys.argv[0] = cli.__file__
else:
    sys.argv[0] = "qaoa-e3lin2"
results = []
for argv in cases:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""

FILES = {"one.e3lin2": "e3lin2 3 1\n0 1 2 1\n", "bad.e3lin2": "e3lin2 4 2\n0 1 2 0\n0 1 +3 0\n"}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    work = tmp_path_factory.mktemp("refusals")
    (work / "sub").mkdir()
    files = {
        **FILES,
        "small.e3lin2": serialize(generate_random(10, 8, 2, seed=3)),
        "big.e3lin2": serialize(generate_random(30, 24, 2, seed=0)),
    }
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")
    return work


@pytest.fixture(scope="module")
def outcomes(workdir):
    """{form: [(exit code, stdout, stderr) per case of CASES then UNKNOWN]}, one interpreter per form."""
    src = str(Path(qaoa_e3lin2.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argvs = [argv for argv, *_ in CASES] + [argv for argv, _ in UNKNOWN]
    before = sorted(p.name for p in workdir.iterdir())
    found = {}
    for form in PROGRAMS:
        result = subprocess.run(
            [sys.executable, "-c", DRIVER],
            input=json.dumps([form, argvs]),
            cwd=workdir, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        found[form] = json.loads(result.stdout)
    # a refusal writes no file, not even a temporary one
    assert sorted(p.name for p in workdir.iterdir()) == before
    return found


def expected_stderr(prog, argv, form, message):
    if form == PLAIN:
        return f"Error: {message}\n"
    command = argv[0]
    usage = f"{prog} {command} [OPTIONS]" + (" INSTANCE_PATH" if command in TAKES_PATH else "")
    return f"Usage: {usage}\nTry '{prog} {command} --help' for help.\n\nError: {message}\n"


@pytest.mark.parametrize("program", PROGRAMS)
@pytest.mark.parametrize(
    "index", range(len(CASES)), ids=[" ".join(argv) for argv, *_ in CASES]
)
def test_refusal_exits_two_with_its_exact_message(outcomes, program, index):
    argv, form, message = CASES[index]
    code, stdout, stderr = outcomes[program][index]
    assert (code, stdout) == (2, "")
    assert stderr == expected_stderr(PROGRAMS[program], argv, form, message)


@pytest.mark.parametrize("program", PROGRAMS)
@pytest.mark.parametrize("index", range(len(UNKNOWN)), ids=[" ".join(argv) for argv, _ in UNKNOWN])
def test_an_unknown_name_exits_two_naming_it(outcomes, program, index):
    argv, token = UNKNOWN[index]
    code, stdout, stderr = outcomes[program][len(CASES) + index]
    assert (code, stdout) == (2, "")
    last = stderr.splitlines()[-1]
    assert last.startswith("Error: ") and token in last
