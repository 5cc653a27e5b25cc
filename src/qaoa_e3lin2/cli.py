"""Deterministic command-line surface over the library.

Angle convention: every ``--gamma`` flag is the analytic-expectation angle,
the argument of ``objective_expectation``. Commands that actually prepare a
state (``sample``, ``eval --compare-statevector``) do so at ``-gamma`` with
mixing angle pi/4 unless overridden, and echo both angles.

All numeric output is rounded to 12 significant digits, every randomized
command carries an explicit seed (default 0, echoed), and files are written
atomically, so a fixed flag set reproduces byte-identical output. Exit
codes: 0 success, 2 invalid or infeasible input, 1 anything else.

Payloads and CSV tables come from the report dataclasses, each emitted as
its fields in declaration order (``_record``, ``_table``) after a short
header: ``eval`` prints an ``ExpectationReport`` with its ``ClauseTerm``
records, ``scan`` an ``AngleSchedule``, its ``ScanPoint`` curve and a
``GuaranteeReport``, ``sample`` a ``SampleReport`` and ``typical`` an
``EnsembleReport``. So a field is named once, in its dataclass. Only
``gen``, the ``best`` block of ``scan`` and the two labelled blocks of
``bounds`` are written out here, as no report holds their names.

The command line is read with the standard library's ``argparse``, and
``main(argv)`` returns the exit code. An option takes the next token as its
value whatever it looks like, so ``--gamma -1e-3`` reads as written. A
refusal prints ``Error: <message>`` to stderr, after the command's usage
line and a pointer to its ``--help`` unless an output file cannot be
written or an option lacks its value or is given one it does not take.

Only ``_caps`` loads with this module. A command imports ``instance`` when it
reads or writes an instance file, and ``analytic``, ``schedule``,
``typical``, ``sampler`` or ``statevector`` when it runs, so ``gen`` and
``sample`` never load ``analytic``, and ``bounds`` loads neither
``analytic`` nor ``instance``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import stat
import sys
import tempfile

import numpy as np

from . import _caps

#: Significant digits kept in every emitted float.
OUTPUT_DIGITS = 12


def _clean(obj):
    """Round floats to OUTPUT_DIGITS and strip numpy scalar types; a dataclass becomes its record."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.{OUTPUT_DIGITS}g}")
    if dataclasses.is_dataclass(obj):
        return _clean(_record(obj))
    return obj


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.{OUTPUT_DIGITS}g}"
    return str(_clean(value))


def _csv_text(header, rows) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def _csv_row(payload: dict, skip: int = 0) -> str:
    """One-row CSV of a flat payload: its keys after the first ``skip`` and their values."""
    header = list(payload)[skip:]
    return _csv_text(header, [[payload[k] for k in header]])


def _record(obj) -> dict:
    """A dataclass's fields in declaration order; unlike ``asdict``, nothing is copied."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _table(cls, records) -> str:
    """CSV with one column per field of ``cls`` and one row per record."""
    header = [f.name for f in dataclasses.fields(cls)]
    return _csv_text(header, [[getattr(r, k) for k in header] for r in records])


class _Refusal(Exception):
    """Invalid or infeasible input: exit code 2 and ``Error: <message>`` on stderr.

    ``usage`` puts the command's usage line and a pointer to its ``--help``
    before the message.
    """

    def __init__(self, message: str, usage: bool = True):
        super().__init__(message)
        self.usage = usage


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    except OSError as exc:
        # an output file that cannot be created is bad input
        raise _Refusal(f"cannot write {path}: {exc.strerror}", usage=False) from exc
    try:
        # mkstemp makes the file 0600; give it the mode open() would under the umask
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(fmt: str, out: str | None, payload: dict, csv_body=None) -> None:
    """Print the payload as JSON, or as ``csv_body()`` under ``--format csv``, or write it to ``out``."""
    text = csv_body() if fmt == "csv" else json.dumps(_clean(payload), indent=2) + "\n"
    if out:
        _write_atomic(out, text)
        text = f"wrote {out}\n"
    sys.stdout.write(text)
    sys.stdout.flush()


def _load_instance(path: str):
    from .instance import ParseError, parse

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse(text)
    except ParseError as exc:
        raise _Refusal(f"{path}: {exc}") from exc


# Value checks. Each takes the option's text (or its default) and raises
# ValueError with the reason, which the parser reports under the option's name.


def _integer(text) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a valid integer.") from None


def _at_least(low: int):
    def convert(text) -> int:
        value = _integer(text)
        if value < low:
            raise ValueError(f"{value} is not in the range x>={low}.")
        return value

    return convert


def _finite(value):
    """An angle as a finite float; the word "auto" passes through."""
    if value == "auto":
        return value
    try:
        angle = float(value)
    except ValueError:
        angle = math.nan
    if not math.isfinite(angle):
        raise ValueError(f"{value!r} is not a finite number")
    return angle


def _angle(text) -> float:
    """A number, then a finite one: ``nan`` is refused as the float it reads as."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a valid float.") from None
    return _finite(value)


def _positive_samples(value):
    """``--samples`` as a positive integer; the word "auto" passes through."""
    if value == "auto":
        return value
    try:
        samples = int(value)
    except ValueError:
        samples = 0
    if samples < 1:
        raise ValueError(f"{value!r} is not a positive integer")
    return samples


def _trials(text) -> int:
    """``--trials`` as 0 (every sign vector) or a Monte Carlo count of at least 2."""
    value = _integer(text)
    if value == 0 or value >= 2:
        return value
    raise ValueError(f"{value} is neither 0 nor at least 2")


def _choice(options):
    def convert(text) -> str:
        if text not in options:
            raise ValueError(f"{text!r} is not one of {', '.join(map(repr, options))}.")
        return text

    return convert


def _file(text: str, output: bool = False) -> str:
    """A readable file that is no directory; an ``output`` may be missing, and must be writable."""
    try:
        mode = os.stat(text).st_mode
    except OSError:
        if output:
            return text
        raise ValueError(f"File {text!r} does not exist.") from None
    if stat.S_ISDIR(mode):
        raise ValueError(f"File {text!r} is a directory.")
    if not os.access(text, os.R_OK):
        raise ValueError(f"File {text!r} is not readable.")
    if output and not os.access(text, os.W_OK):
        raise ValueError(f"File {text!r} is not writable.")
    return text


def _output_file(text: str) -> str:
    return _file(text, output=True)


class _Parser(argparse.ArgumentParser):
    """One command's options, read the way the refusal messages name them.

    A value is checked as it is read, in command-line order; then a missing
    instance path, each missing required option in declaration order, and
    left-over tokens are refused.
    """

    def __init__(self, prog: str, description: str):
        super().__init__(
            prog=prog, usage="%(prog)s [OPTIONS]", description=description,
            add_help=False, allow_abbrev=False,
        )
        self.valued: set[str] = set()
        self.flags = {"--help"}
        self.required: list[tuple[str, str]] = []  # (dest, name as messages quote it)
        self.add_argument("--help", action="help", help="show this message and exit")

    def instance_path(self) -> None:
        self.usage += " INSTANCE_PATH"
        check = self._checked("'INSTANCE_PATH'", _file)
        self.add_argument("instance_path", nargs="?", metavar="INSTANCE_PATH", type=check, help="instance file")

    def option(self, *flags: str, convert=None, choices=(), required: bool = False, **kwargs) -> None:
        """An option taking a value, checked by ``convert`` or one of ``choices``."""
        if choices:
            convert, kwargs["metavar"] = _choice(choices), f"[{'|'.join(choices)}]"
        name = " / ".join(f"'{flag}'" for flag in flags)
        action = self.add_argument(*flags, type=self._checked(name, convert), **kwargs)
        self.valued.update(flags)
        if required:
            self.required.append((action.dest, name))

    def flag(self, flag: str, help: str) -> None:
        self.add_argument(flag, action="store_true", help=help)
        self.flags.add(flag)

    @staticmethod
    def _checked(name: str, convert):
        def check(text):
            try:
                return convert(text)
            except ValueError as exc:
                raise _Refusal(f"Invalid value for {name}: {exc}") from None

        return check

    def error(self, message: str):
        raise _Refusal(message)

    def _joined(self, argv: list[str]) -> list[str]:
        """``argv`` with each option's value joined to it, so that no value reads as an option."""
        tokens, rest = [], iter(argv)
        for token in rest:
            if token == "--":
                tokens += [token, *rest]
            elif token in self.valued:
                value = next(rest, None)
                if value is None:
                    raise _Refusal(f"Option '{token}' requires an argument.", usage=False)
                tokens.append(f"{token}={value}")
            elif "=" in token and token.partition("=")[0] in self.flags:
                raise _Refusal(f"Option '{token.partition('=')[0]}' does not take a value.", usage=False)
            else:
                tokens.append(token)
        return tokens

    def read(self, argv: list[str]) -> dict | None:
        """The command's arguments by name; None once ``--help`` has printed the help."""
        try:
            namespace, extra = self.parse_known_args(self._joined(argv))
        except SystemExit:  # the help action exits after printing; error() never does
            return None
        unknown = [token for token in extra if token.startswith("-") and token != "-"]
        if unknown:
            raise _Refusal(f"No such option '{unknown[0].split('=', 1)[0]}'.")
        options = vars(namespace)
        if "instance_path" in options and options["instance_path"] is None:
            raise _Refusal("Missing argument 'INSTANCE_PATH'.")
        for dest, name in self.required:
            if options[dest] is None:
                raise _Refusal(f"Missing option {name}.")
        if extra:
            plural = "s" if len(extra) > 1 else ""
            raise _Refusal(f"Got unexpected extra argument{plural} ({' '.join(extra)})")
        return options


def _output_options(p: _Parser) -> None:
    p.option(
        "-o", "--output", dest="out", convert=_output_file, metavar="PATH",
        help="write the report to a file (atomic) instead of stdout",
    )
    p.option(
        "--format", dest="fmt", choices=("json", "csv"), default="json",
        help="report format [default: %(default)s]",
    )


def _engine_options(p: _Parser) -> None:
    """``--mode``, ``--mc-samples``, ``--seed`` and ``--q-max`` of ``eval`` and ``scan``."""
    p.option(
        "--mode", choices=_caps.MODES, default="auto", help="clause routes [default: %(default)s]",
    )
    p.option(
        "--mc-samples", convert=_at_least(1), default=_caps.MC_SAMPLES,
        help="samples per Monte Carlo clause [default: %(default)s]",
    )
    p.option("--seed", convert=_at_least(0), default=0, help="seed [default: %(default)s]")
    p.option("--q-max", convert=_at_least(0), help="exact-enumeration support cap")


def _gen_options(p: _Parser) -> None:
    from .instance import SIGN_MODES

    p.option("-n", convert=_integer, required=True, help="number of variables")
    p.option("-m", convert=_integer, required=True, help="number of equations")
    p.option(
        "-D", "--d-bound", convert=_integer, required=True,
        help="occurrence slack: every variable appears in at most D+1 equations",
    )
    p.option(
        "--sign-mode", choices=SIGN_MODES, default="uniform-random",
        help="right-hand sides [default: %(default)s]",
    )
    p.option("--seed", convert=_at_least(0), default=0, help="seed [default: %(default)s]")
    p.option(
        "-o", "--output", dest="out", convert=_output_file, required=True, metavar="PATH",
        help="instance file to write",
    )


def _gen(n, m, d_bound, sign_mode, seed, out):
    """Generate a random bounded-occurrence instance file."""
    from .instance import RetryExhaustedError, generate_random, serialize

    try:
        inst = generate_random(n=n, m=m, d_bound=d_bound, sign_mode=sign_mode, seed=seed)
    except RetryExhaustedError as exc:
        raise _Refusal(str(exc)) from exc
    _write_atomic(out, serialize(inst))
    payload = {
        "command": "gen",
        "path": out,
        "n": inst.n,
        "m": inst.m,
        "requested_d_bound": d_bound,
        "derived_d_bound": inst.d_bound,
        "sign_mode": sign_mode,
        "seed": seed,
    }
    _emit("json", None, payload)


def _eval_options(p: _Parser) -> None:
    p.instance_path()
    p.option("--gamma", convert=_angle, required=True, help="analytic-convention angle")
    _engine_options(p)
    p.flag("--compare-statevector", "also evaluate via dense state preparation at -gamma, beta=pi/4")
    p.option("--n-max", convert=_at_least(1), help="statevector qubit cap")
    _output_options(p)


def _eval(instance_path, gamma, mode, mc_samples, seed, q_max, compare_statevector, n_max, fmt, out):
    """Per-clause and total objective expectation W(gamma)."""
    if compare_statevector and fmt == "csv":
        raise _Refusal("--compare-statevector has no CSV form; drop it or use --format json")
    from . import analytic

    inst = _load_instance(instance_path)
    report = analytic.objective_expectation(
        inst, gamma, mode=mode, q_max=q_max, mc_samples=mc_samples, seed=seed
    )
    payload = {"command": "eval", "instance": instance_path, **_record(report)}
    if compare_statevector:
        from . import statevector

        params = statevector.AngleParams(gamma=-gamma, beta=math.pi / 4)
        sv_value = statevector.expectation(statevector.prepare(inst, params, n_max=n_max), inst)
        payload["statevector"] = {
            "state_gamma": -gamma,
            "beta": math.pi / 4,
            "expectation": sv_value,
            "difference": abs(sv_value - report.total),
        }
    _emit(fmt, out, payload, lambda: _table(analytic.ClauseTerm, report.terms))


def _scan_options(p: _Parser) -> None:
    p.instance_path()
    _engine_options(p)
    _output_options(p)


def _scan(instance_path, mode, mc_samples, seed, q_max, fmt, out):
    """Evaluate the full gamma grid and report the best node plus bounds."""
    from . import schedule

    inst = _load_instance(instance_path)
    result = schedule.scan(inst, mode=mode, q_max=q_max, mc_samples=mc_samples, seed=seed)
    report = schedule.guarantee(inst.m, result.schedule.d_bound)
    payload = {
        "command": "scan",
        "instance": instance_path,
        "n": inst.n,
        "m": inst.m,
        "d_bound": inst.d_bound,
        "mode": mode,
        "mc_samples": mc_samples,
        "seed": seed,
        "schedule": result.schedule,
        "curve": result.points,
        "best": {
            "r": result.best_r,
            "sign": result.best_sign,
            "gamma": result.best_gamma,
            "value": result.best_value,
        },
        "guarantee": report,
    }
    _emit(fmt, out, payload, lambda: _table(schedule.ScanPoint, result.points))


def _sample_options(p: _Parser) -> None:
    p.instance_path()
    p.option(
        "--gamma", convert=_angle, required=True,
        help="analytic-convention angle; the state is prepared at -gamma",
    )
    p.option("--beta", convert=_angle, default=math.pi / 4, help="mixing angle [default: pi/4]")
    p.option(
        "--samples", convert=_positive_samples, default="auto",
        help='shot count, or "auto" for ceil(m ln m) [default: %(default)s]',
    )
    p.option("--seed", convert=_at_least(0), default=0, help="seed [default: %(default)s]")
    p.option("--n-max", convert=_at_least(1), help="statevector qubit cap")
    _output_options(p)


def _sample(instance_path, gamma, beta, samples, seed, n_max, fmt, out):
    """Measure shots and score satisfied equations per string."""
    from . import sampler

    inst = _load_instance(instance_path)
    if samples == "auto" and inst.m < 2:
        message = f'"auto" is ceil(m ln m), 0 shots at m={inst.m}; give an explicit count'
        raise _Refusal(f"Invalid value for '--samples': {message}")
    count = sampler.recommended_samples(inst.m) if samples == "auto" else samples
    rep = sampler.run(inst, gamma=-gamma, beta=beta, samples=count, seed=seed, n_max=n_max)
    record = _record(rep)
    record["best_string"] = rep.best_string.to_string()
    payload = {
        "command": "sample",
        "instance": instance_path,
        "n": inst.n,
        "m": inst.m,
        "d_bound": inst.d_bound,
        # the report's gamma is the state's angle; the payload's is the analytic one
        "gamma": record.pop("analytic_gamma"),
        "state_gamma": record.pop("gamma"),
        **record,
    }
    _emit(fmt, out, payload, lambda: _csv_row(payload, skip=5))


def _typical_options(p: _Parser) -> None:
    p.instance_path()
    p.option(
        "--gamma", convert=_finite, default="auto",
        help='angle, or "auto" for 1/sqrt(3 D) at the derived occurrence bound [default: %(default)s]',
    )
    p.option(
        "--trials", convert=_trials, default=0,
        help="Monte Carlo trials; 0 enumerates all sign assignments (m <= 20) [default: %(default)s]",
    )
    p.option("--seed", convert=_at_least(0), default=0, help="seed [default: %(default)s]")
    p.option("--q-max", convert=_at_least(0), help="exact-enumeration support cap")
    _output_options(p)


def _typical(instance_path, gamma, trials, seed, q_max, fmt, out):
    """Sign-ensemble mean of W over the instance's triple collection."""
    from . import typical

    inst = _load_instance(instance_path)
    g = typical.optimal_gamma_typical(max(1, inst.d_bound)) if gamma == "auto" else gamma
    if trials == 0:
        # the exhaustive ensemble draws nothing; the seed given is echoed all the same
        rep = typical.ensemble_mean_exhaustive(inst.triple_array, g, q_max=q_max)
        rep = dataclasses.replace(rep, seed=seed)
    else:
        rep = typical.ensemble_mean_mc(inst.triple_array, g, trials, seed=seed, q_max=q_max)
    payload = {"command": "typical", "instance": instance_path, **_record(rep)}
    _emit(fmt, out, payload, lambda: _csv_row(payload, skip=2))


def _bounds_options(p: _Parser) -> None:
    p.option("-m", convert=_integer, required=True, help="number of equations")
    p.option("-D", "--d-bound", convert=_integer, required=True, help="occurrence slack")
    _output_options(p)


def _bounds(m, d_bound, fmt, out):
    """Worst-case and sign-ensemble guarantees for an (m, D) family."""
    from . import schedule, typical

    report = schedule.guarantee(m, d_bound)
    t_gamma = typical.optimal_gamma_typical(d_bound)
    advantage = typical.typical_guarantee(m, d_bound)
    payload = {
        "command": "bounds",
        "m": m,
        "d_bound": d_bound,
        "k": report.k,
        "worst_case": {
            "label": "rigorous lower bound on the best grid-scan value",
            "grid_bound": report.grid_bound,
            "grid_bound_vacuous": report.grid_bound_vacuous,
            "remainder_per_clause": report.remainder_per_clause,
            "asymptotic_bound": report.asymptotic_bound,
            "asymptotic_note": report.asymptotic_note,
        },
        "typical": {
            "label": "sign-ensemble mean advantage at gamma = 1/sqrt(3 D)",
            "gamma": t_gamma,
            "advantage": advantage,
            "predicted_satisfied": m / 2.0 + advantage,
        },
    }

    def csv_body():
        # one row: the payload flattened without its text fields, typical keys prefixed
        cells = {k: v for k, v in payload.items() if not isinstance(v, (str, dict))}
        for block, prefix in (("worst_case", ""), ("typical", "typical_")):
            cells.update({prefix + k: v for k, v in payload[block].items() if not isinstance(v, str)})
        return _csv_row(cells)

    _emit(fmt, out, payload, csv_body)


#: Command name -> (adds its arguments to a parser, runs it), in help order.
_COMMANDS = {
    "bounds": (_bounds_options, _bounds),
    "eval": (_eval_options, _eval),
    "gen": (_gen_options, _gen),
    "sample": (_sample_options, _sample),
    "scan": (_scan_options, _scan),
    "typical": (_typical_options, _typical),
}

_SUMMARY = "Evaluate, bound, and sample level-1 parity-constraint optimization."


def _program_name() -> str:
    """``python -m <module>`` when started with ``-m``, else the file name ``argv[0]`` ends in."""
    package = getattr(sys.modules.get("__main__"), "__package__", None)
    path = sys.argv[0]
    if not package:
        return os.path.basename(path)
    name = os.path.splitext(os.path.basename(path))[0]
    module = package if name == "__main__" else f"{package}.{name}"
    return f"python -m {module.lstrip('.')}"


def _help(prog: str) -> str:
    rows = "".join(f"  {name:<8} {run.__doc__}\n" for name, (_, run) in _COMMANDS.items())
    return (
        f"usage: {prog} [--help] COMMAND [ARGS]...\n\n{_SUMMARY}\n\ncommands:\n{rows}\n"
        f"Run '{prog} COMMAND --help' for the options of a command.\n"
    )


def _run(argv: list[str] | None, prog: str | None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    prog = prog or _program_name()
    usage, name = f"{prog} [OPTIONS] COMMAND [ARGS]...", prog
    try:
        if not argv or argv[0] == "--help":
            # without a command the help is a refusal, as a usage error is
            (sys.stdout if argv else sys.stderr).write(_help(prog))
            return 0 if argv else 2
        if argv[0] not in _COMMANDS:
            what = "option" if argv[0].startswith("-") else "command"
            raise _Refusal(f"No such {what} '{argv[0]}'.")
        add_options, run = _COMMANDS[argv[0]]
        parser = _Parser(f"{prog} {argv[0]}", run.__doc__)
        add_options(parser)
        usage, name = parser.usage % {"prog": parser.prog}, parser.prog
        options = parser.read(argv[1:])
        if options is None:
            return 0
        try:
            run(**options)
        except ValueError as exc:  # InfeasibleError, ParseError and every domain check
            raise _Refusal(str(exc)) from exc
    except _Refusal as exc:
        if exc.usage:
            sys.stderr.write(f"Usage: {usage}\nTry '{name} --help' for help.\n\n")
        sys.stderr.write(f"Error: {exc}\n")
        return 2
    except BrokenPipeError:
        # the reader left (``| head``); point stdout at nothing so the final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except KeyboardInterrupt:
        sys.stderr.write("\nAborted!\n")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` by default) and return its exit code."""
    return _run(argv, None)


# ``perfbench/tracer.py`` runs a command as ``main.main(args=..., prog_name=...)``, which exits
# with the code; it calls ``_run`` so that the tracer's wrapper of ``main`` is not entered again
main.main = lambda args=None, prog_name=None: sys.exit(_run(args, prog_name))


if __name__ == "__main__":
    sys.exit(main())
