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

Only ``instance`` and ``_caps`` load with this module; a command imports
``analytic``, ``schedule``, ``typical``, ``sampler`` or ``statevector`` when
it runs, so ``gen`` and ``sample`` never load ``analytic``.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import math
import os
import tempfile

import click
import numpy as np

from . import _caps
from .instance import (
    SIGN_MODES,
    Assignment,
    InfeasibleError,
    ParseError,
    RetryExhaustedError,
    generate_random,
    parse,
    serialize,
)

#: Significant digits kept in every emitted float.
OUTPUT_DIGITS = 12


def _clean(obj):
    """Round floats to OUTPUT_DIGITS and strip numpy scalar types.

    An Assignment becomes its bit string, and any other dataclass its record.
    """
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
    if isinstance(obj, Assignment):
        return obj.to_string()
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


class _OutputError(click.ClickException):
    exit_code = 2  # an output file that cannot be created is bad input


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc.strerror}") from exc
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


def _emit(fmt: str, out: str | None, payload: dict, csv_body: str | None = None) -> None:
    text = csv_body if fmt == "csv" else json.dumps(_clean(payload), indent=2) + "\n"
    if out:
        _write_atomic(out, text)
        click.echo(f"wrote {out}")
    else:
        click.echo(text, nl=False)


def _load_instance(path: str):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse(text)
    except ParseError as exc:
        raise click.UsageError(f"{path}: {exc}")


def _friendly(fn):
    """Map domain validation failures onto exit code 2."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (InfeasibleError, RetryExhaustedError, ParseError, ValueError) as exc:
            raise click.UsageError(str(exc))

    return wrapper


def _finite(ctx, param, value):
    """An angle option as a finite float; the word "auto" passes through."""
    if value == "auto":
        return value
    try:
        angle = float(value)
    except ValueError:
        angle = math.nan
    if not math.isfinite(angle):
        raise click.BadParameter(f"{value!r} is not a finite number")
    return angle


def _positive_samples(ctx, param, value):
    """``--samples`` as a positive integer; the word "auto" passes through."""
    if value == "auto":
        return value
    try:
        samples = int(value)
    except ValueError:
        samples = 0
    if samples < 1:
        raise click.BadParameter(f"{value!r} is not a positive integer")
    return samples


def _trials(ctx, param, value):
    """``--trials`` as 0 (every sign vector) or a Monte Carlo count of at least 2."""
    if value == 0 or value >= 2:
        return value
    raise click.BadParameter(f"{value} is neither 0 nor at least 2")


def _format_options(fn):
    fn = click.option(
        "-o",
        "--output",
        "out",
        type=click.Path(dir_okay=False, writable=True),
        default=None,
        help="write the report to a file (atomic) instead of stdout",
    )(fn)
    fn = click.option(
        "--format",
        "fmt",
        type=click.Choice(["json", "csv"]),
        default="json",
        show_default=True,
    )(fn)
    return fn


@click.group()
def main():
    """Evaluate, bound, and sample level-1 parity-constraint optimization."""


@main.command(name="gen")
@click.option("-n", "n", type=int, required=True, help="number of variables")
@click.option("-m", "m", type=int, required=True, help="number of equations")
@click.option(
    "-D",
    "--d-bound",
    "d_bound",
    type=int,
    required=True,
    help="occurrence slack: every variable appears in at most D+1 equations",
)
@click.option(
    "--sign-mode",
    type=click.Choice(list(SIGN_MODES)),
    default="uniform-random",
    show_default=True,
)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option(
    "-o",
    "--output",
    "out",
    type=click.Path(dir_okay=False, writable=True),
    required=True,
    help="instance file to write",
)
@_friendly
def cmd_gen(n, m, d_bound, sign_mode, seed, out):
    """Generate a random bounded-occurrence instance file."""
    inst = generate_random(n=n, m=m, d_bound=d_bound, sign_mode=sign_mode, seed=seed)
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


@main.command(name="eval")
@click.argument("instance_path", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--gamma",
    type=float,
    required=True,
    callback=_finite,
    help="analytic-convention angle",
)
@click.option("--mode", type=click.Choice(_caps.MODES), default="auto", show_default=True)
@click.option(
    "--mc-samples", type=click.IntRange(min=1), default=_caps.MC_SAMPLES, show_default=True
)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--q-max", type=click.IntRange(min=0), help="exact-enumeration support cap")
@click.option(
    "--compare-statevector",
    is_flag=True,
    help="also evaluate via dense state preparation at -gamma, beta=pi/4",
)
@click.option("--n-max", type=click.IntRange(min=1), help="statevector qubit cap")
@_format_options
@_friendly
def cmd_eval(
    instance_path, gamma, mode, mc_samples, seed, q_max, compare_statevector, n_max, fmt, out
):
    """Per-clause and total objective expectation W(gamma)."""
    if compare_statevector and fmt == "csv":
        raise click.UsageError("--compare-statevector has no CSV form; drop it or use --format json")
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
    _emit(fmt, out, payload, _table(analytic.ClauseTerm, report.terms) if fmt == "csv" else None)


@main.command(name="scan")
@click.argument("instance_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(_caps.MODES), default="auto", show_default=True)
@click.option(
    "--mc-samples", type=click.IntRange(min=1), default=_caps.MC_SAMPLES, show_default=True
)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--q-max", type=click.IntRange(min=0), help="exact-enumeration support cap")
@_format_options
@_friendly
def cmd_scan(instance_path, mode, mc_samples, seed, q_max, fmt, out):
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
    _emit(fmt, out, payload, _table(schedule.ScanPoint, result.points) if fmt == "csv" else None)


@main.command(name="sample")
@click.argument("instance_path", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--gamma",
    type=float,
    required=True,
    callback=_finite,
    help="analytic-convention angle; the state is prepared at -gamma",
)
@click.option(
    "--beta", type=float, default=math.pi / 4, callback=_finite, help="mixing angle [default: pi/4]"
)
@click.option(
    "--samples",
    default="auto",
    show_default=True,
    callback=_positive_samples,
    help='shot count, or "auto" for ceil(m ln m)',
)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--n-max", type=click.IntRange(min=1), help="statevector qubit cap")
@_format_options
@_friendly
def cmd_sample(instance_path, gamma, beta, samples, seed, n_max, fmt, out):
    """Measure shots and score satisfied equations per string."""
    from . import sampler

    inst = _load_instance(instance_path)
    if samples == "auto" and inst.m < 2:
        message = f'"auto" is ceil(m ln m), 0 shots at m={inst.m}; give an explicit count'
        raise click.BadParameter(message, param_hint="'--samples'")
    count = sampler.recommended_samples(inst.m) if samples == "auto" else samples
    rep = sampler.run(inst, gamma=-gamma, beta=beta, samples=count, seed=seed, n_max=n_max)
    record = _record(rep)
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
    _emit(fmt, out, payload, _csv_row(payload, skip=5))


@main.command(name="typical")
@click.argument("instance_path", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--gamma",
    default="auto",
    show_default=True,
    callback=_finite,
    help='angle, or "auto" for 1/sqrt(3 D) at the derived occurrence bound',
)
@click.option(
    "--trials",
    type=int,
    default=0,
    show_default=True,
    callback=_trials,
    help="Monte Carlo trials; 0 enumerates all sign assignments (m <= 20)",
)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--q-max", type=click.IntRange(min=0), help="exact-enumeration support cap")
@_format_options
@_friendly
def cmd_typical(instance_path, gamma, trials, seed, q_max, fmt, out):
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
    _emit(fmt, out, payload, _csv_row(payload, skip=2))


@main.command(name="bounds")
@click.option("-m", "m", type=int, required=True, help="number of equations")
@click.option("-D", "--d-bound", "d_bound", type=int, required=True)
@_format_options
@_friendly
def cmd_bounds(m, d_bound, fmt, out):
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
    # one CSV row: the payload flattened without its text fields, typical keys prefixed
    cells = {k: v for k, v in payload.items() if not isinstance(v, (str, dict))}
    for block, prefix in (("worst_case", ""), ("typical", "typical_")):
        cells.update({prefix + k: v for k, v in payload[block].items() if not isinstance(v, str)})
    _emit(fmt, out, payload, _csv_row(cells))


if __name__ == "__main__":
    main()
