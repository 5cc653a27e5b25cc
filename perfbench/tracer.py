"""Run one ``qaoa-e3lin2`` command with a span around every public function.

Usage: ``python3 perfbench/tracer.py SPANS_JSON COMMAND_ID CLI_ARG...``

The wrappers are installed from here, after import, so nothing under
``src/`` changes. A span is ``[name, start, end, parent, command_id, attrs]``
with ``parent`` the index of the enclosing span (-1 at the top) and times
from ``time.perf_counter``. Spans stay in memory and are written to
SPANS_JSON when the command exits, whatever its exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("instance", "analytic", "schedule", "typical", "statevector", "sampler", "cli")

AMPLITUDE_BYTES = 16  # one complex128 amplitude


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _state_bytes(passes):
    def attrs(args, kwargs, result):
        state = _first(args, kwargs, "state")
        return {"bytes": AMPLITUDE_BYTES * passes(state) * (1 << state.n)}

    return attrs


class Tracer:
    """Span recorder; ``annotators`` add attributes read from a call."""

    def __init__(self, command_id: int):
        self.command_id = command_id
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._histogram_keys: dict = {}
        self.annotators = {
            "analytic.build_neighborhood": lambda a, k, r: {"q": r.q_size},
            "analytic.combo_histogram": self._histogram_key,
            "analytic.clause_term_exact": self._route,
            "analytic.clause_term_mc": lambda a, k, r: {"route": "mc"},
            "analytic.objective_expectation": lambda a, k, r: {"w": f"{r.total:.12g}"},
            "statevector.uniform_state": lambda a, k, r: {"bytes": AMPLITUDE_BYTES << r.n},
            "statevector.apply_cost_phase": _state_bytes(lambda s: 1),
            "statevector.apply_mixer": _state_bytes(lambda s: s.n),
            "statevector.expectation": _state_bytes(lambda s: 1),
            "statevector.sample": _state_bytes(lambda s: 1),
            "sampler.run": lambda a, k, r: {"shots": r.samples},
        }

    def _histogram_key(self, args, kwargs, result):
        nbhd = _first(args, kwargs, "nbhd")
        key = (nbhd.q_size, nbhd.forms)
        return {"q": nbhd.q_size, "key": self._histogram_keys.setdefault(key, len(self._histogram_keys))}

    @staticmethod
    def _route(args, kwargs, result):
        nbhd = _first(args, kwargs, "nbhd")
        factorized = nbhd.q_size == 2 * sum(nbhd.pair_counts)
        return {"route": "factorized" if factorized else "enumerated"}

    def record(self, name: str, start: float, end: float, parent: int, attrs=None) -> None:
        self.spans.append((name, start, end, parent, self.command_id, attrs))

    def wrap(self, name: str, fn):
        annotate = self.annotators.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            result = attrs = None
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    attrs = annotate(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.command_id, attrs)

        return traced

    def install(self) -> None:
        """Wrap every public function of each layer, in every module binding it.

        ``schedule``, ``typical``, ``sampler`` and ``cli`` import functions
        by name (``cli`` also under aliases such as ``sv_prepare``), so each
        binding of a wrapped function object is replaced, not only the one
        in its home module.
        """
        package = importlib.import_module("qaoa_e3lin2")
        modules = [importlib.import_module(f"qaoa_e3lin2.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        for module in (package, *modules):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])

    def run_main(self, argv: list[str]) -> None:
        """Import and instrument the CLI, then run it under a ``cli.main`` span.

        Click ends the command with ``SystemExit``, which passes through, so
        the process exits with the command's own code.
        """
        clock = time.perf_counter
        start = clock()
        cli = importlib.import_module("qaoa_e3lin2.cli")
        self.record("cli.import", start, clock(), -1)
        self.install()
        start = clock()
        self._stack.append(len(self.spans))
        self.spans.append(None)
        try:
            cli.main.main(args=argv, prog_name="qaoa-e3lin2")
        finally:
            index = self._stack.pop()
            self.spans[index] = ("cli.main", start, clock(), -1, self.command_id, None)


def main(argv: list[str]) -> None:
    spans_path, command_id, cli_argv = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer(command_id)
    try:
        tracer.run_main(cli_argv)
    finally:
        sys.stdout.flush()
        text = json.dumps({"command_id": command_id, "spans": tracer.spans}, separators=(",", ":"))
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write(text)


if __name__ == "__main__":
    main(sys.argv[1:])
