"""Per-layer metrics from the spans that ``tracer.py`` writes.

A span is ``(name, start, end, parent, command_id, attrs)``; its index in
its command's list is its id. Inclusive time is ``end - start``; self time
is that minus the part of the interval its children cover.
"""

from __future__ import annotations

from collections import defaultdict

#: name -> unit for every per-layer metric, in report order.
UNITS = {
    "cli.import_s": "s",
    "cli.command_self_s": "s",
    "cli.output_bytes": "bytes",
    "instance.generate_s": "s",
    "instance.parse_s": "s",
    "instance.sign_rebuilds": "count",
    "instance.sign_rebuild_s": "s",
    "analytic.objective_calls": "count",
    "analytic.objective_self_s": "s",
    "analytic.neighborhood_calls": "count",
    "analytic.neighborhood_s": "s",
    "analytic.histogram_calls": "count",
    "analytic.histogram_distinct": "count",
    "analytic.histogram_reuse_ratio": "ratio",
    "analytic.histogram_s": "s",
    "analytic.enumerated_assignments": "count",
    "analytic.max_q": "count",
    "analytic.route_factorized": "count",
    "analytic.route_enumerated": "count",
    "analytic.route_mc": "count",
    "analytic.clause_term_self_s": "s",
    "analytic.mc_s": "s",
    "schedule.w_evaluations": "count",
    "schedule.scan_self_s": "s",
    "typical.sign_vectors": "count",
    "typical.distinct_w": "count",
    "typical.useful_ratio": "ratio",
    "typical.ensemble_self_s": "s",
    "typical.closed_form_s": "s",
    "statevector.cost_values_calls": "count",
    "statevector.cost_values_s": "s",
    "statevector.phase_self_s": "s",
    "statevector.mixer_s": "s",
    "statevector.expectation_self_s": "s",
    "statevector.bytes_computed": "bytes",
    "statevector.sample_s": "s",
    "sampler.shots": "count",
    "sampler.score_s": "s",
    "sampler.run_self_s": "s",
    "trace.overhead_s": "s",
}

ENSEMBLES = ("typical.ensemble_mean_exhaustive", "typical.ensemble_mean_mc")


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def layer_metrics(commands) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_s``.

    ``commands`` is a list of ``(spans, output_bytes)``, one per traced
    command, each with its own span ids.
    """
    count = defaultdict(int)
    inclusive = defaultdict(float)
    self_s = defaultdict(float)
    output_bytes = 0
    histogram_keys: dict[tuple, int] = {}
    max_q = 0
    routes = defaultdict(int)
    statevector_bytes = 0
    shots = 0
    w_in_scans = scans = 0
    sign_vectors = distinct_w = 0
    for spans, nbytes in commands:
        output_bytes += nbytes
        selfs = self_times(spans)
        w_values = defaultdict(set)
        for index, (name, start, end, parent, command_id, attrs) in enumerate(spans):
            count[name] += 1
            inclusive[name] += end - start
            self_s[name] += selfs[index]
            attrs = attrs or {}
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "analytic.build_neighborhood":
                max_q = max(max_q, attrs["q"])
            elif name == "analytic.combo_histogram":
                histogram_keys[(command_id, attrs["key"])] = attrs["q"]
            elif name.startswith("analytic.clause_term_"):
                routes[attrs["route"]] += 1
            elif name == "analytic.objective_expectation":
                w_in_scans += parent_name == "schedule.scan"
                if parent_name in ENSEMBLES:
                    sign_vectors += 1
                    w_values[parent].add(attrs["w"])
            elif name == "schedule.scan":
                scans += 1
            elif name == "sampler.run":
                shots += attrs["shots"]
            if "bytes" in attrs:
                statevector_bytes += attrs["bytes"]
        distinct_w += sum(len(v) for v in w_values.values())

    histogram_calls = count["analytic.combo_histogram"]
    return {
        "cli.import_s": inclusive["cli.import"],
        "cli.command_self_s": self_s["cli.main"],
        "cli.output_bytes": output_bytes,
        "instance.generate_s": inclusive["instance.generate_random"],
        "instance.parse_s": inclusive["instance.parse"],
        "instance.sign_rebuilds": count["instance.with_signs"] + count["instance.resample_signs"],
        "instance.sign_rebuild_s": inclusive["instance.with_signs"]
        + inclusive["instance.resample_signs"],
        "analytic.objective_calls": count["analytic.objective_expectation"],
        "analytic.objective_self_s": self_s["analytic.objective_expectation"],
        "analytic.neighborhood_calls": count["analytic.build_neighborhood"],
        "analytic.neighborhood_s": inclusive["analytic.build_neighborhood"],
        "analytic.histogram_calls": histogram_calls,
        "analytic.histogram_distinct": len(histogram_keys),
        "analytic.histogram_reuse_ratio": ratio(
            histogram_calls - len(histogram_keys), histogram_calls
        ),
        "analytic.histogram_s": inclusive["analytic.combo_histogram"],
        "analytic.enumerated_assignments": sum(1 << q for q in histogram_keys.values()),
        "analytic.max_q": max_q,
        "analytic.route_factorized": routes["factorized"],
        "analytic.route_enumerated": routes["enumerated"],
        "analytic.route_mc": routes["mc"],
        "analytic.clause_term_self_s": self_s["analytic.clause_term_exact"]
        + self_s["analytic.clause_term_mc"],
        "analytic.mc_s": inclusive["analytic.clause_term_mc"],
        "schedule.w_evaluations": ratio(w_in_scans, scans),
        "schedule.scan_self_s": self_s["schedule.scan"],
        "typical.sign_vectors": sign_vectors,
        "typical.distinct_w": distinct_w,
        "typical.useful_ratio": ratio(distinct_w, sign_vectors),
        "typical.ensemble_self_s": sum(self_s[name] for name in ENSEMBLES),
        "typical.closed_form_s": inclusive["typical.collection_closed_form"],
        "statevector.cost_values_calls": count["statevector.cost_values"],
        "statevector.cost_values_s": inclusive["statevector.cost_values"],
        "statevector.phase_self_s": self_s["statevector.apply_cost_phase"],
        "statevector.mixer_s": inclusive["statevector.apply_mixer"],
        "statevector.expectation_self_s": self_s["statevector.expectation"],
        "statevector.bytes_computed": statevector_bytes,
        "statevector.sample_s": inclusive["statevector.sample"],
        "sampler.shots": shots,
        "sampler.score_s": inclusive["sampler.satisfied_count_batch"],
        "sampler.run_self_s": self_s["sampler.run"],
    }


def is_count(name: str) -> bool:
    """Counts repeat exactly between traced runs; timings do not."""
    return UNITS[name] != "s"
