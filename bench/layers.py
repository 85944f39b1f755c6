"""Per-layer metrics from the spans written by trace_child.py.

A span's self time is its duration minus the part of its interval that its
child spans cover. A layer's self time is the self time of every span named
after it, plus the module's own import time (``-X importtime`` self column),
so a layer the workload never calls still shows its set-up cost. What the
import of ``tailfolio.cli`` spends outside the package's modules (numpy,
scipy, the standard library) is ``deps.import_s``.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("rng", "marginals", "copula", "events", "anneal", "risk", "eeg",
          "indicators", "modelfile", "cli")
# The cost kernels whose calls inside anneal spans count as evaluations.
KERNELS = ("eeg.loglik", "risk.q_empirical", "marginals.fit")
ANNEAL_ROOTS = ("anneal.minimize", "anneal.refine")


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)
    out = {}
    for sid, _, _, start, end, _ in spans:
        covered = 0.0
        lo = hi = None
        for a, b in sorted((max(c[3], start), min(c[4], end))
                           for c in children.get(sid, ())):
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[sid] = (end - start) - covered
    return out


def import_self(stderr_text: str) -> dict:
    """Layer -> seconds of its module's own import, from -X importtime."""
    out = defaultdict(float)
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us = int(fields[0])
        except ValueError:
            continue
        parts = fields[2].strip().split(".")
        if parts[0] == "tailfolio" and len(parts) == 2 and parts[1] in LAYERS:
            out[parts[1]] += self_us * 1e-6
    return out


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _ancestor(span, by_id, names):
    parent = by_id.get(span[1])
    while parent is not None and parent[2] not in names:
        parent = by_id.get(parent[1])
    return parent


def _roles(spans, by_id) -> dict:
    """Kernel evaluations by the anneal span they ran under, and the weight
    fit's evaluations (marginals.fit under indicators.weights)."""
    counts = {"minimize": 0, "refine": 0, "weights": 0}
    for s in spans:
        if s[2] not in KERNELS:
            continue
        root = _ancestor(s, by_id, ANNEAL_ROOTS)
        if root is not None:
            counts["minimize" if root[2] == "anneal.minimize" else "refine"] += 1
        if s[2] == "marginals.fit" and _ancestor(s, by_id, ("indicators.weights",)):
            counts["weights"] += 1
    return counts


def command_report(doc: dict, stderr_text: str, spawned: float,
                   reaped: float) -> dict:
    """Totals for one traced command: self time by span name and by layer,
    counts, annealer roles, and how much of the wall time spans explain.

    spawned and reaped are the parent's perf_counter readings around the
    child; on Linux that clock is CLOCK_MONOTONIC, shared by both processes,
    so the wall time splits into start-up, import, cli.main and exit."""
    spans = doc["spans"]
    by_id = {s[0]: s for s in spans}
    own = self_times(spans)
    by_name = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    attrs = defaultdict(lambda: defaultdict(float))
    for s in spans:
        row = by_name[s[2]]
        row["calls"] += 1
        row["self_s"] += own[s[0]]
        row["total_s"] += s[4] - s[3]
        for key, val in (s[5] or {}).items():
            if key == "path":
                with open(val, "rb") as fh:
                    data = fh.read()
                attrs[s[2]]["bytes"] += len(data)
                attrs[s[2]]["values"] += (data.count(b"\n") - 1) * \
                    (data[:data.index(b"\n")].count(b",") + 1)
            elif key in ("dim", "lanes"):
                attrs[s[2]][key] = max(attrs[s[2]][key], val)
            elif isinstance(val, (int, float)):
                attrs[s[2]][key] += val
            else:
                attrs[s[2]].setdefault("labels", set()).add(val)

    imports = import_self(stderr_text)
    layer_self = {layer: imports.get(layer, 0.0) for layer in LAYERS}
    for name, row in by_name.items():
        layer_self[_layer(name)] = layer_self.get(_layer(name), 0.0) + row["self_s"]
    t_import = doc["import"][1] - doc["import"][0]
    main = next(s for s in spans if s[2] == "cli.main")
    roles = _roles(spans, by_id)
    minimize = [s for s in spans if s[2] == "anneal.minimize"]
    roles["trials"] = sum((s[5] or {}).get("trials", 0) for s in minimize)
    # Every minimize call evaluates its start point once before trial 1.
    roles["probe"] = roles["minimize"] - roles["trials"] - len(minimize)
    explained = sum(layer_self.values()) + (t_import - sum(imports.values()))
    return {
        "request": doc["request"], "wall_s": reaped - spawned,
        "startup_s": doc["import"][0] - spawned, "import_s": t_import,
        "deps_import_s": t_import - sum(imports.values()),
        "install_s": doc["install"][1] - doc["install"][0],
        "main_s": main[4] - main[3], "exit_s": reaped - main[4],
        "layer_self_s": layer_self,
        "spans": {k: dict(v) for k, v in by_name.items()},
        "attrs": {k: dict(v) for k, v in attrs.items()},
        "counters": doc["counters"], "roles": roles,
        # Import plus cli.main, against what the spans attribute to layers;
        # exceeds 1 where lane threads overlap, below 1 if time is lost.
        "coverage": explained / (t_import + main[4] - main[3]),
    }


def _sum(reports, key, *path):
    total = 0.0
    for r in reports:
        node = r[key]
        for p in path:
            node = node.get(p, {}) if isinstance(node, dict) else {}
        total += node if isinstance(node, (int, float)) else 0.0
    return total


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(reports, overhead_frac: float) -> dict:
    """Per-layer metrics summed over every traced command of a pass."""
    span = lambda name, field: _sum(reports, "spans", name, field)  # noqa: E731
    attr = lambda name, field: _sum(reports, "attrs", name, field)  # noqa: E731
    m = {f"{layer}.self_s": _sum(reports, "layer_self_s", layer) for layer in LAYERS}
    m["deps.import_s"] = _sum(reports, "deps_import_s")

    for op in ("write", "read"):
        name = f"modelfile.{op}"
        m[f"{name}.values"] = attr(name, "values")
        m[f"{name}.bytes"] = attr(name, "bytes")
        m[f"{name}.self_s"] = span(name, "self_s")
        m[f"{name}.ns_per_value"] = _ratio(span(name, "self_s"),
                                           attr(name, "values"), 1e9)
    m["modelfile.json.self_s"] = span("modelfile.json", "self_s")

    m["rng.normal.values"] = attr("rng.normal", "values")
    m["rng.normal.self_s"] = span("rng.normal", "self_s")
    m["rng.normal.ns_per_value"] = _ratio(span("rng.normal", "total_s"),
                                          attr("rng.normal", "values"), 1e9)
    m["rng.erfinv.self_s"] = span("rng.erfinv", "self_s")
    m["rng.draw.calls"] = span("rng.normal", "calls")
    m["rng.uniform.values"] = attr("rng.uniform", "values")
    m["rng.uniform.self_s"] = span("rng.uniform", "self_s")
    m["rng.uniform.one.calls"] = _sum(reports, "counters", "rng.uniform.one")

    for op in ("to_gaussian", "from_gaussian"):
        m[f"copula.{op}.values"] = attr(f"copula.{op}", "values")
        m[f"copula.{op}.self_s"] = span(f"copula.{op}", "self_s")
    m["copula.correlation.self_s"] = span("copula.correlation", "self_s")
    m["copula.correlation.dim"] = max(
        [r["attrs"].get("copula.correlation", {}).get("dim", 0) for r in reports],
        default=0)

    m["events.sample.events"] = attr("events.sample", "events")
    m["events.sample.lanes"] = max(
        [r["attrs"].get("events.sample", {}).get("lanes", 0) for r in reports],
        default=0)
    m["events.sample.self_s"] = span("events.sample", "self_s")

    m["marginals.fit.calls"] = span("marginals.fit", "calls")
    m["marginals.fit.self_s"] = span("marginals.fit", "self_s")

    trials = _sum(reports, "roles", "trials")
    refine_evals = _sum(reports, "roles", "refine")
    evals = _sum(reports, "roles", "minimize") + refine_evals
    m["anneal.trials"] = trials
    m["anneal.evals"] = evals
    m["anneal.probe_evals"] = _sum(reports, "roles", "probe")
    m["anneal.refine_evals"] = refine_evals
    m["anneal.trial_share"] = _ratio(trials, evals)
    m["anneal.acceptance_rate"] = _ratio(attr("anneal.minimize", "acceptances"),
                                         trials)
    m["anneal.candidate.self_s"] = span("anneal.candidate", "self_s")
    m["anneal.us_per_trial"] = _ratio(span("anneal.minimize", "self_s")
                                      + span("anneal.candidate", "self_s"),
                                      trials, 1e6)

    m["risk.fit_bins.samples"] = attr("risk.fit_bins", "values")
    m["risk.fit_bins.self_s"] = span("risk.fit_bins", "self_s")
    m["risk.q_empirical.calls"] = span("risk.q_empirical", "calls")
    m["risk.q_empirical.self_s"] = span("risk.q_empirical", "self_s")
    m["risk.contracts.self_s"] = span("risk.contracts", "self_s")

    m["eeg.loglik.calls"] = span("eeg.loglik", "calls")
    m["eeg.loglik.self_s"] = span("eeg.loglik", "self_s")
    m["eeg.loglik.us_per_eval"] = _ratio(span("eeg.loglik", "total_s"),
                                         span("eeg.loglik", "calls"), 1e6)
    m["eeg.rebuild.self_s"] = span("eeg.rebuild", "self_s")
    m["eeg.simulate.epochs"] = attr("eeg.simulate", "epochs")
    m["eeg.simulate.self_s"] = span("eeg.simulate", "self_s")
    m["eeg.simulate.us_per_epoch"] = _ratio(span("eeg.simulate", "total_s"),
                                            attr("eeg.simulate", "epochs"), 1e6)
    m["eeg.innovation.self_s"] = span("eeg.innovation", "self_s")

    m["indicators.report.self_s"] = span("indicators.report", "self_s")
    m["indicators.weights.self_s"] = span("indicators.weights", "self_s")
    m["indicators.weights.evals"] = _sum(reports, "roles", "weights")

    m["trace.overhead_frac"] = overhead_frac
    return m


def exit_reasons(reports) -> list:
    return sorted({label for r in reports
                   for label in r["attrs"].get("anneal.minimize", {}).get("labels", ())})
