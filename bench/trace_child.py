"""Run one tailfolio CLI command with outside-in layer tracing.

Usage: python -X importtime bench/trace_child.py SPANS_JSON REQUEST_ID CLI_ARG...

The package is imported unchanged; public functions are then replaced, at
every name their callers look them up under, by wrappers that record a span
(name, start, end, parent) per call. Spans stay in memory and are written to
SPANS_JSON when the command ends, together with the import interval and a few
plain counters. The exit code is the command's own.
"""

import json
import sys
import threading
import time

_spans = []              # [id, parent, name, start, end, attrs]
_counters = {}
_local = threading.local()
_main_stack = []         # span ids open on the main thread
_main_thread = threading.main_thread()
_clock = time.perf_counter


def _stack():
    if threading.current_thread() is _main_thread:
        return _main_stack
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _open(name):
    stack = _stack()
    if stack:
        parent = stack[-1]
    else:
        # A worker thread's first span hangs under the span open on the
        # main thread that started the work (events.sample for lanes).
        parent = _main_stack[-1] if _main_stack else 0
    record = [len(_spans) + 1, parent, name, _clock(), 0.0, None]
    _spans.append(record)
    stack.append(record[0])
    return record, stack


def _close(record, stack):
    record[4] = _clock()
    stack.pop()


def traced(name, fn, before=None, after=None):
    """Wrap fn in a span. before(args, kwargs) and after(result, args, kwargs)
    return attribute dicts; after runs once the span has ended."""
    def wrapper(*args, **kwargs):
        record, stack = _open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            _close(record, stack)
        if before is not None or after is not None:
            attrs = before(args, kwargs) if before is not None else {}
            if after is not None:
                attrs.update(after(result, args, kwargs))
            record[5] = attrs
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def counted(name, fn):
    def wrapper(*args, **kwargs):
        _counters[name] = _counters.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


# ------------------------------------------------------------- attributes

def _size(x):
    import numpy as np
    return int(np.size(x))


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _n_arg(args, kwargs):
    return {"values": int(_arg(args, kwargs, 1, "n"))}


def _values_arg(i, key):
    return lambda args, kwargs: {"values": _size(_arg(args, kwargs, i, key))}


def _written(args, kwargs):
    # Sizes are read from the file by the parent, outside this process.
    return {"path": str(_arg(args, kwargs, 0, "path"))}


def _read(result, args, kwargs):
    import os
    return {"values": int(result[1].size),
            "bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _corr_dim(args, kwargs):
    import numpy as np
    return {"dim": int(np.shape(_arg(args, kwargs, 1, "matrix"))[0])}


def _estimate_dim(args, kwargs):
    import numpy as np
    return {"dim": int(np.shape(_arg(args, kwargs, 0, "y_series"))[0])}


def _events(args, kwargs):
    lanes = args[3] if len(args) > 3 else kwargs.get("lanes", 1)
    return {"events": int(_arg(args, kwargs, 1, "n")), "lanes": int(lanes)}


def _epochs(args, kwargs):
    return {"epochs": int(_arg(args, kwargs, 1, "epochs"))}


def _anneal_result(result, args, kwargs):
    return {"trials": int(result.trials), "acceptances": int(result.acceptances),
            "exit_reason": result.exit_reason}


def _cost_span(fn):
    """Give the caller's cost closure a span in the caller's layer, so the
    annealer's own time excludes the cost function body."""
    layer = getattr(fn, "__module__", "") or ""
    return traced(layer.rsplit(".", 1)[-1] + ".cost", fn)


def _with_cost_span(name, fn, after=None):
    inner = traced(name, fn, after=after)

    def wrapper(cost, *args, **kwargs):
        return inner(_cost_span(cost), *args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


# ------------------------------------------------------------------ install

# span name -> (function path, [extra "module:name" aliases], before, after)
_PLAN = [
    ("rng.normal", "rng:NormalStream.draw", [], _n_arg, None),
    ("rng.uniform", "rng:UniformStream.take", [], _n_arg, None),
    ("rng.erfinv", "rng:erfinv", ["copula:erfinv"], _values_arg(0, "z"), None),
    ("copula.to_gaussian", "copula:to_gaussian",
     ["cli:to_gaussian", "indicators:to_gaussian"], _values_arg(1, "dx"), None),
    ("copula.from_gaussian", "copula:from_gaussian", ["events:from_gaussian"],
     _values_arg(1, "dy"), None),
    ("copula.correlation", "copula:estimate_correlation",
     ["cli:estimate_correlation", "indicators:estimate_correlation"],
     _estimate_dim, None),
    ("events.sample", "events:sample_events", ["cli:sample_events"], _events, None),
    ("marginals.fit", "marginals:fit_exponential",
     ["cli:fit_exponential", "indicators:fit_exponential"], None, None),
    ("anneal.candidate", "anneal:generate_candidate", [], None, None),
    ("risk.fit_bins", "risk:fit_bins", ["indicators:fit_bins"],
     _values_arg(0, "samples"), None),
    ("risk.q_empirical", "risk:q_empirical", [], None, None),
    ("risk.contracts", "risk:returns_from_contracts", [], None, None),
    ("risk.report", "risk:risk_report", ["cli:risk_report"], None, None),
    ("risk.returns", "risk:portfolio_returns", ["cli:portfolio_returns"], None, None),
    ("risk.optimize", "risk:optimize_positions", ["cli:optimize_positions"],
     None, None),
    ("eeg.loglik", "eeg:loglikelihood_details", [], None, None),
    ("eeg.rebuild", "eeg:apply_params", [], None, None),
    ("eeg.rebuild", "eeg:centering_shift", [], None, None),
    ("eeg.simulate", "eeg:simulate", [], _epochs, None),
    ("eeg.innovation", "eeg:innovation_stream", ["indicators:innovation_stream"],
     None, None),
    ("eeg.fit", "eeg:fit_net", [], None, None),
    ("eeg.check", "eeg:centering_check", [], None, None),
    ("indicators.report", "indicators:indicator_report", [], None, None),
    ("indicators.weights", "indicators:fit_indicator_weights", [], None, None),
    ("modelfile.write", "modelfile:write_table", [], _written, None),
    ("modelfile.read", "modelfile:read_table", [], None, _read),
]
for _fn in ("save_json", "load_json", "save_model", "load_model", "save_net",
            "load_net"):
    _PLAN.append(("modelfile.json", "modelfile:" + _fn, ["cli:" + _fn], None, None))


def _resolve(path):
    import importlib
    mod_name, _, attr = path.partition(":")
    owner = importlib.import_module("tailfolio." + mod_name)
    *inner, leaf = attr.split(".")
    for part in inner:
        owner = getattr(owner, part)
    return owner, leaf


def install():
    from tailfolio import anneal, copula, rng

    for name, path, aliases, before, after in _PLAN:
        owner, leaf = _resolve(path)
        wrapped = traced(name, getattr(owner, leaf), before, after)
        for target in [path, *aliases]:
            owner, leaf = _resolve(target)
            setattr(owner, leaf, wrapped)

    from_matrix = copula.CorrelationMatrix.__dict__["from_matrix"].__func__
    copula.CorrelationMatrix.from_matrix = classmethod(
        traced("copula.correlation", from_matrix, _corr_dim))
    rng.UniformStream.one = counted("rng.uniform.one", rng.UniformStream.one)
    anneal.minimize = _with_cost_span("anneal.minimize", anneal.minimize,
                                      _anneal_result)
    anneal.local_refine = _with_cost_span("anneal.refine", anneal.local_refine)


def main(argv):
    spans_path, request = argv[0], argv[1]
    t0 = _clock()
    import tailfolio.cli as cli
    t1 = _clock()
    install()
    t2 = _clock()
    try:
        code = traced("cli.main", cli.main)(argv[2:])
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"request": request, "import": [t0, t1],
                       "install": [t1, t2], "counters": _counters,
                       "spans": _spans}, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
