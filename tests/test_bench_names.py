"""The package names the benchmark resolves must keep resolving.

bench/trace_child.py wraps functions at the paths in its _PLAN, and
bench/workloads.py builds the P300 nets through the eeg API; a deleted or
renamed name fails here rather than in a benchmark run.
"""

import importlib.util
import os
import sys

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_trace_plan_resolves():
    trace_child = _load("trace_child")
    for _, path, aliases, _, _ in trace_child._PLAN:
        owner, leaf = trace_child._resolve(path)
        assert callable(getattr(owner, leaf)), path
        for alias in aliases:
            trace_child._resolve(alias)
    from tailfolio import anneal, copula, rng
    assert callable(anneal.minimize) and callable(anneal.local_refine)
    assert isinstance(copula.CorrelationMatrix.__dict__["from_matrix"], classmethod)
    assert callable(rng.UniformStream.one)


def test_workloads_build_the_p300_nets():
    workloads = _load("workloads")
    truth, template, free, bounds = workloads._p300_nets()
    assert len(free) == 24 and set(bounds) == set(free)
    assert template.names == truth.names
    from tailfolio import eeg
    assert callable(eeg.joint_loglikelihood) and callable(eeg.simulate)
