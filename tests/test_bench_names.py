"""The package names the benchmark resolves must keep resolving.

bench/trace_child.py wraps functions at the paths in its _PLAN, and
bench/workloads.py builds the P300 nets through the eeg API; a deleted or
renamed name fails here rather than in a benchmark run. The config files the
workloads write must validate against docs/schemas/config.schema.json.
"""

import importlib.util
import json
import os
import sys

from helpers import validate_schema

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


def test_workload_configs_validate_against_the_schema(tmp_path):
    workloads = _load("workloads")
    configs = []
    for name, build in workloads.WORKLOADS.items():
        inputs, pass_dir = tmp_path / name / "inputs", tmp_path / name / "pass"
        inputs.mkdir(parents=True)
        pass_dir.mkdir()
        for step in build(str(inputs), 1, smoke=True).steps(str(pass_dir)):
            if "--config" in step.args:
                configs.append(step.args[step.args.index("--config") + 1])
    # linear, contracts and indicators of position_sizing; fit and indicators
    # of eeg_fit; sample_refit runs without a config
    assert len(set(configs)) == 5
    for path in configs:
        with open(path, encoding="utf-8") as fh:
            validate_schema(json.load(fh), "config.schema.json")
