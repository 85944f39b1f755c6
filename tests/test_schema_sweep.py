"""The config, model and net readers against docs/schemas.

Cases are generated from the schemas: a document that sets every listed key
to a schema-valid value must load, and one fault at a time (an unknown key,
a non-object where an object belongs, a value of the wrong JSON type, a
non-integral integer, a value out of the bound the schema states) must raise
a ParseError, or an OutOfDomain from the key's owner, that names the key.
"""

import copy
import json
import math
import os
from dataclasses import replace

import jsonschema
import numpy as np
import pytest

from tailfolio import cli
from tailfolio.anneal import AnnealConfig, minimize, search
from tailfolio.copula import CopulaModel, CorrelationMatrix
from tailfolio.eeg import ColumnParams, RegionNet, fit_net
from tailfolio.errors import OutOfDomain, ParseError
from tailfolio.marginals import ExponentialMarginal
from tailfolio.modelfile import (load_model, load_net, read_config, save_model,
                                 save_net, write_series_csv)
from tailfolio.risk import ContractPortfolio, RiskConfig

from helpers import SCHEMA_DIR, two_site_net

READERS = {"config.schema.json": read_config, "model.schema.json": load_model,
           "net.schema.json": load_net}
WRONG = ("x", True, 1.5, [1], None)     # one value of each other JSON type


def _schema(name):
    with open(os.path.join(SCHEMA_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def _resolve(node, root):
    """node with its $ref followed and a oneOf replaced by its first branch."""
    while "$ref" in node or "oneOf" in node:
        node = (root["definitions"][node["$ref"].rsplit("/", 1)[1]]
                if "$ref" in node else node["oneOf"][0])
    return node


def _types(node):
    """The JSON types node allows; a const or enum here is always a string."""
    if "const" in node or "enum" in node:
        return ["string"]
    return node["type"] if isinstance(node["type"], list) else [node["type"]]


def _kind(node):
    return next(t for t in _types(node) if t != "null")


def _valid(node, root):
    """A schema-valid value for node, with every listed key of an object set."""
    node = _resolve(node, root)
    if "const" in node or "enum" in node:
        return node.get("const", node.get("enum", [None])[0])
    kind = _kind(node)
    if kind == "object":
        return {k: _valid(v, root) for k, v in node["properties"].items()}
    if kind == "array":
        return [_valid(node["items"], root) for _ in range(node.get("minItems", 1))]
    candidates = {"string": ["a"], "boolean": [True], "integer": [1, 2, 3],
                  "number": [1.0, 0.5, 2.0]}[kind]
    return next(v for v in candidates
                if jsonschema.Draft7Validator({**node, "type": kind}).is_valid(v))


def _nodes(node, root, path=()):
    """(path, schema) of every value the full document holds."""
    node = _resolve(node, root)
    yield path, node
    if _kind(node) == "object":
        for key, sub in node["properties"].items():
            yield from _nodes(sub, root, path + (key,))
    elif _kind(node) == "array":
        yield from _nodes(node["items"], root, path + (0,))


def _set(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return doc


def _faults():
    for name in READERS:
        root = _schema(name)
        doc = _valid(root, root)
        for path, node in _nodes(root, root):
            key = next((p for p in reversed(path) if isinstance(p, str)), None)
            where = name.split(".")[0] + ":" + ("/".join(map(str, path)) or "<root>")
            if _kind(node) == "object":
                inner = _valid(node, root)
                yield (f"{where} unknown key", name,
                       _set(doc, path, {**inner, "zz_unknown": 1}), "zz_unknown")
                yield f"{where}=1", name, _set(doc, path, 1), key
                continue
            allowed = jsonschema.Draft7Validator({"type": _types(node)})
            for bad in WRONG:
                if not allowed.is_valid(bad):
                    yield f"{where}={bad!r}", name, _set(doc, path, bad), key


def _load(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return READERS[name](str(path))


@pytest.mark.parametrize("name", sorted(READERS))
def test_a_document_with_every_schema_key_loads(tmp_path, name):
    root = _schema(name)
    doc = _valid(root, root)
    jsonschema.validate(doc, root)
    loaded = _load(tmp_path, name, doc)
    if name == "config.schema.json":
        assert sorted(loaded) == sorted(root["properties"])
        assert sorted(loaded["anneal"]) == sorted(
            root["properties"]["anneal"]["properties"])
    else:
        assert isinstance(loaded, CopulaModel if name == "model.schema.json"
                          else RegionNet)


FAULTS = list(_faults())


@pytest.mark.parametrize("name, doc, key", [f[1:] for f in FAULTS],
                         ids=[f[0] for f in FAULTS])
def test_a_schema_fault_raises_parse_error_naming_the_key(tmp_path, name, doc, key):
    with pytest.raises(ParseError) as info:
        _load(tmp_path, name, doc)
    if key is not None:
        assert f"'{key}'" in str(info.value)


def _out_of_bounds(node):
    if "minimum" in node:
        yield node["minimum"] - 1
    if "exclusiveMinimum" in node:
        yield node["exclusiveMinimum"]
    if "maximum" in node:
        yield node["maximum"] + 1
    if "minimum" in node or "exclusiveMinimum" in node:
        yield math.nan


ANNEAL = _schema("config.schema.json")["properties"]["anneal"]["properties"]


@pytest.mark.parametrize("key, bad", [(k, v) for k, node in ANNEAL.items()
                                      for v in _out_of_bounds(node)])
def test_an_annealer_knob_out_of_its_bound_is_refused(tmp_path, key, bad):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"anneal": {"max_trials": 5, key: bad}}))
    with pytest.raises((ParseError, OutOfDomain), match=f"'{key}'"):
        cfg = AnnealConfig(**read_config(path)["anneal"])
        minimize(lambda p: float(np.sum(p * p)), [(0.0, 1.0)] * 2, cfg)


CONFIG = _schema("config.schema.json")["properties"]
NET = _schema("net.schema.json")["properties"]
COLUMNS = NET["columns"]["properties"]
MARGINAL = _schema("model.schema.json")["properties"]["marginals"]["items"]["properties"]


def _contracts(slippage):
    return ContractPortfolio(counts=(0.0,), prices=(1.0,), entry_prices=(1.0,),
                             cash=1.0, slippage=slippage)


# (schema node, key, the key's owner called with one value)
OWNED = [
    *((CONFIG["risk"]["properties"][k], k, lambda v, k=k: RiskConfig(**{k: v}))
      for k in ("var_level", "q_target", "q_tolerance", "penalty_weight")),
    (CONFIG["template"]["properties"]["slippage"], "slippage", _contracts),
    *((COLUMNS[k], k, lambda v, k=k: ColumnParams(**{k: v}))
      for k in ("n_e", "n_i", "tau_ms", "lr_count")),
    (NET["dt_ms"], "dt_ms", lambda v: replace(two_site_net(), dt_ms=v)),
    (MARGINAL["chi"], "chi", lambda v: ExponentialMarginal(0.0, v)),
    *((MARGINAL[k], k, lambda v, k=k: ExponentialMarginal(
        0.0, 1.0, **{"chi_minus": 1.0, "chi_plus": 1.0, k: v}))
      for k in ("chi_minus", "chi_plus")),
    (CONFIG["penalty_weight"], "penalty_weight",
     lambda v: fit_net(np.zeros((4, 2)), two_site_net(), [], {}, penalty_weight=v)),
    (CONFIG["refine_calls"], "refine_calls",
     lambda v: search(lambda p: float(np.sum(p * p)), [(0.0, 1.0)],
                      AnnealConfig(max_trials=5), refine_calls=v)),
]


@pytest.mark.parametrize("key, bad, owner", [
    pytest.param(k, v, f, id=f"{k}={v!r}") for node, k, f in OWNED
    for v in _out_of_bounds(node)])
def test_a_value_out_of_its_schema_bound_is_refused_by_its_owner(key, bad, owner):
    with pytest.raises(OutOfDomain, match=f"'{key}'"):
        owner(bad)


@pytest.mark.parametrize("key, edge, owner", [
    pytest.param(k, node[b], f, id=f"{k}={node[b]!r}") for node, k, f in OWNED
    for b in ("minimum", "maximum") if b in node])
def test_a_value_on_its_schema_bound_is_kept(key, edge, owner):
    owner(edge)


def _optimize(tmp_path, **cfg):
    model = tmp_path / "model.json"
    save_model(model, CopulaModel(marginals=(ExponentialMarginal(m=0.0, chi=0.01),),
                                  correlation=CorrelationMatrix.from_matrix([[1.0]]),
                                  channels=("a",)))
    return ["optimize", str(model), "--config", _config(tmp_path, {
        "bounds": [[0.0, 1.0]], "n": 10, "anneal": {"max_trials": 20}, **cfg})]


def _eeg(tmp_path, mode, columns=None, **cfg):
    net = tmp_path / "net.json"
    save_net(net, two_site_net())
    if columns:
        doc = json.loads(net.read_text())
        doc["columns"].update(columns)
        net.write_text(json.dumps(doc))
    series = tmp_path / "series.csv"
    write_series_csv(series, np.random.default_rng(2).normal(size=(20, 2)), ("Fz", "Cz"))
    return ["eeg", mode, str(net), str(series), "--epochs", "5",
            "--config", _config(tmp_path, {"free": [], **cfg})]


def _config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# one command per owner: RiskConfig, ContractPortfolio, ColumnParams,
# fit_net, search, optimize's own n and minimize
CLI_CASES = [
    ("q_tolerance", lambda t, v: _optimize(t, risk={"q_tolerance": v}),
     CONFIG["risk"]["properties"]["q_tolerance"]),
    ("slippage", lambda t, v: _optimize(t, template={
        "type": "contracts", "prices": [50.0], "entry_prices": [50.0], "cash": 100.0,
        "slippage": v}), CONFIG["template"]["properties"]["slippage"]),
    ("n_e", lambda t, v: _eeg(t, "simulate", columns={"n_e": v}), COLUMNS["n_e"]),
    ("penalty_weight", lambda t, v: _eeg(t, "fit", penalty_weight=v),
     CONFIG["penalty_weight"]),
    ("refine_calls", lambda t, v: _optimize(t, refine_calls=v), CONFIG["refine_calls"]),
    ("n", lambda t, v: _optimize(t, n=v), CONFIG["n"]),
    # checked before the schedule is sized from it
    ("max_trials", lambda t, v: _optimize(t, anneal={"max_trials": v}),
     CONFIG["anneal"]["properties"]["max_trials"]),
]


@pytest.mark.parametrize("key, case, node", CLI_CASES, ids=[c[0] for c in CLI_CASES])
def test_a_command_given_a_value_out_of_its_bound_exits_2(tmp_path, capsys, key, case,
                                                          node):
    argv = case(tmp_path, next(_out_of_bounds(node))) + ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    assert f"'{key}'" in capsys.readouterr().err


def test_the_sweep_covers_every_reader():
    names = {name for _, name, _, _ in FAULTS}
    assert names == set(READERS)
    assert len(FAULTS) > 100
