import hashlib
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from tailfolio import anneal, cli, copula, eeg, errors, modelfile, risk
from tailfolio.copula import CopulaModel, CorrelationMatrix
from tailfolio.errors import OutOfDomain, SingularNet
from tailfolio.marginals import ExponentialMarginal, sample
from tailfolio.modelfile import (load_json, load_net, read_table, save_json,
                                 save_model, save_net, write_series_csv)

from helpers import (SRC, command_peak_mb, traced_peak, two_site_net,
                     validate_schema)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    # an infinite value is written as the overflowing literal JSON loads as inf
    path.write_text(json.dumps(payload).replace("Infinity", "1e400") + "\n")
    return str(path)


def make_series_csv(tmp_path, name="series.csv", t=300, seed=0):
    rng = np.random.default_rng(seed)
    data = np.stack([rng.laplace(0.01, 0.4, size=t),
                     rng.laplace(-0.02, 0.7, size=t)], axis=1)
    path = tmp_path / name
    write_series_csv(path, data, ("spx", "bond"))
    return str(path)


def make_model_json(tmp_path, m=0.002, chi=0.01, name="model.json"):
    model = CopulaModel(
        marginals=(ExponentialMarginal(m=m, chi=chi),),
        correlation=CorrelationMatrix.from_matrix([[1.0]]),
        channels=("spx",),
    )
    path = tmp_path / name
    save_model(path, model)
    return str(path)


def test_fit_marginals_writes_model(tmp_path, capsys):
    csv = make_series_csv(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["fit-marginals", csv, "--out", str(out)])
    assert code == 0
    payload = load_json(out / "model.json")
    validate_schema(payload, "model.schema.json")
    assert payload["channels"] == ["spx", "bond"]
    text = capsys.readouterr().out
    assert "spx: m=" in text
    assert "wrote" in text


@pytest.mark.parametrize("text, message", [
    ("", "empty.csv: no data rows"),
    ("epoch\n0\n1\n2\n3\n", "empty.csv: no channel column beside the index")])
def test_fit_marginals_empty_csv(tmp_path, capsys, text, message):
    bad = tmp_path / "empty.csv"
    bad.write_text(text)
    code = cli.main(["fit-marginals", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert message in capsys.readouterr().err


def test_fit_marginals_constant_channel(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    rows = np.stack([np.full(50, 7.0),
                     np.random.default_rng(1).laplace(0, 1, 50)], axis=1)
    write_series_csv(path, rows, ("stuck", "live"))
    code = cli.main(["fit-marginals", str(path), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "stuck" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_fit_marginals_names_a_non_finite_channel(tmp_path, capsys, cell):
    path = tmp_path / "odd.csv"
    path.write_text(f"live,odd\n1,2\n3,{cell}\n4,5\n")
    code = cli.main(["fit-marginals", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "channel 'odd': samples must be finite" in capsys.readouterr().err


def test_fit_marginals_window_option(tmp_path):
    csv = make_series_csv(tmp_path, t=200)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"marginal_window": 100})
    code = cli.main(["fit-marginals", csv, "--config", cfg, "--out", str(out)])
    assert code == 0
    names, data = read_table(csv)
    payload = load_json(out / "model.json")
    tail_mean = float(np.mean(data[-100:, 0]))
    assert payload["marginals"][0]["m"] == pytest.approx(tail_mean, rel=1e-12)


def test_sample_deterministic_reruns(tmp_path, capsys):
    model = make_model_json(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["sample", model, "--n", "200", "--seed", "5",
                     "--out", str(out_a)]) == 0
    assert cli.main(["sample", model, "--n", "200", "--seed", "5",
                     "--out", str(out_b)]) == 0
    bytes_a = (out_a / "events.csv").read_bytes()
    assert bytes_a == (out_b / "events.csv").read_bytes()
    first = bytes_a.decode().splitlines()[0]
    assert first == "event_index,spx"
    assert len(bytes_a.decode().splitlines()) == 201


@pytest.mark.parametrize("lanes", ["4", "0"])
def test_sample_lanes(tmp_path, lanes):
    # --lanes is parsed and ignored
    model = make_model_json(tmp_path)
    assert cli.main(["sample", model, "--n", "101", "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["sample", model, "--n", "101", "--lanes", lanes,
                     "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "b" / "events.csv").read_bytes()
            == (tmp_path / "a" / "events.csv").read_bytes())


def test_sample_bad_n(tmp_path, capsys):
    model = make_model_json(tmp_path)
    code = cli.main(["sample", model, "--n", "0", "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize("channels, column", [
    (("a,b", "c"), "a,b"),
    ((" a", "a"), " a"),
    (("a", "b\r"), "b\r"),
    (("event_index", "b"), "event_index"),
    (("\ud800", "c"), "\ud800"),     # a lone surrogate UTF-8 cannot encode
])
def test_sample_refuses_channel_names_its_csv_cannot_read_back(
        tmp_path, capsys, channels, column):
    model = tmp_path / "model.json"
    save_model(model, CopulaModel(
        marginals=(ExponentialMarginal(m=0.0, chi=0.01),) * 2,
        correlation=CorrelationMatrix.from_matrix(np.eye(2)), channels=channels))
    out = tmp_path / "o"
    assert cli.main(["sample", str(model), "--n", "5", "--out", str(out)]) == 2
    assert repr(column) in capsys.readouterr().err
    assert not (out / "events.csv").exists()


def test_eeg_simulate_refuses_a_site_name_its_csv_cannot_read_back(tmp_path, capsys):
    def rename(payload):
        payload["sites"][0]["name"] = "F,z"
        payload["couplings"][0]["source"] = "F,z"

    assert cli.main(_net_case(tmp_path, rename)) == 2
    assert "'F,z'" in capsys.readouterr().err
    assert not (tmp_path / "o" / "series.csv").exists()


def test_eeg_simulate_refuses_a_site_name_utf8_cannot_encode(tmp_path, capsys):
    def rename(payload):
        payload["sites"][0]["name"] = "\ud800"
        payload["couplings"][0]["source"] = "\ud800"

    assert cli.main(_net_case(tmp_path, rename)) == 2
    assert repr("\ud800") in capsys.readouterr().err
    assert not (tmp_path / "o" / "series.csv").exists()


def test_risk_report_consistent(tmp_path):
    model = make_model_json(tmp_path)
    out = tmp_path / "risk"
    code = cli.main(["risk", model, "--n", "20000", "--seed", "2",
                     "--out", str(out)])
    assert code == 0
    payload = load_json(out / "risk.json")
    validate_schema(payload, "risk.schema.json")
    expected_q = 0.5 * np.exp(-abs(-0.05 - payload["mean"]) / payload["width"])
    assert payload["q_analytic"] == pytest.approx(expected_q, rel=1e-12)
    header, bins = read_table(out / "bins.csv")
    assert bins.shape[0] == 201
    assert int(bins[:, 2].sum()) == 20000


def test_risk_json_key_order_pinned(tmp_path):
    model = make_model_json(tmp_path)
    out = tmp_path / "risk"
    assert cli.main(["risk", model, "--n", "1000", "--out", str(out)]) == 0
    payload = json.loads((out / "risk.json").read_text())
    assert list(payload) == ["kind", "mean", "width", "q_analytic",
                             "q_empirical", "expected_tail_loss", "var_level",
                             "q_target", "n", "weights"]


def test_risk_weights_scale_width(tmp_path):
    model = make_model_json(tmp_path)
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w2"
    assert cli.main(["risk", model, "--weights", "1", "--n", "5000",
                     "--seed", "3", "--out", str(out1)]) == 0
    assert cli.main(["risk", model, "--weights", "2", "--n", "5000",
                     "--seed", "3", "--out", str(out2)]) == 0
    a = load_json(out1 / "risk.json")
    b = load_json(out2 / "risk.json")
    assert b["width"] == pytest.approx(2.0 * a["width"], rel=1e-12)
    assert b["mean"] == pytest.approx(2.0 * a["mean"], rel=1e-12)


def test_risk_bad_weights(tmp_path, capsys):
    model = make_model_json(tmp_path)
    code = cli.main(["risk", model, "--weights", "1,2",
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert "--weights needs 1" in capsys.readouterr().err


@pytest.mark.parametrize("weights", ["1,nan", "1,inf", "1,-inf"])
def test_risk_refuses_non_finite_weights(tmp_path, capsys, weights):
    model = _two_channel_model(tmp_path)
    code = cli.main(["risk", str(model), "--weights", weights, "--n", "10",
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"--weights must be finite, got {weights!r}" in capsys.readouterr().err


def test_optimize_feasible(tmp_path):
    model = make_model_json(tmp_path)
    out = tmp_path / "opt"
    cfg = write_config(tmp_path, {
        "bounds": [[0.0, 5.0]],
        "n": 10000,
        "anneal": {"max_trials": 6000},
    })
    code = cli.main(["optimize", model, "--config", cfg, "--seed", "3",
                     "--out", str(out)])
    payload = load_json(out / "positions.json")
    validate_schema(payload, "positions.schema.json")
    assert code == 0
    assert payload["feasible"] is True
    assert abs(payload["q"] - 0.01) < 0.002


def test_optimize_infeasible_still_writes(tmp_path, capsys):
    model = make_model_json(tmp_path)
    out = tmp_path / "opt0"
    cfg = write_config(tmp_path, {
        "bounds": [[0.0, 0.0]],
        "n": 2000,
        "anneal": {"max_trials": 50},
        "refine_calls": 0,
    })
    code = cli.main(["optimize", model, "--config", cfg, "--out", str(out)])
    assert code == 5
    assert "infeasible" in capsys.readouterr().err
    payload = load_json(out / "positions.json")
    validate_schema(payload, "positions.schema.json")
    assert payload["feasible"] is False
    assert payload["q"] == 0.0


def test_optimize_requires_bounds(tmp_path, capsys):
    model = make_model_json(tmp_path)
    cfg = write_config(tmp_path, {"n": 100})
    code = cli.main(["optimize", model, "--config", cfg,
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert "bounds" in capsys.readouterr().err


def test_optimize_contract_template(tmp_path):
    model = make_model_json(tmp_path, m=0.001, chi=0.012)
    out = tmp_path / "contracts"
    cfg = write_config(tmp_path, {
        "template": {"type": "contracts", "prices": [50.0],
                     "entry_prices": [50.0], "cash": 1000.0,
                     "slippage": 0.0},
        "bounds": [[0.0, 40.0]],
        "n": 4000,
        "anneal": {"max_trials": 2000},
    })
    code = cli.main(["optimize", model, "--config", cfg, "--seed", "2",
                     "--out", str(out)])
    payload = load_json(out / "positions.json")
    assert payload["template"] == "contracts"
    assert code in (0, 5)


def test_eeg_simulate_deterministic(tmp_path):
    net_path = tmp_path / "net.json"
    save_net(net_path, two_site_net())
    out_a = tmp_path / "sa"
    out_b = tmp_path / "sb"
    args = ["eeg", "simulate", str(net_path), "--epochs", "80", "--seed", "4"]
    assert cli.main(args + ["--out", str(out_a)]) == 0
    assert cli.main(args + ["--out", str(out_b)]) == 0
    text = (out_a / "series.csv").read_bytes()
    assert text == (out_b / "series.csv").read_bytes()
    lines = text.decode().splitlines()
    assert lines[0] == "epoch,Fz,Cz"
    assert len(lines) == 81


def test_eeg_fit_all_frozen_returns_template(tmp_path):
    net_path = tmp_path / "net.json"
    net = two_site_net()
    save_net(net_path, net)
    out_sim = tmp_path / "sim"
    assert cli.main(["eeg", "simulate", str(net_path), "--epochs", "60",
                     "--seed", "7", "--out", str(out_sim)]) == 0
    out_fit = tmp_path / "fit"
    cfg = write_config(tmp_path, {"free": []})
    code = cli.main(["eeg", "fit", str(net_path),
                     str(out_sim / "series.csv"), "--config", cfg,
                     "--out", str(out_fit)])
    assert code == 0
    assert load_net(out_fit / "net.json") == net
    payload = load_json(out_fit / "fit_report.json")
    validate_schema(payload, "fit_report.schema.json")
    assert payload["trials"] == 0


def test_eeg_fit_one_parameter(tmp_path, monkeypatch, capsys):
    net_path = tmp_path / "net.json"
    net = two_site_net()
    save_net(net_path, net)
    out_sim = tmp_path / "sim"
    assert cli.main(["eeg", "simulate", str(net_path), "--epochs", "200",
                     "--seed", "12", "--out", str(out_sim)]) == 0
    from tailfolio.eeg import apply_params
    start_path = tmp_path / "start.json"
    save_net(start_path, apply_params(net, {"Fz.offset": 0.0}))
    out_fit = tmp_path / "fit1"
    cfg = write_config(tmp_path, {
        "free": ["Fz.offset"],
        "bounds": {"Fz.offset": [-3.0, 3.0]},
        "anneal": {"max_trials": 500},
        "refine_calls": 100,
    })
    fits = []
    fit_net = eeg.fit_net
    monkeypatch.setattr(eeg, "fit_net",
                        lambda *a, **k: fits.append(fit_net(*a, **k)) or fits[-1])
    capsys.readouterr()
    code = cli.main(["eeg", "fit", str(start_path),
                     str(out_sim / "series.csv"), "--config", cfg,
                     "--out", str(out_fit), "--verbose"])
    assert code == 0
    from tailfolio.eeg import joint_loglikelihood
    _, data = read_table(out_sim / "series.csv")
    start_ll = joint_loglikelihood(load_net(start_path), data)
    payload = load_json(out_fit / "fit_report.json")
    assert payload["loglik"] >= start_ll
    trace = (out_fit / "trace_fit.csv").read_text().splitlines()
    assert trace[0] == "trial,cost,accept_temp"
    assert len(trace) > 1
    # the report reads the one search result: the trace has a row per anneal
    # trial, and trials also counts the polish's calls
    res = fits[0].result
    assert payload["trials"] == res.trials > len(trace) - 1
    assert payload["exit_reason"] == res.exit_reason
    assert payload["final_cost"] == res.cost
    assert f"final cost {cli.fmt(res.cost)}" in capsys.readouterr().out


def test_eeg_check_centered_series(tmp_path, capsys):
    net = two_site_net()
    net_path = tmp_path / "net.json"
    save_net(net_path, net)
    offsets = np.array([s.offset for s in net.sites])
    series_path = tmp_path / "flat.csv"
    write_series_csv(series_path, np.tile(offsets, (30, 1)), net.names)
    out = tmp_path / "check"
    code = cli.main(["eeg", "check", str(net_path), str(series_path),
                     "--out", str(out)])
    assert code == 0
    payload = load_json(out / "centering.json")
    validate_schema(payload, "centering.schema.json")
    for row in payload["rows"]:
        assert row["mean_e"] == 0.0
        assert row["flagged"] is False
    assert "Fz" in capsys.readouterr().out


def test_eeg_fit_requires_series(tmp_path):
    net_path = tmp_path / "net.json"
    save_net(net_path, two_site_net())
    with pytest.raises(SystemExit) as err:
        cli.main(["eeg", "fit", str(net_path)])
    assert err.value.code == 2


def test_eeg_series_column_mismatch(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    save_net(net_path, two_site_net())
    csv = make_series_csv(tmp_path)  # columns spx, bond
    code = cli.main(["eeg", "check", str(net_path), csv,
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert "do not match" in capsys.readouterr().err


def test_indicators_ok(tmp_path):
    rng = np.random.default_rng(6)
    a = rng.laplace(0.0, 0.5, size=400)
    b = 0.4 * a + rng.laplace(0.0, 0.4, size=400)
    pa = tmp_path / "a.csv"
    pb = tmp_path / "b.csv"
    write_series_csv(pa, a.reshape(-1, 1), ("surveys",))
    write_series_csv(pb, b.reshape(-1, 1), ("sensors",))
    cfg = write_config(tmp_path, {
        "methods": [{"name": "surveys", "csv": str(pa)},
                    {"name": "sensors", "csv": str(pb)}],
    })
    out = tmp_path / "ind"
    code = cli.main(["indicators", "--config", cfg, "--out", str(out)])
    assert code == 0
    payload = load_json(out / "indicators.json")
    validate_schema(payload, "indicators.schema.json")
    assert payload["status"] == "ok"
    model = load_json(out / "indicator_model.json")
    validate_schema(model, "model.schema.json")


def test_indicators_degenerate_pairing(tmp_path, capsys):
    vals = sample(ExponentialMarginal(m=0.0, chi=1.0), 200, seed=3)
    pa = tmp_path / "a.csv"
    pb = tmp_path / "b.csv"
    write_series_csv(pa, vals.reshape(-1, 1), ("one",))
    write_series_csv(pb, vals.reshape(-1, 1), ("two",))
    cfg = write_config(tmp_path, {
        "methods": [{"name": "one", "csv": str(pa)},
                    {"name": "two", "csv": str(pb)}],
    })
    out = tmp_path / "dup"
    code = cli.main(["indicators", "--config", cfg, "--out", str(out)])
    assert code == 4
    assert "singular" in capsys.readouterr().err
    payload = load_json(out / "indicators.json")
    assert payload["status"] == "degenerate_pairing"
    assert not (out / "indicator_model.json").exists()


def test_indicators_names_the_flat_stream(tmp_path, capsys):
    pa = tmp_path / "a.csv"
    pb = tmp_path / "b.csv"
    write_series_csv(pa, np.full((200, 1), 2.0), ("value",))
    write_series_csv(pb, np.random.default_rng(4).laplace(0, 1, (200, 1)), ("value",))
    cfg = write_config(tmp_path, {
        "methods": [{"name": "stuck", "csv": str(pa)},
                    {"name": "live", "csv": str(pb)}],
    })
    code = cli.main(["indicators", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 3
    assert "'stuck'" in capsys.readouterr().err


def test_indicators_net_method(tmp_path):
    net = two_site_net()
    net_path = tmp_path / "net.json"
    save_net(net_path, net)
    out_sim = tmp_path / "sim"
    assert cli.main(["eeg", "simulate", str(net_path), "--epochs", "401",
                     "--seed", "8", "--out", str(out_sim)]) == 0
    rng = np.random.default_rng(2)
    other = tmp_path / "other.csv"
    write_series_csv(other, rng.laplace(0, 1, 400).reshape(-1, 1), ("cash",))
    cfg = write_config(tmp_path, {
        "methods": [
            {"name": "eeg", "kind": "net", "net": str(net_path),
             "csv": str(out_sim / "series.csv")},
            {"name": "cash", "csv": str(other)},
        ],
    })
    out = tmp_path / "join"
    code = cli.main(["indicators", "--config", cfg, "--out", str(out)])
    assert code == 0
    payload = load_json(out / "indicators.json")
    assert payload["methods"] == ["eeg", "cash"]
    assert payload["epochs"] == 400


def _weight_fit(tmp_path, out, seed, **extra):
    """The bytes of indicators.json from a fit_weights run on two streams."""
    rng = np.random.default_rng(6)
    a = rng.laplace(0.0, 0.5, size=400)
    b = 0.4 * a + rng.laplace(0.0, 0.4, size=400)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_series_csv(pa, a.reshape(-1, 1), ("surveys",))
    write_series_csv(pb, b.reshape(-1, 1), ("sensors",))
    cfg = write_config(tmp_path, {
        "methods": [{"name": "surveys", "csv": str(pa)},
                    {"name": "sensors", "csv": str(pb)}],
        "fit_weights": True, **extra})
    assert cli.main(["indicators", "--config", cfg, "--seed", str(seed),
                     "--out", str(tmp_path / out)]) == 0
    return (tmp_path / out / "indicators.json").read_bytes()


def test_weight_fit_reads_neither_the_seed_nor_an_anneal_block(tmp_path, monkeypatch):
    # the fit polishes from fixed starts, so it forks no cost worker even
    # where two CPUs are found, and the shared anneal block is not its own
    forks, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    monkeypatch.setattr(anneal, "fork_cpus", lambda *needs: 2)
    block = {"window_repeat_tol": 1e-7, "max_trials": 50, "seed": 5, "x0": [0.6, -0.8]}
    runs = [_weight_fit(tmp_path, "seed0", 0), _weight_fit(tmp_path, "seed1", 1),
            _weight_fit(tmp_path, "block", 0, anneal=block)]
    assert json.loads(runs[0])["weights"]["fitted"]
    assert runs[0] == runs[1] == runs[2]
    assert forks == []


def test_indicators_config_required(tmp_path, capsys):
    code = cli.main(["indicators", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "methods" in capsys.readouterr().err


def test_bad_model_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code = cli.main(["sample", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_not_positive_definite_model(tmp_path, capsys):
    payload = {
        "kind": "copula_model",
        "channels": ["a", "b"],
        "marginals": [
            {"channel": "a", "m": 0.0, "chi": 1.0,
             "chi_minus": None, "chi_plus": None},
            {"channel": "b", "m": 0.0, "chi": 1.0,
             "chi_minus": None, "chi_plus": None},
        ],
        "correlation": [[1.0, 1.0], [1.0, 1.0]],
    }
    path = tmp_path / "npd.json"
    save_json(path, payload)
    code = cli.main(["sample", str(path), "--out", str(tmp_path / "o")])
    assert code == 4
    assert "pivot" in capsys.readouterr().err


def test_nan_correlation_model_exits_2(tmp_path, capsys):
    mg = {"m": 0.0, "chi": 1.0, "chi_minus": None, "chi_plus": None}
    payload = {"kind": "copula_model", "channels": ["a", "b"],
               "marginals": [{"channel": "a", **mg}, {"channel": "b", **mg}],
               "correlation": [[1.0, math.nan], [math.nan, 1.0]]}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(payload))     # NaN is written as a bare NaN
    code = cli.main(["sample", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "'correlation'" in capsys.readouterr().err


def test_seed_validation(tmp_path):
    model = make_model_json(tmp_path)
    with pytest.raises(SystemExit) as err:
        cli.main(["sample", model, "--seed", "-1", "--out", str(tmp_path / "o")])
    assert err.value.code == 2


def test_unknown_command():
    with pytest.raises(SystemExit) as err:
        cli.main(["destroy-everything"])
    assert err.value.code == 2


@pytest.mark.skipif(shutil.which("tailfolio") is None,
                    reason="console script not on PATH")
def test_console_script(tmp_path):
    model = make_model_json(tmp_path)
    proc = subprocess.run(
        ["tailfolio", "sample", model, "--n", "10", "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "sampled 10 events" in proc.stdout


def test_console_entry_point(tmp_path):
    # what test_console_script runs, without an install: the function that
    # [project.scripts] names, with sys.argv as the script would set it
    tomllib = pytest.importorskip("tomllib")
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["tailfolio"]
    module, func = target.split(":")
    script = (f"import sys, {module}; sys.argv[0] = 'tailfolio'; "
              f"{module}.{func}()")
    model = make_model_json(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", script, "sample", model, "--n", "10",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.path.join(root, "src")})
    assert proc.returncode == 0, proc.stderr
    assert "sampled 10 events" in proc.stdout


def test_python_m_runs_the_cli(tmp_path):
    model = make_model_json(tmp_path)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "tailfolio.cli", "sample", model, "--n", "10",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert (tmp_path / "o" / "events.csv").is_file()


_LOADED = ("print(sorted(m for m in sys.modules "
           "if m.split('.')[0] in ('multiprocessing', 'scipy')))")


def test_cli_import_does_not_load_multiprocessing():
    # multiprocessing costs about 0.1 s of start-up; the table codec forks
    # with os primitives instead. scipy, about 0.3 s and 30 MB, is loaded
    # where a kernel first runs
    script = "import sys, tailfolio.cli; " + _LOADED
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_eeg_check_loads_no_scipy(tmp_path):
    """eeg check calls no scipy kernel, so a whole run never imports scipy."""
    argv = ["eeg", "check", *_eeg_fit_case(tmp_path, [], {})[2:]]
    script = ("import sys; from tailfolio.cli import main; "
              f"code = main({argv!r}); " + _LOADED + "; sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "o" / "centering.json").is_file()


def _loaded_layers(argv=None):
    """The tailfolio modules a fresh interpreter has loaded after importing
    tailfolio.cli and, when argv is given, running that command."""
    run = "" if argv is None else f"code = main({argv!r}); assert code == 0, code; "
    script = ("import json, sys; from tailfolio.cli import main; " + run +
              "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'tailfolio']))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_cli_import_loads_no_layer():
    # each command imports the layers it runs, so that none pays for the
    # import of a layer it never calls
    assert _loaded_layers() == {"tailfolio", "tailfolio.cli", "tailfolio.errors",
                                "tailfolio.forks", "tailfolio.modelfile"}


# command -> the layers a run of it must not load
UNLOADED = [
    ("fit-marginals", lambda t: ["fit-marginals", make_series_csv(t), "--out", str(t / "o")],
     ("anneal", "eeg", "indicators")),
    ("sample", lambda t: _model_case(t, lambda d: None), ("anneal", "eeg", "indicators")),
    ("risk", lambda t: ["risk", make_model_json(t), "--n", "100", "--out", str(t / "o")],
     ("anneal", "eeg", "indicators")),
    # a tolerance any q meets, so that the command exits 0
    ("optimize", lambda t: _optimize_case(t, risk={"q_tolerance": 1.0}),
     ("eeg", "indicators")),
    ("eeg simulate", lambda t: _net_case(t, lambda d: None),
     ("anneal", "risk", "events", "indicators")),
    ("eeg check", lambda t: ["eeg", "check", *_eeg_fit_case(t, [], {})[2:]],
     ("anneal", "risk", "events", "indicators")),
    ("indicators of values", lambda t: _indicators_case(t, {"column": "a"}, {"column": "b"}),
     ("eeg",)),
]


@pytest.mark.parametrize("case, unloaded", [c[1:] for c in UNLOADED],
                         ids=[c[0] for c in UNLOADED])
def test_a_command_loads_only_the_layers_it_runs(tmp_path, case, unloaded):
    loaded = _loaded_layers(case(tmp_path))
    assert "tailfolio.cli" in loaded
    assert loaded.isdisjoint(f"tailfolio.{layer}" for layer in unloaded)


def _capture_kwargs(monkeypatch, owner, name):
    seen = {}

    def fake(*args, **kwargs):
        seen.update(kwargs)
        raise OutOfDomain("captured")

    monkeypatch.setattr(owner, name, fake)
    return seen


@pytest.mark.parametrize("extra, expected", [
    ({}, {}),
    ({"refine_calls": 7.0}, {"refine_calls": 7}),
])
def test_optimize_passes_only_configured_keys(tmp_path, monkeypatch, extra, expected):
    seen = _capture_kwargs(monkeypatch, risk, "optimize_positions")
    cfg = write_config(tmp_path, {"bounds": [[0.0, 1.0]], "n": 10, **extra})
    code = cli.main(["optimize", make_model_json(tmp_path), "--config", cfg,
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert seen == expected
    assert [type(v) for v in seen.values()] == [type(v) for v in expected.values()]


@pytest.mark.parametrize("extra, expected", [
    ({}, {}),
    ({"penalty_weight": 10, "refine_calls": 3.0},
     {"penalty_weight": 10.0, "refine_calls": 3}),
])
def test_eeg_fit_passes_only_configured_keys(tmp_path, monkeypatch, extra, expected):
    seen = _capture_kwargs(monkeypatch, eeg, "fit_net")
    net_path = tmp_path / "net.json"
    save_net(net_path, two_site_net())
    series = tmp_path / "series.csv"
    write_series_csv(series, np.random.default_rng(2).normal(size=(20, 2)),
                     ("Fz", "Cz"))
    cfg = write_config(tmp_path, {"free": ["Fz.offset"],
                                  "bounds": {"Fz.offset": [-1.0, 1.0]}, **extra})
    code = cli.main(["eeg", "fit", str(net_path), str(series), "--config", cfg,
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert seen == expected
    assert [type(v) for v in seen.values()] == [type(v) for v in expected.values()]


def _config_case(tmp_path, command, extra):
    """argv for command with a config holding extra over a valid base."""
    out = str(tmp_path / "o")
    if command == "fit-marginals":
        cfg = write_config(tmp_path, extra)
        return ["fit-marginals", make_series_csv(tmp_path), "--config", cfg,
                "--out", out]
    if command == "optimize":
        cfg = write_config(tmp_path, {"bounds": [[0.0, 1.0]], "n": 10,
                                      "anneal": {"max_trials": 20}, **extra})
        return ["optimize", make_model_json(tmp_path), "--config", cfg,
                "--out", out]
    rng = np.random.default_rng(6)
    paths = []
    for name in ("a", "b"):
        paths.append(tmp_path / f"{name}.csv")
        write_series_csv(paths[-1], rng.laplace(size=(50, 1)), (name,))
    cfg = write_config(tmp_path, {"methods": [{"name": p.stem, "csv": str(p)}
                                              for p in paths], **extra})
    return ["indicators", "--config", cfg, "--out", out]


@pytest.mark.parametrize("command, key, value", [
    ("fit-marginals", "asymmetric", "false"),
    ("fit-marginals", "asymmetric", 0),
    ("indicators", "fit_weights", "true"),
    ("fit-marginals", "pre_average_window", 2.7),
    ("indicators", "pre_average_window", True),
    ("fit-marginals", "marginal_window", 100.9),
    ("fit-marginals", "marginal_window", "100"),
    ("optimize", "refine_calls", 2.5),
    ("optimize", "n", 100.5),
    ("optimize", "n", True),
    ("fit-marginals", "asymetric", True),
    ("optimize", "risk", [1]),
    ("optimize", "template", [1]),
])
def test_config_casts_are_strict(tmp_path, capsys, command, key, value):
    code = cli.main(_config_case(tmp_path, command, {key: value}))
    assert code == 2
    assert f"'{key}'" in capsys.readouterr().err


def test_integral_config_values_keep_their_bytes(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = _config_case(tmp_path / "a", "fit-marginals",
                     {"marginal_window": 100, "pre_average_window": 3})
    b = _config_case(tmp_path / "b", "fit-marginals",
                     {"marginal_window": 100.0, "pre_average_window": 3.0,
                      "asymmetric": False})
    assert cli.main(a) == 0 and cli.main(b) == 0
    assert (tmp_path / "a" / "o" / "model.json").read_bytes() == \
        (tmp_path / "b" / "o" / "model.json").read_bytes()


def test_optimize_rejects_a_nan_window_repeat_tol(tmp_path, capsys):
    # JSON's NaN literal loads and passes the number cast; without the check
    # the cost-repeat exit is silently off
    cfg = tmp_path / "nan.json"
    cfg.write_text('{"bounds": [[0.0, 1.0]], "n": 10, '
                   '"anneal": {"window_repeat_tol": NaN}}\n')
    code = cli.main(["optimize", make_model_json(tmp_path), "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert ("'window_repeat_tol' must be finite, or negative to turn the exit off, "
            "got nan") in capsys.readouterr().err


def test_eeg_fit_on_one_epoch_exits_2(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    save_net(net_path, two_site_net())
    series = tmp_path / "one.csv"
    write_series_csv(series, [[1.0, 0.5]], ("Fz", "Cz"))
    cfg = write_config(tmp_path, {"free": ["Fz.offset"],
                                  "bounds": {"Fz.offset": [-1.0, 1.0]}})
    code = cli.main(["eeg", "fit", str(net_path), str(series), "--config", cfg,
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert "need at least 2 epochs" in capsys.readouterr().err


def test_optimize_on_zero_capital_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "template": {"type": "contracts", "prices": [50.0],
                     "entry_prices": [50.0], "cash": 0},
        "bounds": [[0.0, 4.0]], "n": 100, "anneal": {"max_trials": 20}})
    code = cli.main(["optimize", make_model_json(tmp_path), "--config", cfg,
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert "zero" in capsys.readouterr().err


def _two_channel_model(tmp_path):
    path = tmp_path / "model2.json"
    save_model(path, CopulaModel(
        marginals=(ExponentialMarginal(m=0.0, chi=0.01),) * 2,
        correlation=CorrelationMatrix.from_matrix(np.eye(2)), channels=("a", "b")))
    return path


def _edited(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    # an infinite value is written as the overflowing literal JSON loads as inf
    path.write_text(json.dumps(payload).replace("Infinity", "1e400"))
    return str(path)


def _optimize_case(tmp_path, **extra):
    cfg = write_config(tmp_path, {"bounds": [[0.0, 1.0]] * 2, "n": 10,
                                  "anneal": {"max_trials": 20}, **extra})
    return ["optimize", str(_two_channel_model(tmp_path)), "--config", cfg,
            "--out", str(tmp_path / "o")]


def _net_case(tmp_path, edit):
    net_path = tmp_path / "net.json"
    save_net(net_path, two_site_net())
    return ["eeg", "simulate", _edited(net_path, edit), "--epochs", "5",
            "--out", str(tmp_path / "o")]


def _model_case(tmp_path, edit):
    return ["sample", _edited(_two_channel_model(tmp_path), edit), "--n", "5",
            "--out", str(tmp_path / "o")]


def _anneal(**block):
    return {"anneal": {"max_trials": 20, **block}}


SCHEMA_FAULTS = [
    ("max_trials", lambda t: _optimize_case(t, **_anneal(max_trials=True))),
    ("sensitivity_step", lambda t: _optimize_case(t, **_anneal(sensitivity_step="x"))),
    ("k_max", lambda t: _optimize_case(t, **_anneal(k_max="7"))),
    ("window_repeat_tol", lambda t: _optimize_case(t, **_anneal(window_repeat_tol="a"))),
    ("reanneal_interval", lambda t: _optimize_case(t, **_anneal(reanneal_interval=0))),
    ("accept_t0", lambda t: _optimize_case(t, **_anneal(accept_t0=-1))),
    ("x0", lambda t: _optimize_case(t, **_anneal(x0=[0.5]))),
    ("x0", lambda t: _optimize_case(t, **_anneal(x0=[0.1, 0.2, 0.3, 0.4]))),
    ("var_levle", lambda t: _optimize_case(t, risk={"var_levle": 0.01})),
    ("ofsets", lambda t: _optimize_case(t, template={"ofsets": [0.0, 0.0]})),
    ("delay", lambda t: _net_case(t, lambda d: d["couplings"][0].update(delay=True))),
    ("offset", lambda t: _net_case(t, lambda d: d["sites"][0].update(offset="0.5"))),
    ("dt_ms", lambda t: _net_case(t, lambda d: d.update(dt_ms="5.2"))),
    ("dt", lambda t: _net_case(t, lambda d: d.update(dt=5.2))),
    ("sites", lambda t: _net_case(t, lambda d: d.update(sites=[], couplings=[]))),
    ("m", lambda t: _model_case(t, lambda d: d["marginals"][0].update(m="0.1"))),
    ("sigma", lambda t: _model_case(t, lambda d: d["marginals"][1].update(sigma=1))),
]


@pytest.mark.parametrize("key, case", SCHEMA_FAULTS,
                         ids=[f"{k}-{i}" for i, (k, _) in enumerate(SCHEMA_FAULTS)])
def test_schema_faults_exit_2_naming_the_key(tmp_path, capsys, key, case):
    assert cli.main(case(tmp_path)) == 2
    assert f"'{key}'" in capsys.readouterr().err


def test_bounds_of_the_other_command_shape_exit_2(tmp_path, capsys):
    # optimize takes [lo, hi] pairs in order, eeg fit takes them by key
    cfg = write_config(tmp_path, {"bounds": {"a": [0.0, 1.0]}, "n": 10})
    assert cli.main(["optimize", make_model_json(tmp_path), "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
    assert "bounds" in capsys.readouterr().err
    net_path = tmp_path / "net.json"
    save_net(net_path, two_site_net())
    series = tmp_path / "series.csv"
    write_series_csv(series, np.random.default_rng(2).normal(size=(20, 2)),
                     ("Fz", "Cz"))
    cfg = write_config(tmp_path, {"free": ["Fz.offset"], "bounds": [[-1.0, 1.0]]})
    assert cli.main(["eeg", "fit", str(net_path), str(series), "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
    assert "bounds" in capsys.readouterr().err


def _fit_marginals_case(tmp_path, **cfg):
    return ["fit-marginals", make_series_csv(tmp_path), "--config",
            write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]


# (id, argv of tmp_path, index in argv of the file to spoil, line of it to
# spoil, what the error names)
NON_UTF8 = [
    ("csv", _fit_marginals_case, 1, 3, "series.csv:3: "),
    ("config", _fit_marginals_case, 3, 1, "config.json: "),
    ("model", lambda t: _model_case(t, lambda d: None), 1, 1, "model2.json: "),
    ("net", lambda t: _net_case(t, lambda d: None), 2, 1, "net.json: "),
]


@pytest.mark.parametrize("case, at, line, named", [c[1:] for c in NON_UTF8],
                         ids=[c[0] for c in NON_UTF8])
def test_a_file_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys, case, at,
                                                    line, named):
    args = case(tmp_path)
    path = Path(args[at])
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = b"\xff" + lines[line - 1]     # never a UTF-8 byte
    path.write_bytes(b"\n".join(lines))
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert named in err and "can't decode byte 0xff" in err


def _indicators_case(tmp_path, *methods, **extra):
    path = tmp_path / "two.csv"
    write_series_csv(path, np.random.default_rng(3).normal(size=(50, 2)), ("a", "b"))
    blocks = [{"name": f"m{i}", "csv": str(path), **m} for i, m in enumerate(methods)]
    return ["indicators", "--config",
            write_config(tmp_path, {"methods": blocks, **extra}),
            "--out", str(tmp_path / "o")]


def _eeg_fit_case(tmp_path, free, bounds, edit=lambda d: None):
    net_path = tmp_path / "net.json"
    save_net(net_path, two_site_net())
    series = tmp_path / "series.csv"
    write_series_csv(series, np.random.default_rng(2).normal(size=(20, 2)),
                     ("Fz", "Cz"))
    return ["eeg", "fit", _edited(net_path, edit), str(series), "--config",
            write_config(tmp_path, {"free": free, "bounds": bounds,
                                    "anneal": {"max_trials": 20}}),
            "--out", str(tmp_path / "o")]


def _nonfinite_series_case(tmp_path, mode, free, cells):
    """eeg fit or check of a series with a non-finite value at each (epoch,
    site, value) of cells."""
    argv = _eeg_fit_case(tmp_path, free, dict.fromkeys(free, [-1.0, 1.0]))
    data = np.random.default_rng(2).normal(size=(20, 2))
    for epoch, site, value in cells:
        data[epoch, site] = value
    write_series_csv(argv[3], data, ("Fz", "Cz"))
    return ["eeg", mode, *argv[2:]]


def _zero_efficacy(d):
    zero = [[0.0, 0.0], [0.0, 0.0]]
    d["columns"].update(gain=zero, background=zero, lr_gain=0.0, lr_background=0.0)


def _eeg_check_repeated_column_case(tmp_path):
    net_path = tmp_path / "net.json"
    save_net(net_path, two_site_net())
    series = tmp_path / "series.csv"
    # written by hand: write_series_csv refuses a repeated column
    rows = np.random.default_rng(2).normal(size=(20, 3))
    series.write_text("epoch,Fz,Cz,Fz\n" + "".join(
        f"{i},{a:.17g},{b:.17g},{c:.17g}\n" for i, (a, b, c) in enumerate(rows)))
    return ["eeg", "check", str(net_path), str(series), "--out", str(tmp_path / "o")]


def _fit_marginals_csv_case(tmp_path, header):
    path = tmp_path / "dup.csv"
    rows = np.random.default_rng(4).laplace(size=(40, 2))
    path.write_text(header + "\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in rows))
    return ["fit-marginals", str(path), "--out", str(tmp_path / "o")]


def _repeat_channel(d):
    d["channels"] = ["a", "a"]
    d["marginals"][1]["channel"] = "a"


INF = math.inf
INPUT_FAULTS = [
    # bounds, each named by its key
    ("'dt_ms' must be", lambda t: _net_case(t, lambda d: d.update(dt_ms=0))),
    ("'dt_ms' must be", lambda t: _net_case(t, lambda d: d.update(dt_ms=INF))),
    ("'tau_ms' must be", lambda t: _net_case(t, lambda d: d["columns"].update(
        tau_ms=0))),
    *((f"'{k}' must be finite", lambda t, k=k: _net_case(t, lambda d: d["columns"]
                                                         .update({k: INF})))
      for k in ("n_e", "n_i", "lr_count")),
    ("'pre_average_window' must be", lambda t: _fit_marginals_case(
        t, pre_average_window=0)),
    ("'m' must be finite", lambda t: _model_case(t, lambda d: d["marginals"][0]
                                                 .update(m=INF))),
    ("'chi' must be", lambda t: _model_case(t, lambda d: d["marginals"][0]
                                            .update(chi=0))),
    ("'chi_minus' must be", lambda t: _model_case(t, lambda d: d["marginals"][1]
                                                  .update(chi_minus=-1, chi_plus=1))),
    ("'chi_plus' must be finite", lambda t: _model_case(
        t, lambda d: d["marginals"][1].update(chi_minus=1, chi_plus=INF))),
    # singular EEG inputs
    ("combined electrode gain is zero", lambda t: _net_case(
        t, lambda d: d["sites"][0].update(gain_e=-0.3))),
    ("variance aggregate must be positive", lambda t: _net_case(t, _zero_efficacy)),
    # the box midpoint gain_e = -0.3 = -gain_i * trough_slope of Fz
    ("cost is not finite at the initial point", lambda t: _eeg_fit_case(
        t, ["Fz.gain_e"], {"Fz.gain_e": [-1.3, 0.7]})),
    # the rest of the CLI's own input checks
    ("'marginal_window' must be >= 2, got 1", lambda t: _fit_marginals_case(
        t, marginal_window=1)),
    ("bad --weights value", lambda t: ["risk", str(_two_channel_model(t)),
                                       "--weights", "1,x", "--n", "10",
                                       "--out", str(t / "o")]),
    ("template offsets need 2 value(s)", lambda t: _optimize_case(
        t, template={"type": "linear", "offsets": [0.0]})),
    ("contracts template missing 'cash'", lambda t: _optimize_case(
        t, template={"type": "contracts", "prices": [50.0, 50.0],
                     "entry_prices": [50.0, 50.0]})),
    ("unknown template type 'options'", lambda t: _optimize_case(
        t, template={"type": "options"})),
    ("with 'column'", lambda t: _indicators_case(t, {}, {"column": "a"})),
    ("method 'm0' missing 'net'", lambda t: _indicators_case(
        t, {"kind": "net"}, {"column": "a"})),
    ("unknown method kind 'bogus'", lambda t: _indicators_case(
        t, {"kind": "bogus"}, {"column": "a"})),
    ("'marginals' must hold one entry per channel, got 1 for 2",
     lambda t: _model_case(t, lambda d: d["marginals"].pop())),
    ("'correlation' must be 2x2 for the channels, got 3x3",
     lambda t: _model_case(t, lambda d: d.update(correlation=np.eye(3).tolist()))),
    # an infinite tolerance would end every anneal after a tenth of its trials
    ("'window_repeat_tol' must be finite, or negative to turn the exit off, got inf",
     lambda t: _optimize_case(t, anneal={"max_trials": 20, "window_repeat_tol": INF})),
    # a retired annealer key is an unknown one
    ("unknown annealer option(s): ['acceptance_window']", lambda t: _optimize_case(
        t, anneal={"max_trials": 20, "acceptance_window": 100})),
    # every number of a net is finite, each named by its key
    ("'lr_gain' must be finite", lambda t: _net_case(
        t, lambda d: d["columns"].update(lr_gain=INF))),
    ("'pol_var' must be finite", lambda t: _net_case(
        t, lambda d: d["columns"]["pol_var"][0].__setitem__(0, math.nan))),
    ("'threshold' must be finite", lambda t: _net_case(
        t, lambda d: d["columns"].update(threshold=[INF, 10.0]))),
    ("'offset' must be finite", lambda t: _net_case(
        t, lambda d: d["sites"][0].update(offset=INF))),
    ("'gain_e' must be finite", lambda t: _net_case(
        t, lambda d: d["sites"][1].update(gain_e=math.nan))),
    ("'weight' must be finite", lambda t: _net_case(
        t, lambda d: d["couplings"][0].update(weight=INF))),
    # names that must be unique
    ("column names must be unique", _eeg_check_repeated_column_case),
    ("column names must be unique", lambda t: _fit_marginals_csv_case(t, "x,x")),
    ("'channels' must be unique", lambda t: _model_case(t, _repeat_channel)),
    ("method names must be unique", lambda t: _indicators_case(
        t, {"name": "a", "column": "a"}, {"name": "a", "column": "b"})),
    # risk needs two events for a width
    ("--n must be >= 2, got 0", lambda t: ["risk", str(_two_channel_model(t)),
                                           "--n", "0", "--out", str(t / "o")]),
    ("--n must be >= 2, got 1", lambda t: ["risk", str(_two_channel_model(t)),
                                           "--n", "1", "--out", str(t / "o")]),
    # columns whose excitatory source cannot be centered, whatever is free
    ("excitatory-source centering term is zero", lambda t: _eeg_fit_case(
        t, ["Fz.offset"], {"Fz.offset": [-1.0, 1.0]},
        lambda d: d["columns"]["pol_mean"][0].__setitem__(0, 0.0))),
    ("free parameter 'Fz.offset' is repeated", lambda t: _eeg_fit_case(
        t, ["Fz.offset", "Fz.offset"], {"Fz.offset": [-1.0, 1.0]})),
    # a series value that is not finite, named with the CSV
    *((f"series.csv: series values must be finite, got {got} at epoch {at}",
       lambda t, mode=mode, free=free, cells=cells: _nonfinite_series_case(
           t, mode, free, cells))
      for mode, free in (("check", []), ("fit", []), ("fit", ["Fz.offset"]))
      for got, at, cells in (("nan", "3 of site 'Fz'", [(3, 0, math.nan), (7, 1, INF)]),
                             ("inf", "5 of site 'Cz'", [(5, 1, INF)]))),
    # fixed indicator weights must make a combination
    *((f"'weights' must be finite and not all zero, got {got}",
       lambda t, weights=weights: _indicators_case(
           t, {"column": "a"}, {"column": "b"}, weights=weights))
      for weights, got in (([1e400, 1.0], "[inf, 1.0]"), ([0, 0], "[0.0, 0.0]"))),
    # a refused bound is named: by its free key, or by its pair's index
    ("bounds of 'Fz.offset' must be finite with lo <= hi, got [1.0, -1.0]",
     lambda t: _eeg_fit_case(t, ["Fz.offset"], {"Fz.offset": [1.0, -1.0]})),
    ("bounds of 'Cz.offset' must be finite with lo <= hi, got [-1.0, inf]",
     lambda t: _eeg_fit_case(t, ["Fz.offset", "Cz.offset"],
                             {"Fz.offset": [-1.0, 1.0], "Cz.offset": [-1.0, 1e400]})),
    ("each lower bound must not exceed its upper bound, got [1.0, 0.0] at pair 1",
     lambda t: _optimize_case(t, bounds=[[0.0, 1.0], [1.0, 0.0]])),
    ("bounds must be finite, got [0.0, inf] at pair 1",
     lambda t: _optimize_case(t, bounds=[[0.0, 1.0], [0.0, 1e400]])),
]


@pytest.mark.parametrize("fragment, case", INPUT_FAULTS,
                         ids=[f"{i}-{f}" for i, (f, _) in enumerate(INPUT_FAULTS)])
def test_input_faults_exit_2_with_their_message(tmp_path, capsys, fragment, case):
    assert cli.main(case(tmp_path)) == 2
    assert fragment in capsys.readouterr().err


FILE_FAULTS = [
    ("nan-correlation", 2, lambda t: _model_case(
        t, lambda d: d.update(correlation=[[1.0, math.nan], [math.nan, 1.0]]))),
    ("negative-chi", 2, lambda t: _model_case(t, lambda d: d["marginals"][0]
                                              .update(chi=-1.0))),
    ("not-positive-definite", 4, lambda t: _model_case(
        t, lambda d: d.update(correlation=[[1.0, 1.0], [1.0, 1.0]]))),
    ("zero-tau_ms", 2, lambda t: _net_case(t, lambda d: d["columns"].update(
        tau_ms=0))),
    ("negative-delay", 2, lambda t: _net_case(t, lambda d: d["couplings"][0].update(
        delay=-1))),
]


@pytest.mark.parametrize("code, case", [c[1:] for c in FILE_FAULTS],
                         ids=[c[0] for c in FILE_FAULTS])
def test_errors_building_a_model_or_net_name_the_file(tmp_path, capsys, code, case):
    argv = case(tmp_path)
    path = argv[2] if argv[0] == "eeg" else argv[1]
    assert cli.main(argv) == code
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


# every command, with inputs it runs on to its end
OUT_CASES = [
    ("fit-marginals", _fit_marginals_case),
    ("sample", lambda t: _model_case(t, lambda d: None)),
    ("risk", lambda t: ["risk", str(_two_channel_model(t)), "--n", "5",
                        "--out", str(t / "o")]),
    ("optimize", _optimize_case),
    ("eeg-simulate", lambda t: _net_case(t, lambda d: None)),
    ("eeg-fit", lambda t: _eeg_fit_case(t, ["Fz.offset"], {"Fz.offset": [-1.0, 1.0]})),
    ("eeg-check", lambda t: ["eeg", "check", *_eeg_fit_case(t, [], {})[2:]]),
    ("indicators", lambda t: _indicators_case(t, {"column": "a"}, {"column": "b"})),
]


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
@pytest.mark.parametrize("case", [c[1] for c in OUT_CASES], ids=[c[0] for c in OUT_CASES])
def test_an_out_that_cannot_be_a_directory_exits_2_naming_it(tmp_path, capsys, case,
                                                            under):
    argv = case(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "o" if under else taken
    argv[argv.index("--out") + 1] = str(out)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out}: ") and "internal error" not in err
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize("case", [c[1] for c in OUT_CASES], ids=[c[0] for c in OUT_CASES])
def test_an_out_that_cannot_be_made_exits_2_with_its_reason(tmp_path, capsys,
                                                           monkeypatch, case):
    """Any other failure to make --out, here a denied permission, which a
    run as root never meets on disk, exits 2 naming --out and the reason."""
    argv = case(tmp_path)
    out = argv[argv.index("--out") + 1]

    def denied(path, mode=0o777, exist_ok=False):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(modelfile.os, "makedirs", denied)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: --out {out}: Permission denied\n"


# every output a command writes: (command, output name, --verbose)
OUTPUT_NAMES = [
    ("fit-marginals", "model.json", False),
    ("sample", "events.csv", False),
    ("risk", "risk.json", False),
    ("risk", "bins.csv", False),
    ("optimize", "positions.json", False),
    ("optimize", "trace_optimize.csv", True),
    ("eeg-simulate", "series.csv", False),
    ("eeg-fit", "net.json", False),
    ("eeg-fit", "fit_report.json", False),
    ("eeg-fit", "trace_fit.csv", True),
    ("eeg-check", "centering.json", False),
    ("indicators", "indicators.json", False),
    ("indicators", "indicator_model.json", False),
]


@pytest.mark.parametrize("command, name, verbose", OUTPUT_NAMES,
                         ids=[f"{c}-{n}" for c, n, _ in OUTPUT_NAMES])
def test_an_output_that_is_a_directory_exits_2_naming_it(tmp_path, capsys, command,
                                                         name, verbose):
    argv = dict(OUT_CASES)[command](tmp_path)
    taken = Path(argv[argv.index("--out") + 1]) / name
    taken.mkdir(parents=True)
    assert cli.main([*argv, *["--verbose"] * verbose]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {taken}: ") and "internal error" not in err
    assert taken.is_dir() and not any(taken.iterdir())


@pytest.mark.parametrize("cfg", [{}, {"marginal_window": 200}],
                         ids=["whole", "marginal-window"])
def test_fit_marginals_frees_its_table_before_the_cholesky(tmp_path, monkeypatch, cfg):
    """The refit's first scipy.linalg call, the correlation's Cholesky,
    comes once no reference to the table read_table returned, nor to
    the array that owns its memory, is left."""
    refs, alive = [], []
    real_read, real_factor = modelfile.read_table, copula.cholesky_lower

    def read(path):
        names, data = real_read(path)
        array = data
        while isinstance(array, np.ndarray):
            refs.append(weakref.ref(array))
            array = array.base
        return names, data

    def factor(*args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        return real_factor(*args, **kwargs)

    monkeypatch.setattr(modelfile, "read_table", read)
    monkeypatch.setattr(copula, "cholesky_lower", factor)
    argv = _fit_marginals_case(tmp_path, **cfg)
    assert cli.main(argv) == 0
    assert len(refs) == 2 and alive == [[False, False]]


def test_a_singular_centering_solve_is_an_input_fault():
    assert cli.exit_code_for(SingularNet("x")) == 2


# each engine error type and the README row its exit code falls under
ERROR_CODES = {
    errors.ParseError: 2, errors.OutOfDomain: 2, errors.SingularNet: 2,
    errors.DegenerateData: 3, errors.IllConditioned: 4,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_engine_error_carries_its_readme_exit_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Exit codes")[1].split("\n## ")[0]
    codes = {int(c): meaning.strip() for c, meaning in
             re.findall(r"^\| (\d+) +\|(.*)\|$", table, re.MULTILINE)}
    assert codes[2].startswith("input, config, or domain fault")
    assert codes[3].startswith("degenerate data")
    assert codes[4].startswith("correlation not positive definite")
    # a new type must be listed above, and must set its own code
    found = {c for c in _subclasses(errors.EngineError)
             if c.__module__.startswith("tailfolio")}
    assert found == set(ERROR_CODES)
    for cls, code in ERROR_CODES.items():
        assert "exit_code" in vars(cls), cls.__name__
        assert cls.exit_code == code, cls.__name__
        assert cli.exit_code_for(cls("x")) == code
    assert cli.exit_code_for(ValueError("x")) == cli.EXIT_INTERNAL == 10


def test_risk_peak_memory_does_not_grow_with_channels(tmp_path):
    """risk reduces each row block of events to its returns, so at one n
    its peak is the same at 8 and 64 channels; a whole (n, N) table would
    add n * 56 values of 8 bytes (44.8 MB) at 64."""
    peaks = []
    for dim in (8, 64):
        path = tmp_path / f"model{dim}.json"
        save_model(path, CopulaModel(
            marginals=(ExponentialMarginal(m=0.0, chi=0.01),) * dim,
            correlation=CorrelationMatrix.from_matrix(np.eye(dim))))
        peaks.append(command_peak_mb(["risk", path, "--n", 100_000,
                                      "--out", tmp_path / f"r{dim}"]))
    assert abs(peaks[1] - peaks[0]) < 4.0, peaks


def test_fit_marginals_peak_memory_near_its_table(tmp_path, monkeypatch):
    """The normal coordinates and their pre-averaged, centred rows are the
    read table's own memory."""
    # the command imports these at its first kernel call; that import is
    # not the table, so it is made before tracing
    import scipy.linalg  # noqa: F401
    import scipy.special  # noqa: F401
    values = np.random.default_rng(10).standard_normal((100_000, 8))
    path = tmp_path / "events.csv"
    write_series_csv(path, values, [f"c{j}" for j in range(8)], index_name="event_index")
    # one part: a forked part's shared mapping is not traced
    monkeypatch.setattr(modelfile, "_PART_BYTES", 1 << 62)
    table = values.nbytes * 9 / 8       # the index column is read too
    peak = traced_peak(lambda: cli.main(["fit-marginals", str(path),
                                         "--out", str(tmp_path / "out")]))
    assert peak < 1.3 * table


def test_risk_bytes_pinned_for_n_off_the_8_row_grid(tmp_path):
    """risk's streamed returns at n = 100 003 (not a multiple of 8) on two
    BLAS threads: one row's return has other last bits than one product
    over the whole table, yet risk.json and bins.csv keep the bytes that
    product gave. The digests are this build's; a change in them shows a
    change in the output."""
    dim = 8
    a = np.random.default_rng(31).standard_normal((dim, dim))
    cov = a @ a.T + dim * np.eye(dim)
    corr = cov / np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    np.fill_diagonal(corr, 1.0)
    model = tmp_path / "model.json"
    save_model(model, CopulaModel(
        marginals=tuple(ExponentialMarginal(m=0.001 * j, chi=0.01 + 0.002 * j)
                        for j in range(dim)),
        correlation=CorrelationMatrix.from_matrix(corr),
        channels=tuple(f"c{j}" for j in range(dim))))
    out = tmp_path / "risk"
    proc = subprocess.run(
        [sys.executable, "-m", "tailfolio.cli", "risk", str(model), "--n", "100003",
         "--seed", "1", "--out", str(out)], capture_output=True, text=True, timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("risk.json", "bins.csv")}
    assert digests == {
        "risk.json": "9078cbb6aa82767f2730ad4cb85c4c6694120bc7181150695ac2a8c565bf4cf7",
        "bins.csv": "6a7307088bde480254d7b14d034859b08ff0a20712afacff024f30a28f3bf535"}


def test_sample_peak_memory_does_not_grow_with_n(tmp_path):
    """sample never holds its (n, N) table: each part draws, colors and
    maps a row block at a time and formats it into its file, so 4 times
    the rows add less than 2 MB; a whole table would add 19.2 MB."""
    model = tmp_path / "model.json"
    save_model(model, CopulaModel(
        marginals=(ExponentialMarginal(m=0.0, chi=0.01),) * 8,
        correlation=CorrelationMatrix.from_matrix(np.eye(8))))
    peaks = [command_peak_mb(["sample", model, "--n", n, "--out", tmp_path / f"s{n}"])
             for n in (100_000, 400_000)]
    assert abs(peaks[1] - peaks[0]) < 2.0, peaks


@pytest.mark.parametrize("template", ["linear", "contracts"])
def test_optimize_keeps_its_bytes_on_one_and_two_blas_threads(tmp_path, template):
    """optimize costs each trial with one dx @ vec over the whole table; at
    n = 20 001, off the 8-row grid, positions.json and the trace are the
    same on one OpenBLAS thread as on two."""
    dim = 8
    rng = np.random.default_rng(17)
    loads = rng.uniform(0.2, 0.6, dim)
    corr = np.outer(loads, loads)
    np.fill_diagonal(corr, 1.0)
    model = tmp_path / "model.json"
    save_model(model, CopulaModel(
        marginals=tuple(ExponentialMarginal(m=m, chi=chi) for m, chi in
                        zip(rng.uniform(0.0005, 0.003, dim), rng.uniform(0.01, 0.03, dim))),
        correlation=CorrelationMatrix.from_matrix(corr),
        channels=tuple(f"a{j}" for j in range(dim))))
    prices = rng.uniform(20.0, 120.0, dim)
    shape = {"linear": {"template": {"type": "linear"}, "bounds": [[0.0, 1.0]] * dim},
             "contracts": {"template": {"type": "contracts", "prices": prices.tolist(),
                                        "entry_prices": (1.05 * prices).tolist(),
                                        "cash": 10000.0},
                           "bounds": [[0.0, 20.0]] * dim}}[template]
    config = write_config(tmp_path, {**shape, "n": 20_001, "refine_calls": 50,
                                     "risk": {"penalty_weight": 1e3},
                                     "anneal": {"seed": 7, "max_trials": 400,
                                                "window_repeat_tol": -1.0}})
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        # a plain run: an infeasible result exits 5, and still writes
        proc = subprocess.run(
            [sys.executable, "-m", "tailfolio.cli", "optimize", str(model), "--config",
             config, "--seed", "1", "--verbose", "--out", str(out)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": SRC})
        assert proc.returncode in (0, 5), proc.stderr
        runs.append((proc.returncode, proc.stdout.replace(str(out), "out"), proc.stderr,
                     (out / "positions.json").read_bytes(),
                     (out / "trace_optimize.csv").read_bytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sample_and_risk_keep_their_bytes_in_parts(tmp_path, threads):
    """At n off the 8-row grid, the commands, in as many parts as this
    machine gives them, write the bytes of one part in this process."""
    dim = 8
    model = tmp_path / "model.json"
    save_model(model, CopulaModel(
        marginals=tuple(ExponentialMarginal(m=0.001 * j, chi=0.01 + 0.002 * j)
                        for j in range(dim)),
        correlation=CorrelationMatrix.from_matrix(
            np.full((dim, dim), 0.3) + 0.7 * np.eye(dim))))
    runs = (["sample", model, "--n", 77_777], ["risk", model, "--n", 300_007])
    for i, args in enumerate(runs):
        command_peak_mb([*args, "--seed", 3, "--out", tmp_path / f"parts{i}"],
                        env={"OPENBLAS_NUM_THREADS": threads})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modelfile, "_PART_VALUES", 1 << 62)
        for i, args in enumerate(runs):
            assert cli.main([*map(str, args), "--seed", "3",
                             "--out", str(tmp_path / f"one{i}")]) == 0
    for i, name in ((0, "events.csv"), (1, "risk.json"), (1, "bins.csv")):
        assert ((tmp_path / f"parts{i}" / name).read_bytes()
                == (tmp_path / f"one{i}" / name).read_bytes()), name


@pytest.mark.parametrize("args, message", [
    (["sample", "{model}", "--n", "0"], "--n must be >= 1"),
    (["sample", "{missing}"], "cannot read"),
    (["risk", "{model}", "--n", "1"], "--n must be >= 2, got 1"),
    (["risk", "{model}", "--weights", "1,2"], "--weights needs 8 value(s), got 2"),
    (["risk", "{model}", "--var", "-1"], "'var_level' must be > 0"),
    (["fit-marginals", "{missing}"], "cannot read"),
    (["optimize", "{missing}"], "cannot read"),
    (["optimize", "{model}"], "optimize config needs 8 'bounds' pair(s), got 0"),
    (["optimize", "{model}", "--config", "{risk}"], "'var_level' must be > 0"),
    # an infinite setting is named, where 0 * inf would make the cost NaN
    (["risk", "{model}", "--var", "inf"], "'var_level' must be finite, got inf"),
    (["risk", "{model}", "--var", "1e400"], "'var_level' must be finite, got inf"),
    (["optimize", "{model}", "--config", "{tolerance}"],
     "'q_tolerance' must be finite, got inf"),
    (["optimize", "{model}", "--config", "{risk_penalty}"],
     "'penalty_weight' must be finite, got inf"),
    (["eeg", "simulate", "{missing}"], "cannot read"),
    (["eeg", "simulate", "{net}", "--epochs", "0"], "epochs must be >= 1"),
    (["eeg", "fit", "{net}", "{missing}"], "cannot read"),
    (["eeg", "check", "{net}", "{missing}"], "cannot read"),
    (["indicators"], "indicators config needs >= 2 'methods'"),
    # checks a fit or a search makes as it starts
    (["eeg", "fit", "{net}", "{series}", "--config", "{twice}"],
     "free parameter 'Fz.offset' is repeated"),
    (["eeg", "fit", "{net}", "{series}", "--config", "{unbounded}"],
     "missing bounds for parameter 'Fz.offset'"),
    (["eeg", "fit", "{net}", "{series}", "--config", "{x0}"],
     "'x0' needs one value per bound, got shape (2,)"),
    (["eeg", "fit", "{net}", "{series}", "--config", "{penalty}"],
     "'penalty_weight' must be >= 0, got -1.0"),
    (["eeg", "fit", "{net}", "{series}", "--config", "{infinite_penalty}"],
     "'penalty_weight' must be finite, got inf"),
    (["indicators", "--config", "{holdout}"], "holdout_fraction must be in (0, 1)"),
])
def test_a_command_that_refuses_creates_no_out_dir(tmp_path, capsys, args, message):
    model, net = tmp_path / "model.json", tmp_path / "net.json"
    save_model(model, CopulaModel(
        marginals=(ExponentialMarginal(m=0.0, chi=0.01),) * 8,
        correlation=CorrelationMatrix.from_matrix(np.eye(8))))
    save_net(net, two_site_net())
    series = tmp_path / "series.csv"
    write_series_csv(series, np.random.default_rng(2).normal(size=(20, 2)), ("Fz", "Cz"))
    bounds = {"Fz.offset": [-1.0, 1.0]}
    configs = {name: write_config(tmp_path, cfg, f"{name}.json") for name, cfg in {
        "risk": {"bounds": [[0.0, 1.0]] * 8, "risk": {"var_level": -1}},
        "tolerance": {"bounds": [[0.0, 1.0]] * 8, "risk": {"q_tolerance": math.inf}},
        "risk_penalty": {"bounds": [[0.0, 1.0]] * 8, "risk": {"penalty_weight": math.inf}},
        "twice": {"free": ["Fz.offset"] * 2, "bounds": bounds},
        "unbounded": {"free": ["Fz.offset"]},
        "x0": {"free": ["Fz.offset"], "bounds": bounds, "anneal": {"x0": [0.5, 0.5]}},
        "penalty": {"free": ["Fz.offset"], "bounds": bounds, "penalty_weight": -1},
        "infinite_penalty": {"free": ["Fz.offset"], "bounds": bounds,
                             "penalty_weight": math.inf},
        "holdout": {"methods": [{"name": "m0", "csv": str(series), "column": "Fz"},
                                {"name": "m1", "csv": str(series), "column": "Cz"}],
                    "holdout_fraction": 2.0},
    }.items()}
    out = tmp_path / "out"
    argv = [a.format(model=model, net=net, series=series, **configs,
                     missing=tmp_path / "missing.json") for a in args]
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_a_missing_nested_out_is_made_and_a_rerun_keeps_its_bytes(tmp_path):
    model, out = make_model_json(tmp_path), tmp_path / "a" / "b"
    runs = []
    for _ in range(2):
        assert cli.main(["sample", model, "--n", "50", "--out", str(out)]) == 0
        assert os.listdir(out) == ["events.csv"]
        runs.append((out / "events.csv").read_bytes())
    assert runs[0] == runs[1]


def _file_size_limit():
    """In a child before it runs Python: writes past 1 MB fail with EFBIG,
    rather than ending the child with SIGXFSZ."""
    import resource
    resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 20, 1 << 20))
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="no SIGXFSZ")
@pytest.mark.parametrize("one_part", [False, True], ids=["in-parts", "one-part"])
def test_a_write_that_fails_partway_leaves_no_file(tmp_path, one_part):
    """sample writes an 18 MB events.csv under a 1 MB file size limit: the
    write fails once the file is open, in parts where this machine has more
    than one CPU, and again as one part; exit 10, with neither events.csv
    nor its temporary left in --out."""
    model, out = tmp_path / "model.json", tmp_path / "out"
    save_model(model, CopulaModel(
        marginals=(ExponentialMarginal(m=0.0, chi=0.01),) * 8,
        correlation=CorrelationMatrix.from_matrix(np.eye(8))))
    script = ("import sys; from tailfolio import cli, modelfile; "
              + "modelfile._PART_VALUES = 1 << 62; " * one_part
              + "sys.exit(cli.main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", script, "sample", str(model), "--n", "100000",
         "--out", str(out)], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC}, preexec_fn=_file_size_limit)
    assert proc.returncode == 10, proc.stderr
    assert "File too large" in proc.stderr
    assert os.listdir(out) == []
