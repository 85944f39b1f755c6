import io
import json

import numpy as np
import pytest

from tailfolio import modelfile
from tailfolio.anneal import AnnealConfig, minimize
from tailfolio.copula import CopulaModel, CorrelationMatrix
from tailfolio.cli import exit_code_for
from tailfolio.eeg import ColumnParams
from tailfolio.errors import OutOfDomain, ParseError
from tailfolio.marginals import ExponentialMarginal
from tailfolio.modelfile import (anneal_config_from_dict, fmt, load_json,
                                 load_model, load_net, read_series_csv,
                                 read_table, save_json, save_model, save_net,
                                 write_bins_csv, write_series_csv, write_table,
                                 write_trace_csv)
from tailfolio.risk import fit_bins

from helpers import two_site_net


def test_fmt_round_trips_doubles():
    values = [0.1, 1.0 / 3.0, 1e-300, -2.5e17, np.pi, 5e-324]
    for v in values:
        assert float(fmt(v)) == v


def test_table_round_trip_exact(tmp_path):
    path = tmp_path / "t.csv"
    rows = np.array([[0.1, 1.0 / 3.0], [-1e-17, 2.0 ** 53]])
    write_table(path, ("a", "b"), rows)
    header, data = read_table(path)
    assert header == ("a", "b")
    assert np.array_equal(data, rows)
    text = path.read_text()
    assert "\r" not in text
    assert text.endswith("\n")


def test_write_table_matches_per_value_format(tmp_path):
    # the bytes of the former writer: "%.17g" per value, joined by commas
    special = [-0.0, 5e-324, 2.0 ** 53, 1.0 / 3.0, np.inf, -np.inf, np.nan,
               -1e-300, 1e308, 0.1]
    values = np.column_stack([np.arange(len(special)), special,
                              -np.asarray(special[::-1])])
    path = tmp_path / "t.csv"
    write_table(path, ("index", "a", "b"), values)
    expected = "index,a,b\n" + "".join(
        ",".join("%.17g" % float(v) for v in row) + "\n" for row in values)
    assert path.read_bytes() == expected.encode("utf-8")
    assert "-0," in expected and ",inf," in expected and "nan" in expected

    empty = tmp_path / "empty.csv"
    write_table(empty, ("a", "b"), np.empty((0, 2)))
    assert empty.read_bytes() == b"a,b\n"

    # 4097 rows cross a 4096-row block; specials sit on both sides of it
    rng = np.random.default_rng(5)
    many = rng.standard_normal((4097, 3)) * 10.0 ** rng.integers(-300, 300, (4097, 3))
    cells = [(0, 0), (1, 1), (4094, 2), (4095, 0), (4095, 1), (4095, 2),
             (4096, 0), (4096, 1), (4096, 2), (2000, 1)]
    for (row, col), v in zip(cells, special):
        many[row, col] = v
    big = tmp_path / "big.csv"
    write_table(big, ("x", "y", "z"), many)
    expected = "x,y,z\n" + "".join(
        ",".join("%.17g" % float(v) for v in row) + "\n" for row in many)
    assert big.read_bytes() == expected.encode("utf-8")
    former = io.StringIO()
    np.savetxt(former, many, fmt="%.17g", delimiter=",", header="x,y,z", comments="")
    assert big.read_text() == former.getvalue()
    with pytest.raises(ParseError, match="width"):
        write_table(empty, ("a", "b"), np.zeros((2, 3)))


def test_trace_csv_matches_former_annealer_format(tmp_path):
    res = minimize(lambda p: float(np.sum(p ** 2)), [(-1.0, 1.0)] * 2,
                   AnnealConfig(seed=2, max_trials=300))
    path = tmp_path / "trace.csv"
    write_trace_csv(path, res)
    costs, temps = res.trace[0::2], res.trace[1::2]
    assert len(costs) == res.trials
    expected = "trial,cost,accept_temp\n" + "".join(
        f"{i},{c:.17g},{t:.17g}\n" for i, (c, t) in enumerate(zip(costs, temps), 1))
    assert path.read_text() == expected


def test_read_table_names_the_file_line(tmp_path):
    late = tmp_path / "late.csv"
    late.write_text("a,b\n1.0,2.0\n\n3.0,oops\n")
    with pytest.raises(ParseError, match=r"late\.csv:4: .*'oops'"):
        read_table(late)

    narrow = tmp_path / "narrow.csv"
    narrow.write_text("a,b,c\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ParseError, match=r"narrow\.csv:2: expected 3 fields, got 2"):
        read_table(narrow)

    # Python's float() takes digit separators; the table format does not
    underscore = tmp_path / "underscore.csv"
    underscore.write_text("a\n1.0\n1_000\n")
    with pytest.raises(ParseError, match=r"underscore\.csv:3"):
        read_table(underscore)

    blank_only = tmp_path / "blank.csv"
    blank_only.write_text("a,b\n\n  \n")
    with pytest.raises(ParseError, match="no data rows"):
        read_table(blank_only)


def test_read_table_skips_blank_and_whitespace_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("a,b\n1.0,2.0\n\n   \n3.0, 4.0 \n")
    header, data = read_table(path)
    assert header == ("a", "b")
    assert np.array_equal(data, [[1.0, 2.0], [3.0, 4.0]])
    single = tmp_path / "single.csv"
    single.write_text("x\n5.0\n")
    assert read_table(single)[1].shape == (1, 1)


def test_read_table_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ParseError, match="no data rows"):
        read_table(empty)

    header_only = tmp_path / "header.csv"
    header_only.write_text("a,b\n")
    with pytest.raises(ParseError, match="no data rows"):
        read_table(header_only)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1.0,2.0\n3.0\n")
    with pytest.raises(ParseError, match="expected 2 fields"):
        read_table(ragged)

    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1.0,oops\n")
    with pytest.raises(ParseError, match=r"bad\.csv:2"):
        read_table(bad)

    with pytest.raises(ParseError, match="cannot read"):
        read_table(tmp_path / "missing.csv")


def test_series_csv_index_column(tmp_path):
    path = tmp_path / "series.csv"
    values = np.array([[1.5, -2.5], [0.25, 0.75], [3.0, 4.0]])
    write_series_csv(path, values, ("Fz", "Cz"))
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,Fz,Cz"
    assert lines[1].startswith("0,")
    names, data = read_series_csv(path)
    assert names == ("Fz", "Cz")
    assert np.array_equal(data, values)


def test_series_csv_plain_header_kept(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("x,y\n1.0,2.0\n")
    names, data = read_series_csv(path)
    assert names == ("x", "y")
    assert data.shape == (1, 2)


def test_bins_csv(tmp_path):
    dist = fit_bins(np.random.default_rng(1).laplace(0, 1, 500), bin_count=10)
    path = tmp_path / "bins.csv"
    write_bins_csv(path, dist)
    header, data = read_table(path)
    assert header == ("edge_low", "edge_high", "count")
    assert data.shape == (10, 3)
    assert int(data[:, 2].sum()) == 500
    assert np.array_equal(data[:, 0], dist.bin_edges[:-1])
    assert np.array_equal(data[:, 1], dist.bin_edges[1:])


def test_json_round_trip_numpy(tmp_path):
    path = tmp_path / "x.json"
    save_json(path, {"a": np.float64(0.1), "b": np.int64(3),
                     "c": np.array([1.5, 2.5]), "d": (1, 2)})
    back = load_json(path)
    assert back == {"a": 0.1, "b": 3, "c": [1.5, 2.5], "d": [1, 2]}
    assert path.read_text().endswith("\n")


def test_load_json_errors(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{\n  "a": 1,\n}\n')
    with pytest.raises(ParseError, match="line 3"):
        load_json(bad)
    with pytest.raises(ParseError, match="cannot read"):
        load_json(tmp_path / "gone.json")


def make_model():
    return CopulaModel(
        marginals=(ExponentialMarginal(m=0.1, chi=0.5),
                   ExponentialMarginal(m=-0.2, chi=1.5,
                                       chi_minus=1.0, chi_plus=2.0)),
        correlation=CorrelationMatrix.from_matrix([[1.0, 0.25], [0.25, 1.0]]),
        channels=("spx", "bond"),
    )


def test_model_round_trip(tmp_path):
    path = tmp_path / "model.json"
    model = make_model()
    save_model(path, model)
    back = load_model(path)
    assert back.channels == model.channels
    assert back.marginals == model.marginals
    assert np.array_equal(back.correlation.matrix, model.correlation.matrix)
    payload = json.loads(path.read_text())
    assert payload["kind"] == "copula_model"
    assert payload["marginals"][0]["channel"] == "spx"
    assert payload["marginals"][1]["chi_minus"] == 1.0


def test_load_model_errors(tmp_path):
    path = tmp_path / "model.json"
    save_json(path, {"kind": "something_else"})
    with pytest.raises(ParseError, match="copula_model"):
        load_model(path)
    save_json(path, {"kind": "copula_model", "channels": ["a"]})
    with pytest.raises(ParseError, match="malformed"):
        load_model(path)


def test_net_round_trip(tmp_path):
    path = tmp_path / "net.json"
    net = two_site_net(weight=0.07, delay=2)
    save_net(path, net)
    back = load_net(path)
    assert back == net
    payload = json.loads(path.read_text())
    assert payload["kind"] == "region_net"
    assert payload["couplings"][0]["delay"] == 2


def test_json_key_order_pinned(tmp_path):
    net_path = tmp_path / "net.json"
    save_net(net_path, two_site_net(weight=0.07, delay=2))
    net = json.loads(net_path.read_text())
    assert list(net) == ["kind", "dt_ms", "denominator_approx", "columns",
                         "sites", "couplings"]
    assert list(net["columns"]) == [
        "n_e", "n_i", "tau_ms", "threshold", "gain", "background", "pol_mean",
        "pol_var", "lr_count", "lr_gain", "lr_background"]
    assert list(net["sites"][0]) == ["name", "offset", "gain_e", "gain_i",
                                     "trough_slope"]
    assert list(net["couplings"][0]) == ["source", "target", "weight", "delay"]

    model_path = tmp_path / "model.json"
    save_model(model_path, make_model())
    model = json.loads(model_path.read_text())
    assert list(model) == ["kind", "channels", "marginals", "correlation"]
    assert list(model["marginals"][0]) == ["channel", "m", "chi", "chi_minus",
                                           "chi_plus"]


def edited_net_file(tmp_path, edit):
    """A saved two-site net with edit applied to its JSON payload."""
    path = tmp_path / "net.json"
    save_net(path, two_site_net(weight=0.07, delay=2))
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("tau", [0.0, -5.0, float("inf"), float("nan")])
def test_columns_reject_nonpositive_or_nonfinite_tau(tmp_path, tau):
    with pytest.raises(OutOfDomain, match="tau_ms"):
        ColumnParams(tau_ms=tau)
    path = edited_net_file(tmp_path, lambda d: d["columns"].update(tau_ms=tau))
    with pytest.raises(OutOfDomain, match="tau_ms") as info:
        load_net(path)
    assert exit_code_for(info.value) == 2


@pytest.mark.parametrize("delay", [1.7, -1, "2", float("inf")])
def test_load_net_rejects_a_delay_it_would_truncate(tmp_path, delay):
    path = edited_net_file(tmp_path, lambda d: d["couplings"][0].update(delay=delay))
    with pytest.raises(ParseError, match="malformed net block"):
        load_net(path)
    path = edited_net_file(tmp_path, lambda d: d["couplings"][0].update(delay=2.0))
    assert load_net(path).couplings[0].delay == 2


@pytest.mark.parametrize("approx", ["false", 0.5])
def test_load_net_reads_denominator_approx_as_a_json_boolean(tmp_path, approx):
    path = edited_net_file(tmp_path, lambda d: d.update(denominator_approx=approx))
    with pytest.raises(ParseError, match="denominator_approx") as info:
        load_net(path)
    assert exit_code_for(info.value) == 2
    path = edited_net_file(tmp_path, lambda d: d.update(denominator_approx=False))
    assert load_net(path).denominator_approx is False
    path = edited_net_file(tmp_path, lambda d: d.pop("denominator_approx"))
    assert load_net(path).denominator_approx is True


def test_load_net_kind_guard(tmp_path):
    path = tmp_path / "net.json"
    save_json(path, {"kind": "copula_model"})
    with pytest.raises(ParseError, match="region_net"):
        load_net(path)


def test_anneal_config_from_dict():
    cfg = anneal_config_from_dict({"t0": 2.0, "max_trials": 500.0,
                                   "seed": 3.0, "x0": [0.5, 0.25]})
    assert cfg == AnnealConfig(t0=2.0, max_trials=500, seed=3, x0=(0.5, 0.25))
    assert isinstance(cfg.max_trials, int)
    with pytest.raises(ParseError, match="unknown annealer option"):
        anneal_config_from_dict({"temperature": 1.0})
    for bad in ({"max_trials": 2.9}, {"regen_attempts": "5"},
                {"acceptance_window": float("nan")}, {"seed": float("inf")}):
        with pytest.raises(ParseError, match="must be an integer"):
            anneal_config_from_dict(bad)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ParseError, match="u64"):
            anneal_config_from_dict({"seed": seed})
    assert anneal_config_from_dict({"seed": 2 ** 64 - 1}).seed == 2 ** 64 - 1


def test_ensure_out_dir(tmp_path):
    target = tmp_path / "a" / "b"
    got = modelfile.ensure_out_dir(target)
    assert got == str(target)
    assert target.is_dir()
    # second call is a no-op
    assert modelfile.ensure_out_dir(target) == str(target)
