import numpy as np
import pytest

from tailfolio.anneal import SENTINEL, AnnealConfig
from tailfolio.errors import OutOfDomain
from tailfolio.indicators import (MethodStream, fit_indicator_weights,
                                  indicator_report, stream_from_net)
from tailfolio.marginals import sample, ExponentialMarginal

from helpers import two_site_net


def make_streams(t=400, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.laplace(0.01, 0.4, size=t)
    b = 0.3 * a + rng.laplace(-0.02, 0.5, size=t)
    return [MethodStream("surveys", a), MethodStream("sensors", b)]


def test_stream_shapes():
    s = MethodStream("x", [[1.0], [2.0]])
    assert s.values.shape == (2,)
    assert isinstance(s, MethodStream)


def test_stack_guards():
    with pytest.raises(OutOfDomain, match="at least two"):
        indicator_report([MethodStream("only", np.zeros(10))])
    bad = [MethodStream("a", np.zeros(10)),
           MethodStream("b", np.zeros(11))]
    with pytest.raises(OutOfDomain, match="differ in epoch count"):
        indicator_report(bad)


def test_stream_from_net_unit_scale():
    net = two_site_net()
    from tailfolio.eeg import simulate
    phi = simulate(net, 1500, seed=10)
    s = stream_from_net("eeg", net, phi)
    assert s.values.shape == (1499,)
    # innovations are standardized, and the scaled sum stays near unit variance
    assert float(np.std(s.values)) == pytest.approx(1.0, abs=0.1)


def test_report_ok_path():
    streams = make_streams()
    report, model = indicator_report(streams, holdout_fraction=0.25)
    assert report["status"] == "ok"
    assert report["methods"] == ["surveys", "sensors"]
    assert report["epochs"] == 400
    assert report["train_epochs"] == 300
    assert report["holdout_epochs"] == 100
    assert model is not None
    assert model.channels == ("surveys", "sensors")
    # positively related streams show up in the copula correlation
    assert report["correlation"][0][1] > 0.1
    w = report["weights"]["values"]
    assert w["surveys"] == pytest.approx(1.0 / np.sqrt(2.0))
    assert not report["weights"]["fitted"]
    assert report["portfolio"]["train"]["n"] == 300
    assert 0.0 < report["overlaps"]["train_holdout"] <= 1.0


def test_report_explicit_weights():
    streams = make_streams()
    report, model = indicator_report(streams, weights=(0.8, -0.6))
    assert report["weights"]["values"]["surveys"] == 0.8
    assert not report["weights"]["fitted"]
    with pytest.raises(OutOfDomain, match="weights length must match method count"):
        indicator_report(streams, weights=(1.0,))


def test_report_degenerate_pairing():
    base = sample(ExponentialMarginal(m=0.0, chi=1.0), 300, seed=5)
    streams = [MethodStream("a", base),
               MethodStream("b", base.copy()),
               MethodStream("c", sample(ExponentialMarginal(m=0.0, chi=1.0),
                                        300, seed=6))]
    report, model = indicator_report(streams)
    assert report["status"] == "degenerate_pairing"
    assert model is None
    pairs = report["degenerate_pairs"]
    assert any(p[0] == "a" and p[1] == "b" for p in pairs)
    assert all(abs(p[2]) >= 0.999 for p in pairs)
    assert "weights" not in report


def test_report_state_overlaps():
    streams = make_streams(t=600, seed=3)
    labels = ["calm"] * 300 + ["storm"] * 300
    report, _ = indicator_report(streams, state_labels=labels)
    assert set(report["states"]) == {"calm", "storm"}
    key = "calm|storm"
    assert key in report["overlaps"]["states"]
    assert 0.0 < report["overlaps"]["states"][key] <= 1.0
    with pytest.raises(OutOfDomain, match="state_labels length must match epoch count"):
        indicator_report(streams, state_labels=["x"] * 10)


def test_report_holdout_fraction_guard():
    streams = make_streams()
    for fraction in (0.0, 1.0):
        with pytest.raises(OutOfDomain, match=r"holdout_fraction must be in \(0, 1\)"):
            indicator_report(streams, holdout_fraction=fraction)


def test_fit_weights_unit_norm():
    streams = make_streams(t=800, seed=9)
    report, _ = indicator_report(streams, fit_weights=True,
                                 config=AnnealConfig(seed=2, max_trials=800))
    w = np.array(list(report["weights"]["values"].values()))
    assert float(np.linalg.norm(w)) == pytest.approx(1.0, rel=1e-9)
    assert report["weights"]["fitted"]


def test_fit_weights_flat_surface():
    # constant training streams never fit a marginal, so every trial ties
    train = np.zeros((200, 2))
    holdout = np.ones((50, 2))
    w, flat, res = fit_indicator_weights(train, holdout,
                                         AnnealConfig(seed=1, max_trials=600))
    assert set(res.trace[0::2]) == {SENTINEL}
    assert flat
    assert float(np.linalg.norm(w)) == pytest.approx(1.0, rel=1e-9)


def _informative():
    rng = np.random.default_rng(21)
    strong = rng.laplace(0.0, 0.2, size=1200)
    noise = rng.normal(0.0, 4.0, size=1200)
    return (np.stack([strong[:900], noise[:900]], axis=1),
            np.stack([strong[900:], noise[900:]], axis=1))


def test_fit_weights_short_run_on_an_informative_surface_is_not_flat():
    # flat reads every trial cost, so a run of under 200 trials is judged
    # on the spread of what it tried
    train, holdout = _informative()
    _, flat, res = fit_indicator_weights(train, holdout,
                                         AnnealConfig(seed=4, max_trials=150))
    assert len(res.trace) // 2 < 200
    assert not flat


def test_fit_weights_prefers_informative_direction():
    train, holdout = _informative()
    w, _, _ = fit_indicator_weights(train, holdout,
                                    AnnealConfig(seed=4, max_trials=2000))
    # the tight channel should dominate the mix
    assert abs(w[0]) > abs(w[1])


def test_fitted_weights_report_one_sign():
    # cost(-w) is cost(w) to the bit, so the search lands on either sign;
    # these two seeds land on opposite ones
    data = np.stack([s.values for s in make_streams()], axis=1)
    train, holdout = data[:300], data[300:]
    (w0, _, r0), (w2, _, r2) = (
        fit_indicator_weights(train, holdout, AnnealConfig(seed=seed, max_trials=800))
        for seed in (0, 2))
    assert np.sign(r0.x[0]) == -np.sign(r2.x[0])
    assert np.array_equal(np.sign(w0), np.sign(w2))
    assert w0[np.argmax(np.abs(w0))] > 0.0


def test_degenerate_pairing_names_stream_flat_after_pre_averaging():
    # a period-3 stream averages to a constant over the 3-epoch window
    a = np.tile([0.0, 1.0, -1.0], 134)[:400]
    b = np.random.default_rng(3).normal(size=400)
    report, model = indicator_report([MethodStream("a", a),
                                      MethodStream("b", b)])
    assert model is None
    assert report["status"] == "degenerate_pairing"
    assert report["degenerate_pairs"]
    assert all("a" in pair[:2] for pair in report["degenerate_pairs"])
    # a has no variance left, so its correlation with b is undefined
    assert report["degenerate_pairs"] == [["a", "b", None]]
