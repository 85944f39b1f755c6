import os

import numpy as np
import pytest

from tailfolio.anneal import SENTINEL, local_refine
from tailfolio.errors import DegenerateData, OutOfDomain
from tailfolio.indicators import (MethodStream, fit_indicator_weights,
                                  indicator_report, stream_from_net)
from tailfolio.marginals import sample, ExponentialMarginal, fit_exponential

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
    report, _ = indicator_report(streams, fit_weights=True)
    w = np.array(list(report["weights"]["values"].values()))
    assert float(np.linalg.norm(w)) == pytest.approx(1.0, rel=1e-9)
    assert report["weights"]["fitted"]


def test_fit_weights_flat_surface():
    # constant training streams never fit a marginal, so no start is finite
    train = np.zeros((200, 2))
    holdout = np.ones((50, 2))
    w, flat, res = fit_indicator_weights(train, holdout)
    assert res is None
    assert flat
    assert float(np.linalg.norm(w)) == pytest.approx(1.0, rel=1e-9)


def _informative():
    rng = np.random.default_rng(21)
    strong = rng.laplace(0.0, 0.2, size=1200)
    noise = rng.normal(0.0, 4.0, size=1200)
    return (np.stack([strong[:900], noise[:900]], axis=1),
            np.stack([strong[900:], noise[900:]], axis=1))


def test_fit_weights_on_an_informative_surface_are_not_flat():
    train, holdout = _informative()
    _, flat, _ = fit_indicator_weights(train, holdout)
    assert not flat


def test_fit_weights_prefers_informative_direction():
    train, holdout = _informative()
    w, _, _ = fit_indicator_weights(train, holdout)
    # the tight channel should dominate the mix
    assert abs(w[0]) > abs(w[1])


def test_fitted_weights_report_one_sign():
    # cost(-w) is cost(w) to the bit, so a polish lands on either sign; the
    # winning polish on these streams ends with its largest entry negative
    data = np.stack([s.values for s in make_streams()], axis=1)
    w, _, res = fit_indicator_weights(data[:300], data[300:])
    assert res.x[np.argmax(np.abs(res.x))] < 0.0
    assert np.array_equal(np.sign(w), -np.sign(res.x))
    assert w[np.argmax(np.abs(w))] > 0.0


def _heldout_cost(train, holdout, w):
    """The weight fit's cost, written out: -log-likelihood of holdout @ w/|w|
    under the marginal fitted to train @ w/|w|."""
    norm = float(np.linalg.norm(w))
    if norm < 1e-12:
        return SENTINEL
    wn = np.asarray(w) / norm
    try:
        marg = fit_exponential(train @ wn)
    except DegenerateData:
        return SENTINEL
    t = holdout @ wn - marg.m
    widths = marg.side_width(t)
    return -float(np.sum(-np.log(2.0 * widths) - np.abs(t) / widths))


def test_fit_weights_reach_the_polish_from_the_equal_weights_and_each_axis():
    # four streams of one shared Laplace factor; an anneal from the equal
    # weights followed by a polish ended 42 nats above the best of these
    rng = np.random.default_rng([15, 4, 7])
    factor = rng.laplace(0.0, 1.0, 2000)
    noise = rng.laplace(0.0, 0.3, (2000, 4))
    loadings = rng.uniform(0.5, 2.0, 4)
    data = factor[:, None] * loadings + noise
    train, holdout = data[:1500], data[1500:]
    w, _, _ = fit_indicator_weights(train, holdout)
    polished = [local_refine(lambda x: _heldout_cost(train, holdout, x), start,
                             [(-1.0, 1.0)] * 4, max_calls=500).cost
                for start in (np.full(4, 0.5), *np.eye(4))]
    assert _heldout_cost(train, holdout, w) <= min(polished) + 1e-9


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
