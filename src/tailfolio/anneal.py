"""Adaptive simulated annealing with per-parameter reannealing.

Generation temperatures follow T_i(k_i) = T0 exp(-c k_i^(1/D)) where D is the
search dimension and each parameter carries its own annealing-time counter
k_i. Candidate steps use the heavy-tailed generating law

    delta = sgn(u - 1/2) T [(1 + 1/T)^{|2u - 1|} - 1] * (hi - lo)

whose occasional full-range jumps are what lets the schedule cool this fast.
Out-of-bounds coordinates are re-drawn (up to a retry cap) and finally
clamped, using uniforms in round-major order (see generate_candidate); that
order, and computing the law and the generation temperatures with numpy's
array power and exp (scalar math can differ in the last bit), are part of
the byte contract. Acceptance is Metropolis on a separate temperature
annealed by the same law with its own counter that advances once per
accepted point.

Every counter advances by exactly 1.0 per trial until a reanneal, so the
generation temperatures of the next TEMPERATURE_BLOCK trials are computed in
one pass: np.add.accumulate down a block whose first row is the counters and
whose other rows are 1.0 adds 1.0 one row at a time, the bits of repeated
k += 1.0, and numpy's ufuncs give each element the bits they give it in a
(D,) array, whatever the array's shape. A reanneal drops the block.

The schedule is sized to the budget, as ASA's Temperature_Ratio_Scale and
Temperature_Anneal_Scale do: unless set, c and accept_c are
-ln(TEMPERATURE_RATIO) max_trials^(-1/D), so a counter that reaches
max_trials has cooled its temperature to TEMPERATURE_RATIO (1e-8) of its
start; an explicit c or accept_c overrides it.
Before the first trial the cost is sampled at four points drawn uniformly
from the box (ASA's Number_Cost_Samples). The mean absolute deviation of
those costs and the cost at x0 is the cost scale (1 where it is 0): the
acceptance temperature starts there unless accept_t0 is set, and the exit
measures improvements in it. A spread is offset-invariant. Generation,
acceptance and the cost samples each draw from their own UniformStream, so
an uphill decision does not shift later candidates.

Every reanneal interval (counted in acceptances) the parameter counters are
rescaled from cost sensitivities at the best point (x, C) of that moment.
As in ASA, each is a one-sided tangent, s_i = |C(x + h_i e_i) - C| / |h_i|,
one evaluation per free parameter: h_i is sensitivity_step times the range,
negated where x_i + h_i would pass the upper bound. Only cost differences
enter, so a constant offset in the cost does not move them. The new k_i solves
T_i(k_i) = T_i(old) * s_max/s_i, clamped to [1, k_max], so directions the
cost barely feels are re-heated relative to sensitive ones.

The run stops at the trial budget (default 20000), or once max_trials // 10
trials in a row have not lowered the best trial cost by more than
window_repeat_tol times the cost scale (ASA's Cost_Precision and
Maximum_Cost_Repeat): exit "cost-repeat". Only trial candidates count
toward that exit, measured from the first trial, so a start point better
than every trial does not end the run; x0, the samples and reanneal probes
still update the returned best.

A caller whose cost is a pure function of the point may say so
(pure_cost): then, where fork_cpus finds a second CPU, a forked worker
costs the block's next trial, made from the same point, while this process
costs the current one, as ASA_PARALLEL does. A cold chain rejects most
trials, so the next one is usually kept; when the current trial moves the
chain or ends the run, it is dropped and the generation stream is rewound
to its first uniform. The trials are judged in order either way, so the
result is the same to the bit.
`local_refine` is a bounded quasi-Newton polish (numerical gradients, capped
function calls) that never returns a point worse than its start. `search`
anneals and then polishes, and returns one result: the polished point and
cost, with trials counting the anneal's trials and the polish's calls.
"""

from __future__ import annotations

import math
import os
import select
import signal
import socket
import struct
import threading
import time
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import OutOfDomain
from .rng import UniformStream

_T_FLOOR = 1e-300
SENTINEL = 1e30      # stands in for a non-finite cost where one must be finite
GRAD_TOL = 1e-8      # local_refine's gradient tolerance, times 1 + |start cost|
COST_SAMPLES = 4     # box points sampled for the cost scale, besides x0
TEMPERATURE_RATIO = 1e-8    # final/initial temperature of the sized schedule
TEMPERATURE_BLOCK = 64      # trials whose generation temperatures share one pass
_REPLY = struct.Struct("d")     # a cost worker's reply: the cost
_SPIN = 0.002       # seconds a cost worker polls for a request before it sleeps
_PATIENCE = 1.0     # a reply's wait, over the time worked since its request


def temperature(k, t0=1.0, c=1.0, d: int = 1):
    """Annealing schedule T(k) = t0 exp(-c k^(1/d))."""
    k = np.asarray(k, dtype=float)
    out = t0 * np.exp(-c * k ** (1.0 / d))
    return float(out) if out.ndim == 0 else out


def _delta(u, t, base):
    """The generating law at floored temperatures t with bases 1 + 1/t.

    copysign(t, w) is sgn(w) t to the bit, and w + w is 2u - 1 (doubling
    is exact); at w = 0 both forms give delta = 0.
    """
    w = u - 0.5
    return np.copysign(t, w) * (base ** np.abs(w + w) - 1.0)


@dataclass
class AnnealConfig:
    """Knobs for minimize(); defaults follow the protocol in the module doc."""

    t0: float = 1.0
    c: float | None = None             # default: sized to max_trials and D
    accept_t0: float | None = None     # default: the cost scale
    accept_c: float | None = None      # default: as c
    reanneal_interval: int = 100       # acceptances between sensitivity rescales
    window_repeat_tol: float = 1e-6    # times the cost scale; negative: no exit
    max_trials: int = 20000
    k_max: float = 1e12
    regen_attempts: int = 100
    sensitivity_step: float = 1e-4     # times parameter range
    seed: int = 0
    x0: np.ndarray | None = None


@dataclass(frozen=True)
class OptResult:
    x: np.ndarray
    cost: float
    trials: int
    acceptances: int
    exit_reason: str    # converged | trial-limit | cost-repeat
    # per trial, in trial order: cost, acceptance temperature (interleaved)
    trace: array = field(default_factory=lambda: array("d"), repr=False)


def _check_bounds(bounds):
    try:
        arr = np.asarray(bounds, dtype=float)
    except (TypeError, ValueError):     # not numbers, or ragged
        arr = np.empty(0)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise OutOfDomain("bounds must be a sequence of (lo, hi) pairs")
    lo, hi = arr[:, 0] + 0.0, arr[:, 1] + 0.0      # -0.0 reads as 0.0
    if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
        raise OutOfDomain("bounds must be finite")
    if np.any(lo > hi):
        raise OutOfDomain("each lower bound must not exceed its upper bound")
    return lo, hi


def generate_candidate(x, temps, lo, hi, uniforms: UniformStream,
                       regen_attempts: int = 100, *, base) -> np.ndarray:
    """One candidate from the generating law, redrawing out-of-bounds dims.

    Uniforms are used round-major: round 0 draws every coordinate once, in
    index order; each later round redraws, in index order, the coordinates
    still outside [lo, hi], for at most regen_attempts rounds; whatever is
    still outside is then clipped. A coordinate's value is
    x_i + delta * (hi_i - lo_i), delta the law at temps_i, for the last u
    it drew. temps must already be floored at _T_FLOOR and base is
    1 + 1/temps.
    """
    cand = x + _delta(uniforms.take(x.size), temps, base) * (hi - lo)
    todo = np.flatnonzero((cand < lo) | (cand > hi))
    tries = 0
    while todo.size and tries < regen_attempts:
        lo_s, hi_s = lo[todo], hi[todo]
        redrawn = x[todo] + _delta(uniforms.take(todo.size), temps[todo],
                                   base[todo]) * (hi_s - lo_s)
        cand[todo] = redrawn
        todo = todo[(redrawn < lo_s) | (redrawn > hi_s)]
        tries += 1
    return cand.clip(lo, hi)


def tangents(cost, x, fx, step, lo, hi, free) -> np.ndarray:
    """One-sided cost sensitivities s_i = |C(x + h_i e_i) - C(x)| / |h_i|.

    Each free coordinate is probed once from the base point (x, fx), with
    h_i = step_i, or h_i = -step_i when x_i + step_i would pass hi_i; a probe
    is kept inside [lo, hi] and h_i is the step it actually took. Fixed
    coordinates are never probed. cost returns a float; a non-finite probe
    cost gives s_i = 0.
    """
    sens = np.zeros(x.size)
    for i in np.flatnonzero(free):
        probe = x.copy()
        up = x[i] + step[i]
        probe[i] = up if up <= hi[i] else max(x[i] - step[i], lo[i])
        h = probe[i] - x[i]
        fp = cost(probe)
        if h != 0.0 and math.isfinite(fp):
            sens[i] = abs(fp - fx) / abs(h)
    return sens


def fork_cpus(*needs: str) -> int:
    """CPUs this process may run on, for work split across os.fork children;
    1 where os.fork, os.sched_getaffinity or an os function named in needs
    is missing (Windows, macOS), and while another Python thread runs: fork
    copies only the calling thread, so a lock another thread held would stay
    held in the child."""
    if threading.active_count() > 1 or not all(
            hasattr(os, name) for name in ("fork", "sched_getaffinity", *needs)):
        return 1
    return len(os.sched_getaffinity(0))


def fork_child(work) -> int:
    """Fork a child that runs work() and leaves through os._exit however
    work ends, so that it never unwinds into the caller's frames, runs
    atexit handlers or flushes the parent's buffers; the child's pid."""
    pid = os.fork()
    if pid == 0:
        try:
            work()
        finally:
            os._exit(0)
    return pid


def reap(pids, kill=False) -> None:
    """Wait for every child in pids, killing each first when kill is set;
    one already gone, as under SIGCHLD ignored, is passed over."""
    for pid in pids:
        try:
            if kill:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ChildProcessError, ProcessLookupError):
            pass


def _poll(sock, until: float) -> bool:
    """Whether sock has data by perf_counter time until; spins, so that a
    process whose peer answers within microseconds is never put to sleep."""
    while not select.select([sock], [], [], 0.0)[0]:
        if time.perf_counter() > until:
            return False
    return True


class _CostWorker:
    """A forked process that costs the points sent to it, for minimize.

    The two processes share one socket pair. A request is the point's d
    doubles; a reply is the cost as one double, so inf and NaN cross
    unchanged. When the cost raises or does not return a number, the child
    leaves, and this process, reading the end of the stream, costs the point
    itself, so that the same exception is raised at the same trial. At most
    one request is owed a reply: no point is sent while the reply to the
    last one, a dropped or taken-over trial's, is still to come, so neither
    direction ever holds more than one message. The child (fork_child)
    serves until its end of the pair closes or fails, and close() reaps it
    (reap). Once the pair fails here the worker is gone.

    The worker spins up to _SPIN for a request before it sleeps, and this
    process spins for a reply, since waking a sleeping process can take
    longer than a cost; so no wakeup leads the scheduler to put both on one
    CPU, and pinning them measured as no faster. When other work holds the
    worker's CPU, a reply can come milliseconds late: this process waits
    at most _PATIENCE times as long as it has worked since the request,
    then costs the point itself, and pairs no trial until the late reply
    has come. Timing decides only where a cost is computed, never its value.
    The take-over bounds what other work costs, but does not remove it: on
    two CPUs beside one busy-looping process, the EEG fit of the benchmark
    (seed 1, no polish) took 6.8 s paired against 4.6 s unpaired, where
    without that process it took 3.7 s paired against 4.9 s.
    """

    def __init__(self, cost, d: int):
        self._cost = cost
        self._sock, peer = socket.socketpair()

        def serve():
            self._sock.close()
            while True:
                _poll(peer, time.perf_counter() + _SPIN)
                data = peer.recv(8 * d, socket.MSG_WAITALL)
                if len(data) < 8 * d:
                    return
                peer.sendall(_REPLY.pack(cost(np.frombuffer(data).copy())))

        with peer:
            try:
                self.pid = fork_child(serve)
            except OSError:
                self._sock.close()
                raise
        self.alive = True
        self._owed = None   # when the request whose reply is unread was sent

    def ready(self) -> bool:
        """Whether to pair the next trial; asked once per trial. A reply
        that has come to a request no longer wanted is read and dropped."""
        if self._owed is not None and select.select([self._sock], [], [], 0.0)[0]:
            self._reply()
        return self.alive and self._owed is None

    def send(self, point) -> None:
        """Ask for the cost of point, a float64 array of d values; only
        when ready()."""
        try:
            self._sock.sendall(point.tobytes())
        except OSError:
            self.alive = False
        else:
            self._owed = time.perf_counter()

    def cost(self, point):
        """The cost of point, the point last sent: the worker's, or computed
        here when the worker is late or gone, as it is once the cost raised
        there, so that a cost that raised there raises here."""
        if self._owed is not None:
            now = time.perf_counter()
            if _poll(self._sock, now + _PATIENCE * (now - self._owed)):
                reply = self._reply()
                if reply is not None:
                    return reply
        return self._cost(point)

    def _reply(self):
        """The owed reply's cost, read once it has come; None, and the
        worker gone, at the end of the stream."""
        self._owed = None
        try:
            data = self._sock.recv(_REPLY.size, socket.MSG_WAITALL)
        except OSError:     # reset: the worker left with a request unread
            data = b""
        if len(data) < _REPLY.size:
            self.alive = False
            return None
        return _REPLY.unpack(data)[0]

    def close(self) -> None:
        """Close this end of the pair, which ends the child, and reap it."""
        self._sock.close()
        reap([self.pid])


def minimize(cost, bounds, config: AnnealConfig | None = None, *,
             pure_cost: bool = False) -> OptResult:
    """Anneal cost over the box; returns the best point ever evaluated.

    pure_cost is the caller's promise that cost is a pure function of the
    point: the same point always gives the same value or raises the same
    exception, with no effect that matters, and it may run in a forked
    process. Then, where fork_cpus() finds two CPUs, the trials are costed
    in pairs on two processes (module doc), with the same result to the
    bit. The cost samples and reanneal probes stay in this process.
    """
    cfg = config or AnnealConfig()
    lo, hi = _check_bounds(bounds)
    d = lo.size
    rangev = hi - lo
    free = rangev > 0.0
    inv_d = 1.0 / d

    # the bounds of docs/schemas, all checked before anything is derived from
    # them; NaN fails every one
    for key, value in (("t0", cfg.t0), ("c", cfg.c), ("accept_c", cfg.accept_c),
                       ("accept_t0", cfg.accept_t0)):
        if value is not None and not 0.0 < value < math.inf:    # None: derived below
            raise OutOfDomain(f"{key!r} must be positive and finite, got {value!r}")
    if math.isnan(cfg.window_repeat_tol):
        raise OutOfDomain(f"'window_repeat_tol' must be a number, "
                          f"got {cfg.window_repeat_tol!r}")
    if not cfg.sensitivity_step > 0.0:
        raise OutOfDomain(f"'sensitivity_step' must be positive, "
                          f"got {cfg.sensitivity_step!r}")
    for key in ("reanneal_interval", "max_trials", "regen_attempts", "k_max"):
        if not getattr(cfg, key) >= 1:
            raise OutOfDomain(f"{key!r} must be >= 1, got {getattr(cfg, key)!r}")

    x = 0.5 * (lo + hi) if cfg.x0 is None else np.asarray(cfg.x0, dtype=float)
    if x.shape != (d,):
        raise OutOfDomain(f"'x0' needs one value per bound, got shape {x.shape}")
    x = np.clip(x, lo, hi)

    best_f = math.inf
    best_x = x.copy()

    def evaluate(point, cost=cost):
        nonlocal best_f, best_x
        v = cost(point)
        v = float(v) if v is not None and math.isfinite(v) else math.inf
        if v < best_f:
            best_f = v
            best_x = np.array(point, dtype=float)
        return v

    fx = evaluate(x)
    if not math.isfinite(fx):
        raise OutOfDomain("cost is not finite at the initial point")

    # the cost scale, from differences to fx so that an offset cancels
    # exactly; a sample with a non-finite cost is left out
    u = UniformStream(cfg.seed, stream=2).take(COST_SAMPLES * d).reshape(-1, d)
    diffs = [0.0]
    for point in np.clip(lo + u * rangev, lo, hi):
        if math.isfinite(v := evaluate(point) - fx):
            diffs.append(v)
    spread = float(np.mean(np.abs(np.subtract(diffs, np.mean(diffs)))))
    scale = spread if 0.0 < spread < math.inf else 1.0

    sized_c = -math.log(TEMPERATURE_RATIO) * cfg.max_trials ** -inv_d
    c = sized_c if cfg.c is None else cfg.c
    accept_c = sized_c if cfg.accept_c is None else cfg.accept_c
    accept_t0 = scale if cfg.accept_t0 is None else cfg.accept_t0

    uniforms = UniformStream(cfg.seed, stream=0)
    accepts = UniformStream(cfg.seed, stream=1)
    k_gen = np.zeros(d)
    k_acc = 0.0
    trials = 0
    acceptances = 0
    next_reanneal = cfg.reanneal_interval
    # the exit: a run of stall trials none of which lowered the best trial
    # cost by more than gain_tol; the first finite trial sets trial_best
    exit_on = cfg.window_repeat_tol >= 0.0
    gain_tol = cfg.window_repeat_tol * scale
    stall = max(cfg.max_trials // 10, 1)
    trial_best, last_gain = math.inf, 0
    trace = array("d")
    exit_reason = "trial-limit"

    def acceptance_temperature():
        return max(accept_t0 * math.exp(-accept_c * k_acc ** inv_d), _T_FLOOR)

    def reanneal():
        sens = tangents(evaluate, best_x.copy(), best_f,
                        cfg.sensitivity_step * rangev, lo, hi, free)
        s_max = sens.max()
        if s_max <= 0.0:
            return
        cur_t = temperature(np.maximum(k_gen, 0.0), cfg.t0, c, d)
        active = free & (sens > 0.0)
        t_new = cur_t[active] * (s_max / sens[active])
        arg = np.maximum(np.log(cfg.t0 / np.maximum(t_new, _T_FLOOR)) / c, 0.0)
        k_gen[active] = np.clip(arg ** d, 1.0, cfg.k_max)

    def judge(cand, fc) -> bool:
        """Book the next trial, candidate cand of cost fc, in trial order;
        True when it moved the chain or ended the run."""
        nonlocal x, fx, row, trials, acceptances, k_acc, t_acc, k_gen, \
            trial_best, last_gain, next_reanneal, exit_reason
        row += 1
        trials += 1
        if fc < trial_best:
            if trial_best - fc > gain_tol:
                last_gain = trials
            trial_best = fc

        trace.append(fc)
        trace.append(t_acc)

        delta = fc - fx
        accepted = delta <= 0.0
        if not accepted and math.isfinite(fc):
            ratio = delta / t_acc
            accepted = ratio < 700.0 and accepts.one() < math.exp(-ratio)
        if accepted:
            x = cand
            fx = fc
            acceptances += 1
            k_acc += 1.0
            t_acc = acceptance_temperature()
            if acceptances >= next_reanneal:
                # the counters after this trial; the rescaled ones start a
                # new block
                k_gen, row = ks[row].copy(), rows
                reanneal()
                next_reanneal += cfg.reanneal_interval
        if exit_on and trials - last_gain >= stall:
            exit_reason = "cost-repeat"
            return True
        return accepted

    t_acc = acceptance_temperature()
    row = rows = 0
    worker = None
    if pure_cost and fork_cpus() > 1:
        try:
            worker = _CostWorker(cost, d)
        except OSError:     # no fork: the trials are costed one by one
            pass
    try:
        while trials < cfg.max_trials and exit_reason == "trial-limit":
            if row == rows:
                # the block's rows are k_gen and k_gen + 1.0, + 1.0, ...:
                # trial row j runs at counters ks[j], and ks[rows] follows
                # the block
                rows = min(TEMPERATURE_BLOCK, cfg.max_trials - trials)
                ks = np.ones((rows + 1, d))
                ks[0] = k_gen
                np.add.accumulate(ks, axis=0, out=ks)
                temps = np.maximum(temperature(ks[:rows], cfg.t0, c, d), _T_FLOOR)
                bases = 1.0 / temps
                bases += 1.0
                k_gen, row = ks[rows], 0
            cand = generate_candidate(x, temps[row], lo, hi, uniforms,
                                      cfg.regen_attempts, base=bases[row])
            # a pair: the block's next trial is made from the same x and
            # costed by the worker while this one is costed here; it is
            # judged only if this one leaves the chain where it was, and
            # otherwise dropped with the uniforms it drew
            spec = None
            if worker is not None and worker.ready() and row + 1 < rows:
                mark = uniforms.tell()
                spec = generate_candidate(x, temps[row + 1], lo, hi, uniforms,
                                          cfg.regen_attempts, base=bases[row + 1])
                worker.send(spec)
            if judge(cand, evaluate(cand)):
                if spec is not None:
                    uniforms.seek(mark)
            elif spec is not None:
                judge(spec, evaluate(spec, worker.cost))
    finally:
        if worker is not None:
            worker.close()

    return OptResult(x=best_x, cost=best_f, trials=trials, acceptances=acceptances,
                     exit_reason=exit_reason, trace=trace)


def local_refine(cost, x0, bounds, max_calls: int = 1000) -> OptResult:
    """Bounded quasi-Newton polish; never worse than the starting point.

    Gradients are numerical, so the call budget is spent in blocks of D + 1
    evaluations; convergence is a projected-gradient norm below
    GRAD_TOL * (1 + |start cost|).
    """
    # Imported here so that commands which never refine skip its import time.
    from scipy.optimize import minimize as _scipy_minimize

    lo, hi = _check_bounds(bounds)
    x0 = np.clip(np.asarray(x0, dtype=float), lo, hi)
    calls = 0

    def wrapped(pt):
        nonlocal calls
        calls += 1
        v = cost(pt)
        return float(v) if v is not None and np.isfinite(v) else SENTINEL

    f0 = wrapped(x0)
    if f0 >= SENTINEL:
        raise OutOfDomain("cost is not finite at the refine start")
    iter_budget = max(1, int(max_calls) // (x0.size + 1))
    res = _scipy_minimize(
        wrapped, x0, method="L-BFGS-B", bounds=list(zip(lo, hi)),
        options={"maxfun": max(1, int(max_calls)), "maxiter": iter_budget,
                 "ftol": 1e-17, "gtol": GRAD_TOL * (1.0 + abs(f0))})
    if np.isfinite(res.fun) and res.fun < f0:
        x_best, f_best = np.clip(res.x, lo, hi), float(res.fun)
    else:
        x_best, f_best = x0, f0
    reason = "converged" if res.status == 0 else "trial-limit"
    return OptResult(x=x_best, cost=f_best, trials=calls, acceptances=0,
                     exit_reason=reason)


def search(cost, bounds, config: AnnealConfig | None = None,
           refine_calls: int = 1000, *, pure_cost: bool = False) -> OptResult:
    """Anneal, then polish the annealed point with local_refine.

    Returns one OptResult. When the polish runs, its point and cost replace
    the anneal's (local_refine never returns a point worse than its start)
    and trials counts the anneal's trials plus the polish's cost calls;
    acceptances, exit_reason and trace stay the anneal's. When
    refine_calls is 0 or the annealed cost is not below SENTINEL, the polish
    is skipped and the anneal's result is returned unchanged; a negative or
    NaN refine_calls raises OutOfDomain. pure_cost is minimize's.
    """
    if not refine_calls >= 0:   # NaN fails too
        raise OutOfDomain(f"'refine_calls' must be >= 0, got {refine_calls!r}")
    res = minimize(cost, bounds, config, pure_cost=pure_cost)
    if refine_calls <= 0 or res.cost >= SENTINEL:
        return res
    polish = local_refine(cost, res.x, bounds, max_calls=refine_calls)
    return replace(res, x=polish.x, cost=polish.cost,
                   trials=res.trials + polish.trials)
