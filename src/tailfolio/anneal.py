"""Adaptive simulated annealing with per-parameter reannealing.

Generation temperatures follow T_i(k_i) = T0_i exp(-c_i k_i^(1/D)) where D is
the search dimension and each parameter carries its own annealing-time counter
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
still update the returned best. window_best records the best cost every
RECORD_PERIOD (100) trials.

A caller whose cost is a pure function of the point may say so
(pure_cost): then, where a second CPU is free, a forked worker costs the
block's next trial, made from the same point, while this process costs the
current one, as ASA_PARALLEL does. A cold chain rejects most trials, so the
next one is usually kept; when the current trial moves the chain or ends
the run, it is dropped and the generation stream is rewound to its first
uniform. The trials are judged in order either way, so the result is the
same to the bit.
`local_refine` is a bounded quasi-Newton polish (numerical gradients, capped
function calls) that never returns a point worse than its start. `search`
anneals and then polishes, and returns one result: the polished point and
cost, with trials counting the anneal's trials and the polish's calls.
"""

from __future__ import annotations

import math
import os
import select
import struct
import threading
import time
from array import array
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import CostNotFinite, InvalidBounds
from .rng import UniformStream

_T_FLOOR = 1e-300
SENTINEL = 1e30      # stands in for a non-finite cost where one must be finite
GRAD_TOL = 1e-8      # local_refine's gradient tolerance, times 1 + |start cost|
COST_SAMPLES = 4     # box points sampled for the cost scale, besides x0
TEMPERATURE_RATIO = 1e-8    # final/initial temperature of the sized schedule
TEMPERATURE_BLOCK = 64      # trials whose generation temperatures share one pass
RECORD_PERIOD = 100         # trials between window_best records
_REPLY = struct.Struct("=Bd")   # a cost worker's reply: status, cost
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


def generation_delta(u, temp):
    """Heavy-tailed generating law; u in [0, 1] maps to delta in [-1, 1].

    Scalars are computed as 1-element arrays, so that they get the bits of
    numpy's array power that generate_candidate uses.
    """
    scalar = np.ndim(u) == 0 and np.ndim(temp) == 0
    u = np.atleast_1d(np.asarray(u, dtype=float))
    t = np.maximum(np.atleast_1d(np.asarray(temp, dtype=float)), _T_FLOOR)
    out = _delta(u, t, 1.0 + 1.0 / t)
    return float(out[0]) if scalar else out


@dataclass
class AnnealConfig:
    """Knobs for minimize(); defaults follow the protocol in the module doc."""

    t0: float | np.ndarray = 1.0
    c: float | np.ndarray | None = None     # default: sized to max_trials and D
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
    window_best: tuple[float, ...] = field(default_factory=tuple)
    # per trial, in trial order: cost, acceptance temperature (interleaved)
    trace: array = field(default_factory=lambda: array("d"), repr=False)


def _check_bounds(bounds):
    try:
        arr = np.asarray(bounds, dtype=float)
    except (TypeError, ValueError):     # not numbers, or ragged
        arr = np.empty(0)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidBounds("bounds must be a sequence of (lo, hi) pairs")
    lo, hi = arr[:, 0] + 0.0, arr[:, 1] + 0.0      # -0.0 reads as 0.0
    if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
        raise InvalidBounds("bounds must be finite")
    if np.any(lo > hi):
        raise InvalidBounds("each lower bound must not exceed its upper bound")
    return lo, hi


@lru_cache(maxsize=None)
def _law_index(d: int) -> np.ndarray:
    """Pool indices of the law's (d + 9, d) input: row 0 is uniform i for
    coordinate i, row r >= 1 is uniform d + r - 1 for every coordinate."""
    index = np.empty((d + 9, d), dtype=np.intp)
    index[0] = np.arange(d)
    index[1:] = np.arange(d, 2 * d + 8)[:, None]
    index.flags.writeable = False
    return index


def _law_box(lo, hi):
    """(lo, hi, hi - lo), each repeated down the rows of the law's input:
    generate_candidate's box for a caller that makes many candidates in one
    box, since a same-shape ufunc call costs about a third of a broadcast
    one at these sizes."""
    rows = (_law_index(lo.size).shape[0], 1)
    return np.tile(lo, rows), np.tile(hi, rows), np.tile(hi - lo, rows)


def generate_candidate(x, temps, lo, hi, uniforms: UniformStream,
                       regen_attempts: int = 100, *, base=None,
                       box=None) -> np.ndarray:
    """One candidate from the generating law, redrawing out-of-bounds dims.

    Uniforms are used round-major: round 0 draws every coordinate once, in
    index order; each later round redraws, in index order, the coordinates
    still outside [lo, hi], for at most regen_attempts rounds; whatever is
    still outside is then clipped. A coordinate's value is
    x_i + generation_delta(u, temps_i) * (hi_i - lo_i) for the last u it drew.
    A caller that passes base (1 + 1/t of temps floored at _T_FLOOR) must
    pass temps already floored; box is _law_box(lo, hi).

    The law is evaluated in one broadcast pass per pool of peeked uniforms:
    each pool uniform against each coordinate still to draw (the first pool's
    row 0 is round 0, the first d uniforms one per coordinate). When round 0
    lands inside the box, as it does for most trials, row 0 is the candidate,
    unclipped. numpy's clip changes an in-bounds value only where it is a
    zero and a bound is a zero of the other sign; minimize's bounds hold no
    -0.0 (_check_bounds reads it as 0.0), its x starts clipped, and x + y is
    -0.0 only when x is, so no candidate of minimize meets that case.
    Otherwise replaying the rounds on the out-of-bounds flags consumes just
    the uniforms they used; a new pool is peeked only when a round would
    outrun this one. A pool of 2k + 8 for k coordinates covers round 0 and
    k + 8 redraws, which few trials exceed, while keeping the pass small.
    """
    if base is None:
        temps = np.maximum(temps, _T_FLOOR)
        base = 1.0 + 1.0 / temps
    box_lo, box_hi, span = (lo, hi, hi - lo) if box is None else box
    d = x.size
    size = 2 * d + 8
    pool = uniforms.peek(size)
    # _delta's operations in place, on w = u - 0.5 and a = |w + w|
    w = pool.take(_law_index(d))
    w -= 0.5
    a = w + w
    np.abs(a, out=a)
    np.power(base, a, out=a)
    a -= 1.0
    vals = np.copysign(temps, w, out=w)
    vals *= a
    vals *= span
    vals += x
    flags = ((vals < box_lo) | (vals > box_hi)).tobytes()
    if flags.find(1, 0, d) < 0:
        uniforms.consume(d)
        return vals[0]
    todo = [i for i in range(d) if flags[i]]
    # sel: the pool's coordinates (None: all); col: a coordinate's column;
    # last: the flat index in vals of each column's latest draw; off: the
    # row offset of uniform p, the pool's next unused one
    sel, col, last = None, range(d), list(range(d))
    k, off, p = d, d - 1, d
    tries = 0
    while True:
        while todo and tries < regen_attempts and p + len(todo) <= size:
            redo = []
            for c in todo:
                j = col[c]
                last[j] = f = (p - off) * k + j
                if flags[f]:
                    redo.append(c)
                p += 1
            todo = redo
            tries += 1
        uniforms.consume(p)
        drawn = vals.ravel().take(last)
        if sel is None:
            cand = drawn
        else:
            cand[sel] = drawn
        if not todo or tries >= regen_attempts:
            return cand.clip(lo, hi)
        # the next round would outrun this pool: a new one for its coordinates
        sel, k = todo, len(todo)
        size = 2 * k + 8
        pool = uniforms.peek(size)
        lo_s, hi_s = lo[sel], hi[sel]
        vals = x[sel] + _delta(pool[:, None], temps[sel], base[sel]) * (hi_s - lo_s)
        flags = ((vals < lo_s) | (vals > hi_s)).tobytes()
        col, last = {c: j for j, c in enumerate(sel)}, list(range(k))
        off = p = 0


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
    is missing (Windows, macOS)."""
    if not all(hasattr(os, name) for name in ("fork", "sched_getaffinity", *needs)):
        return 1
    return len(os.sched_getaffinity(0))


def _write_all(fd, data) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _read_all(fd, n: int) -> bytes:
    """n bytes from fd, or fewer at its end."""
    data = b""
    while len(data) < n and (chunk := os.read(fd, n - len(data))):
        data += chunk
    return data


def _pin(cpus) -> None:
    """Run this process on cpus, where the system allows it."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _poll(fd, until: float) -> bool:
    """Whether fd has data by perf_counter time until; spins, so that a
    process whose peer answers within microseconds is never put to sleep."""
    while not select.select([fd], [], [], 0.0)[0]:
        if time.perf_counter() > until:
            return False
    return True


class _CostWorker:
    """A forked process that costs the points sent to it, for minimize.

    A request is the point's d doubles; a reply is _REPLY: status 0 and the
    cost as a double, so inf and NaN cross unchanged, or status 1 when the
    cost raised or did not return a number. At most one request is owed a
    reply: no point is sent while the reply to the last one, a dropped or
    taken-over trial's, is still to come, so neither pipe ever holds more
    than one message. The child serves until its request pipe closes or
    its reply pipe breaks, and then leaves through os._exit: it never
    unwinds into the caller's frames, runs atexit handlers or flushes the
    parent's buffers. Once a pipe fails here the worker is gone.

    The worker runs on a CPU of its own and this process on the others: a
    pipe's wakeup would otherwise pull both onto one CPU, one waiting on
    the other. Each side spins a little before it sleeps, since waking a
    sleeping CPU can take longer than a cost. When other work holds the
    worker's CPU, a reply can come milliseconds late: this process waits
    at most _PATIENCE times as long as it has worked since the request,
    then costs the point itself, and pairs no trial until the late reply
    has come. Timing decides only where a cost is computed, never its value.
    """

    def __init__(self, cost, d: int):
        self._cost = cost
        self._cpus = os.sched_getaffinity(0)
        theirs = {max(self._cpus)}
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        req_r, self._req, self._rep, rep_w = fds
        if self.pid == 0:
            try:
                os.close(self._req)
                os.close(self._rep)
                _pin(theirs)
                while True:
                    if not _poll(req_r, time.perf_counter() + _SPIN):
                        select.select([req_r], [], [])
                    if len(data := _read_all(req_r, 8 * d)) < 8 * d:
                        break
                    try:
                        reply = _REPLY.pack(0, cost(np.frombuffer(data).copy()))
                    except Exception:
                        reply = _REPLY.pack(1, 0.0)
                    _write_all(rep_w, reply)
            finally:
                os._exit(0)
        os.close(req_r)
        os.close(rep_w)
        _pin(self._cpus - theirs)
        self.alive = True
        self._owed = False      # whether the last request's reply is unread
        self._sent = 0.0

    def ready(self) -> bool:
        """Whether to pair the next trial; asked once per trial. A reply
        that has come to a request no longer wanted is read and dropped."""
        if self._owed and select.select([self._rep], [], [], 0.0)[0]:
            self._reply()
        return self.alive and not self._owed

    def send(self, point) -> None:
        """Ask for the cost of point, a float64 array of d values; only
        when ready()."""
        try:
            _write_all(self._req, point.tobytes())
        except OSError:
            self.alive = False
        else:
            self._owed = True
            self._sent = time.perf_counter()

    def cost(self, point):
        """The cost of point, the point last sent: the worker's, or computed
        here when it raised there, is late or the worker is gone, so that a
        cost that raised there raises here."""
        reply = None
        if self._owed:
            now = time.perf_counter()
            if _poll(self._rep, now + _PATIENCE * (now - self._sent)):
                reply = self._reply()
        if reply is not None and reply[0] == 0:
            return reply[1]
        return self._cost(point)

    def _reply(self):
        """The owed reply, read once it has come; None, and the worker
        gone, at the pipe's end."""
        self._owed = False
        data = _read_all(self._rep, _REPLY.size)
        if len(data) < _REPLY.size:
            self.alive = False
            return None
        return _REPLY.unpack(data)

    def close(self) -> None:
        """Close the pipes, which ends the child, and reap it."""
        os.close(self._req)
        os.close(self._rep)
        _pin(self._cpus)
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:   # reaped already, as under SIGCHLD ignored
            pass


def minimize(cost, bounds, config: AnnealConfig | None = None, *,
             pure_cost: bool = False) -> OptResult:
    """Anneal cost over the box; returns the best point ever evaluated.

    pure_cost is the caller's promise that cost is a pure function of the
    point: the same point always gives the same value or raises the same
    exception, with no effect that matters, and it may run in a forked
    process. Then, where fork_cpus() finds two CPUs and no other thread
    runs, the trials are costed in pairs on two processes (module doc),
    with the same result to the bit. The cost samples and reanneal probes
    stay in this process.
    """
    cfg = config or AnnealConfig()
    lo, hi = _check_bounds(bounds)
    d = lo.size
    rangev = hi - lo
    free = rangev > 0.0
    inv_d = 1.0 / d

    t0v = np.broadcast_to(np.asarray(cfg.t0, dtype=float), (d,)).copy()
    # the bounds of docs/schemas, all checked before anything is derived from
    # them; NaN fails every one
    for key, value in (("t0", t0v), ("c", cfg.c), ("accept_c", cfg.accept_c),
                       ("accept_t0", cfg.accept_t0)):
        if value is None:   # derived below
            continue
        if not np.all(np.isfinite(value) & (np.asarray(value) > 0.0)):
            raise InvalidBounds(f"{key!r} must be positive and finite, got {value!r}")
    if not cfg.sensitivity_step > 0.0:
        raise InvalidBounds(f"'sensitivity_step' must be positive, "
                            f"got {cfg.sensitivity_step!r}")
    for key in ("reanneal_interval", "max_trials", "regen_attempts", "k_max"):
        if not getattr(cfg, key) >= 1:
            raise InvalidBounds(f"{key!r} must be >= 1, got {getattr(cfg, key)!r}")

    x = 0.5 * (lo + hi) if cfg.x0 is None else np.asarray(cfg.x0, dtype=float)
    if x.shape != (d,):
        raise InvalidBounds(f"'x0' needs one value per bound, got shape {x.shape}")
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
        raise CostNotFinite("cost is not finite at the initial point")

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
    cv = np.broadcast_to(np.asarray(sized_c if cfg.c is None else cfg.c, dtype=float),
                         (d,)).copy()
    accept_c = sized_c if cfg.accept_c is None else cfg.accept_c
    accept_t0 = scale if cfg.accept_t0 is None else cfg.accept_t0

    uniforms = UniformStream(cfg.seed, stream=0)
    accepts = UniformStream(cfg.seed, stream=1)
    neg_c = -cv
    k_gen = np.zeros(d)
    k_acc = 0.0
    trials = 0
    acceptances = 0
    next_reanneal = cfg.reanneal_interval
    next_record = RECORD_PERIOD
    # the exit: a run of stall trials none of which lowered the best trial
    # cost by more than gain_tol; the first finite trial sets trial_best
    exit_on = cfg.window_repeat_tol >= 0.0
    gain_tol = cfg.window_repeat_tol * scale
    stall = max(cfg.max_trials // 10, 1)
    trial_best, last_gain = math.inf, 0
    window_best: list[float] = []
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
        cur_t = temperature(np.maximum(k_gen, 0.0), t0v, cv, d)
        active = free & (sens > 0.0)
        t_new = cur_t[active] * (s_max / sens[active])
        arg = np.maximum(np.log(t0v[active] / np.maximum(t_new, _T_FLOOR)) / cv[active], 0.0)
        k_gen[active] = np.clip(arg ** d, 1.0, cfg.k_max)

    def judge(cand, fc) -> bool:
        """Book the next trial, candidate cand of cost fc, in trial order;
        True when it moved the chain or ended the run."""
        nonlocal x, fx, row, trials, acceptances, k_acc, t_acc, k_gen, \
            trial_best, last_gain, next_reanneal, next_record, exit_reason
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
        if trials == next_record:
            window_best.append(best_f)
            next_record += RECORD_PERIOD
        if exit_on and trials - last_gain >= stall:
            exit_reason = "cost-repeat"
            return True
        return accepted

    t_acc = acceptance_temperature()
    box = _law_box(lo, hi)
    row = rows = 0
    worker = None
    # fork copies only this thread: a lock another thread held would stay
    # held in the worker
    if pure_cost and fork_cpus() > 1 and threading.active_count() == 1:
        try:
            worker = _CostWorker(cost, d)
        except OSError:     # no fork: the trials are costed one by one
            pass
    try:
        while trials < cfg.max_trials and exit_reason == "trial-limit":
            if row == rows:
                # the block's rows are k_gen and k_gen + 1.0, + 1.0, ...:
                # trial row j runs at counters ks[j], and ks[rows] follows
                # the block; temperature(ks, t0v, cv, d) in its operation
                # order, floored, with the ** operator, which keeps numpy's
                # sqrt for d = 2
                rows = min(TEMPERATURE_BLOCK, cfg.max_trials - trials)
                ks = np.ones((rows + 1, d))
                ks[0] = k_gen
                np.add.accumulate(ks, axis=0, out=ks)
                temps = ks[:rows] ** inv_d
                temps *= neg_c
                np.exp(temps, out=temps)
                temps *= t0v
                np.maximum(temps, _T_FLOOR, out=temps)
                bases = 1.0 / temps
                bases += 1.0
                k_gen, row = ks[rows], 0
            cand = generate_candidate(x, temps[row], lo, hi, uniforms,
                                      cfg.regen_attempts, base=bases[row], box=box)
            # a pair: the block's next trial is made from the same x and
            # costed by the worker while this one is costed here; it is
            # judged only if this one leaves the chain where it was, and
            # otherwise dropped with the uniforms it drew
            spec = None
            if worker is not None and worker.ready() and row + 1 < rows:
                mark = uniforms.tell()
                spec = generate_candidate(x, temps[row + 1], lo, hi, uniforms,
                                          cfg.regen_attempts, base=bases[row + 1],
                                          box=box)
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
                     exit_reason=exit_reason, window_best=tuple(window_best),
                     trace=trace)


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
        raise CostNotFinite("cost is not finite at the refine start")
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
    acceptances, exit_reason, window_best and trace stay the anneal's. When
    refine_calls is 0 or the annealed cost is not below SENTINEL, the polish
    is skipped and the anneal's result is returned unchanged; a negative or
    NaN refine_calls raises InvalidBounds. pure_cost is minimize's.
    """
    if not refine_calls >= 0:   # NaN fails too
        raise InvalidBounds(f"'refine_calls' must be >= 0, got {refine_calls!r}")
    res = minimize(cost, bounds, config, pure_cost=pure_cost)
    if refine_calls <= 0 or res.cost >= SENTINEL:
        return res
    polish = local_refine(cost, res.x, bounds, max_calls=refine_calls)
    return replace(res, x=polish.x, cost=polish.cost,
                   trials=res.trials + polish.trials)
