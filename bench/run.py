"""tailfolio benchmark: CLI pipelines timed from outside, one command at a time.

Run from the repository root:

    python3 bench/run.py --workload sample_refit --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload
    python3 bench/run.py --workload eeg_fit --trace 1       # per-layer pass
    python3 bench/run.py --smoke                            # reduced sizes

Each CLI command runs in a fresh interpreter, as the batch CLI is used, and
is timed from spawn to exit; its peak RSS comes from wait4. The load is a
closed loop with one client. With --trace 0 a run makes --seconds divided by
the workload's nominal pass time passes (at least one), and the end-to-end
metrics are medians over them. With --trace 1 one untraced pass
is followed by one traced pass (see trace_child.py), and the per-layer
metrics come from the traced one. Every pass is checked: exit codes, JSON
schemas, bytes equal to the first pass, and per-workload checks.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Results with the run record, every per-command
timing and the per-command trace breakdown go to .benchrun/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import command_report, exit_reasons, layer_metrics  # noqa: E402
from workloads import SCHEMAS, WORKLOADS  # noqa: E402

LAUNCH = ("import sys; from tailfolio.cli import main; "
          "sys.exit(main(sys.argv[1:]))")
# Every run ends well inside the 180 s a run may take: a child still running
# at this point is killed and its command counted as failed.
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 5
PERCENTILES = (99, 95, 90, 75, 50)


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing sources or tools)."""


# ------------------------------------------------------------------ records

def summary(values) -> dict:
    """Median and sample count, plus the highest percentile with at least
    ten samples beyond it once there are enough samples."""
    values = sorted(values)
    out = {"median": statistics.median(values), "n": len(values)}
    for pct in PERCENTILES:
        if (100 - pct) * len(values) >= 1000:
            out[f"p{pct}"] = statistics.quantiles(values, n=100,
                                                  method="inclusive")[pct - 1]
            break
    return out


def run_record(root: str, args, workload) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "loadavg": list(os.getloadavg()), "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "workload": workload.name, "inputs": workload.sizes,
    }


# ------------------------------------------------------------------ spawning

class Runner:
    """Spawns CLI commands and keeps every run inside its time limit."""

    def __init__(self, root: str, work: str, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        src = os.path.join(root, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.env = env
        self.count = 0

    def spawn(self, argv) -> dict:
        """Run argv to completion: exit code, wall seconds, peak RSS in MB."""
        self.count += 1
        log = os.path.join(self.work, f"cmd{self.count}")
        with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.root)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(log + ".err", encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return {"code": proc.returncode, "wall_s": end - start,
                "rss_mb": usage.ru_maxrss / 1024.0, "stderr": stderr,
                "spawned": start, "reaped": end}

    def cli(self, args, trace_to=None, request=None) -> dict:
        if trace_to is None:
            return self.spawn([sys.executable, "-c", LAUNCH, *args])
        return self.spawn([sys.executable, "-X", "importtime",
                           os.path.join(HERE, "trace_child.py"), trace_to,
                           request, *args])

    def setup_time(self) -> float:
        """Fresh interpreter until 'import tailfolio.cli' is done."""
        result = self.spawn([sys.executable, "-c", "import tailfolio.cli"])
        if result["code"] != 0:
            raise BenchError(f"cannot import tailfolio.cli:\n{result['stderr']}")
        return result["wall_s"]


# -------------------------------------------------------------------- checks

class Checker:
    """Schema, determinism and workload checks on the outputs of a pass."""

    def __init__(self, root: str, workload):
        import jsonschema

        self.jsonschema = jsonschema
        self.workload = workload
        self.schemas = {}
        for name in set(SCHEMAS.values()):
            with open(os.path.join(root, "docs", "schemas", name),
                      encoding="utf-8") as fh:
                self.schemas[name] = json.load(fh)
        self.reference = {}      # step name -> {relpath: sha256} of pass 0

    def digests(self, out_dir: str) -> dict:
        out = {}
        for dirpath, _, files in os.walk(out_dir):
            for name in files:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, out_dir)] = \
                        hashlib.sha256(fh.read()).hexdigest()
        return out

    def check(self, step, result, pass_dir: str) -> list:
        problems = []
        if result["code"] not in step.expect:
            tail = [line for line in result["stderr"].splitlines()
                    if line.strip() and not line.startswith("import time:")][-3:]
            problems.append(f"exit {result['code']}, expected {step.expect}: "
                            + " | ".join(tail))
            return problems
        if not os.path.isdir(step.out):
            return problems + [f"no output directory {step.out}"]
        for rel in sorted(os.listdir(step.out)):
            schema = SCHEMAS.get(rel)
            if schema is None:
                continue
            with open(os.path.join(step.out, rel), encoding="utf-8") as fh:
                payload = json.load(fh)
            try:
                self.jsonschema.validate(payload, self.schemas[schema])
            except self.jsonschema.ValidationError as exc:
                problems.append(f"{rel} fails {schema}: {exc.message}")
        digests = self.digests(step.out)
        ref = self.reference.setdefault(step.name, digests)
        if digests != ref:
            changed = sorted(k for k in set(ref) | set(digests)
                             if ref.get(k) != digests.get(k))
            problems.append(f"outputs differ from the first pass: {changed}")
        problems += self.workload.check(step, pass_dir)
        return problems


# -------------------------------------------------------------------- passes

def run_pass(runner: Runner, checker: Checker, workload, pass_dir: str,
             traced: bool = False, setup: list | None = None) -> dict:
    """One pass of the workload's command sequence, then its checks.

    With a setup list, one set-up time is sampled before each command, so
    the samples spread over the run as the commands do."""
    os.makedirs(pass_dir)
    steps = workload.steps(pass_dir)
    commands = []
    for i, step in enumerate(steps):
        if setup is not None:
            setup.append(runner.setup_time())
        spans = os.path.join(pass_dir, f"spans{i}.json") if traced else None
        request = f"{workload.name}/{os.path.basename(pass_dir)}/{step.name}"
        result = runner.cli(step.argv, spans, request)
        result.update(step=step.name, metric=step.metric, request=request,
                      spans_path=spans)
        commands.append(result)
        if result["code"] not in step.expect:
            break                      # later steps read this one's outputs
    for step, result in zip(steps, commands):
        result["problems"] = checker.check(step, result, pass_dir)
    quality = {}
    if workload.quality is not None and not any(c["problems"] for c in commands) \
            and len(commands) == len(steps):
        quality = workload.quality(pass_dir)
    reports = []
    for result in commands:
        if traced and os.path.exists(result["spans_path"]):
            with open(result["spans_path"], encoding="utf-8") as fh:
                doc = json.load(fh)
            reports.append(command_report(doc, result["stderr"],
                                          result["spawned"], result["reaped"]))
    plan = [{"step": st.name, "metric": st.metric, "expect": list(st.expect),
             "argv": [os.path.relpath(a, runner.work) if a.startswith(runner.work)
                      else a for a in st.argv]} for st in steps]
    return {"commands": commands, "steps": len(steps), "quality": quality,
            "reports": reports, "plan": plan,
            "wall_s": sum(c["wall_s"] for c in commands),
            "rss_mb": max(c["rss_mb"] for c in commands)}


def _strip(command: dict) -> dict:
    return {k: v for k, v in command.items()
            if k not in ("stderr", "spans_path", "spawned", "reaped")}


def run_workload(root: str, args, name: str, bench: dict) -> dict:
    started = time.monotonic()
    work = os.path.join(root, ".benchrun", f"{name}-s{args.seed}-t{args.trace}"
                        f"-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    try:
        workload = WORKLOADS[name](inputs, args.seed, smoke=args.smoke)
        record = run_record(root, args, workload)
        runner = Runner(root, work, started + RUN_LIMIT_S)
        checker = Checker(root, workload)
        runner.setup_time()        # may compile bytecode; not timed
        setup = None if args.trace else []
        count = 1 if args.trace or args.smoke else \
            max(1, int(args.seconds // workload.pass_s))
        passes = []
        while len(passes) < count:
            started_pass = time.monotonic()
            p = run_pass(runner, checker, workload,
                         os.path.join(work, f"pass{len(passes)}"), setup=setup)
            passes.append(p)
            shutil.rmtree(os.path.join(work, f"pass{len(passes) - 1}"),
                          ignore_errors=True)
            if 2 * time.monotonic() - started_pass > runner.deadline:
                break                  # another pass would overrun the run limit
        while setup is not None and len(setup) < SETUP_SAMPLES:
            setup.append(runner.setup_time())
        traced = None
        if args.trace:
            traced = run_pass(runner, checker, workload,
                              os.path.join(work, "traced"), traced=True)
        record["steps"] = passes[0]["plan"]
        return finish(name, bench, record, setup, passes, traced, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ------------------------------------------------------------------- metrics

def finish(name, bench, record, setup, passes, traced, args) -> dict:
    every = [c for p in passes for c in p["commands"]]
    if traced:
        every += traced["commands"]
    attempted = sum(p["steps"] for p in passes) + (traced["steps"] if traced else 0)
    failed = sum(1 for c in every if c["problems"]) + (attempted - len(every))
    e2e = {}
    if setup:
        e2e["setup_s"] = summary(setup)
    e2e["wall_s"] = summary([p["wall_s"] for p in passes])
    e2e["peak_rss_mb"] = summary([p["rss_mb"] for p in passes])
    per_command = {}
    for c in (c for p in passes for c in p["commands"] if c["metric"]):
        per_command.setdefault(c["metric"], []).append(c["wall_s"])
    for metric, values in per_command.items():
        e2e[metric] = summary(values)
    quality = {}
    for p in passes:
        for key, val in p["quality"].items():
            quality.setdefault(key, val)
    e2e["failed_frac"] = {"median": failed / attempted, "n": attempted}

    layer = {}
    if traced and traced["reports"]:
        overhead = traced["wall_s"] / passes[0]["wall_s"] - 1.0
        layer = layer_metrics(traced["reports"], overhead)
        layer["exit_reasons"] = exit_reasons(traced["reports"])

    units = {m["name"]: (m["unit"], m["better"])
             for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"# {name}: seed {args.seed}, {len(passes)} pass(es), "
          f"{attempted} command(s) attempted, {failed} failed")
    for c in every:
        for problem in c["problems"]:
            print(f"# FAILED {c['request']}: {problem}")
    for metric, s in e2e.items():
        unit, better = units.get(metric, (_unit(metric), "lower"))
        extra = "".join(f" {k}={v:.6g}" for k, v in s.items()
                        if k.startswith("p"))
        print(f"{name:16s} {metric:24s} {s['median']:14.6g} {unit:6s} "
              f"{better:6s} n={s['n']}{extra}")
    for metric, value in quality.items():
        better = "higher" if metric == "eeg_fit_gap" else "lower"
        print(f"{name:16s} {metric:24s} {value:14.10g} {_unit(metric):6s} {better}")
    for c in (c for p in passes for c in p["commands"]):
        print(f"#   {c['request']:40s} exit {c['code']:<3d} {c['wall_s']:8.3f} s "
              f"{c['rss_mb']:8.1f} MB")
    if traced:
        for metric, value in layer.items():
            if metric == "exit_reasons":
                print(f"{name:16s} anneal.exit_reason         {','.join(value) or '-'}")
                continue
            unit, better = units.get(metric, (_unit(metric), "lower"))
            print(f"{name:16s} {metric:28s} {value:14.6g} {unit:6s} {better}")
        for r in traced["reports"]:
            print(f"#   traced {r['request']}: wall {r['wall_s']:.3f} s = start-up "
                  f"{r['startup_s']:.3f} + import {r['import_s']:.3f} + install "
                  f"{r['install_s']:.3f} + cli.main {r['main_s']:.3f} + exit "
                  f"{r['exit_s']:.3f}; layer self times cover {r['coverage']:.4f} "
                  f"of import + cli.main")
            roles = r["roles"]
            if roles["trials"]:
                print(f"#     anneal: {roles['trials']} trials, {roles['minimize']} "
                      f"evals under minimize ({roles['probe']} probes), "
                      f"{roles['refine']} under local_refine")

    if args.trace:
        wanted = [m["name"] for m in bench["per_layer"]]
        source = layer
    else:
        wanted = [m["name"] for m in bench["end_to_end"]]
        source = {k: v["median"] for k, v in e2e.items()}
    metrics = {m: {"value": source[m], "unit": units[m][0]}
               for m in wanted if m in source}
    result = {"correct": failed == 0 and len(metrics) == len(wanted),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    missing = [m for m in wanted if m not in source]
    if missing:
        print(f"# MISSING metrics: {missing}")
    detail = {"record": record, "result": result, "end_to_end": e2e,
              "quality": quality, "per_layer": layer,
              "passes": [[_strip(c) for c in p["commands"]] for p in passes],
              "traced": ([{k: v for k, v in r.items() if k != "attrs"}
                          for r in traced["reports"]] if traced else None),
              "missing": missing}
    return {"result": result, "detail": detail}


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_frac") or metric.endswith("_share") \
            or metric.endswith("_rate"):
        return "ratio"
    if metric.endswith("_gap"):
        return "nats"
    if metric.endswith("ns_per_value"):
        return "ns"
    if metric.startswith("us_") or ".us_" in metric:
        return "us"
    if metric.endswith("_cost"):
        return "cost"
    if metric.endswith("bytes"):
        return "B"
    return "count"


# ---------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, comma-separated names, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes; one untraced and one traced pass "
                             "per workload; checks every metric name in "
                             "BENCHMARK.json is emitted")
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        bench = _preflight(root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")

    if args.smoke:
        return smoke(root, args, names, bench)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(root, args, name, bench)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        _save(root, name, args, results[name]["detail"])
    if len(names) == 1:
        final = results[names[0]]["result"]
    else:
        final = {"correct": all(r["result"]["correct"] for r in results.values()),
                 "attempted": sum(r["result"]["attempted"] for r in results.values()),
                 "failed": sum(r["result"]["failed"] for r in results.values()),
                 "metrics": {f"{n}.{m}": v for n, r in results.items()
                             for m, v in r["result"]["metrics"].items()}}
    print(json.dumps(final))
    return 0


def smoke(root, args, names, bench) -> int:
    ok = True
    for name in names:
        for trace in (0, 1):
            args.trace = trace
            out = run_workload(root, args, name, bench)
            _save(root, name, args, out["detail"])
            ok &= out["result"]["correct"]
    print(json.dumps({"smoke": "pass" if ok else "fail", "workloads": names}))
    return 0 if ok else 1


def _preflight(root: str) -> dict:
    for rel in ("BENCHMARK.json", os.path.join("src", "tailfolio", "cli.py"),
                os.path.join("docs", "schemas")):
        if not os.path.exists(os.path.join(root, rel)):
            raise BenchError(f"{rel} not found under {root}; run from the "
                             "root of a tailfolio checkout")
    try:
        import jsonschema  # noqa: F401
    except ImportError as exc:
        raise BenchError("jsonschema is needed to check outputs") from exc
    sys.path.insert(0, os.path.join(root, "src"))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _save(root, name, args, detail) -> None:
    out = os.path.join(root, ".benchrun", "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{name}-seed{args.seed}-trace{args.trace}"
                             f"{'-smoke' if args.smoke else ''}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=sorted)


if __name__ == "__main__":
    sys.exit(main())
