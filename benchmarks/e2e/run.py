"""End-to-end benchmark: host-normalised throughput on four workloads.

One workload, one JSON line (the form a benchmark harness calls)::

    python3 benchmarks/e2e/run.py --workload grid_read --seed 0 --seconds 20 --trace 0

The last line of output is ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.

Every workload, untraced and traced, as a table (and the regression gate)::

    python3 benchmarks/e2e/run.py [--seed N] [--out PATH] [--check]
                                  [--inject-delay LAYER:FRACTION]

``--check`` compares the run against the baseline committed in
``benchmarks/e2e/baseline.json`` and exits non-zero naming each failing
(workload, metric).  ``--inject-delay`` busy-waits inside one layer's
entry points, to show that the gate fails when a layer slows down.
``--rebaseline A.json B.json`` rewrites the baseline from two ``--out``
reports of the same code, refusing if they disagree.

Each measurement runs in a fresh single-threaded child process
(``child.py``) with ``REPRO_*`` removed from its environment; this
process only starts children and does the arithmetic.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
BASELINE_PATH = HERE / "baseline.json"
#: Fresh processes timed for ``setup_s``; the metric is their median.
SETUP_RUNS = 5
#: Wall-clock limit on all the child processes of one workload's run.
RUN_TIMEOUT_S = 170
#: Environment variables that could add threads to a child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """A child process failed or produced no result."""


def child_env() -> dict:
    """The child's environment: no ``REPRO_*``, one thread, this checkout's src."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def child_cmd(*args) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), *map(str, args)]


def last_json(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise BenchError("child printed no result")
    return json.loads(lines[-1])


def remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError("out of time")
    return left


def setup_run(workload: str, seed: int, nominal_us: float, deadline: float) -> float:
    """One fresh process: host-normalised seconds until its first cell ran."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(child_cmd("setup", workload, "--seed", seed,
                                      "--nominal-us", nominal_us),
                            stdout=subprocess.PIPE, text=True, env=child_env(),
                            cwd=ROOT)
    try:
        if not select.select([proc.stdout], [], [], remaining(deadline))[0]:
            raise BenchError(f"{workload}: set-up process timed out")
        ready = proc.stdout.readline()
        wall = time.perf_counter() - t0
        proc.wait(timeout=remaining(deadline))  # its last line fits the pipe
        out = proc.stdout.read()
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: set-up process timed out") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload}: set-up process failed ({proc.returncode})")
    host = last_json(out)
    return (wall - host["probe_s"]) * host["speed"]


def measure_run(workload: str, seed: int, seconds: float, trace: bool,
                nominal_us: float, deadline: float, delay: str | None = None) -> dict:
    args = ["measure", workload, "--seed", seed, "--seconds", seconds,
            "--trace", int(trace), "--nominal-us", nominal_us]
    if delay:
        args += ["--delay", delay]
    if trace:
        args += ["--trace-file", ROOT / ".bench_out" / f"{workload}.trace.json"]
    try:
        proc = subprocess.run(child_cmd(*args), stdout=subprocess.PIPE, text=True,
                              env=child_env(), cwd=ROOT, timeout=remaining(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: measurement timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: measurement failed ({proc.returncode})")
    return last_json(proc.stdout)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 baseline: dict, delay: str | None = None) -> dict:
    """Measure one workload; return its samples, layer metrics and checks."""
    nominal = baseline["probe_nominal_us"]
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    setups = [] if trace else [
        setup_run(workload, seed, nominal, deadline) for _ in range(SETUP_RUNS)]
    res = measure_run(workload, seed, seconds, trace, nominal, deadline, delay)
    res["setup_s"] = setups
    res["rss_mb"] = [res["rss_mb"]]
    pinned = baseline["workloads"].get(workload, {}).get("digest")
    res["digest_ok"] = res["digest"] is not None and (
        seed != baseline["seed"] or pinned is None or res["digest"] == pinned)
    return res


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def end_to_end(res: dict) -> dict[str, list[float]]:
    return {"ops_per_s": res["ops_per_s"], "setup_s": res["setup_s"],
            "rss_mb": res["rss_mb"]}


def contract_line(spec: dict, res: dict, trace: bool) -> dict:
    """The one-line result: medians of every listed metric."""
    if trace:
        values = {m["name"]: res["layers"][m["name"]] for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {m["name"]: statistics.median(end_to_end(res)[m["name"]])
                  for m in spec["end_to_end"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {
        "correct": res["digest_ok"] and res["cells_failed"] == 0,
        "attempted": res["ops_attempted"],
        "failed": res["ops_failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


# -- the gate ----------------------------------------------------------------


def judge(better: str, bound: float, base: dict, samples: list[float]) -> str:
    """``pass``, ``fail``, ``better`` or ``unresolved`` for one metric.

    ``fail``: the median got worse than the baseline median by more than
    ``bound``.  ``unresolved``: the run's own quartile spread is wider
    than the bound, so a change that size could not be told from noise;
    unless every sample beats every baseline sample (``better``).
    """
    q1, med, q3 = quartiles(samples)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (med - base["median"]) / base["median"]
    if med > 0 and (q3 - q1) / med > bound:
        beats = (max(samples) < min(base["samples"]) if sign > 0
                 else min(samples) > max(base["samples"]))
        return "better" if beats else "unresolved"
    if worse > bound:
        return "fail"
    return "better" if worse < -bound else "pass"


def check(spec: dict, baseline: dict, report: dict) -> list[tuple[str, str, str]]:
    """Every (workload, metric, verdict) that is not a pass."""
    findings = []
    for wl, res in report.items():
        base = baseline["workloads"].get(wl)
        if base is None:
            findings.append((wl, "*", "no baseline"))
            continue
        if res["params"] != base["params"]:
            findings.append((wl, "*", "parameters differ from the baseline's"))
        error_rate = res["cells_failed"] / res["cells_attempted"]
        if error_rate > 0 or not res["digest_ok"]:
            findings.append((wl, "error_rate", f"fail ({error_rate:.3f}, digest "
                             f"{res['digest']})"))
        for m in spec["end_to_end"]:
            verdict = judge(m["better"], m["bound"], base["metrics"][m["name"]],
                            res["metrics"][m["name"]])
            if verdict in ("fail", "unresolved"):
                findings.append((wl, m["name"], verdict))
    return findings


def inject_delay_ns(baseline: dict, arg: str) -> tuple[str, int]:
    """``LAYER:FRACTION`` -> the layer and the busy-wait per call (normalised ns).

    The wait is a fixed cost per call, sized so that on the layer's home
    workload (where its baseline share is largest) it adds FRACTION of
    the baseline pass time; other workloads slow in proportion to how
    often they call the layer.
    """
    layer, _, fraction = arg.partition(":")
    wls = baseline["workloads"]
    home = max(wls, key=lambda w: wls[w]["layers"].get(f"{layer}.share", -1.0))
    calls = wls[home]["layers"].get(f"{layer}.calls", 0.0)
    if not calls:
        raise SystemExit(f"--inject-delay: no baseline calls for layer {layer!r}")
    pass_s = wls[home]["pass_norm_s"]
    return layer, int(float(fraction) * pass_s * 1e9 / calls)


def rebaseline(spec: dict, nominal_us: float, paths: list[str]) -> int:
    """Write ``baseline.json`` from two ``--out`` reports, if they agree.

    They agree when their digests are equal, no cell failed, and every
    end-to-end metric's medians differ by no more than its bound.  The
    baseline pools both reports' samples.
    """
    reports = [json.loads(Path(p).read_text()) for p in paths]
    a, b = (r["workloads"] for r in reports)
    seed = reports[0]["seed"]
    problems, workloads = [], {}
    if reports[1]["seed"] != seed:
        problems.append("the reports were run with different seeds")
    for wl in a:
        ra, rb = a[wl], b[wl]
        if ra["digest"] != rb["digest"] or ra["cells_failed"] or rb["cells_failed"]:
            problems.append(f"{wl}: digests or cells differ")
        metrics = {}
        for m in spec["end_to_end"]:
            sa, sb = ra["metrics"][m["name"]], rb["metrics"][m["name"]]
            meds = [statistics.median(sa), statistics.median(sb)]
            if abs(meds[1] - meds[0]) / meds[0] > m["bound"]:
                problems.append(f"{wl} {m['name']}: medians {meds} differ by more "
                                f"than {m['bound']:.0%}")
            q1, med, q3 = quartiles(sa + sb)
            metrics[m["name"]] = {"median": med, "q1": q1, "q3": q3, "n": len(sa + sb),
                                  "set_medians": meds, "samples": sa + sb}
        workloads[wl] = {
            "params": ra["params"], "digest": ra["digest"], "metrics": metrics,
            "pass_norm_s": statistics.median([ra["pass_norm_s"], rb["pass_norm_s"]]),
            "layers": ra["layers"],
        }
    for p in problems:
        print(f"rebaseline: {p}", file=sys.stderr)
    if problems:
        return 1
    BASELINE_PATH.write_text(json.dumps(
        {"seed": seed, "probe_nominal_us": nominal_us, "workloads": workloads},
        indent=1, sort_keys=True) + "\n")
    return 0


# -- output --------------------------------------------------------------------


def describe(spec: dict, report: dict) -> str:
    """Every metric by name, with its unit, median, quartiles and n."""
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    lines = []
    for wl, res in report.items():
        lines.append(f"== {wl}  digest {res['digest']}  error_rate "
                     f"{res['cells_failed']}/{res['cells_attempted']}")
        rows = [(m["name"], m["unit"], res["metrics"][m["name"]])
                for m in spec["end_to_end"]]
        rows += [("raw_ops_per_s (diagnostic)", "1/s", res["raw_ops_per_s"]),
                 ("host_probe_us (diagnostic)", "us", [res["probe_us"]])]
        for name, unit, samples in rows:
            q1, med, q3 = quartiles(samples)
            lines.append(f"  {name:<36} {med:>14.6g} {unit:<6} "
                         f"q1 {q1:.6g}  q3 {q3:.6g}  n {len(samples)}")
        top = sorted(((v, k) for k, v in res["layers"].items() if k.endswith(".share")),
                     reverse=True)
        lines.append("  layer self-time shares: " + ", ".join(
            f"{k[:-6]} {v:.1%}" for v, k in top if v >= 0.005))
        for k in sorted(res["layers"]):
            if not k.endswith((".share", ".calls", ".us_per_call")):
                lines.append(f"  {k:<36} {res['layers'][k]:>14.6g} {units.get(k, '')}")
    return "\n".join(lines)


def suite(args, spec: dict, baseline: dict) -> int:
    delay = None
    if args.inject_delay:
        layer, ns = inject_delay_ns(baseline, args.inject_delay)
        delay = f"{layer}:{ns}"
        print(f"injecting {ns} normalised ns per call into {layer}", file=sys.stderr)
    names = [w["name"] for w in spec["workloads"]]
    report = {}
    for wl in names:
        print(f"measuring {wl} ...", file=sys.stderr, flush=True)
        res = run_workload(wl, args.seed, args.seconds, False, baseline, delay)
        traced = run_workload(wl, args.seed, args.seconds, True, baseline)
        report[wl] = {
            "params": res["params"],
            "digest": res["digest"],
            "digest_ok": res["digest_ok"] and traced["digest"] == res["digest"],
            "cells_attempted": res["cells_attempted"] + traced["cells_attempted"],
            "cells_failed": res["cells_failed"] + traced["cells_failed"],
            "metrics": end_to_end(res),
            "raw_ops_per_s": res["raw_ops_per_s"],
            "probe_us": res["probe_us"],
            "pass_norm_s": statistics.median(res["pass_norm_s"]),
            "layers": traced["layers"],
        }
    print(describe(spec, report))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "workloads": report},
            indent=1, sort_keys=True) + "\n")
    if not args.check:
        return 0
    findings = check(spec, baseline, report)
    for wl, metric, verdict in findings:
        print(f"check: {wl} {metric}: {verdict}")
    failing = [f for f in findings if f[2] != "unresolved"]
    print("check:", "FAILED" if failing else "OK")
    return 1 if failing else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, metavar="PATH")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--inject-delay", default=None, metavar="LAYER:FRACTION")
    parser.add_argument("--rebaseline", nargs=2, default=None, metavar="REPORT")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    baseline = json.loads(BASELINE_PATH.read_text())
    if args.rebaseline:
        return rebaseline(spec, baseline["probe_nominal_us"], args.rebaseline)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    try:
        if args.workload is None:
            return suite(args, spec, baseline)
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            parser.error(f"unknown workload {args.workload!r}")
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                           baseline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line = contract_line(spec, res, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
