"""End-to-end and per-layer benchmark of the snspec command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (no install needed). The workload's
inputs are made from the seed; a fresh child process then calls
``snspec.cli.main`` in-process as one closed-loop caller. With ``--trace 0``
the last line of output is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run. Lines before it
record the machine, the metrics under their per-workload names, and every
failed operation with what replays it. See bench/README.md.
"""
from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
# BLAS and OpenMP pools pinned to one thread: the load is one process
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(THREAD_ENV)
SETUP_CHILDREN = 4
# Time of one speed probe (child.make_speed_probe) on the reference host: a
# shared 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4, scipy 1.17. End-to-end
# times are scaled to that speed; the raw wall-clock figures are on the
# `named:` line.
PROBE_REF_S = 0.0147
# per-workload names of the generic throughput metric
ITEMS = {
    "validate-timeseries": "trials_per_s",
    "validate-gamma": "trials_per_s",
    "scan": "cells_per_s",
    "fit-ladder": "fits_per_s",
}


def checkout_ok():
    needed = [
        os.path.join(ROOT, "src", "snspec", "cli.py"),
        os.path.join(ROOT, "configs", "validate_reference.json"),
        os.path.join(ROOT, "configs", "scan_reference.json"),
    ]
    missing = [p for p in needed if not os.path.isfile(p)]
    for p in missing:
        print(f"bench: not a source checkout, missing {os.path.relpath(p, ROOT)}", file=sys.stderr)
    return not missing


def machine_facts():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "thread_env": THREAD_ENV,
        "load": "one closed-loop caller in one child process",
    }


def run_child(plan, work, timeout):
    plan_path = os.path.join(work, "plan.json")
    result_path = os.path.join(work, "result.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), plan_path, result_path],
        cwd=work,
        env=env,
        check=True,
        timeout=timeout,
    )
    with open(result_path) as fh:
        return json.load(fh)


def quantile(values, q):
    """q-th percentile (q in 1..99), interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def call_latencies(ops):
    """Latency of each distinct call: the mean over its runs that passed.

    The host switches between fast and slow spells, so the mean over a call's
    repetitions is steadier than their median, which jumps between the two.
    The percentiles are then taken over the distinct inputs, so a workload
    with two kinds of call does not put its median between them. Falls back
    to every run when no run passed.
    """
    runs = collections.defaultdict(list)
    for op in ops:
        if op.get("ok"):
            runs[op["call"]].append(op["s"])
    if not runs:
        for op in ops:
            runs[op["call"]].append(op["s"])
    return [statistics.fmean(v) for v in runs.values()]


def evaluate(workload, ops):
    """Apply the output checks to the ops of one run.

    An op fails when an exception escaped ``main``, its exit code was not 0,
    its files differ from an earlier run of the same call, or its call's
    output check failed. The last two are also check failures, which make the
    run incorrect; a failed call alone does not. Returns the failures, with
    their reasons and what replays them, the check failures, the items and
    usable items of the ops that passed, and what the run-level check reports.
    """
    first = {}
    for op in ops:
        if "digest" in op:
            first.setdefault(op["call"], op["digest"])
    checked = {}
    for index in first:
        try:
            checked[index] = workload.check_call(index)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            checked[index] = (0, 0, [f"output unreadable ({type(exc).__name__}: {exc})"])
    failures, check_failures = [], set()
    items = usable = 0
    for op in ops:
        index = op["call"]
        if op["error"] is not None:
            reason = op["error"]
        elif op["rc"] != 0:
            reason = f"exit code {op['rc']}"
        else:
            problems = checked[index][2]
            if op["digest"] != first[index]:
                problems = problems + ["output differs from an earlier run of the same call"]
            if not problems:
                op["ok"] = True
                items += checked[index][0]
                usable += checked[index][1]
                continue
            reason = "output check failed: " + "; ".join(problems)
            check_failures.add(reason)
        failures.append((reason, workload.calls[index]["replay"]))
    passed = sorted(i for i in first if not checked[i][2])
    info, run_problems = workload.check_run(passed) if passed else ({}, ["no call passed its checks"])
    return failures, sorted(check_failures) + run_problems, items, usable, info


def speed_scale(child_result, average):
    """Factor that turns the child's wall-clock times into reference seconds."""
    return PROBE_REF_S / average(child_result["probes"])


def end_to_end(name, setups, result, ops, items, usable, failures):
    busy = sum(op["s"] for op in ops)
    scale = speed_scale(result, statistics.fmean)
    latency = call_latencies(ops)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (items / (busy * scale), "1/s"),
        "call_p50_s": (quantile(latency, 50) * scale, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_share": ((len(ops) - len(failures)) / len(ops), "share"),
        "usable_share": (usable / items if items else 0.0, "share"),
    }
    named = {
        "workload": name,
        ITEMS[name]: metrics["items_per_s"][0],
        f"{ITEMS[name]}_wall_clock": items / busy,
        "speed_scale": scale,
        "failed_share": len(failures) / len(ops),
        "nonconverged_share": 1.0 - metrics["usable_share"][0],
        "calls": len(ops),
        "distinct_calls_timed": len(latency),
    }
    # Unbounded: see bench/README.md for why the p95 cannot carry a bound.
    named["call_p95_s"] = quantile(latency, 95) * scale
    if name == "fit-ladder":
        named["fit_p50_s"] = metrics["call_p50_s"][0]
        named["fit_p95_s"] = named["call_p95_s"]
    return metrics, named


def per_layer(result):
    metrics = {name: tuple(value) for name, value in result["layers"].items()}
    untraced = statistics.median(result["walls"]["untraced"])
    traced = statistics.median(result["walls"]["traced"])
    metrics["trace.untraced_s"] = (untraced, "s")
    metrics["trace.traced_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return metrics


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not checkout_ok():
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    scratch = os.path.join(ROOT, ".bench_run")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        workload = WORKLOADS[args.workload](ROOT, args.seed, work)
        print("machine: " + json.dumps(machine_facts()))
        plan = {
            "config": workload.config,
            "calls": [{"argv": c["argv"], "out": c["out"]} for c in workload.calls],
            "seconds": args.seconds,
            "ops": workload.run_ops(args.seconds),
        }
        timeout = 2 * args.seconds + 60
        if args.trace:
            result = run_child(dict(plan, mode="trace"), work, timeout)
        else:
            children = [run_child(dict(plan, mode="setup"), work, timeout) for _ in range(SETUP_CHILDREN)]
            result = run_child(dict(plan, mode="run"), work, timeout)
            children.append(result)
            setups = [child["setup_s"] * speed_scale(child, statistics.median) for child in children]
        ops = result["ops"]
        failures, problems, items, usable, info = evaluate(workload, ops)
        if args.trace:
            metrics = per_layer(result)
            traced = metrics["trace.traced_s"][0]
            shares = {k[:-2]: v / traced for k, (v, _) in metrics.items() if k.endswith(".s") and v}
            print("share of the traced pass: " + json.dumps(shares))
        else:
            metrics, named = end_to_end(args.workload, setups, result, ops, items, usable, failures)
            print("named: " + json.dumps(named))
        print("checks: " + json.dumps(dict(workload=args.workload, **info)))
        for (reason, replay), count in sorted(collections.Counter(failures).items()):
            print(f"failed {count}x: {reason} | replay: {replay}")
        for problem in problems:
            print(f"check failed: {problem}")
        print(
            json.dumps(
                {
                    "correct": not problems,
                    "attempted": len(ops),
                    "failed": len(failures),
                    "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                }
            )
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
