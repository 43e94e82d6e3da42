"""One benchmark process: the closed-loop caller of ``snspec.cli.main``.

Usage: python3 child.py PLAN.json RESULT.json

The plan names a mode, a config, a run length and a list of CLI calls. The
process first times its own set-up (importing ``snspec.cli`` and loading the
config) and runs the speed probe three times, then:

- ``setup``: stops there;
- ``run``: calls the list in order, round and round, each call starting when
  the previous one returned, until the time spent in calls reaches the run
  length or, when the plan gives a number of calls (``ops``), until that many
  calls were made. Between calls the speed probe runs as often as it takes to
  keep its time at 5% of the time spent in calls;
- ``trace``: runs the whole list once untraced and once traced, as a pair, and
  repeats pairs while the next pair still fits in the run length (one pair
  at least, so a long list can take longer than the run length; exactly one
  when the plan gives ``ops``).

Only the standard library is imported before the set-up timer starts, so the
set-up time is the package's own.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys
import time

# probe time kept at this share of the time spent in calls
PROBE_SHARE = 0.05


def digest(out_dir):
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def make_speed_probe():
    """Return a probe that times a fixed mix of interpreter, small-array, FFT
    and least-squares work.

    The host's speed drifts by tens of percent over tens of seconds, and the
    program's speed drifts with it. Calls are timed between probes, and the
    parent scales the call times by the probes' mean, which removes most of
    the drift from the reported figures. The least-squares part is a scipy
    fit of a fixed Lorentzian line, the kind of work that dominates the fit
    workloads: over 20 s windows of fixed ``snspec fit`` work it cut the
    drift left after scaling from 2.5% to 1.8%. The probe calls numpy and
    scipy directly, never the package, so no change to it can move the probe.
    """
    import numpy as np
    from scipy.optimize import least_squares

    signal = np.random.default_rng(0).standard_normal(1 << 16)
    grid = np.linspace(0.0, 1.0, 1000)
    nu = np.linspace(33000.0, 52000.0, 190)
    scale = np.array([1.0, 1000.0, 1.0, 1000.0])

    def line(theta):
        return theta[0] + theta[2] / (1.0 + 4.0 * ((nu - theta[1]) / theta[3]) ** 2)

    data = line([1.0, 42600.0, 1.0, 1000.0]) * np.random.default_rng(1).gamma(50.0, 1 / 50.0, nu.size)
    starts = ([1.2, 42000.0, 0.5, 1500.0], [0.8, 43000.0, 2.0, 700.0])

    def probe():
        t0 = time.perf_counter()
        acc = 0
        for i in range(30000):
            acc += i * i % 7
        for i in range(300):
            acc += float(np.sum(1.0 / (1.0 + (grid - i * 1e-3) ** 2)))
        for _ in range(2):
            np.fft.rfft(signal)
        for start in starts:
            least_squares(lambda theta: 1.0 - data / line(theta), start, method="trf", x_scale=scale)
        return time.perf_counter() - t0

    return probe


def call_once(cli, argv, sink):
    """Time one call; an escaping exception is recorded, not raised."""
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:
        rc, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, rc, error


def main(plan_path, result_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    t0 = time.perf_counter()
    import snspec.cli as cli
    import snspec.config

    snspec.config.load_config(plan["config"])
    result = {"setup_s": time.perf_counter() - t0}

    speed_probe = make_speed_probe()
    probes = result["probes"] = [speed_probe() for _ in range(3)]

    calls = plan["calls"]
    seconds = plan["seconds"]
    # a fixed number of calls makes the calls attempted, and so the failures
    # of a workload with known failing inputs, the same in every run of a seed
    n_ops = plan.get("ops")
    ops = []
    with open(os.devnull, "w") as sink:

        def run_pass():
            t = time.perf_counter()
            for index, call in enumerate(calls):
                dt, rc, error = call_once(cli, call["argv"], sink)
                ops.append({"call": index, "s": dt, "rc": rc, "error": error})
            return time.perf_counter() - t

        if plan["mode"] == "run":
            busy = probed = 0.0
            index = 0
            while len(ops) < n_ops if n_ops else busy < seconds:
                while probed < PROBE_SHARE * busy:
                    probes.append(speed_probe())
                    probed += probes[-1]
                call = calls[index]
                dt, rc, error = call_once(cli, call["argv"], sink)
                busy += dt
                op = {"call": index, "s": dt, "rc": rc, "error": error}
                if rc == 0 and error is None:
                    op["digest"] = digest(call["out"])
                ops.append(op)
                index = (index + 1) % len(calls)
        elif plan["mode"] == "trace":
            from tracing import Tracer, layer_metrics

            tracer = Tracer()
            walls = {"untraced": [], "traced": []}
            started = time.perf_counter()
            while True:
                for kind in ("untraced", "traced"):
                    first = len(ops)
                    if kind == "traced":
                        tracer.install()
                    try:
                        walls[kind].append(run_pass())
                    finally:
                        tracer.remove()
                    for op in ops[first:]:
                        if op["rc"] == 0 and op["error"] is None:
                            op["digest"] = digest(calls[op["call"]]["out"])
                pair = walls["untraced"][-1] + walls["traced"][-1]
                if n_ops or time.perf_counter() - started + pair > seconds:
                    break
            cycles = len(walls["traced"])
            result["layers"] = layer_metrics(tracer, cycles)
            result["walls"] = walls
    result["ops"] = ops
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
