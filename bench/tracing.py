"""Per-layer tracing from outside the package.

Each hook wraps a public function at the module attribute where its caller
looks it up (``snspec.montecarlo.mle_fit``, not ``snspec.estimation.mle_fit``),
so nothing under ``src/`` changes. A span records its wall time; a span's self
time is its duration minus the time of the traced spans it encloses. Counters
that depend on the arguments or the result (quadrature nodes, solver
evaluations, bytes written) are taken at the same boundary.

A hook whose attribute no longer exists is skipped, and a function that is no
longer called keeps zero counts: both read as zero calls, never as an error.
"""
from __future__ import annotations

import functools
import importlib
import os
import time


def _points(args, kwargs, result):
    nu = args[1] if len(args) > 1 else kwargs["nu"]
    return {"points": int(getattr(nu, "size", 1))}


def _samples(args, kwargs, result):
    return {"samples": int(result.y.size)}


def _fit(args, kwargs, result):
    return {"nfev": int(result.n_iter), "converged": int(bool(result.converged))}


def _bytes(args, kwargs, result):
    return {"bytes_written": os.path.getsize(args[0])}


# (layer name, lookup sites, counter taken from (args, kwargs, result))
HOOKS = [
    ("cli.main", ["snspec.cli.main"], None),
    ("config.load_config", ["snspec.cli.load_config"], None),
    ("io.read_spectrum_csv", ["snspec.cli.read_spectrum_csv"], None),
    ("io.write_json", ["snspec.cli.write_json"], _bytes),
    ("io.write_scan_csv", ["snspec.cli.write_scan_csv"], _bytes),
    ("montecarlo.run_validation", ["snspec.cli.run_validation"], None),
    ("montecarlo.trial_spectrum", ["snspec.montecarlo.trial_spectrum"], None),
    ("synthesis.synthesize_timeseries", ["snspec.montecarlo.synthesize_timeseries"], _samples),
    ("synthesis.periodogram", ["snspec.montecarlo.periodogram"], None),
    ("synthesis.average_spectra", ["snspec.montecarlo.average_spectra"], None),
    ("synthesis.coarse_grain", ["snspec.montecarlo.coarse_grain"], None),
    ("synthesis.sample_periodogram_exact", ["snspec.montecarlo.sample_periodogram_exact"], None),
    ("model.eval_psd", ["snspec.estimation.eval_psd", "snspec.synthesis.eval_psd"], _points),
    ("estimation.mle_fit", ["snspec.montecarlo.mle_fit", "snspec.cli.mle_fit"], _fit),
    ("estimation.least_squares", ["snspec.estimation.least_squares"], None),
    ("estimation.minimize", ["snspec.estimation.minimize"], None),
    (
        "fisher.fisher_integral",
        ["snspec.montecarlo.fisher_integral", "snspec.scan.fisher_integral", "snspec.cli.fisher_integral"],
        None,
    ),
    ("fisher.invert_psd_matrix", ["snspec.fisher.invert_psd_matrix"], None),
    ("model.grad_log_psd", ["snspec.fisher.grad_log_psd"], _points),
    ("model.params_from_conditions", ["snspec.scan.params_from_conditions"], None),
    ("scan.scan_grid", ["snspec.cli.scan_grid"], None),
    ("scan.find_optimum", ["snspec.cli.find_optimum"], None),
]


class Tracer:
    """Installs the hooks, accumulates per-layer totals, and removes them."""

    def __init__(self):
        self.totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "raised": 0} for name, _, _ in HOOKS}
        self.counts = {}
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, counter):
        totals = self.totals[name]
        counts = self.counts
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                totals["raised"] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                totals["calls"] += 1
                totals["s"] += dt
                totals["self_s"] += dt - child
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[(name, key)] = counts.get((name, key), 0) + value
            return result

        return traced

    def install(self):
        for name, sites, counter in HOOKS:
            for site in sites:
                module_name, attr = site.rsplit(".", 1)
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, counter))

    def remove(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


def layer_metrics(tracer, cycles):
    """Per-cycle layer metrics, as {name: (value, unit)}.

    Every cycle repeats the same calls, so counts divided by the cycle count
    are the counts of one cycle and repeat exactly for a given seed.
    """
    out = {}
    for name, t in tracer.totals.items():
        out[f"{name}.calls"] = (t["calls"] / cycles, "count")
        out[f"{name}.s"] = (t["s"] / cycles, "s")
        out[f"{name}.self_s"] = (t["self_s"] / cycles, "s")

    def count(name, key):
        return tracer.counts.get((name, key), 0) / cycles

    fit = tracer.totals["estimation.mle_fit"]
    returned = fit["calls"] - fit["raised"]
    converged = tracer.counts.get(("estimation.mle_fit", "converged"), 0)
    out["estimation.mle_fit.nfev"] = (count("estimation.mle_fit", "nfev"), "count")
    out["estimation.mle_fit.converged_ratio"] = (converged / returned if returned else 0.0, "ratio")
    out["estimation.mle_fit.raised"] = (fit["raised"] / cycles, "count")
    out["synthesis.samples"] = (count("synthesis.synthesize_timeseries", "samples"), "count")
    out["model.eval_psd.points"] = (count("model.eval_psd", "points"), "count")
    out["model.grad_log_psd.points"] = (count("model.grad_log_psd", "points"), "count")
    out["io.bytes_written"] = (
        count("io.write_json", "bytes_written") + count("io.write_scan_csv", "bytes_written"),
        "B",
    )
    return out
