"""The four workloads: their inputs, their CLI calls and their output checks.

Every input is made from the benchmark seed. The program sees only the files
written here and the argument lists of its calls; ``--threads`` is never
passed and the configs carry no ``threads`` key.

A workload is a fixed list of distinct calls. The run goes round the list, so
a call can run several times, and each repetition must write byte-identical
files.
Checks read the files of each distinct call once (``check_call``) and, where a
property only shows across calls, the files of all of them (``check_run``).
Each check returns the work the call did (trials, cells or fits), how much of
that gave a usable result, and a list of problems, empty when it passed.
"""
from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

# criterion 5: every normalized deviation within 4 Wishart standard errors
MAX_DEVIATION = 4.0
VALIDATE_CALLS = 8
FIT_RUNGS = (0.05, 0.2, 1.0, 4.0)  # s_at / s_ph
FIT_SPECTRA_PER_RUNG = 250
# fit-ladder calls per second of run length: about 95% of the fit rate of the
# reference host, so a run takes close to --seconds there
FIT_CALLS_PER_S = 55
SQUEEZED_XI2 = 0.55
SPOT_CELLS = 2
SPOT_RTOL = 1e-6
# criterion 7: reference minima of the center and width surfaces, Hz^2
SCAN_MINIMA = {2: 1190.0, 4: 10914.0}
SCAN_MINIMA_RTOL = 0.25


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _dump(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return path


def _finite(values):
    return all(math.isfinite(float(x)) for x in np.ravel(values))


class Workload:
    """Base: a config for the set-up timer and a list of distinct calls."""

    def __init__(self, root, seed, work):
        self.root = root
        self.seed = seed
        self.work = work
        self.config = None
        self.calls = []

    def shipped_config(self, name):
        return _load(os.path.join(self.root, "configs", name))

    def add_call(self, argv, replay):
        out = os.path.join(self.work, "out", str(len(self.calls)))
        self.calls.append({"argv": list(argv) + ["--out", out], "out": out, "replay": replay})

    def run_ops(self, seconds):
        """Calls a run makes, or None to call until ``seconds`` are spent."""
        return None

    def check_call(self, index):
        raise NotImplementedError

    def check_run(self, indices):
        return {}, []


class Validate(Workload):
    """``snspec validate`` at the reference config, several master seeds."""

    def __init__(self, root, seed, work, route):
        super().__init__(root, seed, work)
        doc = self.shipped_config("validate_reference.json")
        doc["monte_carlo"].pop("threads", None)
        doc["monte_carlo"]["synthesis"] = route
        self.route = route
        self.n_trials = doc["monte_carlo"]["n_trials"]
        self.config = _dump(doc, os.path.join(work, f"validate_{route}.json"))
        rng = np.random.default_rng(seed)
        masters = rng.choice(2**31 - 1, size=VALIDATE_CALLS, replace=False)
        for k, master in enumerate(masters):
            self.add_call(
                ["validate", "--config", self.config, "--seed", str(int(master))],
                f"snspec validate --seed {int(master)} ({route} route; call {k} of bench seed {seed})",
            )

    def report(self, index):
        return _load(os.path.join(self.calls[index]["out"], "validate.json"))

    def check_call(self, index):
        doc = self.report(index)
        problems = []
        if doc["n_trials"] != self.n_trials or doc["synthesis"] != self.route:
            problems.append(f"ran {doc['n_trials']} {doc['synthesis']} trials")
        for key in ("gamma_exp", "gamma_th", "mean_fit", "max_deviation"):
            if not _finite(doc[key]):
                problems.append(f"{key} is not finite")
        return doc["n_trials"], doc["n_trials"] - doc["n_failures"], problems

    def check_run(self, indices):
        """Criterion 5 on the covariance pooled over the run's calls.

        Pooling lowers the noise of the estimate; the deviation stays in units
        of the Wishart standard error of one call's covariance, which is the
        scale criterion 5 fixes. The deviation in units of the pooled
        standard error is reported too, unchecked: it grows with the number
        of trials wherever the bound is not yet attained at finite n_eff.
        """
        docs = [self.report(i) for i in indices]
        n = np.array([d["n_trials"] - d["n_failures"] for d in docs], dtype=float)
        means = np.array([d["mean_fit"] for d in docs])
        covs = np.array([d["gamma_exp"] for d in docs])
        total = n.sum()
        mu = n @ means / total
        spread = means - mu
        pooled = np.einsum("k,kij->ij", n, covs + np.einsum("ki,kj->kij", spread, spread)) / total
        gamma_th = np.array(docs[0]["gamma_th"])
        d = np.diag(gamma_th)
        wishart = np.sqrt(gamma_th * gamma_th + np.outer(d, d))
        gap = np.abs(pooled - gamma_th) / wishart
        dev = float(np.max(gap * math.sqrt(self.n_trials)))
        info = {
            "pooled_trials": int(total),
            "pooled_deviation": dev,
            "pooled_deviation_at_pooled_n": float(np.max(gap * math.sqrt(total))),
        }
        problems = []
        if not dev <= MAX_DEVIATION:
            problems.append(f"pooled normalized deviation {dev:.3g} > {MAX_DEVIATION}")
        return info, problems


class Scan(Workload):
    """``snspec scan`` on the shipped 50x50 grid, coherent then squeezed."""

    def __init__(self, root, seed, work):
        super().__init__(root, seed, work)
        doc = self.shipped_config("scan_reference.json")
        doc.get("monte_carlo", {}).pop("threads", None)
        self.xi2 = [doc["scan"].get("xi2", 1.0), SQUEEZED_XI2]
        self.configs = []
        for k, xi2 in enumerate(self.xi2):
            doc["scan"]["xi2"] = xi2
            self.configs.append(_dump(doc, os.path.join(work, f"scan_{k}.json")))
            self.add_call(["scan", "--config", self.configs[k]], f"snspec scan at xi2 = {xi2}")
        self.config = self.configs[0]
        self.spot = np.random.default_rng(seed).integers(
            0, doc["scan"]["n_points"] * doc["scan"]["p_points"], size=(2, SPOT_CELLS)
        )

    def check_run(self, indices):
        info = {f"gamma44_p_opt_w_at_xi2_{self.xi2[i]}": self.optima(i)["gamma44"]["p_opt_w"] for i in indices}
        return info, []

    def grid(self, index):
        with open(os.path.join(self.calls[index]["out"], "scan.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        return rows[0], np.array(rows[1:], dtype=float)

    def optima(self, index):
        return _load(os.path.join(self.calls[index]["out"], "optima.json"))["optima"]

    def check_call(self, index):
        header, data = self.grid(index)
        problems = []
        if header != ["n_cm3", "p_w", "gamma11", "gamma22", "gamma33", "gamma44"]:
            problems.append(f"scan.csv header {header}")
        n_values = np.unique(data[:, 0])
        p_values = np.unique(data[:, 1])
        if data.shape[0] != n_values.size * p_values.size:
            problems.append("scan.csv rows do not form a grid")
            return data.shape[0], 0, problems
        surfaces = data[:, 2:].T.reshape(4, n_values.size, p_values.size)
        usable = int(np.all(np.isfinite(surfaces), axis=0).sum())
        problems += self.spot_check(index, data)
        if index == 0:
            problems += self.optimum_structure(surfaces)
        else:
            coherent = self.optima(0)["gamma44"]["p_opt_w"]
            squeezed = self.optima(index)["gamma44"]["p_opt_w"]
            if not squeezed < coherent:
                problems.append(f"squeezed gamma44 optimum at {squeezed} W, coherent at {coherent} W")
        return data.shape[0], usable, problems

    def optimum_structure(self, surfaces):
        """Criterion 7: interior line-parameter minima, monotone amplitudes."""
        problems = []
        for index, level in SCAN_MINIMA.items():
            surf = surfaces[index - 1]
            i, j = np.unravel_index(np.nanargmin(surf), surf.shape)
            low = surf[i, j]
            edge = np.concatenate([surf[0], surf[-1], surf[:, 0], surf[:, -1]])
            if not (0 < i < surf.shape[0] - 1 and 0 < j < surf.shape[1] - 1):
                problems.append(f"gamma{index}{index} minimum on the grid edge")
            if not np.nanmin(edge) > low:
                problems.append(f"gamma{index}{index} edge does not exceed the minimum")
            if not abs(low / level - 1.0) <= SCAN_MINIMA_RTOL:
                problems.append(f"gamma{index}{index} minimum {low:.1f}, reference {level}")
        for index in (1, 3):
            surf = surfaces[index - 1]
            if not (np.all(np.diff(surf, axis=0) > 0) and np.all(np.diff(surf, axis=1) > 0)):
                problems.append(f"gamma{index}{index} not monotone in density and power")
        return problems

    def spot_check(self, index, data):
        """Seeded cells against a direct fisher_integral call."""
        from snspec.config import load_config
        from snspec.fisher import fisher_integral
        from snspec.model import ExperimentConditions, params_from_conditions

        cfg = load_config(self.configs[index])
        acq = cfg.require_acquisition()
        problems = []
        for cell in self.spot[index]:
            n, p = data[cell, :2]
            v = params_from_conditions(ExperimentConditions(n=n, p=p, xi2=self.xi2[index]), cfg.instrument)
            result = fisher_integral(v, (acq.fit_lo, acq.fit_hi), acq.coarse_spacing, acq.n_eff)
            want = np.diag(result.gamma_th)
            if not np.allclose(data[cell, 2:], want, rtol=SPOT_RTOL, atol=0.0):
                problems.append(f"cell (n={n:.4g}, P={p:.4g}) differs from fisher_integral")
        return problems


class FitLadder(Workload):
    """``snspec fit`` on seeded spectra at four line strengths."""

    def __init__(self, root, seed, work):
        super().__init__(root, seed, work)
        doc = self.shipped_config("validate_reference.json")
        doc["monte_carlo"].pop("threads", None)
        self.config = _dump(doc, os.path.join(work, "fit.json"))
        acq = doc["acquisition"]
        truth = doc["model"]["spectral_params"]
        # the reference coarse grid, DC and Nyquist excluded, built here so
        # that no change to the package's synthesis can change these inputs
        m = round(acq["t_total_s"] / acq["delta_s"])
        raw = np.arange(1, m // 2) / acq["t_total_s"]
        n_bin = acq["n_bin"]
        nu = raw[: raw.size // n_bin * n_bin].reshape(-1, n_bin).mean(axis=1)
        n_eff = n_bin * acq.get("n_ave", 1)
        s_ph, nu_l, width = truth["s_ph_uv2_per_hz"], truth["nu_l_hz"], truth["delta_nu_hz"]
        lorentz = width**2 / (4.0 * (nu - nu_l) ** 2 + width**2)
        rng = np.random.default_rng(seed)
        rungs = np.repeat(FIT_RUNGS, FIT_SPECTRA_PER_RUNG)
        rng.shuffle(rungs)
        os.makedirs(os.path.join(work, "spectra"))
        for k, rung in enumerate(rungs):
            f = s_ph + rung * s_ph * lorentz
            s_bar = rng.gamma(float(n_eff), f / n_eff)
            path = os.path.join(work, "spectra", f"{k:03d}.csv")
            with open(path, "w") as fh:
                fh.write("nu_hz,psd_uv2_per_hz\n")
                fh.writelines(f"{a!r},{b!r}\n" for a, b in zip(nu.tolist(), s_bar.tolist()))
            self.add_call(
                ["fit", path, "--config", self.config],
                f"spectrum {k} of bench seed {seed} (s_at/s_ph = {rung})",
            )

    def run_ops(self, seconds):
        """A fixed number of fits, so that the weak-line fits that fail are
        the same ones in every run of a seed, whatever the host's speed."""
        return FIT_CALLS_PER_S * seconds

    def check_call(self, index):
        doc = _load(os.path.join(self.calls[index]["out"], "fit.json"))
        keys = ("s_ph_uv2_per_hz", "nu_l_hz", "s_at_uv2_per_hz", "delta_nu_hz", "chi2")
        problems = [] if _finite([doc[k] for k in keys]) else ["fitted parameters are not finite"]
        return 1, int(doc["converged"] is True), problems


WORKLOADS = {
    "validate-timeseries": lambda root, seed, work: Validate(root, seed, work, "timeseries"),
    "validate-gamma": lambda root, seed, work: Validate(root, seed, work, "gamma"),
    "scan": Scan,
    "fit-ladder": FitLadder,
}
