"""The three benchmark workloads: what one op does and how its output is checked.

Each workload draws its inputs from the run seed and the op key, hands
the program only those inputs (a CLI config file and arguments, or the
objects the config loads to), and checks every op's output by a route
that does not go through the code being timed.

- theory-table: one theory report per op on the canonical square-root
  fixture (p = 200, n = 400, t near n^(-1/6)).  Nearly all of its time is
  the real-axis density ladder inside classical_locations; no trials run.
- trials-values: ``rectconv experiment universality`` through cli.main on
  the 150 x 300 fixture, gaussian vs trinary plus the control stream.
  Noise sampling and the values-only SVD do the work.
- trials-vectors: ``rectconv experiment locallaw`` through cli.main on the
  200 x 400 fixture and its 12-point grid.  Full SVD with vectors, every
  trial record held with U and V, resolvent quadratic forms, and a light
  off-axis solve_many.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os

import numpy as np
from scipy.optimize import brentq

import rectconv.cli as cli
import rectconv.edge as edge_mod
import rectconv.ensemble as ensemble
import rectconv.freeconv as freeconv
import rectconv.quantiles as quantiles
from rectconv.spectrum import ModelParams, make_spectrum

THREADS = 2  # the experiment pool; BLAS keeps its own default

# Sizes per scale.  "small" (p = 20) exists for the benchmark's own smoke
# tests; runs use "full".
SCALES = {
    "full": {
        "theory": {"p": 200, "n": 400, "j_max": 20, "samples": 200, "grid_E": 16},
        "closed_form": {"p": 50, "j_max": 20},
        "trials-values": {"p": 150, "n": 300, "trials": 20},
        "trials-vectors": {"p": 200, "n": 400, "trials": 20},
    },
    "small": {
        "theory": {"p": 20, "n": 40, "j_max": 5, "samples": 20, "grid_E": 4},
        "closed_form": {"p": 20, "j_max": 5},
        "trials-values": {"p": 20, "n": 40, "trials": 8},
        "trials-vectors": {"p": 20, "n": 40, "trials": 8},
    },
}

ROUTE_AGREEMENT = 1e-8  # criterion 2's bound on |m_hybrid - m_fixed_point|
QUANTILE_BOUND = 1e-6  # criterion 6's bound on the closed-form MP quantiles
STAT_RTOL = 1e-9  # per-trial CSV statistic against the dense route
GRID_ETAS = (1e-2, 0.05, 0.2, 1.0)


class CheckFailed(Exception):
    """An op ran but its output failed the named check."""

    def __init__(self, check: str, message: str):
        super().__init__(message)
        self.check = check


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _write_json(path, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")
    return path


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


class Workload:
    """Base: repeat-key bookkeeping shared by all workloads."""

    name = ""
    function = ""

    def __init__(self, out: str, seed: int, scale: str = "full"):
        self.out = out
        self.seed = seed
        self.sizes = SCALES[scale]
        self._seen: dict[int, str] = {}
        os.makedirs(out, exist_ok=True)

    def op_seed(self, key: int) -> int:
        return self.seed * 10_000 + key

    def check_repeat(self, key: int, digest: str) -> None:
        """An op repeated with the same key must reproduce its output exactly."""
        first = self._seen.setdefault(key, digest)
        if first != digest:
            raise CheckFailed("repeat", f"op key {key} gave different output on repeat")


# ---------------------------------------------------------------------------
# theory-table


def _mp_unit_cdf(x: float) -> float:
    # distribution function of the all-zero, c = 1, t = 1 law on [0, 4]
    return (2.0 / np.pi) * np.arcsin(np.sqrt(x) / 2.0) + np.sqrt(x * (4.0 - x)) / (2.0 * np.pi)


class TheoryTable(Workload):
    name = "theory-table"
    function = "theory report (find_right_edge, classical_locations, eta_lower, density_curve, support_scan, solve_many)"

    def config(self, key: int) -> dict:
        s = self.sizes["theory"]
        rng = np.random.default_rng([self.seed, key])
        # within 1% of the fixture, so ops differ without the solver's
        # iteration counts swinging the op time
        t = float(s["n"]) ** (-1.0 / 6.0) * (1.0 + 0.01 * rng.uniform(-1.0, 1.0))
        edge = 1.0 + 0.01 * rng.uniform(-1.0, 1.0)
        return {
            "spectrum": {"canonical": {"p": s["p"], "edge": edge}},
            "p": s["p"],
            "n": s["n"],
            "t": t,
        }

    def describe(self, key: int) -> dict:
        return self.config(key)

    @property
    def setup_config(self) -> str:
        return _write_json(os.path.join(self.out, "theory-0.json"), self.config(0))

    def prepare(self, key: int):
        path = _write_json(os.path.join(self.out, f"theory-{key}.json"), self.config(key))
        run = cli.load_config(path)
        rng = np.random.default_rng([self.seed, key, 1])
        # the grid's E positions are drawn; its eta levels are fixed so the
        # fixed-point cost does not swing with the draw
        n_E = self.sizes["theory"]["grid_E"]
        return run, rng.uniform(0.02, 1.2, n_E)

    def op(self, key: int, prep) -> dict:
        run, grid_E = prep
        spec, params, solver = run.spec, run.params, run.solver
        s = self.sizes["theory"]
        edge = edge_mod.find_right_edge(spec, params)
        lam = edge.lambda_plus
        table = quantiles.classical_locations(spec, params, s["j_max"], edge, solver)
        eta_l = np.array([quantiles.eta_lower(params, lam - g) for g in table.gamma])
        lo, hi = max(1e-3 * lam, 1e-6), 1.1 * lam
        E = np.linspace(lo, hi, s["samples"])
        rho = freeconv.density_curve(spec, params, E, solver)
        step = (hi - lo) / 64.0
        scan = freeconv.support_scan(spec, params, lo, hi, step, solver)
        z = (lam * grid_E[:, None] + 1j * np.array(GRID_ETAS)[None, :]).ravel()
        hybrid = freeconv.solve_many(spec, params, z, solver)
        fixed = freeconv.solve_many(spec, params, z, solver, method="fixed_point")
        return {
            "lambda_plus": lam,
            "gamma": table.gamma,
            "eta_l": eta_l,
            "rho": rho,
            "scan": scan.intervals,
            "step": step,
            "m_hybrid": np.array([pt.m for pt in hybrid]),
            "m_fixed": np.array([pt.m for pt in fixed]),
        }

    def check(self, key: int, prep, out: dict) -> None:
        gamma, lam = out["gamma"], out["lambda_plus"]
        if gamma[0] != lam:
            raise CheckFailed("gamma_1", f"gamma_1 = {gamma[0]!r} != lambda_plus = {lam!r}")
        if not np.all(np.diff(gamma) < 0):
            raise CheckFailed("gamma order", "classical locations not strictly decreasing")
        if not (np.all(np.isfinite(out["eta_l"])) and np.all(out["eta_l"] > 0)):
            raise CheckFailed("eta_lower", "eta_lower not finite and positive")
        rho = out["rho"]
        if not (np.all(np.isfinite(rho)) and np.all(rho >= 0)):
            raise CheckFailed("density", "density not finite and >= 0")
        scan = out["scan"]
        if not scan or abs(scan[-1][1] - lam) > out["step"]:
            raise CheckFailed("support", f"support {scan} does not end within a step of {lam}")
        gap = float(np.max(np.abs(out["m_hybrid"] - out["m_fixed"])))
        if not gap <= ROUTE_AGREEMENT:
            raise CheckFailed("route agreement", f"|m_hybrid - m_fixed_point| = {gap:.3e} > {ROUTE_AGREEMENT}")
        arrays = [gamma, out["eta_l"], rho, np.array(scan), out["m_hybrid"], out["m_fixed"]]
        self.check_repeat(key, _digest(*(np.ascontiguousarray(a).tobytes() for a in arrays)))

    def final_check(self) -> dict:
        """Closed-form all-zero c = t = 1 density and quantiles, as digits."""
        p, j_max = self.sizes["closed_form"]["p"], self.sizes["closed_form"]["j_max"]
        spec = make_spectrum(np.zeros(p))
        params = ModelParams(p=p, n=p, t=1.0)
        E = np.linspace(0.1, 3.9, 200)
        rho = freeconv.density_curve(spec, params, E)
        exact = np.sqrt((4.0 - E) / E) / (2.0 * np.pi)
        density_err = float(np.max(np.abs(rho - exact)))
        edge = edge_mod.find_right_edge(spec, params)
        table = quantiles.classical_locations(spec, params, j_max, edge)
        quantile_err = 0.0
        for j in range(2, j_max + 1):
            target = 1.0 - (j - 1) / p
            ref = brentq(lambda x: _mp_unit_cdf(x) - target, 1e-12, 4.0 - 1e-12, xtol=1e-14)
            quantile_err = max(quantile_err, abs(float(table.gamma[j - 1]) - ref))
        if not quantile_err <= QUANTILE_BOUND:
            raise CheckFailed("closed-form quantiles", f"MP quantile error {quantile_err:.3e} > {QUANTILE_BOUND}")
        return {
            "density_digits": -np.log10(max(density_err, 1e-17)),
            "quantile_digits": -np.log10(max(quantile_err, 1e-17)),
        }


# ---------------------------------------------------------------------------
# trials workloads


class Trials(Workload):
    """One ``rectconv experiment <name>`` per op, in-process through cli.main."""

    experiment = ""
    kinds: tuple = ("gaussian",)
    streams = 1

    def __init__(self, out: str, seed: int, scale: str = "full"):
        super().__init__(out, seed, scale)
        s = self.sizes[self.name]
        n = s["n"]
        self.trials = s["trials"]
        self.params = ModelParams(p=s["p"], n=n, t=float(n) ** (-1.0 / 6.0))
        self.config_dict = {
            "spectrum": {"canonical": {"p": s["p"], "edge": 1.0}},
            "p": s["p"],
            "n": n,
            "t": self.params.t,
            "noise": list(self.kinds),
            "trials": self.trials,
            "seed": 1,
            "experiment": {"vartheta": 0.1},
        }
        self.setup_config = _write_json(os.path.join(out, "config.json"), self.config_dict)
        self.spec = cli.load_config(self.setup_config).spec
        self.op_dir = os.path.join(out, "op")
        self.function = f"cli.main experiment {self.experiment}"

    def describe(self, key: int) -> dict:
        return self.config_dict

    def prepare(self, key: int) -> list:
        return [
            "experiment", self.experiment,
            "--config", self.setup_config,
            "--out", self.op_dir,
            "--threads", str(THREADS),
            "--seed", str(self.op_seed(key)),
        ]

    def op(self, key: int, argv) -> dict:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        # exit 1 is a threshold verdict, which at this trial count is a
        # statistical outcome rather than an error
        if code not in (0, 1):
            raise RuntimeError(f"exit {code}: {stderr.getvalue().strip()}")
        with open(os.path.join(self.op_dir, f"{self.experiment}.json"), "rb") as fh:
            report = fh.read()
        with open(os.path.join(self.op_dir, f"{self.experiment}_trials.csv"), "rb") as fh:
            rows = fh.read()
        return {
            "report": report,
            "rows": rows,
            "trials": self.trials * self.streams,
            "report_bytes": len(report) + len(rows),
        }

    def check(self, key: int, argv, out: dict) -> None:
        self.check_repeat(key, _digest(out["report"], out["rows"]))
        summary = json.loads(out["report"])["summary"]
        rows = list(csv.DictReader(io.StringIO(out["rows"].decode())))
        if len(rows) != self.trials:
            raise CheckFailed("rows", f"{len(rows)} CSV rows for {self.trials} trials")
        # one sampled trial per op is redone by the dense route
        i = int(np.random.default_rng([self.seed, key, 2]).integers(self.trials))
        self.check_trial(self.op_seed(key), i, rows[i], summary)

    def _dense_matrix(self, base_seed: int, stream: int, kind: str, i: int) -> np.ndarray:
        seed = ensemble.derive_seed(base_seed, stream, i)
        X = ensemble.sample_noise(self.params, kind, seed)
        return ensemble.assemble_Wt(self.spec, self.params, X)


class TrialsValues(Trials):
    name = "trials-values"
    experiment = "universality"
    kinds = ("gaussian", "trinary")
    streams = 3  # kind a, kind b, and the same-kind control

    def check_trial(self, base_seed, i, row, summary) -> None:
        n, lam_plus = self.params.n, summary["lambda_plus"]
        for stream, kind, col in ((0, self.kinds[0], "stat_a"), (1, self.kinds[1], "stat_b")):
            W = self._dense_matrix(base_seed, stream, kind, i)
            top = float(np.linalg.eigvalsh(W @ W.T)[-1])
            dense = float(n) ** (2.0 / 3.0) * (top - lam_plus)
            if not _close(float(row[col]), dense, STAT_RTOL):
                raise CheckFailed("dense route", f"trial {i} {col}: csv {row[col]} vs dense {dense!r}")


class TrialsVectors(Trials):
    name = "trials-vectors"
    experiment = "locallaw"

    def _theory(self, grid):
        if getattr(self, "_points", None) is None:
            self._points = freeconv.solve_many(self.spec, self.params, grid)
        return self._points

    def check_trial(self, base_seed, i, row, summary) -> None:
        p, n, t = self.params.p, self.params.n, self.params.t
        seed = ensemble.derive_seed(base_seed, 0, i)
        if int(row["seed"]) != seed:
            raise CheckFailed("dense route", f"trial {i} seed {row['seed']} != {seed}")
        grid = np.array([complex(e, h) for e, h in summary["grid"]])
        points = self._theory(grid)
        W = self._dense_matrix(base_seed, 0, self.kinds[0], i)
        lam = np.linalg.eigvalsh(W @ W.T)
        m_hat = np.mean(1.0 / (lam[:, None] - grid[None, :]), axis=0)
        m = np.array([pt.m for pt in points])
        avg = float(np.max(np.abs(m_hat - m) * n * grid.imag))

        # the experiment's fixed unit pair, then u^T G(z) v by dense solves
        gen = np.random.Generator(np.random.Philox(key=ensemble.derive_seed(base_seed, 98, 0)))
        u = gen.standard_normal(p + n)
        u /= np.linalg.norm(u)
        v = gen.standard_normal(p + n)
        v /= np.linalg.norm(v)
        u1, u2, v1, v2 = u[:p], u[p:], v[:p], v[p:]
        WWt, WtW = W @ W.T, W.T @ W
        aniso = 0.0
        for z, pt in zip(grid, points):
            rz = 1.0 / np.sqrt(z)
            A = WWt - z * np.eye(p)
            Av1 = np.linalg.solve(A, v1)
            g = (
                u1 @ Av1
                + rz * (u1 @ np.linalg.solve(A, W @ v2))
                + rz * (u2 @ (W.T @ Av1))
                + u2 @ np.linalg.solve(WtW - z * np.eye(n), v2)
            )
            pi_uv = ensemble.pi_quadratic_form(self.spec, self.params, pt, u, v)
            eta = z.imag
            psi = np.sqrt(max(pt.m.imag, 0.0) / (n * eta)) + 1.0 / (n * eta)
            denom = (
                (t * psi + np.sqrt(t / n))
                * ensemble.pi_split_norm(self.spec, self.params, pt, u)
                * ensemble.pi_split_norm(self.spec, self.params, pt, v)
            )
            aniso = max(aniso, abs(g - pi_uv) / denom)
        for col, dense in (("avg_max", avg), ("aniso_max", aniso)):
            if not _close(float(row[col]), dense, STAT_RTOL):
                raise CheckFailed("dense route", f"trial {i} {col}: csv {row[col]} vs dense {dense!r}")


WORKLOADS = {w.name: w for w in (TheoryTable, TrialsValues, TrialsVectors)}
