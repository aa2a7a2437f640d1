"""Replay the off-axis solver batteries on both routes of solve_point.

    python3 tools/solver_battery.py                  # both batteries
    python3 tools/solver_battery.py --battery large-t

Run from anywhere; rectconv is imported from the src/ of the checkout this
file sits in, so a copy of this file in another checkout measures that
tree.  Each case is solved once by method="hybrid" and once by
method="fixed_point".  Per battery and route the script prints the solved
and failed counts, the largest relative gap |m_fixed - m_hybrid| / |m_hybrid|
over the cases both routes solve and the case where it lies, the _phi
passes and columns evaluated (a pass is one _phi call; one column is one
point through its atom-sum pass: the ladder-top start sweeps that both
routes share, then the hybrid's sweeps at z and its Newton solve there or
the fixed-point route's sweeps at z; every sweep reads its map value and
its residual from one such pass), the wall time, the solved case with
the most iterations and a sha256 digest of the solved cases' indices and
their m, zeta, residual and iterations (two trees that solve alike print
the same digest), then one line per failed case.  Each battery also
prints a sha256 of its drawn cases (atoms, p, n, t and z): the seed-1
battery draws E from lambda_plus, so an edge solve that moves a bit moves
its cases, and with them the result digests.  The exit status is 1
when any case fails on either route, so the battery serves as a check.

Batteries, each drawn case by case from one numpy default_rng(seed):
  large-t  seeds 0 and 1, 300 cases each: p = integers(10, 61); c by choice
           from {1/4, 1/2, 0.9, 1} with n = round(p/c); integers(0, 2)
           picks atoms uniform(0, 4, p) (1) or all zero (0); t log-uniform
           on [10, 300]; E uniform on [-5, 3t + 10]; eta log-uniform on
           [1e-3, 3].
  seed-1   seed 1, 600 cases: p = integers(10, 81); c as above; atoms
           uniform(0, 4, p); t log-uniform on [1e-4, 10]; E uniform on
           [-1, lambda_plus + 1]; eta log-uniform on [1e-4, 3].
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from rectconv import ModelParams, SolverError, find_right_edge, freeconv, make_spectrum, solve_point  # noqa: E402

ROUTES = ("hybrid", "fixed_point")
C_CHOICES = [0.25, 0.5, 0.9, 1.0]


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def large_t_cases():
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            p = int(rng.integers(10, 61))
            c = float(rng.choice(C_CHOICES))
            atoms = rng.uniform(0, 4, p) if rng.integers(0, 2) else np.zeros(p)
            t = _log_uniform(rng, 10.0, 300.0)
            E = float(rng.uniform(-5.0, 3.0 * t + 10.0))
            eta = _log_uniform(rng, 1e-3, 3.0)
            yield make_spectrum(atoms), ModelParams(p=p, n=round(p / c), t=t), complex(E, eta)


def seed_1_cases():
    rng = np.random.default_rng(1)
    for _ in range(600):
        p = int(rng.integers(10, 81))
        c = float(rng.choice(C_CHOICES))
        spec = make_spectrum(rng.uniform(0, 4, p))
        t = _log_uniform(rng, 1e-4, 10.0)
        params = ModelParams(p=p, n=round(p / c), t=t)
        lam = find_right_edge(spec, params).lambda_plus
        E = float(rng.uniform(-1.0, lam + 1.0))
        eta = _log_uniform(rng, 1e-4, 3.0)
        yield spec, params, complex(E, eta)


BATTERIES = {"large-t": large_t_cases, "seed-1": seed_1_cases}


def _case_digest(cases):
    """sha256 over the drawn cases: each case's atoms, p, n, t and z, each
    field little-endian, so a moved digest of the results can be told
    apart from moved cases."""
    h = hashlib.sha256()
    for spec, params, z in cases:
        h.update(np.asarray(spec.values, dtype="<f8").tobytes())
        h.update(np.array([params.p, params.n], dtype="<i8").tobytes())
        h.update(np.array([params.t], dtype="<f8").tobytes())
        h.update(np.array([z], dtype="<c16").tobytes())
    return h.hexdigest()


def _digest(points):
    """sha256 over the case indices and their points' m, zeta, residual and
    iterations, each field as one little-endian array."""
    idx = sorted(points)
    h = hashlib.sha256(np.array(idx, dtype="<i8").tobytes())
    h.update(np.array([(points[i].m, points[i].zeta) for i in idx], dtype="<c16").tobytes())
    h.update(np.array([points[i].residual for i in idx], dtype="<f8").tobytes())
    h.update(np.array([points[i].iterations for i in idx], dtype="<i8").tobytes())
    return h.hexdigest()


def run(name):
    cases = list(BATTERIES[name]())
    work = [0, 0]  # _phi passes and columns
    real_phi = freeconv._phi

    def counting_phi(d, c, t, zeta, order=0):
        work[0] += 1
        work[1] += zeta.size
        return real_phi(d, c, t, zeta, order)

    solved = {}
    failures = []
    freeconv._phi = counting_phi
    try:
        for route in ROUTES:
            work[:] = 0, 0
            t0 = time.perf_counter()
            points = {}
            for i, (spec, params, z) in enumerate(cases):
                try:
                    points[i] = solve_point(spec, params, z, method=route)
                except SolverError as exc:
                    failures.append((route, i, params, z, exc))
            solved[route] = (points, *work, time.perf_counter() - t0)
    finally:
        freeconv._phi = real_phi

    hybrid, fixed = solved["hybrid"][0], solved["fixed_point"][0]
    both = [i for i in fixed if i in hybrid]
    gaps = {i: abs(fixed[i].m - hybrid[i].m) / abs(hybrid[i].m) for i in both}
    worst = max(gaps, key=gaps.get, default=None)
    at = f" at case {worst}" if worst is not None else ""
    print(f"battery {name}: {len(cases)} cases, largest relative route gap {gaps.get(worst, 0.0):.2e}{at} over {len(both)} cases")
    print(f"  cases sha256 {_case_digest(cases)}")
    for route in ROUTES:
        points, passes, cols, wall = solved[route]
        print(
            f"  {route:<11} solved {len(points)}/{len(cases)}, failed {len(cases) - len(points)}, "
            f"_phi passes {passes:,}, columns {cols:,}, wall {wall:.2f} s"
        )
        if points:
            worst = max(points, key=lambda i: points[i].iterations)
            print(f"  {'':<11} most iterations: case {worst} ({points[worst].iterations:,})")
        print(f"  {'':<11} sha256 {_digest(points)}")
    for route, i, params, z, exc in failures:
        print(f"  failed {route} case {i}: p={params.p}, c={params.c_n:.3g}, t={params.t:.4g}, z={z:.6g}, |z|={abs(z):.4g}: {exc}")
    return len(failures)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--battery", choices=(*BATTERIES, "all"), default="all")
    args = ap.parse_args(argv)
    failed = sum(run(name) for name in (BATTERIES if args.battery == "all" else (args.battery,)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
