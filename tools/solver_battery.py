"""Replay the off-axis solver batteries on both routes of solve_point.

    python3 tools/solver_battery.py                  # both batteries
    python3 tools/solver_battery.py --battery large-t

Run from anywhere; rectconv is imported from the src/ of the checkout this
file sits in, so a copy of this file in another checkout measures that
tree.  Each case is solved once by method="hybrid" and once by
method="fixed_point".  Per battery and route the script prints the solved
and failed counts, the largest relative gap |m_fixed - m_hybrid| / |m_hybrid|
over the cases both routes solve, the _fp_map columns mapped (one column is
one point through the atom-sum kernel) and the wall time, then one line per
failed case.

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


def run(name):
    cases = list(BATTERIES[name]())
    columns = [0]
    real_map = freeconv._fp_map

    def counting(d, c, t, z_l, m):
        columns[0] += z_l.size
        return real_map(d, c, t, z_l, m)

    solved = {}
    failures = []
    freeconv._fp_map = counting
    try:
        for route in ROUTES:
            columns[0] = 0
            t0 = time.perf_counter()
            ms = {}
            for i, (spec, params, z) in enumerate(cases):
                try:
                    ms[i] = solve_point(spec, params, z, method=route).m
                except SolverError as exc:
                    failures.append((route, i, params, z, exc))
            solved[route] = (ms, columns[0], time.perf_counter() - t0)
    finally:
        freeconv._fp_map = real_map

    hybrid = solved["hybrid"][0]
    both = [i for i in solved["fixed_point"][0] if i in hybrid]
    gap = max((abs(solved["fixed_point"][0][i] - hybrid[i]) / abs(hybrid[i]) for i in both), default=0.0)
    print(f"battery {name}: {len(cases)} cases, largest relative route gap {gap:.2e} over {len(both)} cases")
    for route in ROUTES:
        ms, cols, wall = solved[route]
        print(
            f"  {route:<11} solved {len(ms)}/{len(cases)}, failed {len(cases) - len(ms)}, "
            f"_fp_map columns {cols:,}, wall {wall:.2f} s"
        )
    for route, i, params, z, exc in failures:
        print(f"  failed {route} case {i}: p={params.p}, c={params.c_n:.3g}, t={params.t:.4g}, z={z:.6g}, |z|={abs(z):.4g}: {exc}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--battery", choices=(*BATTERIES, "all"), default="all")
    args = ap.parse_args(argv)
    for name in BATTERIES if args.battery == "all" else (args.battery,):
        run(name)


if __name__ == "__main__":
    main()
