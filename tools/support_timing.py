"""Time the support finder, freeconv._support, on the square-root fixtures.

    python3 tools/support_timing.py                      # the timing table
    python3 tools/support_timing.py --rows rows.npz      # also save the rows
    python3 tools/support_timing.py --compare a.npz b.npz
    python3 tools/support_timing.py --locations          # classical locations

Run from anywhere; rectconv is imported from the src/ of the checkout this
file sits in, so a copy of this file in another checkout measures that
tree.  The fixtures are canonical_sqrt_spectrum(p, 1.0) with n = 2p, for
p = 200, 500, 1000 and 2000 and t = n^(-1/6), n^(-2/3) and 1/n.  Per
fixture the script prints the intervals between consecutive distinct
atoms that the finder solves in against all of them (kept/total), the
atom-sum points and passes (_atom_sums calls) of one call, the support
components found, and the median wall time of --repeats warm calls.

--rows also saves the finder's rows on p = 200, 1000 and 2000 at
t = n^(-1/6), n^(-1/2) and n^(-2/3), and on a random clustered battery,
drawn case by case from numpy default_rng(0): 300 cases, each with
integers(1, 5) clusters at uniform(0, 4) of log-uniform widths on
[1e-3, 1], p = integers(5, 81) atoms spread uniformly over clusters drawn
uniformly, n = ceil(ratio p) with ratio by choice from {1, 1.25, 2, 4},
and t log-uniform on [1e-3, 3].  --compare prints, for two such files,
every fixture or case whose rows differ, with the largest difference in
units in the last place.

--locations instead times classical_locations(j_max = 20) on p = 200, 1000
and 2000 at the same three t, and prints the freeconv._newton_level calls
one call makes, the points it passes through them (its columns), the
evaluations of its theta-solve (the bracketed Newton in theta; 0 where
every location is an edge) and the median wall time of --repeats warm
calls.  Each table runs in a fresh interpreter, so no table's time
depends on what ran before it.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from rectconv import ModelParams, canonical_sqrt_spectrum, classical_locations, find_right_edge, freeconv, make_spectrum, quantiles, stieltjes  # noqa: E402

SIZES = (200, 500, 1000, 2000)
TIMED_T = (("n^(-1/6)", -1.0 / 6.0), ("n^(-2/3)", -2.0 / 3.0), ("1/n", -1.0))
ROW_SIZES = (200, 1000, 2000)
ROW_T = (("n^(-1/6)", -1.0 / 6.0), ("n^(-1/2)", -0.5), ("n^(-2/3)", -2.0 / 3.0))


def fixture(p, power):
    n = 2 * p
    return canonical_sqrt_spectrum(p, 1.0), ModelParams(p=p, n=n, t=float(n**power))


def battery_cases():
    rng = np.random.default_rng(0)
    for _ in range(300):
        k = int(rng.integers(1, 5))
        p = int(rng.integers(5, 81))
        centres = rng.uniform(0.0, 4.0, k)
        widths = np.exp(rng.uniform(np.log(1e-3), np.log(1.0), k))
        which = rng.integers(0, k, p)
        atoms = centres[which] + widths[which] * rng.uniform(0.0, 1.0, p)
        ratio = float(rng.choice([1.0, 1.25, 2.0, 4.0]))
        t = float(np.exp(rng.uniform(np.log(1e-3), np.log(3.0))))
        yield make_spectrum(atoms), ModelParams(p=p, n=int(np.ceil(ratio * p)), t=t)


def rows(spec, params):
    edge = find_right_edge(spec, params)
    return freeconv._support(spec.values, params.c_n, params.t, edge)


def counted_call(d, c, t, edge):
    """(kept, points, passes, components) of one _support call.  kept is
    the size of the first _bracketed_newton batch (the zeros of g) less the
    lowest interval's."""
    sizes, points = [], []
    real_newton, real_sums = freeconv._bracketed_newton, stieltjes._atom_sums

    def newton(fun, lo, hi, xtol, *args):
        sizes.append(np.size(lo))
        return real_newton(fun, lo, hi, xtol, *args)

    def sums(d, zeta, order):
        points.append(zeta.shape[0])
        return real_sums(d, zeta, order)

    freeconv._bracketed_newton = newton
    freeconv._atom_sums = stieltjes._atom_sums = sums
    try:
        comps = freeconv._support(d, c, t, edge)
    finally:
        freeconv._bracketed_newton = real_newton
        freeconv._atom_sums = stieltjes._atom_sums = real_sums
    return sizes[0] - 1, sum(points), len(points), comps.shape[0]


def timing(repeats):
    print(f"{'p':>5} {'t':>9} {'kept/total':>11} {'points':>8} {'passes':>7} {'comps':>6} {'ms':>9}")
    for p in SIZES:
        for label, power in TIMED_T:
            spec, params = fixture(p, power)
            args = spec.values, params.c_n, params.t, find_right_edge(spec, params)
            kept, points, passes, comps = counted_call(*args)
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                freeconv._support(*args)
                times.append(time.perf_counter() - t0)
            total = np.unique(spec.values).size - 1
            print(f"{p:>5} {label:>9} {f'{kept}/{total}':>11} {points:>8,} {passes:>7} {comps:>6} {1e3 * np.median(times):>9.2f}")


def locations(repeats):
    print(f"{'p':>5} {'t':>9} {'calls':>7} {'columns':>9} {'theta':>6} {'ms':>10}")
    for p in ROW_SIZES:
        for label, _ in TIMED_T:
            cmd = [sys.executable, os.path.abspath(__file__), "--locations-row", str(p), label, "--repeats", str(repeats)]
            print(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout, end="", flush=True)


def locations_row(p, label, repeats):
    """One --locations row: the counts of one call, then the timing."""
    spec, params = fixture(p, dict(TIMED_T)[label])
    edge = find_right_edge(spec, params)
    calls, columns, evaluations = [0], [0], [0]
    real_newton, real_bracketed = freeconv._newton_level, quantiles._bracketed_newton

    def newton(d, c, t, z_l, zeta, tol, max_iter):
        calls[0] += 1
        columns[0] += zeta.shape[0]
        return real_newton(d, c, t, z_l, zeta, tol, max_iter)

    def bracketed(fun, *args, **kwargs):
        def counted(*a):
            evaluations[0] += 1
            return fun(*a)

        return real_bracketed(counted, *args, **kwargs)

    freeconv._newton_level, quantiles._bracketed_newton = newton, bracketed
    try:
        classical_locations(spec, params, 20, edge)
    finally:
        freeconv._newton_level, quantiles._bracketed_newton = real_newton, real_bracketed
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        classical_locations(spec, params, 20, edge)
        times.append(time.perf_counter() - t0)
    print(f"{p:>5} {label:>9} {calls[0]:>7,} {columns[0]:>9,} {evaluations[0]:>6} {1e3 * np.median(times):>10.1f}")


def save_rows(path):
    out = {}
    for p in ROW_SIZES:
        for label, power in ROW_T:
            out[f"p={p} t={label}"] = rows(*fixture(p, power))
    for i, (spec, params) in enumerate(battery_cases()):
        out[f"case {i}"] = rows(spec, params)
    np.savez(path, **out)
    print(f"saved {len(out)} row sets to {path}")


def compare(path_a, path_b):
    moved = 0
    with np.load(path_a) as a, np.load(path_b) as b:
        for key in a.files:
            x, y = a[key], b[key]
            if x.shape != y.shape:
                moved += 1
                print(f"  {key}: {x.shape[0]} components against {y.shape[0]}")
            elif not np.array_equal(x, y):
                moved += 1
                ulps = np.abs(x - y) / np.spacing(np.maximum(np.abs(x), np.abs(y)))
                # over the entries that differ: a left edge clipped at 0 in both is no 0/0
                moved_at = x != y
                rel = np.abs(x - y)[moved_at] / np.maximum(np.abs(x), np.abs(y))[moved_at]
                r, col = np.unravel_index(np.argmax(ulps), x.shape)
                print(f"  {key}: row {r} of {x.shape[0]}, column {col}: {ulps.max():.0f} ulp, {rel.max():.1e} relative")
        print(f"{moved} of {len(a.files)} row sets differ")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--rows", metavar="NPZ")
    ap.add_argument("--compare", nargs=2, metavar="NPZ")
    ap.add_argument("--locations", action="store_true")
    ap.add_argument("--locations-row", nargs=2, metavar=("P", "T"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return
    if args.locations_row:
        locations_row(int(args.locations_row[0]), args.locations_row[1], args.repeats)
        return
    if args.locations:
        locations(args.repeats)
        return
    timing(args.repeats)
    if args.rows:
        save_rows(args.rows)


if __name__ == "__main__":
    main()
