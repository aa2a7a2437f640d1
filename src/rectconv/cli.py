"""Command-line front end: density curves, edge reports, quantile tables,
and the Monte-Carlo experiment suite, driven by a JSON config file.

Exit codes: 0 success (and experiment pass), 1 experiment threshold fail,
2 usage or config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .edge import EdgeBracketError, edge_report_json, find_right_edge
from .ensemble import NOISE_KINDS
from .experiments import (
    ExperimentConfig,
    Thresholds,
    bbp_experiment,
    delocalization_experiment,
    edge_universality_experiment,
    local_law_experiment,
    rank_experiment,
    report_to_json,
    rigidity_experiment,
    t1_null_experiment,
    write_report_csv,
)
from .freeconv import SolverConfig, SolverError, write_density_csv
from .quantiles import classical_locations, write_quantile_csv
from .spectrum import (
    ModelParams,
    Spectrum,
    canonical_sqrt_spectrum,
    make_spectrum,
    spectrum_from_text,
)

_EXPERIMENTS = (
    "rigidity",
    "universality",
    "delocalization",
    "locallaw",
    "bbp",
    "t1-null",
    "rank-sweep",
)

_TOP_KEYS = {"spectrum", "p", "n", "t", "noise", "trials", "seed", "solver", "experiment"}
_EXPERIMENT_KEYS = {"k_max", "vartheta", "omega", "ell", "z_grid", "thresholds", "spike", "spikes"}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    spec: Spectrum
    params: ModelParams
    kinds: tuple
    trials: int
    seed: int
    solver: SolverConfig
    experiment: dict


def _build_spectrum(node, p: int) -> Spectrum:
    if isinstance(node, dict) and "values" in node:
        spec = make_spectrum(node["values"])
    elif isinstance(node, dict) and "file" in node:
        with open(node["file"]) as fh:
            spec = spectrum_from_text(fh.read())
    elif isinstance(node, dict) and "canonical" in node:
        sub = node["canonical"]
        spec = canonical_sqrt_spectrum(int(sub["p"]), float(sub.get("edge", 1.0)))
    elif isinstance(node, dict) and "zeros" in node:
        spec = make_spectrum(np.zeros(int(node["zeros"])))
    else:
        raise ConfigError(
            'spectrum must be {"values": [...]}, {"file": path}, '
            '{"canonical": {"p": ..., "edge": ...}}, or {"zeros": count}'
        )
    if spec.p != p:
        raise ConfigError(f"spectrum has {spec.p} values but p = {p}")
    return spec


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("spectrum", "p", "n", "t"):
        if key not in raw:
            raise ConfigError(f"config key {key!r} is required")
    try:
        params = ModelParams(p=int(raw["p"]), n=int(raw["n"]), t=float(raw["t"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    spec = _build_spectrum(raw["spectrum"], params.p)

    noise = raw.get("noise", "gaussian")
    kinds = tuple([noise] if isinstance(noise, str) else noise)
    for kind in kinds:
        if kind not in NOISE_KINDS:
            raise ConfigError(f"unknown noise kind {kind!r}; choose from {NOISE_KINDS}")

    solver_node = raw.get("solver", {})
    if not isinstance(solver_node, dict):
        raise ConfigError("solver must be an object")
    valid = {f.name for f in fields(SolverConfig)}
    bad = set(solver_node) - valid
    if bad:
        raise ConfigError(f"unknown solver keys: {sorted(bad)}")
    try:
        solver = SolverConfig(**solver_node)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver config: {exc}") from exc

    experiment = raw.get("experiment", {})
    if not isinstance(experiment, dict):
        raise ConfigError("experiment must be an object")
    unknown = set(experiment) - _EXPERIMENT_KEYS
    if unknown:
        raise ConfigError(f"unknown experiment keys: {sorted(unknown)}")

    return RunConfig(
        spec=spec,
        params=params,
        kinds=kinds,
        trials=int(raw.get("trials", 100)),
        seed=int(raw.get("seed", 1)),
        solver=solver,
        experiment=experiment,
    )


def _experiment_config(run: RunConfig, args) -> ExperimentConfig:
    exp = run.experiment
    thr_node = exp.get("thresholds", {})
    valid = {f.name for f in fields(Thresholds)}
    bad = set(thr_node) - valid
    if bad:
        raise ConfigError(f"unknown threshold keys: {sorted(bad)}")
    z_grid = exp.get("z_grid")
    if z_grid is not None:
        z_grid = tuple(complex(float(e), float(h)) for e, h in z_grid)
    return ExperimentConfig(
        spec=run.spec,
        params=run.params,
        kinds=run.kinds,
        trials=args.trials if args.trials is not None else run.trials,
        base_seed=args.seed if args.seed is not None else run.seed,
        k_max=int(exp.get("k_max", 20)),
        vartheta=float(exp.get("vartheta", 0.1)),
        omega=float(exp.get("omega", 0.05)),
        ell=int(exp.get("ell", 10)),
        threads=_threads(args),
        z_grid=z_grid,
        solver=run.solver,
        thresholds=Thresholds(**thr_node),
    )


def _threads(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("RECTCONV_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"RECTCONV_THREADS must be an integer, got {env!r}")
    return 1


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def cmd_density(run: RunConfig, args) -> int:
    edge = find_right_edge(run.spec, run.params)
    lo = args.lo if args.lo is not None else max(1e-3 * edge.lambda_plus, 1e-6)
    hi = args.hi if args.hi is not None else 1.1 * edge.lambda_plus
    if not hi > lo:
        raise ConfigError(f"need hi > lo, got [{lo}, {hi}]")
    E = np.linspace(lo, hi, args.samples)
    path = _out_path(args, "density.csv")
    write_density_csv(path, run.spec, run.params, E, run.solver)
    print(path)
    return 0


def cmd_edge(run: RunConfig, args) -> int:
    edge = find_right_edge(run.spec, run.params)
    text = edge_report_json(edge, run.spec, run.params)
    path = _out_path(args, "edge.json")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


def cmd_quantiles(run: RunConfig, args) -> int:
    edge = find_right_edge(run.spec, run.params)
    table = classical_locations(run.spec, run.params, args.jmax, edge, run.solver)
    path = _out_path(args, "quantiles.csv")
    write_quantile_csv(path, table, run.params, edge)
    print(path)
    return 0


def cmd_experiment(run: RunConfig, args) -> int:
    cfg = _experiment_config(run, args)
    name = args.name
    if name == "rigidity":
        report = rigidity_experiment(cfg)
    elif name == "universality":
        report = edge_universality_experiment(cfg)
    elif name == "delocalization":
        report = delocalization_experiment(cfg)
    elif name == "locallaw":
        report = local_law_experiment(cfg)
    elif name == "bbp":
        if "spike" not in run.experiment:
            raise ConfigError("bbp experiment needs experiment.spike in the config")
        report = bbp_experiment(cfg, float(run.experiment["spike"]))
    elif name == "t1-null":
        report = t1_null_experiment(cfg)
    elif name == "rank-sweep":
        report = rank_experiment(cfg, tuple(run.experiment.get("spikes", ())))
    else:  # pragma: no cover - argparse enforces choices
        raise ConfigError(f"unknown experiment {name!r}")
    json_path = _out_path(args, f"{name}.json")
    with open(json_path, "w") as fh:
        fh.write(report_to_json(report) + "\n")
    write_report_csv(_out_path(args, f"{name}_trials.csv"), report)
    print(report_to_json(report))
    return 0 if report.pass_ else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rectconv",
        description="Noise-convolved spectra: densities, edges, quantiles, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")

    p_density = sub.add_parser("density", help="density curve CSV")
    common(p_density)
    p_density.add_argument("--lo", type=float, default=None)
    p_density.add_argument("--hi", type=float, default=None)
    p_density.add_argument("--samples", type=int, default=200)

    p_edge = sub.add_parser("edge", help="edge report JSON")
    common(p_edge)

    p_quant = sub.add_parser("quantiles", help="classical-location table CSV")
    common(p_quant)
    p_quant.add_argument("--jmax", type=int, default=20)

    p_exp = sub.add_parser("experiment", help="run a Monte-Carlo experiment")
    p_exp.add_argument("name", choices=_EXPERIMENTS)
    common(p_exp)
    p_exp.add_argument("--seed", type=int, default=None, help="override config seed")
    p_exp.add_argument("--trials", type=int, default=None, help="override config trials")
    p_exp.add_argument("--threads", type=int, default=None, help="worker threads")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        run = load_config(args.config)
        if args.command == "density":
            return cmd_density(run, args)
        if args.command == "edge":
            return cmd_edge(run, args)
        if args.command == "quantiles":
            return cmd_quantiles(run, args)
        return cmd_experiment(run, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, EdgeBracketError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
