"""Command-line front end: density curves, edge reports, quantile tables,
and the Monte-Carlo experiment suite, driven by a JSON config file.

Exit codes: 0 success (and experiment pass), 1 experiment threshold fail,
2 usage or config error, 3 numerical failure.  Every malformed config value
is exit 2: load_config checks the type of every value in the file before any
subcommand runs, and a value out of its range fails where it is used.
"""

from __future__ import annotations

import json
import math
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

_TOP_KEYS = {"spectrum", "p", "n", "t", "noise", "trials", "seed", "solver", "experiment"}
_SCALARS = ("k_max", "vartheta", "omega", "ell")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    spec: Spectrum
    params: ModelParams
    solver: SolverConfig
    experiment: dict  # the ExperimentConfig fields the file sets
    spike: float | None
    spikes: tuple


def _number(value, key: str, kind=float):
    """value if it is a finite JSON number, made an int for kind int.

    For kind float a JSON integer stays an int, so a report that echoes
    the value prints it as the file wrote it.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not number or isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value) if kind is int else value


def _numbers(value, key: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
    return [_number(v, key) for v in value]


def _fields(cls, node, key: str, names=None, extra=()) -> dict:
    """Keyword arguments for dataclass cls from config object node.

    names limits the fields read (default: all of them); a key that is
    neither one of them nor in extra is an error.  Each value must be a
    number and takes the type of its field's default (see _number).  A
    field the node leaves out keeps its default.
    """
    if not isinstance(node, dict):
        raise ConfigError(f"{key} must be an object")
    types = {f.name: type(f.default) for f in fields(cls) if names is None or f.name in names}
    unknown = set(node) - set(types) - set(extra)
    if unknown:
        raise ConfigError(f"unknown {key} keys: {sorted(unknown)}")
    return {name: _number(node[name], f"{key} {name}", kind) for name, kind in types.items() if name in node}


def _build_spectrum(node, p: int) -> Spectrum:
    form, value = next(iter(node.items())) if isinstance(node, dict) and len(node) == 1 else (None, None)
    if form == "values":
        spec = make_spectrum(_numbers(value, "spectrum values"))
    elif form == "file":
        if not isinstance(value, str):
            raise ConfigError(f"spectrum file must be a path, got {value!r}")
        try:
            with open(value) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read spectrum file: {exc}") from exc
        spec = spectrum_from_text(text)
    elif form == "canonical":
        if not isinstance(value, dict) or "p" not in value or set(value) - {"p", "edge"}:
            raise ConfigError(f'spectrum canonical must be {{"p": ..., "edge": ...}}, got {value!r}')
        edge = float(_number(value.get("edge", 1.0), "spectrum canonical edge"))
        spec = canonical_sqrt_spectrum(_number(value["p"], "spectrum canonical p", int), edge)
    elif form == "zeros":
        spec = make_spectrum(np.zeros(_number(value, "spectrum zeros", int)))
    else:
        raise ConfigError(
            'spectrum must be one of {"values": [...]}, {"file": path}, '
            '{"canonical": {"p": ..., "edge": ...}}, or {"zeros": count}'
        )
    if spec.p != p:
        raise ConfigError(f"spectrum has {spec.p} values but p = {p}")
    return spec


def _z_grid(node) -> tuple:
    if not isinstance(node, list):
        raise ConfigError(f"experiment z_grid must be a list of [E, eta] pairs, got {node!r}")
    points = [_numbers(pair, "experiment z_grid point") for pair in node]
    if any(len(point) != 2 for point in points):
        raise ConfigError("experiment z_grid must be a list of [E, eta] pairs")
    return tuple(complex(float(e), float(h)) for e, h in points)


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
    p, n, t = _number(raw["p"], "p", int), _number(raw["n"], "n", int), float(_number(raw["t"], "t"))
    try:
        params = ModelParams(p=p, n=n, t=t)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    spec = _build_spectrum(raw["spectrum"], params.p)

    solver_given = _fields(SolverConfig, raw.get("solver", {}), "solver")
    try:
        solver = SolverConfig(**solver_given)
    except ValueError as exc:
        raise ConfigError(f"bad solver config: {exc}") from exc

    exp = raw.get("experiment", {})
    given = _fields(ExperimentConfig, exp, "experiment", _SCALARS, ("z_grid", "thresholds", "spike", "spikes"))
    if "noise" in raw:
        noise = raw["noise"]
        kinds = [noise] if isinstance(noise, str) else noise
        if not isinstance(kinds, list) or not kinds:
            raise ConfigError(f"noise must be a kind or a nonempty list of kinds, got {noise!r}")
        for kind in kinds:
            if kind not in NOISE_KINDS:
                raise ConfigError(f"unknown noise kind {kind!r}; choose from {NOISE_KINDS}")
        given["kinds"] = tuple(kinds)
    if "trials" in raw:
        given["trials"] = _number(raw["trials"], "trials", int)
    if "seed" in raw:
        given["base_seed"] = _number(raw["seed"], "seed", int)
    if exp.get("z_grid") is not None:
        given["z_grid"] = _z_grid(exp["z_grid"])
    given["thresholds"] = Thresholds(**_fields(Thresholds, exp.get("thresholds", {}), "thresholds"))
    spike = float(_number(exp["spike"], "experiment spike")) if "spike" in exp else None
    spikes = tuple(_numbers(exp.get("spikes", []), "experiment spikes"))
    return RunConfig(spec=spec, params=params, solver=solver, experiment=given, spike=spike, spikes=spikes)


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


def _bbp(cfg: ExperimentConfig, run: RunConfig):
    if run.spike is None:
        raise ConfigError("bbp experiment needs experiment.spike in the config")
    return bbp_experiment(cfg, run.spike)


# Each runner calls its experiment by this module's name for it, so that a
# wrapper set on rectconv.cli.<name> sees the call.
_EXPERIMENTS = {
    "rigidity": lambda cfg, run: rigidity_experiment(cfg),
    "universality": lambda cfg, run: edge_universality_experiment(cfg),
    "delocalization": lambda cfg, run: delocalization_experiment(cfg),
    "locallaw": lambda cfg, run: local_law_experiment(cfg),
    "bbp": _bbp,
    "t1-null": lambda cfg, run: t1_null_experiment(cfg),
    "rank-sweep": lambda cfg, run: rank_experiment(cfg, run.spikes),
}


def cmd_experiment(run: RunConfig, args) -> int:
    flags = {"trials": args.trials, "base_seed": args.seed}
    given = {**run.experiment, **{key: value for key, value in flags.items() if value is not None}}
    cfg = ExperimentConfig(spec=run.spec, params=run.params, threads=_threads(args), solver=run.solver, **given)
    report = _EXPERIMENTS[args.name](cfg, run)
    json_path = _out_path(args, f"{args.name}.json")
    with open(json_path, "w") as fh:
        fh.write(report_to_json(report) + "\n")
    write_report_csv(_out_path(args, f"{args.name}_trials.csv"), report)
    print(report_to_json(report))
    return 0 if report.pass_ else 1


def _parser():
    import argparse  # here, so importing the module loads no parser

    parser = argparse.ArgumentParser(
        prog="rectconv",
        description="Noise-convolved spectra: densities, edges, quantiles, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        p.set_defaults(handler=handler)

    p_density = sub.add_parser("density", help="density curve CSV")
    common(p_density, cmd_density)
    p_density.add_argument("--lo", type=float, default=None)
    p_density.add_argument("--hi", type=float, default=None)
    p_density.add_argument("--samples", type=int, default=200)

    p_edge = sub.add_parser("edge", help="edge report JSON")
    common(p_edge, cmd_edge)

    p_quant = sub.add_parser("quantiles", help="classical-location table CSV")
    common(p_quant, cmd_quantiles)
    p_quant.add_argument("--jmax", type=int, default=20)

    p_exp = sub.add_parser("experiment", help="run a Monte-Carlo experiment")
    p_exp.add_argument("name", choices=_EXPERIMENTS)
    common(p_exp, cmd_experiment)
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
        return args.handler(load_config(args.config), args)
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
