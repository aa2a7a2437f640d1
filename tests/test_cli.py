"""CLI behavior: exit codes, outputs, overrides, config validation."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import rectconv
from rectconv import SolverError, find_right_edge, make_spectrum, ModelParams, quantiles
from rectconv import cli, edge, experiments, freeconv
from rectconv.cli import main


def _write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "spectrum": {"zeros": 10},
        "p": 10,
        "n": 20,
        "t": 0.5,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _locallaw_config(tmp_path):
    # macroscopic-eta grid: comfortably inside the asserted domain
    p, n, t = 60, 120, 0.45
    spec = make_spectrum([0.0] * p)
    edge = find_right_edge(spec, ModelParams(p=p, n=n, t=t))
    lam = edge.lambda_plus
    return _write_config(
        tmp_path,
        name="locallaw.json",
        spectrum={"zeros": p},
        p=p,
        n=n,
        t=t,
        trials=5,
        seed=3,
        experiment={"z_grid": [[lam, 0.5], [lam + 0.02, 0.8]]},
    )


# ---------------------------------------------------------------------------
# happy paths


def test_density_writes_csv(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["density", "--config", cfg, "--out", str(out), "--samples", "20"])
    assert rc == 0
    path = out / "density.csv"
    assert path.exists()
    lines = path.read_text().splitlines()
    assert lines[0].startswith("E,")
    assert len(lines) == 21
    assert str(path) in capsys.readouterr().out


def test_edge_reports_json(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["edge", "--config", cfg, "--out", str(out)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda_plus"] > 0
    disk = json.loads((out / "edge.json").read_text())
    assert disk == doc


def test_quantiles_writes_csv(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["quantiles", "--config", cfg, "--out", str(out), "--jmax", "5"])
    assert rc == 0
    lines = (out / "quantiles.csv").read_text().splitlines()
    assert lines[0] == "j,gamma_j,kappa_j,eta_l_j"
    assert len(lines) == 6


def test_spectrum_from_file(tmp_path):
    spec_path = tmp_path / "spec.txt"
    spec_path.write_text("2.0\n1.0\n0.5\n")
    cfg = _write_config(tmp_path, spectrum={"file": str(spec_path)}, p=3, n=6)
    assert main(["edge", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_spectrum_canonical(tmp_path):
    cfg = _write_config(
        tmp_path, spectrum={"canonical": {"p": 12, "edge": 1.0}}, p=12, n=24
    )
    assert main(["edge", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_experiment_locallaw_passes(tmp_path, capsys):
    cfg = _locallaw_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["experiment", "locallaw", "--config", cfg, "--out", str(out)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["pass"] is True
    assert (out / "locallaw.json").exists()
    assert (out / "locallaw_trials.csv").exists()


def test_experiment_exit_matches_pass(tmp_path, capsys):
    cfg = _write_config(tmp_path, trials=6, experiment={"k_max": 4})
    rc = main(["experiment", "rigidity", "--config", cfg, "--out", str(tmp_path / "o")])
    doc = json.loads(capsys.readouterr().out)
    assert rc == (0 if doc["pass"] else 1)


def test_experiment_outputs_deterministic(tmp_path, capsys):
    cfg = _write_config(tmp_path, trials=6, experiment={"k_max": 4})
    for d in ("o1", "o2"):
        main(["experiment", "rigidity", "--config", cfg, "--out", str(tmp_path / d)])
    capsys.readouterr()
    for name in ("rigidity.json", "rigidity_trials.csv"):
        a = (tmp_path / "o1" / name).read_bytes()
        b = (tmp_path / "o2" / name).read_bytes()
        assert a == b


def test_threads_do_not_change_output(tmp_path, capsys):
    cfg = _write_config(tmp_path, trials=6, experiment={"k_max": 4})
    main(["experiment", "rigidity", "--config", cfg, "--out", str(tmp_path / "t1")])
    main(
        [
            "experiment",
            "rigidity",
            "--config",
            cfg,
            "--out",
            str(tmp_path / "t4"),
            "--threads",
            "4",
        ]
    )
    capsys.readouterr()
    for name in ("rigidity.json", "rigidity_trials.csv"):
        a = (tmp_path / "t1" / name).read_bytes()
        b = (tmp_path / "t4" / name).read_bytes()
        assert a == b


def test_threads_env_honored(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path, trials=6, experiment={"k_max": 4})
    monkeypatch.setenv("RECTCONV_THREADS", "3")
    rc = main(["experiment", "rigidity", "--config", cfg, "--out", str(tmp_path / "e")])
    assert rc in (0, 1)
    monkeypatch.delenv("RECTCONV_THREADS")
    main(["experiment", "rigidity", "--config", cfg, "--out", str(tmp_path / "n")])
    capsys.readouterr()
    for name in ("rigidity.json", "rigidity_trials.csv"):
        a = (tmp_path / "e" / name).read_bytes()
        b = (tmp_path / "n" / name).read_bytes()
        assert a == b


# README's example config; universality at criterion 8's size and kinds
_README_CONFIG = {
    "spectrum": {"canonical": {"p": 200, "edge": 1.0}},
    "p": 200,
    "n": 400,
    "t": 0.368,
    "noise": ["gaussian", "trinary"],
    "trials": 200,
    "seed": 1,
    "experiment": {"k_max": 20, "vartheta": 0.1},
}
_UNIVERSALITY_CONFIG = {
    "spectrum": {"canonical": {"p": 150, "edge": 1.0}},
    "p": 150,
    "n": 300,
    "t": 300.0 ** (-1.0 / 6.0),
    "noise": ["gaussian", "trinary"],
    "trials": 40,
    "seed": 21,
}


@pytest.mark.parametrize(
    "name, config, extra",
    [
        ("universality", _UNIVERSALITY_CONFIG, ["--threads", "2"]),
        ("locallaw", _README_CONFIG, ["--trials", "40"]),
    ],
    ids=["universality", "locallaw"],
)
def test_reports_identical_across_blas_threads(tmp_path, name, config, extra):
    # each run is a fresh interpreter, since OpenBLAS reads the variable at load
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    src = os.path.dirname(os.path.dirname(rectconv.__file__))
    outputs = {}
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.pop("RECTCONV_THREADS", None)
        out = tmp_path / f"blas{blas}"
        argv = ["experiment", name, "--config", str(path), "--out", str(out), *extra]
        proc = subprocess.run(
            [sys.executable, "-m", "rectconv.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode in (0, 1), proc.stderr
        outputs[blas] = [(out / f).read_bytes() for f in (f"{name}.json", f"{name}_trials.csv")]
    assert outputs["1"][0] == outputs["2"][0]
    assert outputs["1"][1] == outputs["2"][1]


_IMPORT_PROBE = """
import json, sys
import numpy as np
import rectconv, rectconv.cli

def lazy_modules():
    roots = ("scipy", "numpy.polynomial", "argparse", "concurrent")
    return sorted(m for m in sys.modules for root in roots if m == root or m.startswith(root + "."))

found = {"import": lazy_modules()}
gaussian, no_gaussian = sys.argv[1], sys.argv[3]
for key, cfg, cmd in (
    ("edge", gaussian, ["edge"]),
    ("density", gaussian, ["density", "--samples", "20"]),
    ("quantiles", gaussian, ["quantiles", "--jmax", "5"]),
    ("no-gaussian", no_gaussian, ["experiment", "universality", "--trials", "4"]),
    ("universality", gaussian, ["experiment", "universality", "--trials", "4"]),
    ("t1-null", gaussian, ["experiment", "t1-null", "--trials", "4"]),
):
    rectconv.cli.main(cmd + ["--config", cfg, "--out", sys.argv[2]])
    found[key] = lazy_modules()
a, b = np.random.default_rng(0).random((2, 50))
import scipy.stats
found["ks_equal"] = rectconv.experiments.ks_2samp(a, b) == float(scipy.stats.ks_2samp(a, b).statistic)
print(json.dumps(found))
"""


def test_edge_and_density_load_no_scipy(tmp_path):
    # a fresh interpreter, since this process has imported scipy already.
    # Set-up loads neither argparse nor the trial pool's concurrent.futures;
    # edge, density and quantiles load no scipy and no numpy.polynomial;
    # experiments load scipy.special for Gaussian noise only, never scipy.stats
    cfg = _write_config(tmp_path, noise=["gaussian", "trinary"])
    no_gaussian = _write_config(tmp_path, name="trinary.json", noise=["trinary", "rademacher"])
    src = os.path.dirname(os.path.dirname(rectconv.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, cfg, str(tmp_path / "out"), no_gaussian],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout.splitlines()[-1])
    assert found.pop("ks_equal") is True
    assert found.pop("import") == []
    for cmd in ("edge", "density", "quantiles"):
        assert found.pop(cmd) == ["argparse"], cmd
    assert not [m for m in found.pop("no-gaussian") if m.startswith("scipy") or m.startswith("numpy.")]
    for name, loaded in found.items():
        assert "scipy.special" in loaded, name
        assert not [m for m in loaded if m == "scipy.stats" or m.startswith("scipy.stats.")], name


@pytest.mark.parametrize("name", ["locallaw", "delocalization"])
def test_vector_reports_identical_across_threads(tmp_path, capsys, name):
    # the per-trial reductions run on the pool threads
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_README_CONFIG))
    outputs = {}
    for threads in ("1", "4"):
        out = tmp_path / f"t{threads}"
        rc = main(["experiment", name, "--config", str(path), "--out", str(out), "--threads", threads])
        assert rc in (0, 1)
        outputs[threads] = [(out / f).read_bytes() for f in (f"{name}.json", f"{name}_trials.csv")]
    capsys.readouterr()
    assert outputs["1"] == outputs["4"]


# ---------------------------------------------------------------------------
# overrides


def test_trials_override(tmp_path, capsys):
    cfg = _write_config(tmp_path, trials=6, experiment={"k_max": 4})
    out = tmp_path / "o"
    main(
        [
            "experiment",
            "rigidity",
            "--config",
            cfg,
            "--out",
            str(out),
            "--trials",
            "3",
        ]
    )
    capsys.readouterr()
    lines = (out / "rigidity_trials.csv").read_text().splitlines()
    assert len(lines) == 4


def test_seed_override_changes_draws(tmp_path, capsys):
    cfg = _write_config(tmp_path, trials=4, experiment={"k_max": 4})
    for seed, d in ((5, "s5"), (6, "s6")):
        main(
            [
                "experiment",
                "rigidity",
                "--config",
                cfg,
                "--out",
                str(tmp_path / d),
                "--seed",
                str(seed),
            ]
        )
    capsys.readouterr()
    a = (tmp_path / "s5" / "rigidity_trials.csv").read_bytes()
    b = (tmp_path / "s6" / "rigidity_trials.csv").read_bytes()
    assert a != b


def test_density_range_flags(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "o"
    rc = main(
        [
            "density",
            "--config",
            cfg,
            "--out",
            str(out),
            "--lo",
            "0.1",
            "--hi",
            "0.5",
            "--samples",
            "5",
        ]
    )
    assert rc == 0
    rows = (out / "density.csv").read_text().splitlines()[1:]
    Es = [float(r.split(",")[0]) for r in rows]
    assert Es[0] == pytest.approx(0.1) and Es[-1] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# error paths


def test_missing_required_key(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"spectrum": {"zeros": 4}, "p": 4, "n": 8}))
    rc = main(["edge", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_top_level_key(tmp_path, capsys):
    cfg = _write_config(tmp_path, extra=1)
    assert main(["edge", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_spectrum_length_mismatch(tmp_path, capsys):
    cfg = _write_config(tmp_path, spectrum={"values": [1.0, 0.5]}, p=3)
    assert main(["edge", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


def test_bad_noise_kind(tmp_path, capsys):
    cfg = _write_config(tmp_path, noise="uniform")
    assert main(["edge", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "noise kind" in capsys.readouterr().err


def test_unknown_solver_key(tmp_path, capsys):
    # the solver's own constants are not config keys, not even at their values
    for key, value in (("newton", True), ("eta_start", 10.0), ("homotopy_factor", 0.7), ("damping", 0.5)):
        cfg = _write_config(tmp_path, solver={key: value})
        assert main(["edge", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unknown solver keys" in capsys.readouterr().err


def test_unknown_threshold_key(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, trials=2, experiment={"thresholds": {"C_bogus": 1.0}}
    )
    rc = main(["experiment", "rigidity", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "threshold" in capsys.readouterr().err


def test_unknown_experiment_key(tmp_path, capsys):
    # a misspelt k_max must not run at the default k_max = 20
    cfg = _write_config(tmp_path, trials=2, experiment={"kmax": 3})
    rc = main(["experiment", "rigidity", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "unknown experiment keys: ['kmax']" in capsys.readouterr().err


def test_trial_flags_only_on_experiment(tmp_path, capsys):
    # --seed, --trials and --threads set up the trials, which only
    # `experiment` runs
    cfg = _write_config(tmp_path)
    for flag in ("--threads", "--trials", "--seed"):
        for command in ("density", "edge", "quantiles"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), flag, "2"]) == 2
    assert "unrecognized arguments: --seed 2" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["edge", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


def test_missing_config_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["edge", "--config", missing, "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


def test_bbp_requires_spike(tmp_path, capsys):
    cfg = _write_config(tmp_path, trials=2)
    rc = main(["experiment", "bbp", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "spike" in capsys.readouterr().err


def test_bad_threads_env(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path, trials=2, experiment={"k_max": 3})
    monkeypatch.setenv("RECTCONV_THREADS", "many")
    rc = main(["experiment", "rigidity", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "RECTCONV_THREADS" in capsys.readouterr().err


def test_solver_failure_exits_three(tmp_path, capsys, monkeypatch):
    # a density walk whose Newton never meets its residual is a numerical
    # failure.  A tolerance of 1e-300 is not enough to make it one: a
    # residual can round to exactly 0
    def failing(d, c, t, z_l, zeta, tol, max_iter):
        n = zeta.shape[0]
        return zeta, np.zeros(n, dtype=int), np.ones(n, dtype=complex), np.ones(n, dtype=complex), zeta

    monkeypatch.setattr(freeconv, "_newton_level", failing)
    cfg = _write_config(tmp_path)
    rc = main(
        ["density", "--config", cfg, "--out", str(tmp_path / "o"), "--samples", "3"]
    )
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_quantile_failure_exits_three(tmp_path, capsys, monkeypatch):
    # a walk whose Newton never meets its residual reaches no root: a
    # numerical failure (SolverError, exit 3) naming the component, the
    # target and the energy, not a usage error
    def failing(d, c, t, z_l, zeta, tol, max_iter):
        n = zeta.shape[0]
        return zeta, np.zeros(n, dtype=int), np.ones(n, dtype=complex), np.ones(n, dtype=complex), zeta

    monkeypatch.setattr(freeconv, "_newton_level", failing)
    spec, params = make_spectrum([0.0] * 10), ModelParams(p=10, n=20, t=0.5)
    message = r"classical locations: component 0 from the top, target 0.1: density walk stage: no root reached at E="
    with pytest.raises(SolverError, match=message):
        quantiles.classical_locations(spec, params, 5, find_right_edge(spec, params))
    cfg = _write_config(tmp_path)
    rc = main(["quantiles", "--config", cfg, "--out", str(tmp_path / "o"), "--jmax", "5"])
    assert rc == 3
    assert "numerical failure: " + message in capsys.readouterr().err


def test_edge_expansion_failure_exits_three(tmp_path, capsys, monkeypatch):
    # a nonpositive expansion denominator is a numerical failure, not usage
    real = cli.find_right_edge

    def degenerate(spec, params):
        found = real(spec, params)
        return edge.sqrt_coefficient(spec, params, dataclasses.replace(found, phi_second=0.0))

    monkeypatch.setattr(cli, "find_right_edge", degenerate)
    cfg = _write_config(tmp_path)
    rc = main(["edge", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "numerical failure: nonpositive edge-expansion denominator" in capsys.readouterr().err


def test_delocalization_bound_failure_exits_three(tmp_path, capsys, monkeypatch):
    # a negative Im Pi_uu drives every bound below zero
    monkeypatch.setattr(experiments, "pi_quadratic_form", lambda *args: complex(0.0, -1e6))
    cfg = _write_config(tmp_path, trials=2, experiment={"k_max": 2})
    rc = main(["experiment", "delocalization", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure: nonpositive delocalization bound" in err
    # every entry is negative, so the first is the e1 vector at rank 1
    assert "for panel vector e1 at rank k=1, z_k=" in err


def test_initialization_failure_names_point_and_exits_three(tmp_path, capsys, monkeypatch):
    # a start-up sweep that lands on Re b <= 0 is a numerical failure
    def wrong_branch(d, c, t, z_l, m, n_steps, tol):
        k = m.shape[0]
        return np.full(k, -2.0 / (c * t), dtype=complex), np.zeros(k, dtype=int), np.full(k, np.inf)

    monkeypatch.setattr(freeconv, "_fp_iterate", wrong_branch)
    cfg = _locallaw_config(tmp_path)
    rc = main(["experiment", "locallaw", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure: initialization lost the Re b > 0 branch (Re b = -1.000e+00)" in err
    # Re b ties, so the worst point is the grid's first, z = lambda_plus + 0.5i
    lam = json.loads((tmp_path / "locallaw.json").read_text())["experiment"]["z_grid"][0][0]
    assert f"at ladder top eta=10, E={lam:.17g}, eta=0.5" in err


def test_bad_density_range(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    rc = main(
        [
            "density",
            "--config",
            cfg,
            "--out",
            str(tmp_path / "o"),
            "--lo",
            "2.0",
            "--hi",
            "1.0",
        ]
    )
    assert rc == 2
    capsys.readouterr()


def test_usage_errors(tmp_path, capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["edge"]) == 2  # --config required
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "density" in capsys.readouterr().out
