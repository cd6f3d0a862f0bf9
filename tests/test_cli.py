import json
import subprocess
import sys

import pytest

import oracles
from plap.cli import main
from plap.fem import EPS_ZERO_FLOOR, smoothed_odd_power_deriv

BASE = {
    "domain": {"kind": "interval", "bounds": [0, 1], "resolution": 64},
    "p": 2.0,
    "q": 1.5,
    "weights": {"m": 1, "a": 1, "f": 1},
    "seed": 11,
}


def run_cli(mode, config, tmp_path, out=None, seed=None, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    cmd = [sys.executable, "-m", "plap", mode, "--config", str(path)]
    cmd += ["--out", str(out if out is not None else tmp_path)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    return subprocess.run(cmd, capture_output=True, text=True)


def config(mode, **mode_params):
    cfg = json.loads(json.dumps(BASE))
    cfg["mode"] = mode
    cfg["mode_params"] = mode_params
    return cfg


def test_eigen_roundtrip(tmp_path):
    proc = run_cli("eigen", config("eigen"), tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "eigen_report.json").read_text())
    assert abs(report["result"]["lam"] - 9.8696) < 1e-2
    assert report["config"]["seed"] == 11


def test_eigen_below_p_2(tmp_path):
    cfg = config("eigen")
    cfg.update(p=1.5, q=1.2)
    cfg["domain"]["resolution"] = 256
    proc = run_cli("eigen", cfg, tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "eigen_report.json").read_text())
    assert abs(report["result"]["lam"] - 5.318718) < 1e-3  # (p-1) pi_p^p at p = 1.5


def test_eigen_negative_and_subdomain(tmp_path):
    cfg = config("eigen", negative=True)
    cfg["weights"]["m"] = -1.0
    proc = run_cli("eigen", cfg, tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "eigen_report.json").read_text())
    assert report["result"]["lam"] < 0
    proc = run_cli("eigen", config("eigen", subdomain={"rho": 0.25, "part": "complement"}), tmp_path)
    assert proc.returncode == 0, proc.stderr


def run_main(mode, cfg, tmp_path):
    """Run the CLI in this process (so a line trace sees it) and return the report's result."""
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main([mode, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)]) == 0
    return json.loads((tmp_path / f"{mode.replace('-', '_')}_report.json").read_text())["result"]


def test_eigen_on_the_strip_complement_with_a_constant_weight_object(tmp_path):
    results = []
    for m in (1, {"kind": "constant", "value": 1}):
        cfg = config("eigen", subdomain={"rho": 0.25, "part": "complement"})
        cfg["weights"]["m"] = m
        results.append(run_main("eigen", cfg, tmp_path))
    assert results[0] == results[1]
    # the complement holds x = 16/64 .. 48/64: the Dirichlet problem on 34 cells from 15/64 to 49/64
    lam_oracle, _, _ = oracles.linear_eig_oracle_1d(34, length=34 / 64)
    assert results[0]["lam"] == pytest.approx(lam_oracle, rel=1e-7)


def test_picone_check_scans_its_q_grid(tmp_path):
    result = run_main("picone-check", config("picone-check", q_grid=[1.2, 1.8]), tmp_path)
    assert [row["q"] for row in result["q_scan"]] == [1.2, 1.8]
    assert all(row["holds"] for row in result["q_scan"])


def test_solve_roundtrip(tmp_path):
    proc = run_cli("solve", config("solve", lam=3.0, eta=0.1), tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["result"]["sign_class"] == "positive"


def test_critval_roundtrip(tmp_path):
    proc = run_cli("critval", config("critval", lam_frac=0.5, n_starts=6), tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "critval_report.json").read_text())
    assert report["result"]["value"] >= report["result"]["lower_bound"] - 1e-9


def test_picone_check_roundtrip(tmp_path):
    proc = run_cli(
        "picone-check", config("picone-check", q_grid=[1.2, 1.8], discrete_trials=5), tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "picone_check_report.json").read_text())
    assert report["result"]["polynomial"]["holds"] is True
    assert report["result"]["discrete"]["violations"] == 0


def test_picone_check_with_q_close_to_p(tmp_path):
    cfg = config("picone-check")
    cfg["p"], cfg["q"] = 10.0, 9.9999
    proc = run_cli("picone-check", cfg, tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "picone_check_report.json").read_text())
    assert report["result"]["polynomial"]["holds"] is True


def test_nonuniformity_roundtrip(tmp_path):
    cfg = config(
        "nonuniformity",
        family=[{"center": 0.958, "radius": 0.03}, {"center": 0.97, "radius": 0.03}],
        n_lam=6,
        delta_span=0.9,
        t_grid=[1.0],
        n_random=0,
    )
    cfg["domain"]["resolution"] = 128
    proc = run_cli("nonuniformity", cfg, tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "nonuniformity_report.json").read_text())
    assert len(report["result"]["members"]) == 2


def test_nonuniformity_without_an_eigenpair_exits_2(tmp_path):
    # m = -1 has no positive part; the kept failure still raises EmptyAdmissibleSet
    cfg = config("nonuniformity", family=[{"center": 0.9, "radius": 0.05}], n_lam=2)
    cfg["weights"]["m"] = -1
    proc = run_cli("nonuniformity", cfg, tmp_path)
    assert proc.returncode == 2
    assert "no positive part" in proc.stderr


def test_sweep_default_grids(tmp_path):
    # omitting the grids triggers the documented defaults: lam spans [0, 2*lam1]
    # and eta spans +-(eta* estimate at lam1/2); shrunk point counts keep it fast
    cfg = config("sweep", n_lam=4, n_eta=3, t_grid=[1.0], n_random=0, eta_star_starts=4)
    proc = run_cli("sweep", cfg, tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "sweep_report.json").read_text())
    assert report["result"]["counterexample_count"] == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 4 * 3 * 3  # header + cells x {zero, +phi1, -phi1}


def test_default_sweep_solves_its_eigenproblem_once(tmp_path, monkeypatch):
    from plap import bvp, cli, critical, eigen, regions

    cfg = config("sweep", n_lam=3, n_eta=3)
    cfg["p"] = 3.0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    calls = []
    solve = eigen.principal_eigenpair

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(eigen, "principal_eigenpair", counting)

    def run(out):
        del calls[:]
        assert main(["sweep", "--config", str(path), "--out", str(out), "--seed", "7"]) == 0
        return len(calls), (out / "sweep.csv").read_bytes(), (out / "sweep_report.json").read_bytes()

    once = run(tmp_path / "once")
    # without the eigenpair memo: the grid, eta*, its power weight, the sweep,
    # its threshold and each of the nine cells solve the eigenproblem again
    for module in (bvp, cli, critical, regions):
        monkeypatch.setattr(module, "_principal", counting)
    again = run(tmp_path / "again")
    assert (once[0], again[0]) == (1, 14)
    assert once[1:] == again[1:]


def test_sweep_on_a_thin_rectangle(tmp_path):
    # the interior-only classes of a 2D sweep once dropped every vertex of so thin a domain
    cfg = config("sweep", lam_grid=[1], eta_grid=[0])
    cfg["domain"] = {"kind": "rectangle", "bounds": [0, 10, 0, 0.1], "resolution": [20, 4]}
    proc = run_cli("sweep", cfg, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) > 1


def test_sweep_roundtrip_and_determinism(tmp_path):
    cfg = config("sweep", lam_grid=[2.0, 12.0], eta_grid=[0.0, 0.3], t_grid=[1.0], n_random=1)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_cli("sweep", cfg, tmp_path, out=out1).returncode == 0
    assert run_cli("sweep", cfg, tmp_path, out=out2).returncode == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    out3 = tmp_path / "o3"
    assert run_cli("sweep", cfg, tmp_path, out=out3, seed=4242).returncode == 0
    assert (out1 / "sweep.csv").read_bytes() != (out3 / "sweep.csv").read_bytes()


def test_exit_2_invalid_config(tmp_path):
    cfg = config("eigen")
    cfg["q"] = 3.0  # violates q < p
    proc = run_cli("eigen", cfg, tmp_path)
    assert proc.returncode == 2
    assert "q" in proc.stderr


def test_exit_2_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    proc = subprocess.run(
        [sys.executable, "-m", "plap", "eigen", "--config", str(path), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_exit_2_mode_mismatch(tmp_path):
    proc = run_cli("solve", config("eigen"), tmp_path)
    assert proc.returncode == 2


def test_exit_2_empty_admissible_set(tmp_path):
    cfg = config("eigen")
    cfg["weights"]["m"] = -1.0
    proc = run_cli("eigen", cfg, tmp_path)
    assert proc.returncode == 2


def test_exit_3_nonconvergence(tmp_path):
    cfg = config("eigen", tol=1e-15, max_outer=2)
    cfg["p"] = 3.0
    proc = run_cli("eigen", cfg, tmp_path)
    assert proc.returncode == 3


def test_exit_3_resonant_solve(tmp_path):
    # on the 2-cell interval at p = 2 the Jacobian 4 - lam d / 2 is exactly 0 at
    # lam = 8 / d, d the smoothed power's slope at 0 (as in test_bvp)
    cfg = config("solve", lam=8.0 / float(smoothed_odd_power_deriv(0.0, 2.0, EPS_ZERO_FLOOR)))
    cfg["domain"]["resolution"] = 2
    proc = run_cli("solve", cfg, tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert "singular linearization" in proc.stderr


@pytest.mark.parametrize(
    "mode, output, out, unwritable",
    [
        ("eigen", {}, "blocker/sub", "blocker/sub"),  # the output directory would sit under a file
        ("eigen", {"report": "taken"}, ".", "taken"),  # the report path is a directory
        ("sweep", {"csv": "taken"}, ".", "taken"),  # the CSV path is a directory
    ],
    ids=["out-dir", "report", "csv"],
)
def test_exit_4_io_error(mode, output, out, unwritable, tmp_path):
    (tmp_path / "blocker").write_text("a file, not a directory")
    (tmp_path / "taken").mkdir()
    cfg = config(mode, **({"lam_grid": [3.0], "eta_grid": [0.0], "n_random": 0} if mode == "sweep" else {}))
    cfg["output"] = output
    proc = run_cli(mode, cfg, tmp_path, out=tmp_path / out)
    assert proc.returncode == 4
    assert repr(str(tmp_path / unwritable)) in proc.stderr


def test_exit_5_counterexample(tmp_path):
    # a false eigenvalue override drags the no-nonnegative-solution region over
    # cells whose solutions are genuinely positive
    cfg = config("sweep", lam_grid=[3.0], eta_grid=[0.0], lam1=1.0, t_grid=[1.0], n_random=0)
    proc = run_cli("sweep", cfg, tmp_path)
    assert proc.returncode == 5, proc.stderr
    report = json.loads((tmp_path / "sweep_report.json").read_text())
    assert report["result"]["counterexample_count"] == 1


# Malformed inputs: each exits 2 before any solve, with one "plap: <field path>: <reason>" line.
PROBES = [
    ("solve", {"lam": "abc"}, {}, "mode_params.lam"),
    ("sweep", {"lam_grid": [1, "x"]}, {}, "mode_params.lam_grid[1]"),
    ("nonuniformity", {"family": [3]}, {}, "mode_params.family[0]"),
    ("nonuniformity", {"family": [{"center": 0.5, "radius": 0}]}, {}, "mode_params.family[0].radius"),
    ("eigen", {"max_outer": "x"}, {}, "mode_params.max_outer"),
    ("eigen", {"tol": "x"}, {}, "mode_params.tol"),
    ("critval", {"lam_frac": "half"}, {}, "mode_params.lam_frac"),
    ("solve", {"lam": 3.0, "t_grid": 5}, {}, "mode_params.t_grid"),
    ("solve", {"lam": float("nan")}, {}, "mode_params.lam"),
    ("solve", {"lam": float("inf")}, {}, "mode_params.lam"),
    ("eigen", {}, {"p": "__1e400__"}, "p"),
    ("nonuniformity", {"family": [{"center": 0.5, "radius": 0.1}]}, {"weights": {"m": 1, "a": -1}}, "a"),
    ("critval", {"n_starts": -3, "lam_frac": 0.5}, {}, "mode_params.n_starts"),
    ("sweep", {"n_random": -1}, {}, "mode_params.n_random"),
    ("sweep", {"n_lam": 2.5}, {}, "mode_params.n_lam"),
    ("solve", {"lam": True}, {}, "mode_params.lam"),
    ("eigen", {"init": "bogus"}, {}, "mode_params.init"),
    ("eigen", {"subdomain": {"rho": 0.25, "part": "middle"}}, {}, "mode_params.subdomain.part"),
    ("solve", {"lamda": 4}, {}, "mode_params.lamda"),
    ("eigen", {}, {"output": {"dir": 5}}, "output.dir"),
    ("eigen", {}, {"weights": {"m": 1, "a": "1/x"}}, "weights.a"),
    # preconditions that need the mesh or lam1
    ("critval", {"lam": 50.0}, {}, "mode_params.lam"),
    ("critval", {"lam": -1.0}, {}, "mode_params.lam"),
    ("critval", {"lam_frac": 0.5}, {"weights": {"m": 1, "a": 1, "f": "x - 0.5"}}, "weights.f"),
    ("eigen", {"subdomain": {"rho": 0.6}}, {}, "mode_params.subdomain.rho"),
    # an unknown key at every level of the config
    ("solve", {"lam": 3.0}, {"domain": {**BASE["domain"], "resolutoin": 8}}, "domain.resolutoin"),
    ("solve", {"lam": 3.0}, {"weights": {"m": 1, "a": 1, "f": 1, "F": 5}}, "weights.F"),
    ("solve", {"lam": 3.0}, {"weights": {"m": {"kind": "constant", "value": 1, "gama": 2}}}, "weights.m.gama"),
    ("solve", {"lam": 3.0}, {"mode_parms": {"lam": 3.0}}, "mode_parms"),
    ("solve", {"lam": 3.0}, {"outptu": {"dir": "."}}, "outptu"),
    ("solve", {"lam": 3.0}, {"output": {"csvv": "a.csv"}}, "output.csvv"),
    # expression weights that are not finite, or nest too deeply to walk
    *[
        ("solve", {"lam": 3.0}, {"weights": {"m": 1, "a": 1, "f": src}}, "weights.f")
        for src in [
            "1e400",
            "x*1e400",
            "1e400-1e400",
            "exp(1000)",
            "10^400",
            "sin(1e400)",
            "(" * 200 + "x" + ")" * 200,
            "-" * 1000 + "x",
            "1^" * 1000 + "1",
            "+".join(["x"] * 1000),
        ]
    ],
    # flags, cell counts and weight gammas of the wrong kind
    ("eigen", {"negative": 1}, {}, "mode_params.negative"),
    ("eigen", {}, {"domain": {"kind": "rectangle", "bounds": [0, 1, 0, 1], "resolution": [3]}}, "domain.resolution"),
    ("solve", {"lam": 3.0}, {"weights": {"m": {"kind": "constant", "value": 1, "gamma": 0.5}}}, "weights.m.gamma"),
    # a nodal weight with both its values and a file
    ("solve", {"lam": 3.0}, {"weights": {"m": 1, "f": {"kind": "nodal", "values": [0, 5, 5, 5, 0], "path": "w.json"}}}, "weights.f"),
]


@pytest.mark.parametrize("mode, params, overrides, path", PROBES)
def test_malformed_input_exits_2_naming_the_field(mode, params, overrides, path, tmp_path, capsys):
    cfg = {**config(mode, **params), **overrides}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg).replace('"__1e400__"', "1e400"))
    code = main([mode, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(f"plap: {path}: ") and err.count("\n") == 1, err


def test_negative_seed_exits_2(tmp_path, capsys):
    (tmp_path / "cfg.json").write_text(json.dumps(config("eigen")))
    code = main(["eigen", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path), "--seed", "-1"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("plap: --seed: "), err
