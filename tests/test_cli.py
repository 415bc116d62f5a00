import os
import subprocess
import sys

import pytest

import rarepath
from rarepath import diagnostics
from rarepath.cli import main


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _run(argv):
    return main(argv)


def test_ou_estimate_schema_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = ["ou-estimate", "--N", "2", "--replicas", "2000", "--step", "0.002",
            "--seed", "7", "--functional", "capped-duration:50"]
    assert _run(base + ["--out", str(out1)]) == 0
    assert _run(base + ["--out", str(out2), "--workers", "3"]) == 0
    assert _read(out1) == _read(out2)
    header, *rows = _read(out1).decode().strip().split("\n")
    assert header == "field,value"
    fields = [r.split(",")[0] for r in rows]
    assert fields == ["estimate", "stderr", "ess", "replicas", "step", "seed",
                      "max_log_weight", "top1_weight_share"]


def test_ou_estimate_sample_dump(tmp_path):
    out = tmp_path / "e.csv"
    dump1 = tmp_path / "d1.csv"
    dump2 = tmp_path / "d2.csv"
    base = ["ou-estimate", "--N", "2", "--replicas", "400", "--step", "0.004",
            "--seed", "3", "--out", str(out)]
    assert _run(base + ["--dump", str(dump1)]) == 0
    assert _run(base + ["--dump", str(dump2), "--workers", "2"]) == 0
    assert _read(dump1) == _read(dump2)
    lines = _read(dump1).decode().splitlines()
    assert lines[0] == "replica_id,hit_time,integral_sq,log_weight,payoff"
    assert len(lines) == 401
    # the report is identical with and without the dump
    out2 = tmp_path / "e2.csv"
    assert _run(base[:-1] + [str(out2)]) == 0
    assert _read(out) == _read(out2)


def test_ou_oracle_runs(tmp_path):
    out = tmp_path / "o.csv"
    rc = _run(["ou-oracle", "--N", "2", "--attempts", "20000", "--step", "0.002",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    text = _read(out).decode()
    assert "acceptance_rate" in text


def test_ou_oracle_zero_acceptance_exit_code(tmp_path):
    rc = _run(["ou-oracle", "--N", "4", "--attempts", "10", "--step", "0.002",
               "--seed", "3", "--out", str(tmp_path / "z.csv")])
    assert rc == 3


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "level = 2\nreplicas = 1000\nstep = 0.004\nseed = 9\n"
        "functional = capped-duration:50\n# comment line\n")
    out1 = tmp_path / "c1.csv"
    out2 = tmp_path / "c2.csv"
    rc = _run(["ou-estimate", "--config", str(cfg), "--out", str(out1)])
    assert rc == 0
    assert b"seed,9" in _read(out1)
    # flag overrides the file value
    rc = _run(["ou-estimate", "--config", str(cfg), "--seed", "11",
               "--out", str(out2)])
    assert rc == 0
    assert b"seed,11" in _read(out2)


def test_config_loses_to_a_flag_given_by_its_alias(tmp_path):
    # --N and --replicas are aliases of the options behind the config keys
    # level and attempts; the flag must win under either name
    cfg = tmp_path / "alias.cfg"
    cfg.write_text("level = 3\n")
    flags = ["--step", "0.004", "--seed", "1"]
    est_alias, est_plain = tmp_path / "ea.csv", tmp_path / "ep.csv"
    assert _run(["ou-estimate", "--config", str(cfg), "--N", "2", "--replicas", "200",
                 *flags, "--out", str(est_alias)]) == 0
    assert _run(["ou-estimate", "--level", "2", "--replicas", "200", *flags,
                 "--out", str(est_plain)]) == 0
    assert _read(est_alias) == _read(est_plain)
    cfg.write_text("level = 3\nattempts = 10\n")
    orc = tmp_path / "o.csv"
    assert _run(["ou-oracle", "--config", str(cfg), "--N", "2", "--replicas", "2000",
                 *flags, "--out", str(orc)]) == 0
    assert b"attempts,2000" in _read(orc)


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("level = 2\nbogus = 1\n")
    rc = _run(["ou-estimate", "--config", str(cfg), "--replicas", "10",
               "--step", "0.01", "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_bad_functional_exits_2(tmp_path):
    rc = _run(["ou-estimate", "--N", "2", "--replicas", "10", "--step", "0.01",
               "--seed", "1", "--functional", "nope", "--out",
               str(tmp_path / "x.csv")])
    assert rc == 2


def test_seed_is_mandatory(tmp_path):
    rc = _run(["ou-estimate", "--N", "2", "--replicas", "10", "--step", "0.01",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_outdir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("RAREPATH_OUTDIR", str(tmp_path))
    rc = _run(["measure-check", "--replicas", "2000", "--seed", "5"])
    assert rc == 0
    assert os.path.exists(tmp_path / "measure_check.csv")


def test_cpp_simulate_methods_deterministic(tmp_path):
    for method in ("time-change", "thinning"):
        out1 = tmp_path / f"{method}1.csv"
        out2 = tmp_path / f"{method}2.csv"
        base = ["cpp-simulate", "--method", method, "--intensity", "affine:1:1",
                "--bound", "32", "--horizon", "1.5", "--seed", "13"]
        assert _run(base + ["--out", str(out1)]) == 0
        assert _run(base + ["--out", str(out2)]) == 0
        assert _read(out1) == _read(out2)
        assert _read(out1).decode().startswith("jump_index,time,mark_0")


def test_tightness_constant_family(tmp_path):
    out = tmp_path / "t.csv"
    rc = _run(["tightness", "--family", "constant", "--replicas", "1000",
               "--kappas", "2,4", "--seed", "1", "--out", str(out)])
    assert rc == 0
    text = _read(out).decode()
    assert text.splitlines()[0] == "n,t,kappa,estimate,stderr"
    assert "verdict,TightnessConsistent" in text


@pytest.mark.parametrize("family", ["inverse-bessel", "bounded-drift"])
def test_tightness_bytes_do_not_depend_on_workers(family, tmp_path, monkeypatch):
    # 256-replica chunks: 2000 replicas run as 8 chunks, each split by
    # lane over the workers
    monkeypatch.setattr(diagnostics, "_CHUNK", 256)
    outs = []
    for workers in ("1", "2", "3"):
        out = tmp_path / f"t{workers}.csv"
        assert _run(["tightness", "--family", family, "--replicas", "2000",
                     "--step", "0.0625", "--seed", "4", "--workers", workers,
                     "--out", str(out)]) == 0
        outs.append(_read(out))
    assert outs[0] == outs[1] == outs[2]


def test_chain_demo_identities(tmp_path):
    out = tmp_path / "c.csv"
    rc = _run(["chain-demo", "--seed", "3", "--samples", "2000",
               "--out", str(out)])
    assert rc == 0
    rows = dict(line.split(",", 1) for line in
                _read(out).decode().strip().splitlines()[1:])
    assert float(rows["harmonic_residual"]) <= 1e-12
    assert float(rows["identity_gap"]) <= 1e-10
    assert float(rows["sampler_chi2_p"]) > 0.01


def test_chain_demo_past_enumeration_limit(tmp_path):
    # 13 states: the identities still hold, and only the sampler row goes
    out = tmp_path / "c.csv"
    rc = _run(["chain-demo", "--lattice-n", "2", "--level", "3", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    rows = dict(line.split(",", 1) for line in
                _read(out).decode().strip().splitlines()[1:])
    assert float(rows["identity_gap"]) < 1e-12
    assert "sampler_chi2_p" not in rows


def test_workers_do_not_change_scaling(tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    base = ["ou-scaling", "--levels", "2,3", "--replicas", "2000",
            "--step", "0.004", "--seed", "5"]
    assert _run(base + ["--out", str(out1)]) == 0
    assert _run(base + ["--out", str(out2), "--workers", "4"]) == 0
    assert _read(out1) == _read(out2)
    assert _read(out1).decode().splitlines()[0] == \
        "N,is_cost,rejection_cost_per_effective,ratio"


_TINY_RUNS = {
    "import": [],
    "ou-estimate": ["ou-estimate", "--N", "2", "--replicas", "200", "--step", "0.01",
                    "--seed", "1"],
    "ou-oracle": ["ou-oracle", "--N", "3", "--attempts", "5000", "--step", "0.01",
                  "--seed", "1"],
    "ou-scaling": ["ou-scaling", "--levels", "2,3", "--replicas", "500",
                   "--step", "0.01", "--seed", "1"],
    "tightness": ["tightness", "--family", "bounded-drift", "--replicas", "500",
                  "--step", "0.0625", "--seed", "1"],
}


@pytest.mark.parametrize("case", sorted(_TINY_RUNS))
def test_cli_loads_neither_scipy_integrate_nor_special(case, tmp_path):
    # quadrature and Dawson's integral are imported where they are used, and
    # the scale function at the integer levels the oracle asks for is
    # tabled, so start-up and these commands stay free of both; "import"
    # only builds the parser
    src = os.path.dirname(os.path.dirname(rarepath.__file__))
    argv = _TINY_RUNS[case]
    if argv:
        argv = argv + ["--out", str(tmp_path / "r.csv")]
    code = ("import sys, rarepath.cli\n"
            "argv = sys.argv[1:]\n"
            "rc = rarepath.cli.main(argv) if argv else (rarepath.cli.build_parser(), 0)[1]\n"
            "print(rc, 'scipy.integrate' in sys.modules, 'scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
                         check=True)
    assert out.stdout.splitlines()[-1] == "0 False False"


_BLAS_THREAD_RUNS = {
    "ou-estimate": ["ou-estimate", "--N", "2", "--replicas", "20000", "--step",
                    "0.004", "--seed", "3"],
    "tightness": ["tightness", "--family", "bounded-drift", "--replicas", "25000",
                  "--step", "0.0625", "--seed", "3"],
}


@pytest.mark.parametrize("case", sorted(_BLAS_THREAD_RUNS))
def test_reports_do_not_depend_on_openblas_threads(case, tmp_path):
    # OpenBLAS fixes its thread count when numpy loads, so each count runs
    # in a fresh interpreter; both runs write "r.csv" in their own
    # directory, so their stdout can be compared byte for byte
    src = os.path.dirname(os.path.dirname(rarepath.__file__))
    outputs = []
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        run = subprocess.run(
            [sys.executable, "-m", "rarepath.cli", *_BLAS_THREAD_RUNS[case],
             "--out", "r.csv"], capture_output=True, cwd=cwd, timeout=300, check=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads})
        outputs.append((run.stdout, _read(cwd / "r.csv")))
    assert outputs[0] == outputs[1]


def test_cli_start_up_leaves_the_kernel_unbuilt():
    # the compiled lane steps are built and loaded on first use: importing
    # the CLI and building its parser must do neither
    src = os.path.dirname(os.path.dirname(rarepath.__file__))
    code = ("from rarepath import _native\n"
            "def refuse():\n"
            "    raise SystemExit('start-up built the kernel')\n"
            "_native._load = refuse\n"
            "import rarepath.cli\n"
            "rarepath.cli.build_parser()\n"
            "print(_native._lib is None)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert out.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize("argv", [
    ["ou-estimate", "--N", "2", "--replicas", "10", "--step", "0.01"],
    # these draw normals only: the compiled library holds the sampler too
    ["tightness", "--family", "bounded-drift", "--replicas", "10"],
    ["measure-check", "--replicas", "10"],
], ids=lambda argv: argv[0])
def test_kernel_build_failure_exits_3(argv, monkeypatch, tmp_path, capsys):
    from rarepath import _native
    # a flag the compiler rejects; it also changes the cache key, so the
    # library is compiled anew rather than taken from the cache
    monkeypatch.setattr(_native, "FLAGS", _native.FLAGS + ("--no-such-flag",))
    monkeypatch.setattr(_native, "_lib", None)
    rc = _run([*argv, "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: code=kernel-unavailable msg=")
    assert "--no-such-flag" in err[0]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("case", ["config", "out", "dump", "outdir-env"])
def test_unusable_path_exits_2(case, tmp_path, monkeypatch, capsys):
    missing = tmp_path / "missing"
    check = ["measure-check", "--replicas", "100", "--seed", "1"]
    argv = {
        "config": ["ou-estimate", "--config", str(missing / "run.cfg")],
        "out": check + ["--out", str(missing / "m.csv")],
        "dump": ["ou-estimate", "--N", "2", "--replicas", "50", "--step", "0.01",
                 "--seed", "1", "--out", str(tmp_path / "e.csv"),
                 "--dump", str(missing / "d.csv")],
        "outdir-env": check,
    }[case]
    if case == "outdir-env":
        monkeypatch.setenv("RAREPATH_OUTDIR", str(missing))
    assert _run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: code=unusable-path msg=")
    assert str(missing) in err[0]


_BAD_VALUES = {
    "step-0": ["tightness", "--family", "bounded-drift", "--step", "0"],
    "step-negative": ["tightness", "--family", "inverse-bessel", "--step", "-1"],
    "workers-0": ["measure-check", "--workers", "0"],
    "workers-negative": ["measure-check", "--workers", "-2"],
    "scaling-one-level": ["ou-scaling", "--levels", "2"],
    "scaling-repeated-level": ["ou-scaling", "--levels", "2,2"],
    "scaling-no-levels": ["ou-scaling", "--levels", ""],
    "scaling-level-not-int": ["ou-scaling", "--levels", "2,x"],
    "scaling-step-negative": ["ou-scaling", "--levels", "2,3", "--step", "-1"],
    "scaling-step-nan": ["ou-scaling", "--levels", "2,3", "--step", "nan"],
    "scaling-replicas-0": ["ou-scaling", "--levels", "2,3", "--replicas", "0"],
    "scaling-level-unreachable": ["ou-scaling", "--levels", "2,28", "--replicas", "5",
                                  "--step", "0.05"],
    "measure-replicas-1": ["measure-check", "--replicas", "1"],
    "measure-replicas-0": ["measure-check", "--replicas", "0"],
    "measure-t-negative": ["measure-check", "--t", "-1"],
    "measure-t-nan": ["measure-check", "--t", "nan"],
    "tightness-no-times": ["tightness", "--family", "constant", "--t", ""],
    "tightness-t-negative": ["tightness", "--family", "bounded-drift", "--t", "-1",
                             "--step", "0.25"],
    "tightness-t-inf": ["tightness", "--family", "constant", "--t", "inf"],
    "tightness-step-inf": ["tightness", "--family", "inverse-bessel", "--step", "inf"],
    "tightness-no-members": ["tightness", "--family", "constant", "--n-grid", ""],
    "tightness-member-0": ["tightness", "--family", "inverse-bessel", "--n-grid", "0,8"],
    "tightness-member-negative": ["tightness", "--family", "bounded-drift",
                                  "--n-grid=-1,2"],
    "tightness-member-0-constant": ["tightness", "--family", "constant", "--n-grid", "0"],
    "tightness-kappa-not-float": ["tightness", "--family", "constant",
                                  "--kappas", "2,x"],
    "tightness-kappa-nan": ["tightness", "--family", "constant", "--kappas", "2,nan"],
    "tightness-floor-nan": ["tightness", "--family", "constant",
                            "--floor-threshold", "nan"],
    # one replica has no standard error to give a verdict with
    "tightness-replicas-1": ["tightness", "--family", "bounded-drift",
                             "--replicas", "1", "--step", "0.25"],
}


@pytest.mark.parametrize("case", list(_BAD_VALUES))
def test_bad_step_or_workers_exits_2(case, tmp_path, capsys):
    # the case's own flags come last, so they win over these defaults
    command, *flags = _BAD_VALUES[case]
    rc = _run([command, "--replicas", "100", "--seed", "1",
               "--out", str(tmp_path / "x.csv"), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: code=invalid-argument msg=")
    assert err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    ["cpp-simulate", "--mark", "gauss:1"],
    ["cpp-simulate", "--mark", "point:x"],
    ["cpp-simulate", "--intensity", "affine:1"],
    ["cpp-simulate", "--intensity", "const:x"],
    ["cpp-simulate", "--mark", "point:1:2"],
    ["chain-demo", "--samples", "0"],
    ["ou-estimate", "--N", "2", "--replicas", "10", "--step", "nan"],
    ["ou-estimate", "--N", "2", "--replicas", "10", "--step", "inf"],
    ["ou-estimate", "--N", "2", "--replicas", "10", "--step", "0.01",
     "--functional", "capped-duration:nan"],
    ["cpp-simulate", "--mark", "gauss:0:nan"],
    ["cpp-simulate", "--horizon", "nan"],
    ["cpp-simulate", "--method", "thinning", "--bound", "32", "--horizon", "inf"],
    ["cpp-simulate", "--x0", "nan"],
    ["cpp-simulate", "--x0", "inf"],
    ["cpp-simulate", "--x0=-inf"],
    ["cpp-simulate", "--method", "thinning", "--bound", "32", "--x0", "nan"],
    ["cpp-simulate", "--method", "thinning", "--intensity", "const:nan"],
    ["cpp-simulate", "--method", "thinning", "--intensity", "const:inf"],
    ["cpp-simulate", "--method", "thinning", "--intensity", "affine:1:1",
     "--bound", "inf"],
    ["cpp-simulate", "--method", "thinning", "--intensity", "affine:1:1",
     "--bound", "nan"],
    ["cpp-simulate", "--method", "time-change", "--intensity", "const:inf"],
    ["cpp-simulate", "--intensity", "affine:nan:1"],
    ["ou-estimate", "--N", "2", "--replicas", "10", "--step", "0.01",
     "--functional", "occupation-above:nan:50"],
    ["ou-oracle", "--N", "2", "--replicas", "10", "--step", "0.01",
     "--functional", "occupation-above:inf:50"],
    ["ou-estimate", "--N", "2", "--replicas", "10", "--step", "0.01",
     "--functional", "capped-duration:inf"],
    ["tightness", "--family", "constant", "--kappas", "2,inf"],
    # a time that is not a whole number of steps
    ["tightness", "--family", "bounded-drift", "--step", "2", "--t", "1"],
    ["tightness", "--family", "inverse-bessel", "--step", "0.25", "--t", "0.1"],
], ids=["mark-gauss-short", "mark-not-float", "intensity-affine-short",
        "intensity-not-float", "affine-on-2d-mark", "samples-0", "step-nan",
        "step-inf", "cap-nan", "mark-sd-nan", "horizon-nan", "horizon-inf",
        "x0-nan", "x0-inf", "x0-minus-inf", "thinning-x0-nan",
        "thinning-const-nan", "thinning-const-inf", "thinning-bound-inf",
        "thinning-bound-nan", "time-change-const-inf", "affine-coefficient-nan",
        "occupation-level-nan", "oracle-occupation-level-inf", "cap-inf",
        "tightness-kappa-inf", "tightness-t-off-grid-bounded-drift",
        "tightness-t-off-grid-inverse-bessel"])
def test_malformed_spec_or_value_exits_2(argv, tmp_path, capsys):
    rc = _run(argv + ["--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: code=invalid-argument msg=")
    assert err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()
