import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import trispin as ts
from trispin import cli, free_fermion, localizable, spin_core
from trispin.spin_core import ConvergenceError
from test_spin_core import kron_oracle, sectors


def run(tmp_path, *argv):
    out = tmp_path / "run"
    code = cli.main([*argv, "--out", str(out)])
    return code, out


class TestCouplings:
    def test_symmetric_species(self, tmp_path):
        code, out = run(tmp_path, "couplings", "--j", "0.1", "--u", "1.0")
        assert code == 0
        payload = json.loads((out / "couplings.json").read_text())
        assert payload["lambda3"] == 0.0
        assert payload["lambda4"] == 0.0
        assert payload["b_z_comp"] == 0.0
        assert (out / "config.json").exists()
        assert (out / "manifest.json").exists()

    def test_experimental_regime(self, tmp_path):
        # tunneling ~10 kHz against collisions ~100 kHz
        code, out = run(tmp_path, "couplings", "--j", "10", "--u", "100")
        assert code == 0
        payload = json.loads((out / "couplings.json").read_text())
        assert payload["perturbative_ok"] is True
        assert payload["lambda1"] != 0.0
        assert payload["lambda2"] != 0.0

    def test_zero_tunneling(self, tmp_path):
        code, out = run(tmp_path, "couplings", "--j", "0", "--u", "1.0")
        assert code == 0
        payload = json.loads((out / "couplings.json").read_text())
        assert all(payload[k] == 0.0 for k in ("lambda1", "lambda2", "lambda3", "lambda4"))

    def test_missing_parameters(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run(tmp_path, "couplings", "--j", "0.1")
        assert excinfo.value.code == 64
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv", [
        ["couplings"], ["couplings", "--u", "1", "--ja", "0.1"], ["validate", "--u", "1"],
    ])
    def test_missing_parameters_are_a_usage_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            run(tmp_path, *argv)
        assert excinfo.value.code == 64
        assert "couplings missing" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_bad_parameters(self, tmp_path):
        code, _ = run(tmp_path, "couplings", "--j", "0.1", "--u", "-1.0")
        assert code == 1

    @pytest.mark.parametrize("flags", [["--j", "nan", "--u", "1"], ["--j", "0.1", "--u", "inf"]])
    def test_non_finite_parameters(self, tmp_path, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(tmp_path, "couplings", *flags)
        assert excinfo.value.code == 64
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestValidate:
    def test_perturbative_regime_passes(self, tmp_path):
        code, out = run(tmp_path, "validate", "--j", "0.1", "--u", "1.0")
        assert code == 0
        payload = json.loads((out / "validation.json").read_text())
        assert payload["max_rel_dev"] <= 0.08
        assert len(payload["levels"]) == 8

    def test_strict_threshold_fails_with_code_2(self, tmp_path):
        code, _ = run(tmp_path, "validate", "--j", "0.1", "--u", "1.0",
                      "--max-rel-dev", "0.001")
        assert code == 2

    @pytest.mark.parametrize("threshold", ["nan", "-1", "inf"])
    def test_bad_threshold_exits_64(self, tmp_path, threshold, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(tmp_path, "validate", "--j", "0.1", "--u", "1", "--max-rel-dev", threshold)
        assert excinfo.value.code == 64
        assert "--max-rel-dev" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestSpectrum:
    def test_cluster_gap(self, tmp_path, capsys):
        code, out = run(tmp_path, "spectrum", "--model", "cluster", "--n", "6", "--b", "0")
        assert code == 0
        payload = json.loads((out / "spectrum.json").read_text())
        assert payload["gap"] == pytest.approx(2.0, abs=1e-9)
        assert payload["ground_energy"] == pytest.approx(-6.0, abs=1e-9)
        assert "min gap 2" in capsys.readouterr().out

    def test_non_finite_field_is_an_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(tmp_path, "spectrum", "--n", "6", "--b", "nan")
        assert excinfo.value.code == 64
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_iterative_gap_matches_spectral_gap(self, tmp_path, monkeypatch):
        # --max-levels counts on the iterative path too; the gap does not depend
        # on it.  The oracle is the dense spectrum one site above its cap
        n = spin_core.DENSE_SITE_CAP + 1
        with monkeypatch.context() as patch:
            patch.setattr(spin_core, "DENSE_SITE_CAP", n)
            levels = ts.dense_spectrum(ts.cluster_hamiltonian(n, 0.5))
        for max_levels in (20, 1):
            out = tmp_path / str(max_levels)
            assert cli.main(["spectrum", "--n", str(n), "--b", "0.5",
                             "--max-levels", str(max_levels), "--out", str(out)]) == 0
            payload = json.loads((out / "spectrum.json").read_text())
            assert payload["dense"] is False
            assert payload["gap"] == pytest.approx(spin_core._gap_above_ground(levels), abs=1e-9)
            energies = np.array(payload["energies"])
            assert energies.shape == (max_levels,)
            assert np.max(np.abs(energies - levels[:max_levels])) < 1e-10

    @pytest.mark.parametrize("flag", ["--bx", "--by", "--lambda1", "--lambda2", "--lambda3", "--lambda4"])
    def test_triangle_flags_are_a_usage_error_on_the_cluster(self, tmp_path, capsys, flag):
        # the cluster model reads none of them
        with pytest.raises(SystemExit) as excinfo:
            run(tmp_path, "spectrum", "--model", "cluster", "--n", "6", flag, "0.5")
        assert excinfo.value.code == 64
        assert f"{flag} applies to --model triangle only" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        code, out = run(tmp_path, "spectrum", "--model", "triangle", "--n", "6", flag, "0.5")
        assert code == 0
        assert json.loads((out / "spectrum.json").read_text())["model"] == "triangle"

    def test_triangle_matches_kronecker_oracle(self, tmp_path):
        # bx, by != 0: one complex sector, translation step 1
        fields = ["--bx", "0.1", "--by", "0.2", "--b", "0.4"]
        lambdas = ["--lambda1", "0.31", "--lambda2", "-0.17", "--lambda3", "0.05",
                   "--lambda4", "-0.23"]
        code, out = run(tmp_path, "spectrum", "--model", "triangle", "--n", "8",
                        *fields, *lambdas, "--max-levels", "256")
        assert code == 0
        payload = json.loads((out / "spectrum.json").read_text())
        spec = ts.triangle_chain_hamiltonian(
            ts.EffectiveCouplings(0.31, -0.17, 0.05, -0.23, 0.0), (0.1, 0.2, 0.4), 8
        )
        assert [s.offdiag.dtype.kind for s in sectors(spec)] == ["c"]
        assert spin_core._translations(spec) == ((1, 0),)
        oracle = np.linalg.eigvalsh(kron_oracle(spec))
        assert payload["dense"] is True
        assert np.max(np.abs(np.array(payload["energies"]) - oracle)) < 1e-10
        assert payload["gap"] == pytest.approx(oracle[1] - oracle[0], abs=1e-10)


def test_library_loads_no_scipy_subpackage(tmp_path):
    # in a fresh interpreter: these tests import scipy.sparse and scipy.linalg
    # as oracles; the library loads one extension file of scipy's alone
    script = f"""
import sys
import trispin as ts
from trispin import cli
spec = ts.cluster_hamiltonian(9, 0.5)
ts.ground_state(spec)
ts.spectral_gap(spec)
ts.dense_spectrum(spec)
ts.apply(spec, ts.StateVector.basis_state(9, 5))
ts.dense_matrix(spec)
out = {str(tmp_path)!r}
for n in ("9", "15"):  # the dense path, then Lanczos levels
    assert cli.main(["spectrum", "--n", n, "--max-levels", "8", "--out", out + "/" + n]) == 0
assert cli.main(["figure2", "--n", "12", "--no-anneal", "--b-grid", "0.5:0.5:1", "--out", out + "/figure2"]) == 0
loaded = sorted(name for name in sys.modules if name == "scipy.sparse" or name.startswith("scipy.linalg"))
assert not loaded, loaded
"""
    src = str(Path(ts.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("argv", [
    ["couplings", "--j", "0.1", "--u", "1.0"],
    ["validate", "--j", "0.1", "--u", "1.0"],
    ["spectrum", "--n", "6", "--b", "0.5"],
    ["corr", "--b", "0.5", "--n", "6", "--l-max", "4"],
    ["locent", "--b", "0.5", "--n", "9", "--pair", "0,8", "--scheme", "lower-bound"],
    ["figure2", "--n", "12", "--no-anneal", "--b-grid", "0.5:0.5:1"],
], ids=lambda argv: argv[0])
def test_every_json_file_has_one_layout(tmp_path, argv):
    code, out = run(tmp_path, *argv)
    assert code == 0
    names = sorted(path.name for path in out.glob("*.json"))
    assert {"config.json", "manifest.json"} <= set(names)
    for name in names:
        text = (out / name).read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", name


class TestUsage:
    def test_unknown_subcommand_exits_64(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["frobnicate"])
        assert excinfo.value.code == 64

    def test_bad_flag_exits_64(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["spectrum", "--does-not-exist"])
        assert excinfo.value.code == 64

    def test_nonpositive_threads_exits_64(self, tmp_path):
        # the sweep is serial: 1 is the only accepted value
        for threads in ("0", "-2", "2"):
            with pytest.raises(SystemExit) as excinfo:
                run(tmp_path, "figure2", "--threads", threads)
            assert excinfo.value.code == 64

    @pytest.mark.parametrize("command", [["locent", "--b", "0.5", "--scheme", "anneal"], ["figure2"]])
    def test_nonpositive_anneal_schedule_exits_64(self, tmp_path, command):
        for flag in ("--anneal-temps", "--anneal-proposals", "--anneal-restarts"):
            for value in ("0", "-5"):
                with pytest.raises(SystemExit) as excinfo:
                    run(tmp_path, *command, flag, value)
                assert excinfo.value.code == 64

    def test_figure2_ring_too_small_to_fit_exits_64(self, tmp_path, capsys):
        # separations 2..n//2 give the fit its MIN_POINTS = 5 points from n = 12
        assert free_fermion.MIN_POINTS == 5
        for n in ("3", "11"):
            with pytest.raises(SystemExit) as excinfo:
                run(tmp_path, "figure2", "--n", n, "--no-anneal")
            assert excinfo.value.code == 64
            assert "must be at least 12" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_nonpositive_max_levels_exits_64(self, tmp_path):
        for levels in ("0", "-1"):
            with pytest.raises(SystemExit) as excinfo:
                run(tmp_path, "spectrum", "--n", "6", "--max-levels", levels)
            assert excinfo.value.code == 64

    def test_bad_grid_is_an_error(self, tmp_path, capsys):
        # a usage error, rejected before the run directory is made
        for text in ("nonsense", "1:0:0.1", "a:b:c", "0:1:0", "0:1:nan"):
            with pytest.raises(SystemExit) as excinfo:
                run(tmp_path, "figure2", "--b-grid", text)
            assert excinfo.value.code == 64
            assert f"--b-grid: bad grid {text!r}" in capsys.readouterr().err
            assert not (tmp_path / "run").exists()

    def test_corr_empty_separation_range_exits_64(self, tmp_path, capsys):
        for channel in ("ed", "analytic"):
            with pytest.raises(SystemExit) as excinfo:
                run(tmp_path, "corr", "--b", "0.5", "--channel", channel,
                    "--l-min", "9", "--l-max", "3")
            assert excinfo.value.code == 64
            assert "--l-min 9 exceeds --l-max 3" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flags,message", [
        (("--l-min", "0"), "--l-min 0 is below 2"),
        (("--l-min", "1", "--channel", "analytic"), "--l-min 1 is below 2"),
        (("--l-max", "9"), "--l-max 9 exceeds the ring of --n 8 sites"),
    ])
    def test_corr_separation_outside_ring_exits_64(self, tmp_path, capsys, flags, message):
        # rejected before the run directory is made and before any solve
        with pytest.raises(SystemExit) as excinfo:
            run(tmp_path, "corr", "--b", "0.5", "--n", "8", *flags)
        assert excinfo.value.code == 64
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", [
        ["corr", "--b", "0.5", "--l-min", "2", "--l-max", "2"],
        ["spectrum"],
        ["locent", "--b", "0.5", "--pair", "0,1"],
    ])
    def test_chain_below_three_sites_exits_64(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            run(tmp_path, *command, "--n", "2")
        assert excinfo.value.code == 64
        assert "--n 2 is below 3" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command,message", [
        (["figure2", "--no-anneal"], "must be at most 20"),
        (["spectrum"], "--n 21 exceeds 20"),
        (["locent", "--b", "0.5"], "--n 21 exceeds 20"),
        (["corr", "--b", "0.5", "--channel", "ed"], "--n 21 exceeds 20"),
    ], ids=["figure2", "spectrum", "locent", "corr"])
    def test_chain_above_ground_cap_exits_64(self, tmp_path, capsys, command, message):
        # used to fail inside the run (exit 1, or figure2 exit 0 with every
        # field in failures.log) after the run directory was made
        assert spin_core.GROUND_SITE_CAP == 20
        with pytest.raises(SystemExit) as excinfo:
            run(tmp_path, *command, "--n", "21")
        assert excinfo.value.code == 64
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_bad_axis_exits_64(self, tmp_path, capsys):
        for flag in ("--alpha", "--beta"):
            with pytest.raises(SystemExit) as excinfo:
                run(tmp_path, "corr", "--b", "0.5", flag, "w")
            assert excinfo.value.code == 64
            # the analytic channel has the zz correlator alone
            with pytest.raises(SystemExit) as excinfo:
                run(tmp_path, "corr", "--b", "0.5", "--channel", "analytic", flag, "x")
            assert excinfo.value.code == 64
            assert "zz correlators only" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flags,message", [
        (("--pair", "0"), "--pair '0' is not two comma-separated integers"),
        (("--pair", "0,4,6"), "--pair '0,4,6' is not two comma-separated integers"),
        (("--pair", "0,x"), "--pair '0,x' is not two comma-separated integers"),
        (("--pair", "3,3"), "--pair 3,3 is not two distinct sites of the --n 9 ring"),
        (("--pair", "0,9"), "--pair 0,9 is not two distinct sites of the --n 9 ring"),
        (("--pair", "2,6", "--scheme", "lower-bound"), "L odd and at least 3"),
        (("--pair", "0,5", "--scheme", "lower-bound"), "L odd and at least 3"),  # L = 6
        (("--pair", "0,1", "--scheme", "lower-bound"), "L odd and at least 3"),  # L = 2
    ])
    def test_locent_bad_pair_exits_64(self, tmp_path, capsys, flags, message):
        # rejected before the run directory is made and before any solve
        with pytest.raises(SystemExit) as excinfo:
            run(tmp_path, "locent", "--b", "0.5", "--n", "9", *flags)
        assert excinfo.value.code == 64
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    ["locent", "--b", "nan"],
    ["corr", "--b", "inf"],
    ["corr", "--b=-inf", "--channel", "analytic"],
    ["spectrum", "--b", "nan"],
    *(["spectrum", "--model", "triangle", flag, "inf"]
      for flag in ("--bx", "--by", "--lambda1", "--lambda2", "--lambda3", "--lambda4")),
    ["validate", "--j", "nan", "--u", "1"],
    ["validate", "--j", "0.1", "--u=-inf"],
    ["couplings", "--j", "inf", "--u", "1"],
    *(["couplings", "--j", "0.1", "--u", "1", flag, "nan"]
      for flag in ("--ja", "--jb", "--uaa", "--ubb", "--uab")),
], ids=lambda argv: "-".join(argv).replace("--", ""))
def test_non_finite_floats_are_a_usage_error(tmp_path, capsys, argv):
    # every float option is parsed as finite, before the run directory is made
    with pytest.raises(SystemExit) as excinfo:
        run(tmp_path, *argv)
    assert excinfo.value.code == 64
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("ignoring,reading,flags,at_default", [
    (["corr", "--b", "0.5", "--channel", "analytic"], ["corr", "--b", "0.5"],
     ["--n", "10"], ["--n", "12"]),
    (["locent", "--b", "0.5", "--n", "9"], ["locent", "--b", "0.5", "--n", "9", "--scheme", "anneal"],
     ["--anneal-temps", "2", "--anneal-proposals", "2", "--anneal-restarts", "1"],
     ["--anneal-temps", "200"]),
    (["locent", "--b", "0.5", "--n", "9", "--pair", "0,4", "--scheme", "lower-bound"],
     ["locent", "--b", "0.5", "--n", "9", "--pair", "0,4", "--scheme", "anneal"],
     ["--anneal-temps", "2", "--anneal-proposals", "2", "--anneal-restarts", "1"],
     ["--anneal-restarts", "2"]),
    (["figure2", "--n", "12", "--b-grid", "0.5:0.5:1", "--no-anneal"],
     ["figure2", "--n", "12", "--b-grid", "0.5:0.5:1"],
     ["--anneal-temps", "2", "--anneal-proposals", "2", "--anneal-restarts", "2"],
     ["--anneal-proposals", "16"]),
], ids=["corr-analytic", "locent-cluster", "locent-lower-bound", "figure2-no-anneal"])
def test_unread_options_are_a_usage_error(tmp_path, capsys, ignoring, reading, flags, at_default):
    # each option, away from its default, on a run that does not read it
    for flag, value in zip(flags[::2], flags[1::2]):
        with pytest.raises(SystemExit) as excinfo:
            run(tmp_path, *ignoring, flag, value)
        assert excinfo.value.code == 64
        assert f"{flag} applies to " in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
    # at its default it is accepted, and the run that reads it takes it
    code, _ = run(tmp_path / "default", *ignoring, *at_default)
    assert code == 0
    code, out = run(tmp_path, *reading, *flags)
    assert code == 0
    config = json.loads((out / "config.json").read_text())
    assert config[flags[0].lstrip("-").replace("-", "_")] == int(flags[1])


class TestGrid:
    def test_stops_at_or_before_stop(self):
        assert cli._parse_grid("0:1:0.35") == [0.0, 0.35, 0.7]

    def test_whole_step_grids_keep_their_stop(self):
        grid = cli._parse_grid("0:2:0.1")
        assert len(grid) == 21 and grid[-1] == 2.0
        assert cli._parse_grid("0.5:1.5:1.0") == [0.5, 1.5]

    @pytest.mark.parametrize("text", ["0:inf:0.1", "0:1:inf", "0:nan:0.1"])
    def test_non_finite_grids_are_bad(self, tmp_path, text):
        with pytest.raises(ValueError, match="bad grid"):
            cli._parse_grid(text)
        with pytest.raises(SystemExit) as excinfo:
            run(tmp_path, "figure2", "--b-grid", text)
        assert excinfo.value.code == 64
        assert not (tmp_path / "run").exists()


class TestCorr:
    def test_ed_channel_csv(self, tmp_path):
        code, out = run(tmp_path, "corr", "--b", "0.5", "--n", "10", "--l-max", "6")
        assert code == 0
        lines = (out / "corr.csv").read_text().splitlines()
        assert lines[0] == "B,L,alpha,beta,value"
        assert len(lines) == 5  # L = 3..6

    def test_analytic_channel(self, tmp_path):
        # the analytic channel is not bounded by a ring: --l-max 40 exceeds
        # the default --n 12, which this channel does not read
        code, out = run(tmp_path, "corr", "--b", "0.5", "--channel", "analytic",
                        "--l-min", "2", "--l-max", "40")
        assert code == 0
        rows = (out / "corr.csv").read_text().splitlines()[1:]
        assert len(rows) == 39
        values = free_fermion.czz_analytic(0.5, range(2, 41))
        assert rows == [f"0.5,{L},z,z,{v:.12g}" for L, v in zip(range(2, 41), values)]

    def test_analytic_channel_non_finite_field(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(tmp_path, "corr", "--b", "inf", "--channel", "analytic")
        assert excinfo.value.code == 64
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_analytic_channel_zz_only(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run(tmp_path, "corr", "--b", "0.5", "--channel", "analytic", "--alpha", "x")
        assert excinfo.value.code == 64


class TestLocent:
    def test_cluster_scheme_at_zero_field(self, tmp_path):
        code, out = run(tmp_path, "locent", "--b", "0", "--n", "8", "--pair", "0,4")
        assert code == 0
        payload = json.loads((out / "locent.json").read_text())
        assert payload["value"] == pytest.approx(1.0, abs=1e-9)
        assert payload["pair"] == [0, 4]
        assert payload["branches"] == 64
        assert set(payload["plan"]) == {"1", "2", "3", "5", "6", "7"}

    def test_lower_bound_scheme(self, tmp_path):
        code, out = run(tmp_path, "locent", "--b", "0.5", "--n", "9", "--pair", "0,8",
                        "--scheme", "lower-bound")
        assert code == 0
        payload = json.loads((out / "locent.json").read_text())
        assert payload["value"] == pytest.approx(0.930092888739, abs=1e-9)

    def test_anneal_scheme(self, tmp_path):
        # the default two restarts include one from a random plan
        argv = ["locent", "--b", "1.2", "--n", "8", "--pair", "0,4"]
        schedule = ["--scheme", "anneal", "--anneal-temps", "6", "--anneal-proposals", "5"]
        texts = []
        for name in ("first", "second"):
            assert cli.main([*argv, *schedule, "--out", str(tmp_path / name)]) == 0
            texts.append((tmp_path / name / "locent.json").read_text())
        assert texts[0] == texts[1]
        code, out = run(tmp_path, *argv)
        assert code == 0
        cluster = json.loads((out / "locent.json").read_text())["value"]
        assert json.loads(texts[0])["value"] >= cluster - 1e-12

    @pytest.mark.parametrize("b", ["0", "0.5"])
    def test_anneal_writes_the_pair_ascending(self, tmp_path, b):
        # the cluster seed wins at B = 0, a lower-bound seed built on the
        # pair as given at B = 0.5; both used to keep their own order
        code, out = run(tmp_path, "locent", "--b", b, "--n", "9", "--pair", "6,0",
                        "--scheme", "anneal", "--anneal-temps", "2",
                        "--anneal-proposals", "2", "--anneal-restarts", "2")
        assert code == 0
        assert json.loads((out / "locent.json").read_text())["pair"] == [0, 6]


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2") / "run"
    code = cli.main([
        "figure2", "--b-grid", "0.5:1.5:0.5", "--no-anneal",
        "--seed", "7", "--out", str(out),
    ])
    return code, out


class TestFigure2:
    def test_partial_failures_are_logged(self, tmp_path, monkeypatch):
        # one transform and no second to check it: every correlation point
        # off |B| = 1 fails, the closed form at B = 1 and the entanglement
        # channel still run
        monkeypatch.setattr(free_fermion, "MAX_POINTS", free_fermion._START_POINTS)
        code, out = run(tmp_path, "figure2", "--no-anneal", "--b-grid", "0.5:1.5:0.5")
        assert code == 0
        log = (out / "failures.log").read_text().splitlines()
        assert [line.split(":")[0] for line in log] == [
            "correlation B=0.5", "correlation B=1.5",
        ]
        assert (out / "correlation_length.csv").read_text() == "B,xi,model,diverges\n1,inf,power_law,1\n"
        assert len((out / "entanglement_length.csv").read_text().splitlines()) == 4

    def test_typed_channel_failure_is_logged(self, tmp_path, monkeypatch):
        real = localizable.ground_state

        def stalls_at_half(spec, **kwargs):
            if spec.terms[-1].coeff == 0.5:
                raise ConvergenceError("Lanczos stalled")
            return real(spec, **kwargs)

        monkeypatch.setattr(localizable, "ground_state", stalls_at_half)
        code, out = run(tmp_path, "figure2", "--no-anneal", "--b-grid", "0.5:1.5:1.0")
        assert code == 0
        assert (out / "failures.log").read_text() == "entanglement B=0.5: Lanczos stalled\n"
        rows = (out / "entanglement_length.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["1.5"]
        assert len((out / "correlation_length.csv").read_text().splitlines()) == 3
        assert (out / "manifest.json").exists()

    def test_untyped_channel_failure_propagates(self, tmp_path, monkeypatch):
        def broken(spec, **kwargs):
            raise TypeError("not a solver failure")

        monkeypatch.setattr(localizable, "ground_state", broken)
        with pytest.raises(TypeError, match="not a solver failure"):
            run(tmp_path, "figure2", "--no-anneal", "--b-grid", "0.5:1.5:1.0")
        assert (tmp_path / "run" / "config.json").exists()
        assert not (tmp_path / "run" / "manifest.json").exists()

    def test_smallest_ring_runs(self, tmp_path):
        code, out = run(tmp_path, "figure2", "--n", "12", "--no-anneal", "--b-grid", "0.5:0.5:1")
        assert code == 0
        assert not (out / "failures.log").exists()
        rows = (out / "e_loc_series.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["2", "3", "4", "5", "6"]
        assert (out / "entanglement_length.csv").read_text().splitlines()[1].startswith("0.5,")

    def test_large_ring_is_the_recorded_ring(self, tmp_path):
        # --large overrides --n, in config.json too
        code, out = run(tmp_path, "figure2", "--large", "--n", "13", "--no-anneal",
                        "--b-grid", "0.5:0.5:1")
        assert code == 0
        assert json.loads((out / "config.json").read_text())["n"] == 17
        rows = (out / "e_loc_series.csv").read_text().splitlines()[1:]
        assert max(int(row.split(",")[1]) for row in rows) == 8

    def test_exit_and_files(self, small_run):
        code, out = small_run
        assert code == 0
        for name in ("correlation_length.csv", "entanglement_length.csv",
                      "czz_series.csv", "e_loc_series.csv", "config.json",
                      "manifest.json"):
            assert (out / name).exists()

    def test_classifications(self, small_run):
        _, out = small_run
        corr = {r.split(",")[0]: r.split(",") for r in
                (out / "correlation_length.csv").read_text().splitlines()[1:]}
        ent = {r.split(",")[0]: r.split(",") for r in
               (out / "entanglement_length.csv").read_text().splitlines()[1:]}
        assert corr["0.5"][3] == "0"
        assert corr["1"][2] == "power_law" and corr["1"][3] == "1"
        assert corr["1.5"][3] == "0"
        assert ent["0.5"][3] == "1"
        assert ent["1.5"][3] == "0"

    def test_byte_identical_reproducibility(self, small_run, tmp_path):
        _, first = small_run
        second = tmp_path / "again"
        code = cli.main([
            "figure2", "--b-grid", "0.5:1.5:0.5", "--no-anneal",
            "--seed", "7", "--out", str(second),
        ])
        assert code == 0
        for name in ("correlation_length.csv", "entanglement_length.csv",
                      "czz_series.csv", "e_loc_series.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


def csv_lines(table: list[list], header: str) -> list[str]:
    """Leading entries of the ``length_sweep`` rows ``table`` as figure2
    writes them under ``header``."""
    width = len(header.split(","))
    return [",".join(cli._fmt(v) for v in row[:width]) for row in table]


class TestLengthSweep:
    def test_rows_are_the_csv_rows(self, small_run):
        _, out = small_run
        channels, failures = localizable.length_sweep(cli._parse_grid("0.5:1.5:0.5"), 13, 7, None)
        assert failures == []
        assert list(channels) == ["correlation", "entanglement"]
        for channel, (summary, _, detail, _) in cli._FIGURE2_TABLES.items():
            rows, series, seconds = channels[channel]
            assert seconds >= 0.0
            for name, table in ((summary, rows), (detail, series)):
                header, *lines = (out / f"{name}.csv").read_text().splitlines()
                assert lines == csv_lines(table, header)

    @pytest.mark.parametrize("n, b", [
        *((13, round(0.1 * i, 10)) for i in range(21)),  # the sweep's ring and grid
        (13, -1.5),  # the chosen sector has no gauge: the tie check runs
        (14, 1.0),  # a tie across sectors, one of them without a gauge
    ])
    def test_ground_state_decides_as_the_full_sector_solves(self, n, b):
        # every sector solved in full by its level stream, under the same
        # tie rule, with the in-sector tie check always run
        spec = ts.cluster_hamiltonian(n, b)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            energy, state = ts.ground_state(spec)
        kinds = [kind for w in caught if issubclass(w.category, ts.DegenerateGroundStateWarning)
                 for kind in ("across", "inside") if kind in str(w.message)]
        op = spec.operator()
        shift = spin_core._deflation_shift(spec)
        streams = [spin_core._lanczos_levels(op, s, 7, shift) for s in range(len(op.diags))]
        lows, vectors = zip(*(next(stream) for stream in streams))
        lows = np.array(lows)
        tied = np.flatnonzero(lows - lows.min() < spin_core.DEGENERACY_TOL)
        first = int(tied[0])
        if tied.size > 1:
            expected = ["across"]
        else:
            second = next(streams[first])[0]
            expected = ["inside"] if second - lows[first] < spin_core.DEGENERACY_TOL else []
        assert kinds == expected
        assert abs(energy - lows[first]) < 1e-12
        overlap = np.vdot(vectors[first](), state.amplitudes[op.ring.bases[first]])
        assert abs(overlap) >= 1 - 1e-12

    def test_rows_do_not_depend_on_the_seed(self):
        # B = 0.2 also solves the sector without a gauge in full, from the seed
        fields = cli._parse_grid("0.2:1.8:0.8")
        runs = [localizable.length_sweep(fields, 13, seed, None)[0] for seed in (7, 8)]
        for channel, (rows, series, _) in runs[0].items():
            assert (rows, series) == runs[1][channel][:2]

    def test_typed_failure_keeps_the_other_field(self, small_run, monkeypatch):
        _, out = small_run
        real = localizable.ground_state

        def stalls_at_half(spec, **kwargs):
            if spec.terms[-1].coeff == 0.5:
                raise ConvergenceError("Lanczos stalled")
            return real(spec, **kwargs)

        monkeypatch.setattr(localizable, "ground_state", stalls_at_half)
        channels, failures = localizable.length_sweep([0.5, 1.5], 13, 7, None)
        assert failures == ["entanglement B=0.5: Lanczos stalled"]
        assert [row[0] for row in channels["correlation"][0]] == [0.5, 1.5]
        # the field that solved keeps the rows of the unpatched sweep
        rows, series, _ = channels["entanglement"]
        for name, table in (("entanglement_length", rows), ("e_loc_series", series)):
            header, *lines = (out / f"{name}.csv").read_text().splitlines()
            assert csv_lines(table, header) == [line for line in lines if line.startswith("1.5,")]
