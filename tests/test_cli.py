"""CLI subcommands through their public entry point: formats, exit codes,
byte-level determinism."""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

CANON_CFG = """\
mu = 0.10
r = 0.05
sigma = 0.20
lambda = 0.5
m = -0.05
v = 0.01
rho = 0.10
R = 2
v_eps = 0.02
"""

FAST = ["--paths", "2000", "--dt", "0.1", "--grid-size", "61",
        "--rule-order", "32"]


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "canon.cfg"
    path.write_text(CANON_CFG)
    return str(path)


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "infoprice.cli", *args],
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


class TestSolve:
    def test_solve_json(self, cfg_path):
        code, out, err = run_cli("solve", "--config", cfg_path, *FAST)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["uninformed"]["q_bar1"] == pytest.approx(0.30547, abs=2e-4)
        assert payload["timing"]["a_star"] == 0.0
        assert payload["signal"]["A3"] <= payload["uninformed"]["A1"]
        assert payload["merton"]["merton_fraction"] == pytest.approx(0.625)

    def test_solve_table_format(self, cfg_path):
        code, out, _ = run_cli("solve", "--config", cfg_path, *FAST,
                               "--format", "table")
        assert code == 0
        assert "uninformed.q_bar1\t" in out

    def test_solve_deterministic_bytes(self, cfg_path):
        a = run_cli("solve", "--config", cfg_path, *FAST)
        b = run_cli("solve", "--config", cfg_path, *FAST)
        assert a == b


class TestPrice:
    def test_constant_uninformed(self, cfg_path):
        code, out, err = run_cli(
            "price", "--config", cfg_path, "--stream", "constant:1",
            "--regime", "uninformed", "--horizon", "60", *FAST)
        assert code == 0, err
        payload = json.loads(out)
        entry = payload["prices"][0]
        assert entry["closed_form"] == 20.0
        tol = 3 * entry["mc"]["std_error"] + entry["mc"]["truncation_bound"]
        assert abs(entry["mc"]["mean"] - 20.0) <= tol + 0.2

    def test_price_deterministic_bytes(self, cfg_path):
        args = ("price", "--config", cfg_path, "--stream", "exp_until_jump",
                "--regime", "timing", "--t1", "2.0", "--horizon", "3", *FAST)
        assert run_cli(*args) == run_cli(*args)

    def test_conditional_signal(self, cfg_path):
        code, out, err = run_cli(
            "price", "--config", cfg_path, "--stream", "exp_until_jump",
            "--regime", "signal", "--eta0", "-0.05", "--horizon", "20", *FAST)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["prices"][0]["closed_form"] == pytest.approx(1.9546, abs=5e-3)

    def test_out_file(self, cfg_path, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run_cli(
            "price", "--config", cfg_path, "--stream", "constant:1",
            "--regime", "merton", "--horizon", "40", *FAST, "--out", str(dest))
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["prices"][0]["closed_form"] == 20.0

    def test_unpriced_regime_is_not_solved(self, tmp_path):
        # at m = 0.05 the timing insider's jump exposure is a* = 1, which its
        # solve rejects; pricing the uninformed agent must not solve it
        cfg = tmp_path / "m005.cfg"
        cfg.write_text(CANON_CFG.replace("m = -0.05", "m = 0.05"))
        args = ("price", "--config", str(cfg), "--stream", "constant:1",
                "--horizon", "60", *FAST)
        code, out, err = run_cli(*args, "--regime", "uninformed")
        assert code == 0, err
        mc = json.loads(out)["prices"][0]["mc"]
        target = -math.expm1(-0.05 * 60.0) / 0.05      # (1 - e^(-rH))/r
        assert abs(mc["mean"] - target) <= 4 * mc["std_error"]
        for regime in ("timing", "all"):
            code, _, err = run_cli(*args, "--regime", regime)
            assert code == 1
            assert err == ("domain error: jump exposure a*=1 is at the upper "
                           "boundary; the renewal construction requires a* < 1\n")

    def test_all_skips_gated_regimes(self, cfg_path):
        # merton has no jump to key exp_until_jump on; --regime all prices
        # the other regimes, while --regime merton alone still fails
        args = ("price", "--config", cfg_path, "--stream", "exp_until_jump",
                "--horizon", "3", *FAST)
        code, out, err = run_cli(*args, "--regime", "all")
        assert code == 0, err
        payload = json.loads(out)
        assert [e["regime"] for e in payload["prices"]] == [
            "uninformed", "timing", "signal"]
        assert {r["regime"] for r in payload["records"]} == {
            "uninformed", "timing", "signal"}
        code, out, err = run_cli(*args, "--regime", "merton")
        assert (code, out) == (1, "")
        assert err == ("domain error: the merton benchmark has no jump to key "
                       "this stream on\n")

    def test_psi_table_stream(self, cfg_path, tmp_path):
        table = tmp_path / "psi.tsv"
        table.write_text("-1.0 0.0\n0.0 0.5\n1.0 1.0\n")
        code, out, err = run_cli(
            "price", "--config", cfg_path, "--stream",
            f"post_jump_signal:pwl@{table}", "--regime", "uninformed",
            "--horizon", "20", *FAST)
        assert code == 0, err


class TestCompare:
    def test_exp_until_jump_table(self, cfg_path):
        code, out, err = run_cli("compare", "--config", cfg_path,
                                 "--stream", "exp_until_jump", *FAST)
        assert code == 0, err
        payload = json.loads(out)
        regimes = {row["regime"] for row in payload["rows"]}
        assert {"uninformed", "timing", "signal"} <= regimes
        timing_row = next(r for r in payload["rows"] if r["regime"] == "timing")
        assert timing_row["closed_form"] == pytest.approx(2.0)
        assert len(payload["signal_conditional_values"]) == 3

    def test_post_jump_signal_closed_forms(self, cfg_path):
        code, out, err = run_cli("compare", "--config", cfg_path,
                                 "--stream", "post_jump_signal:tanh", *FAST)
        assert code == 0, err
        payload = json.loads(out)
        timing_row = next(r for r in payload["rows"] if r["regime"] == "timing")
        assert timing_row["closed_form"] is not None
        assert timing_row["mc_mean"] is None


class TestValidate:
    def test_validate_passes(self, cfg_path):
        code, out, err = run_cli("validate", "--config", cfg_path,
                                 "--paths", "4000", "--grid-size", "61")
        assert code == 0, out + err
        assert "PASS\toverall" in out
        assert "FAIL" not in out


SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
PROBE = """
import json, os, sys
from infoprice import cli
code = {call}
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def scipy_modules_after(call):
    """Exit code of `call` in a fresh interpreter and the scipy modules it
    left loaded."""
    proc = subprocess.run([sys.executable, "-c", PROBE.format(call=call)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestColdStart:
    """scipy is loaded only by the timing insider's solve."""

    def test_import_loads_no_scipy(self):
        assert scipy_modules_after("0") == [0, []]

    def test_price_uninformed_loads_no_scipy(self, cfg_path):
        call = (f'cli.main(["price", "--stream", "constant:1", "--regime", '
                f'"uninformed", "--paths", "64", "--horizon", "5", "--dt", '
                f'"0.1", "--config", {cfg_path!r}, "--out", os.devnull])')
        assert scipy_modules_after(call) == [0, []]

    def test_solve_loads_scipy_special(self, cfg_path):
        call = (f'cli.main(["solve", "--config", {cfg_path!r}, '
                f'"--out", os.devnull])')
        code, modules = scipy_modules_after(call)
        assert code == 0
        assert "scipy.special" in modules


class TestErrorPaths:
    def test_bad_sigma_exits_1(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(CANON_CFG.replace("sigma = 0.20", "sigma = 0"))
        code, _, err = run_cli("solve", "--config", str(bad), *FAST)
        assert code == 1
        assert "sigma" in err

    def test_unknown_stream_exits_2(self, cfg_path):
        code, _, err = run_cli("price", "--config", cfg_path,
                               "--stream", "bogus:1", "--regime", "uninformed")
        assert code == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        bad = tmp_path / "bad2.cfg"
        bad.write_text(CANON_CFG + "extra = 1\n")
        code, _, err = run_cli("solve", "--config", str(bad), *FAST)
        assert code == 2
        assert "unknown key" in err

    def test_missing_config_exits_2(self):
        code, _, _ = run_cli("solve", "--config", "/nonexistent.cfg")
        assert code == 2

    def test_bad_flag_exits_2(self, cfg_path):
        code, _, _ = run_cli("price", "--config", cfg_path,
                             "--stream", "constant:1", "--regime", "nope")
        assert code == 2
