"""CLI subcommands through their public entry point: formats, exit codes,
byte-level determinism."""

import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from infoprice.agents import solve_all
from infoprice.model import PostFirstJumpSignalStream, read_params_file
from infoprice.pricing import Conditioning, closed_form_price
from infoprice.quadrature import gauss_hermite

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

# a high-R set where h grows like A1: the signal solve's worst absolute
# residual is 4.1e3, 5e-16 relative to h^(1-1/R)/(1-1/R)
HIGH_R_CFG = """\
mu = 0.1270673046847357
r = 0.00739712928934916
sigma = 0.17318180733154498
lambda = 0.016612602479615345
m = 0.21511492773220176
v = 0.11747940284765565
rho = 0.0957948598030497
R = 13.181676671264952
v_eps = 0.007614546902582018
"""

# solve reads only the solver's flags; price and compare read them all
SOLVER_FAST = ["--grid-size", "61", "--rule-order", "32"]
FAST = ["--paths", "2000", "--dt", "0.1", *SOLVER_FAST]


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "canon.cfg"
    path.write_text(CANON_CFG)
    return str(path)


@pytest.fixture(scope="module")
def noiseless_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "noiseless.cfg"
    path.write_text(CANON_CFG.replace("v_eps = 0.02", "v_eps = 0"))
    return str(path)


def run_cli(*args, env=None):
    proc = subprocess.run([sys.executable, "-m", "infoprice.cli", *args],
                          capture_output=True, text=True, timeout=600,
                          env=None if env is None else {**os.environ, **env})
    return proc.returncode, proc.stdout, proc.stderr


def leaves(obj, prefix=""):
    """(path, value) of every leaf of a JSON report: dict keys in sorted
    order, list entries by index, joined with dots."""
    if not isinstance(obj, (dict, list)):
        return [(prefix[:-1], obj)]
    keys = sorted(obj) if isinstance(obj, dict) else range(len(obj))
    return [leaf for k in keys for leaf in leaves(obj[k], f"{prefix}{k}.")]


class TestTableFormat:
    """The table format prints the JSON report's leaves, one `path<TAB>value`
    line each, floats by repr; reports with lists of records and nested
    lists go through the same writer."""

    @pytest.mark.parametrize("cmd,args,line", [
        ("price", ("--stream", "constant:1", "--regime", "all", "--horizon", "5"),
         "prices.0.regime\tmerton\n"),
        ("price", ("--stream", "exp_until_jump", "--regime", "all", "--t1", "2.0",
                   "--horizon", "3"), "prices.1.conditioning.t1\t2.0\n"),
        ("compare", ("--stream", "exp_until_jump"), "rows.0.regime\tmerton\n"),
        ("compare", ("--stream", "post_jump_signal:tanh", "--horizon", "5",
                     "--with-mc"), "rows.0.mc_mean\tNone\n"),
    ], ids=["price-all", "price-all-t1", "compare", "compare-with-mc"])
    def test_table_lists_the_json_leaves(self, cfg_path, cmd, args, line):
        code, out, err = run_cli(cmd, "--config", cfg_path, *args, *FAST)
        assert (code, err) == (0, "")
        want = "".join(f"{k}\t{v!r}\n" if isinstance(v, float) else f"{k}\t{v}\n"
                       for k, v in leaves(json.loads(out)))
        assert run_cli(cmd, "--config", cfg_path, *args, *FAST,
                       "--format", "table") == (0, want, "")
        assert line in want

    def test_gated_signal_solve_reports_null(self, noiseless_cfg):
        # v_eps = 0 gates the signal insider: solve reports the others
        code, out, err = run_cli("solve", "--config", noiseless_cfg, *SOLVER_FAST)
        assert (code, err) == (0, "")
        assert json.loads(out)["signal"] is None
        code, out, err = run_cli("solve", "--config", noiseless_cfg, *SOLVER_FAST,
                                 "--format", "table")
        assert (code, err) == (0, "")
        assert "\nsignal\tNone\ntiming.A2\t" in out


class TestSolve:
    def test_solve_json(self, cfg_path):
        code, out, err = run_cli("solve", "--config", cfg_path, *SOLVER_FAST)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["uninformed"]["q_bar1"] == pytest.approx(0.30547, abs=2e-4)
        assert payload["timing"]["a_star"] == 0.0
        assert payload["signal"]["A3"] <= payload["uninformed"]["A1"]
        assert payload["merton"]["merton_fraction"] == pytest.approx(0.625)

    def test_solve_table_format(self, cfg_path):
        code, out, _ = run_cli("solve", "--config", cfg_path, *SOLVER_FAST,
                               "--format", "table")
        assert code == 0
        assert "uninformed.q_bar1\t" in out

    def test_solve_deterministic_bytes(self, cfg_path):
        a = run_cli("solve", "--config", cfg_path, *SOLVER_FAST)
        b = run_cli("solve", "--config", cfg_path, *SOLVER_FAST)
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

    @pytest.mark.parametrize("pin,regime", [(("--t1", "2.0"), "timing"),
                                            (("--eta0", "0.1"), "signal")])
    def test_all_pins_only_its_regime(self, cfg_path, pin, regime):
        # --regime all applies a pin to the regime it conditions and prices
        # the others unpinned, each row as its own single-regime run
        args = ("price", "--config", cfg_path, "--stream", "exp_until_jump",
                "--horizon", "3", *FAST)
        code, out, err = run_cli(*args, "--regime", "all", *pin)
        assert code == 0, err
        payload = json.loads(out)
        records = payload["records"]
        assert {r["regime"] for r in records} == {"uninformed", "timing", "signal"}
        value = float(pin[1])
        for r in records + payload["prices"]:
            want = None
            if r["regime"] == regime:
                want = {"t1": value if pin[0] == "--t1" else None,
                        "eta0": value if pin[0] == "--eta0" else None}
            assert r["conditioning"] == want
        for single in ("uninformed", regime):
            code, one, err = run_cli(*args, "--regime", single,
                                     *(pin if single == regime else ()))
            assert code == 0, err
            assert json.loads(one)["records"] == [
                r for r in records if r["regime"] == single]

    @pytest.mark.parametrize("regime,pin", [("uninformed", ("--t1", "2.0")),
                                            ("signal", ("--t1", "2.0")),
                                            ("merton", ("--eta0", "0.1")),
                                            ("timing", ("--eta0", "0.1"))])
    def test_single_regime_rejects_a_pin_for_another(self, cfg_path, regime, pin):
        code, out, err = run_cli("price", "--config", cfg_path, "--stream",
                                 "constant:1", "--regime", regime, *pin,
                                 "--horizon", "3", *FAST)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ") and "only meaningful" in err

    def test_forked_pool_with_a_lambda_psi(self, cfg_path):
        # post_jump_signal:one's psi is a lambda; at >= 4096 paths and two
        # workers the forked pool runs it without pickling
        args = ("price", "--config", cfg_path, "--stream", "post_jump_signal:one",
                "--regime", "uninformed", "--paths", "5000", "--dt", "0.5",
                "--horizon", "10")
        code, out, err = run_cli(*args, env={"INFOPRICE_WORKERS": "2"})
        assert code == 0, err
        assert (code, out, err) == run_cli(*args, env={"INFOPRICE_WORKERS": "1"})

    def test_psi_table_stream(self, cfg_path, tmp_path):
        table = tmp_path / "psi.tsv"
        table.write_text("-1.0 0.0\n0.0 0.5\n1.0 1.0\n")
        code, out, err = run_cli(
            "price", "--config", cfg_path, "--stream",
            f"post_jump_signal:pwl@{table}", "--regime", "uninformed",
            "--horizon", "20", *FAST)
        assert code == 0, err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_psi_table_not_finite_exits_2(self, cfg_path, tmp_path, bad):
        table = tmp_path / "psi.tsv"
        table.write_text(f"-1.0 0.0\n0.0 {bad}\n1.0 1.0\n")
        code, out, err = run_cli(
            "price", "--config", cfg_path, "--stream",
            f"post_jump_signal:pwl@{table}", "--regime", "uninformed",
            "--horizon", "20", *FAST)
        assert (code, out) == (2, "")
        assert err == (f"config error: psi table {str(table)!r} has entries "
                       "that are not finite\n")


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

    @pytest.mark.parametrize("spec,psi,breaks", [
        ("post_jump_signal:indicator_pos",
         lambda x: (np.asarray(x) > 0.0).astype(float), (0.0,)),
        ("post_jump_signal:pwl@{}",
         lambda x: np.interp(x, (-0.3, 0.0, 0.1, 0.4), (-1.0, 0.2, 0.9, 0.5)),
         (-0.3, 0.0, 0.1, 0.4)),
    ], ids=["indicator_pos", "kinked-table"])
    def test_psi_breaks_reach_the_closed_forms(self, cfg_path, tmp_path, spec, psi,
                                               breaks):
        # every closed form of the report is the library's for the stream
        # with its breaks declared: the step at 0, the table's knots
        table = tmp_path / "kinked.tsv"
        table.write_text("-0.3 -1.0\n0.0 0.2\n0.1 0.9\n0.4 0.5\n")
        code, out, err = run_cli("compare", "--config", cfg_path, "--stream",
                                 spec.format(table), *SOLVER_FAST)
        assert code == 0, err
        p = read_params_file(cfg_path)
        rule = gauss_hermite(32)
        sols = solve_all(p, rule, 61)
        stream = PostFirstJumpSignalStream(psi=psi, psi_bound=1.0, psi_breaks=breaks)
        smooth = PostFirstJumpSignalStream(psi=psi, psi_bound=1.0)
        for row in json.loads(out)["rows"]:
            if row["regime"] == "merton":
                continue
            cond = Conditioning(eta0=row["eta0"])
            want = closed_form_price(stream, row["regime"], p, sols, cond, rule)
            assert row["closed_form"] == pytest.approx(want, rel=1e-13, abs=1e-15)
            if cond.eta0 is None:   # the breaks move every unconditional price
                assert want != closed_form_price(smooth, row["regime"], p, sols,
                                                 cond, rule)

    def test_psi_table_stream_label(self, cfg_path, tmp_path):
        table = tmp_path / "psi.tsv"
        table.write_text("-1.0 0.0\n0.0 0.5\n1.0 1.0\n")
        code, out, err = run_cli("compare", "--config", cfg_path, "--stream",
                                 f"post_jump_signal:pwl@{table}", *FAST)
        assert code == 0, err
        assert json.loads(out)["stream"] == f"post_jump_signal:pwl@{table}"


class TestStreamLabel:
    def test_price_and_compare_report_the_stream_label(self, cfg_path):
        # the level as typed is not the label: both commands print constant:1
        code, out, err = run_cli("price", "--config", cfg_path, "--stream",
                                 "constant:1.0", "--regime", "merton",
                                 "--horizon", "5", *FAST)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["stream"] == "constant:1"
        assert {row["stream"] for row in payload["records"]} == {"constant:1"}
        code, out, err = run_cli("compare", "--config", cfg_path, "--stream",
                                 "constant:1.0", *FAST)
        assert code == 0, err
        assert json.loads(out)["stream"] == "constant:1"


class TestValidate:
    def test_validate_passes(self, cfg_path):
        code, out, err = run_cli("validate", "--config", cfg_path,
                                 "--paths", "4000", "--grid-size", "61")
        assert code == 0, out + err
        assert "PASS\toverall" in out
        assert "FAIL" not in out

    def test_signal_residual_is_relative(self, tmp_path):
        # the absolute residual of this set is 4.1e3; relative to
        # h^(1-1/R)/(1-1/R) it passes. The Monte Carlo price check still
        # fails here: the uninformed deflator's heavy right tail at R 13
        cfg = tmp_path / "high_r.cfg"
        cfg.write_text(HIGH_R_CFG)
        code, out, err = run_cli("validate", "--config", str(cfg), "--paths", "2000")
        assert (code, err) == (1, "")
        lines = out.splitlines()
        line, = [line for line in lines if "\tsignal.residual\t" in line]
        assert re.fullmatch(r"PASS\tsignal\.residual\tmax relative pointwise "
                            r"residual \S+", line)
        assert float(line.split()[-1]) < 1e-14
        assert [line.split("\t")[1] for line in lines if line.startswith("FAIL")] \
            == ["price.constant_uninformed", "overall"]

    def test_timing_fixed_point_prints_the_relative_residual(self, tmp_path):
        # f0 is about 5e19 here: the line prints the residual it checks,
        # relative to max(1, f0), not the absolute one (about 5e4)
        cfg = tmp_path / "high_r.cfg"
        cfg.write_text(HIGH_R_CFG)
        code, out, err = run_cli("validate", "--config", str(cfg), "--paths", "2000")
        assert (code, err) == (1, "")
        line, = [line for line in out.splitlines() if "\ttiming.fixed_point\t" in line]
        assert re.fullmatch(r"PASS\ttiming\.fixed_point\t\|f0 - g\(a\*\) A2\| "
                            r"/ max\(1, f0\) = \S+", line)
        assert float(line.split()[-1]) < 1e-9

    @pytest.mark.parametrize("paths", ["1", "0"])
    def test_fewer_than_two_paths_is_a_usage_error(self, cfg_path, paths):
        # one path has no standard error: the checks would compare against
        # nan and fail on a correct program
        code, out, err = run_cli("validate", "--config", cfg_path, "--paths", paths)
        assert (code, out) == (2, "")
        assert err == f"usage error: --paths must be >= 2 for validate, got {paths}\n"

    def test_noiseless_signal_fails_the_gate(self, noiseless_cfg):
        # the gate is one check, v_eps > 0 included; the rest still pass
        code, out, err = run_cli("validate", "--config", noiseless_cfg,
                                 "--paths", "4000", "--grid-size", "61")
        assert code == 1, out + err
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert failed[0].startswith("FAIL\tparams.signal_regime_gate\t")
        assert failed[0].endswith("v_eps=0")
        assert failed[1].startswith("FAIL\toverall\t")
        assert len(failed) == 2


class TestNoiselessSignal:
    """v_eps = 0 gates only the signal insider: every other regime prices."""

    def test_compare_post_jump_stream(self, noiseless_cfg):
        code, out, err = run_cli("compare", "--config", noiseless_cfg, "--stream",
                                 "post_jump_signal:tanh", "--horizon", "10",
                                 "--with-mc", *FAST)
        assert code == 0, err
        payload = json.loads(out)
        rows = {r["regime"]: r for r in payload["rows"]}
        assert set(rows) == {"merton", "uninformed", "timing"}
        assert math.isnan(payload["signal_information_value"])
        for regime in ("uninformed", "timing"):
            row = rows[regime]
            assert abs(row["mc_mean"] - row["closed_form"]) <= \
                3 * row["mc_std_error"] + math.exp(-10.0)

    def test_price_uninformed_post_jump_stream(self, noiseless_cfg):
        code, out, err = run_cli("price", "--config", noiseless_cfg, "--stream",
                                 "post_jump_signal:tanh", "--regime", "uninformed",
                                 "--horizon", "10", *FAST)
        assert code == 0, err
        entry, = json.loads(out)["prices"]
        mc = entry["mc"]
        assert abs(mc["mean"] - entry["closed_form"]) <= \
            3 * mc["std_error"] + mc["truncation_bound"]

    def test_price_signal_reports_the_gate(self, noiseless_cfg):
        # the gated regime fails with the gate's own message, as validate says
        code, out, err = run_cli("price", "--config", noiseless_cfg, "--stream",
                                 "constant:1", "--regime", "signal", "--horizon", "5",
                                 *FAST)
        assert (code, out) == (1, "")
        assert err.startswith("domain error: signal-insider solve needs R > 1")
        assert err.endswith("v_eps=0\n")


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
    """No command loads scipy."""

    def test_import_loads_no_scipy(self):
        assert scipy_modules_after("0") == [0, []]

    def test_price_uninformed_loads_no_scipy(self, cfg_path):
        call = (f'cli.main(["price", "--stream", "constant:1", "--regime", '
                f'"uninformed", "--paths", "64", "--horizon", "5", "--dt", '
                f'"0.1", "--config", {cfg_path!r}, "--out", os.devnull])')
        assert scipy_modules_after(call) == [0, []]

    def test_solve_loads_no_scipy(self, cfg_path):
        call = (f'cli.main(["solve", "--config", {cfg_path!r}, '
                f'"--out", os.devnull])')
        assert scipy_modules_after(call) == [0, []]

    def test_compare_exp_until_jump_loads_no_scipy(self, cfg_path):
        call = (f'cli.main(["compare", "--stream", "exp_until_jump", '
                f'"--config", {cfg_path!r}, "--out", os.devnull])')
        assert scipy_modules_after(call) == [0, []]


# flags that solve and validate do not read ({} is a file path)
UNREAD_FLAGS = [("solve", "--paths", "10"), ("solve", "--horizon", "5"),
                ("solve", "--dt", "0.1"), ("solve", "--seed", "1"),
                ("validate", "--horizon", "5"), ("validate", "--dt", "0.1"),
                ("validate", "--out", "{}"), ("validate", "--format", "table")]


class TestErrorPaths:
    def test_bad_sigma_exits_1(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(CANON_CFG.replace("sigma = 0.20", "sigma = 0"))
        code, _, err = run_cli("solve", "--config", str(bad), *SOLVER_FAST)
        assert code == 1
        assert "sigma" in err

    def test_unknown_stream_exits_2(self, cfg_path):
        code, _, err = run_cli("price", "--config", cfg_path,
                               "--stream", "bogus:1", "--regime", "uninformed")
        assert code == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        bad = tmp_path / "bad2.cfg"
        bad.write_text(CANON_CFG + "extra = 1\n")
        code, _, err = run_cli("solve", "--config", str(bad), *SOLVER_FAST)
        assert code == 2
        assert "unknown key" in err

    def test_config_line_without_equals_exits_2(self, tmp_path):
        bad = tmp_path / "bad3.cfg"
        bad.write_text(CANON_CFG + "bogus line\n")
        assert run_cli("solve", "--config", str(bad), *SOLVER_FAST) == (
            2, "", f"config error: {bad}:10: expected 'key = value', "
                   "got 'bogus line'\n")

    @pytest.mark.parametrize("spec,table,err", [
        ("constant:x", None, "bad constant level 'x'"),
        ("constant:nan", None, "bad constant level 'nan'"),
        ("constant:inf", None, "bad constant level 'inf'"),
        ("post_jump_signal:nope", None,
         "unknown psi 'nope'; known: indicator_pos, one, tanh or pwl@FILE"),
        ("post_jump_signal:pwl@{}", "1.0\n2.0\n3.0\n",
         "psi table must have two columns and at least two rows"),
        ("post_jump_signal:pwl@{}", "1.0 0.0\n0.0 0.5\n",
         "psi table abscissae must be strictly increasing"),
    ], ids=["constant", "constant-nan", "constant-inf", "psi-name", "psi-one-column",
            "psi-decreasing"])
    def test_bad_stream_spec_exits_2(self, cfg_path, tmp_path, spec, table, err):
        path = tmp_path / "psi.tsv"
        if table is not None:
            path.write_text(table)
        assert run_cli("price", "--config", cfg_path, "--stream", spec.format(path),
                       "--regime", "uninformed", "--horizon", "5", *FAST) == (
            2, "", f"config error: {err}\n")

    def test_unreadable_psi_table_exits_2(self, cfg_path, tmp_path):
        path = str(tmp_path / "missing.tsv")
        with pytest.raises(OSError) as exc:     # the reader's own message
            np.loadtxt(path)
        assert run_cli("price", "--config", cfg_path, "--stream",
                       f"post_jump_signal:pwl@{path}", "--regime", "uninformed",
                       "--horizon", "5", *FAST) == (
            2, "", f"config error: cannot read psi table {path!r}: {exc.value}\n")

    def test_missing_config_exits_2(self):
        code, _, _ = run_cli("solve", "--config", "/nonexistent.cfg")
        assert code == 2

    def test_bad_flag_exits_2(self, cfg_path):
        code, _, _ = run_cli("price", "--config", cfg_path,
                             "--stream", "constant:1", "--regime", "nope")
        assert code == 2

    @pytest.mark.parametrize("pin", [("--eta0", "nan"), ("--eta0", "inf"),
                                     ("--eta0", "-inf"), ("--t1", "inf")])
    def test_non_finite_pin_exits_2(self, cfg_path, pin):
        regime = "signal" if pin[0] == "--eta0" else "timing"
        code, out, err = run_cli("price", "--config", cfg_path, "--stream",
                                 "exp_until_jump", "--regime", regime,
                                 "=".join(pin), "--horizon", "3", *FAST)
        assert (code, out) == (2, "")
        name = pin[0][2:]
        assert err == f"usage error: {name} must be finite" + (
            " and > 0" if name == "t1" else "") + f", got {float(pin[1])}\n"


    @pytest.mark.parametrize("cmd,flag,value", UNREAD_FLAGS,
                             ids=[f"{cmd}{flag}" for cmd, flag, _ in UNREAD_FLAGS])
    def test_flag_the_command_does_not_read_exits_2(self, cfg_path, tmp_path, cmd,
                                                   flag, value):
        dest = tmp_path / "report"
        code, out, err = run_cli(cmd, "--config", cfg_path, flag, value.format(dest))
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {flag} " in err
        assert not dest.exists()

    @pytest.mark.parametrize("flag", [("--horizon", "inf"), ("--seed", "-1"),
                                      ("--seed", str(2**64))])
    def test_bad_horizon_or_seed_exits_2(self, cfg_path, flag):
        code, out, err = run_cli("price", "--config", cfg_path, "--stream",
                                 "constant:1", "--paths", "100", "--horizon", "2",
                                 *flag)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage error: {flag[0][2:]} must be ")

    @pytest.mark.parametrize("cmd,args,err", [
        ("price", ("--config", "/nonexistent.cfg", "--stream", "bogus"),
         "config error: cannot read config file '/nonexistent.cfg'"),
        ("price", ("--stream", "bogus", "--t1", "inf"),
         "config error: unknown stream kind 'bogus'\n"),
        ("compare", ("--stream", "bogus"), "config error: unknown stream kind 'bogus'\n"),
        ("price", ("--stream", "constant:1", "--t1", "inf"),
         "usage error: t1 must be finite and > 0, got inf\n"),
        ("solve", (), "usage error: order must be in [1, 200], got 0\n"),
    ], ids=["config", "stream", "compare-stream", "pin", "rule"])
    def test_first_bad_input_is_reported(self, cfg_path, cmd, args, err):
        # the config, the stream, the pin and then the rule are checked, so
        # with --rule-order 0 as well the first bad input is the one reported
        code, out, got = run_cli(cmd, "--config", cfg_path, *args,
                                 "--rule-order", "0")
        assert (code, out) == (2, "")
        assert got.startswith(err)


class TestNonFiniteParams:
    @pytest.mark.parametrize("key,value", [("mu", "nan"), ("mu", "inf"),
                                           ("m", "nan"), ("m", "-inf")])
    def test_solve_and_price_exit_1(self, tmp_path, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", CANON_CFG,
                              flags=re.M))
        for args in (("solve", *SOLVER_FAST),
                     ("price", "--stream", "constant:1", "--regime", "uninformed",
                      "--horizon", "5", *FAST)):
            code, out, err = run_cli(*args, "--config", str(cfg))
            assert (code, out) == (1, "")
            assert err == ("domain error: all_finite: every parameter must be "
                           f"finite; not finite: {key}\n")

    def test_validate_flags_it(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CANON_CFG.replace("mu = 0.10", "mu = nan"))
        code, out, _ = run_cli("validate", "--config", str(cfg))
        lines = out.splitlines()
        assert code == 1
        assert lines[0] == ("FAIL\tparams.all_finite\tevery parameter must be "
                            "finite; not finite: mu")
        # a hard failure stops validate before the solver checks
        assert all(line.split("\t")[1].startswith("params.")
                   for line in lines[:-1])
        assert lines[-1].startswith("FAIL\toverall\t")
