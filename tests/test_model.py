"""Parameter validation, stream constructors, and the config-file interface."""

import dataclasses
import math

import numpy as np
import pytest

from infoprice.errors import ConfigError, StreamGuardError
from infoprice.model import (
    CONFIG_KEYS,
    ConstantStream,
    ExpUntilFirstJumpStream,
    ModelParams,
    PostFirstJumpSignalStream,
    read_params_file,
    require_valid_params,
    validate_params,
    write_params_file,
)


def with_fields(p, **kw):
    return dataclasses.replace(p, **kw)


class TestValidateParams:
    def test_canon_passes(self, canon):
        report = validate_params(canon)
        assert report.overall
        # the signal gate quantity evaluates to 0.625 inside (0, 1)
        assert canon.merton_fraction == pytest.approx(0.625)
        assert canon.rho >= (1 - canon.R) * canon.r

    def test_sigma_zero_fails_no_arbitrage(self, canon):
        report = validate_params(with_fields(canon, sigma=0.0))
        assert not report.overall
        assert any(f.name == "no_arbitrage_sigma" and not f.passed
                   for f in report.flags)

    def test_r_equal_one_fails_utility(self, canon):
        report = validate_params(with_fields(canon, R=1.0))
        assert not report.overall
        assert any(f.name == "utility_R" and not f.passed for f in report.flags)

    def test_finiteness_condition_checked_for_high_risk_aversion(self, canon):
        bad = with_fields(canon, R=3.0, rho=-0.2)
        report = validate_params(bad)
        assert any(not f.passed for f in report.flags)

    def test_deterministic(self, canon):
        assert validate_params(canon) == validate_params(canon)

    def test_overall_is_conjunction(self, canon):
        report = validate_params(with_fields(canon, sigma=0.0, R=1.0))
        assert report.overall == all(f.passed for f in report.flags)
        assert len(report.failures()) >= 2

    def test_config_keys_follow_field_order(self):
        # reports pair CONFIG_KEYS with the fields of ModelParams in order
        fields = [f.name for f in dataclasses.fields(ModelParams)]
        assert [k.replace("lambda", "lam") for k in CONFIG_KEYS] == fields

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fails_one_flag(self, canon, value):
        report = validate_params(with_fields(canon, mu=value))
        assert [f.name for f in report.failures() if f.name != "signal_regime_gate"] \
            == ["all_finite"]
        assert report.flags[0].message.endswith("; not finite: mu")

    def test_noiseless_signal_fails_only_the_gate(self, canon):
        # v_eps = 0 is admissible, but the signal insider needs noisy signals
        failures = validate_params(with_fields(canon, v_eps=0.0)).failures()
        assert [f.name for f in failures] == ["signal_regime_gate"]
        assert "v_eps > 0" in failures[0].message
        assert failures[0].message.endswith("v_eps=0")

    @pytest.mark.parametrize("fields", [{}, {"R": 0.8}, {"v_eps": 0.0}, {"mu": math.nan}])
    def test_only_the_signal_gate_is_not_hard(self, canon, fields):
        # every other check gates the solvers; the gate rules out one regime
        flags = validate_params(with_fields(canon, **fields)).flags
        assert [f.name for f in flags if not f.hard] == ["signal_regime_gate"]

    def test_require_valid_params_returns_the_report(self, canon):
        # the signal solver reads its gate from this report
        assert require_valid_params(canon) == validate_params(canon)
        failures = require_valid_params(with_fields(canon, R=0.8)).failures()
        assert [f.name for f in failures] == ["signal_regime_gate"]


class TestStreamGuard:
    def test_constant_rejects_non_finite_level(self):
        with pytest.raises(StreamGuardError):
            ConstantStream(math.inf)

    def test_psi_bound_must_be_finite(self):
        with pytest.raises(StreamGuardError):
            PostFirstJumpSignalStream(psi=math.tanh, psi_bound=math.nan)


class TestStreamValues:
    # e_t at times t after `jumps` jumps; psi0 is each path's psi(eta_0)
    t, jumps = np.array([0.5, 1.0, 2.0]), np.array([0, 1, 2])
    psi0 = np.array([0.3, -0.2, 0.1])

    def test_constant(self):
        e = ConstantStream(2.5)
        assert not e.jump_keyed
        assert e.values(0.05, self.t, None, self.psi0) == 2.5

    def test_exp_until_jump(self):
        e = ExpUntilFirstJumpStream()
        assert e.jump_keyed
        got = e.values(0.05, self.t, self.jumps, self.psi0)
        assert got.tolist() == pytest.approx([math.exp(0.05 * 0.5), 0.0, 0.0], rel=1e-15)

    def test_post_jump_signal(self):
        e = PostFirstJumpSignalStream(psi=np.tanh, psi_bound=1.0)
        assert e.jump_keyed
        got = e.values(0.05, self.t, self.jumps, self.psi0)
        assert got.tolist() == pytest.approx(
            [0.0, -0.2 * math.exp(-0.95), 0.1 * math.exp(-0.95 * 2.0)], rel=1e-15)
        assert e.psi_at(self.psi0).tolist() == np.tanh(self.psi0).tolist()

    @pytest.mark.parametrize("e", [ExpUntilFirstJumpStream(),
                                   PostFirstJumpSignalStream(psi=np.tanh, psi_bound=1.0)])
    def test_values_into_buffers(self, e):
        # (paths, nodes) values written into the engine's buffers are the
        # bits of fresh ones
        t = np.linspace(0.0, 3.0, 5)
        jumps = np.array([[0, 0, 0, 0, 0], [1, 1, 1, 1, 1], [0, 0, 1, 2, 2]])
        vals, mask = np.full((3, 5), np.nan), np.ones((3, 5), dtype=bool)
        got = e.values(0.05, t, jumps, self.psi0[:, None], (vals, mask))
        assert got is vals
        assert got.tobytes() == e.values(0.05, t, jumps, self.psi0[:, None]).tobytes()


class TestConfigFile:
    def test_round_trip(self, canon, tmp_path):
        path = tmp_path / "params.cfg"
        write_params_file(str(path), canon)
        back = read_params_file(str(path))
        assert back == canon

    def test_lambda_key_maps_to_lam(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text("mu=0.1\nr=0.05\nsigma=0.2\nlambda=0.75\nm=-0.05\n"
                        "v=0.01\nrho=0.1\nR=2\nv_eps=0.02\n")
        p = read_params_file(str(path))
        assert p.lam == 0.75

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text("mu=0.1\nbogus=1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            read_params_file(str(path))

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text("mu=0.1\n")
        with pytest.raises(ConfigError, match="missing"):
            read_params_file(str(path))

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text("mu=0.1\nmu=0.2\n")
        with pytest.raises(ConfigError, match="repeated"):
            read_params_file(str(path))

    def test_comments_and_blank_lines_ignored(self, tmp_path, canon):
        path = tmp_path / "p.cfg"
        path.write_text("# canonical parameters\n\nmu = 0.10  # drift\n"
                        "r = 0.05\nsigma = 0.20\nlambda = 0.5\nm = -0.05\n"
                        "v = 0.01\nrho = 0.10\nR = 2\nv_eps = 0.02\n")
        assert read_params_file(str(path)) == canon

    def test_bad_number_rejected(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text("mu = oops\n")
        with pytest.raises(ConfigError, match="bad number"):
            read_params_file(str(path))
