"""Parameter validation, stream constructors, and the config-file interface."""

import dataclasses
import math

import pytest

from infoprice.errors import ConfigError, StreamGuardError
from infoprice.model import (
    ConstantStream,
    PostFirstJumpSignalStream,
    read_params_file,
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

    def test_q_dual_accessor(self, canon):
        assert canon.q_dual == pytest.approx((1 - canon.R) / canon.R)


class TestStreamGuard:
    def test_constant_rejects_non_finite_level(self):
        with pytest.raises(StreamGuardError):
            ConstantStream(math.inf)

    def test_psi_bound_must_be_finite(self):
        with pytest.raises(StreamGuardError):
            PostFirstJumpSignalStream(psi=math.tanh, psi_bound=math.nan)


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
