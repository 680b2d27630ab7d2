"""Tests for repro.env — the one home for environment parsing."""

import pytest

from repro import env


class TestTraceScale:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_SCALE", raising=False)
        assert env.trace_scale() == 1.0
        assert env.max_refs() == env.BASE_MAX_REFS

    def test_scaled_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SCALE", "0.25")
        assert env.max_refs() == env.BASE_MAX_REFS // 4

    def test_bad_value_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SCALE", "banana")
        with pytest.raises(ValueError, match="REPRO_TRACE_SCALE"):
            env.trace_scale()

    def test_non_positive_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SCALE", "-1")
        with pytest.raises(ValueError, match="positive"):
            env.trace_scale()


class TestWorkers:
    def test_unset_means_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert env.env_workers() is None

    def test_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert env.env_workers() == 4

    def test_bad_value_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            env.env_workers()

    def test_zero_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError, match="at least 1"):
            env.env_workers()


class TestLogLevel:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG_LEVEL", raising=False)
        assert env.log_level() == "info"

    @pytest.mark.parametrize("raw", ["debug", "info", "warning", "error", "quiet"])
    def test_every_level_accepted(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_LOG_LEVEL", raw)
        assert env.log_level() == raw

    def test_normalised(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "  DEBUG ")
        assert env.log_level() == "debug"

    def test_bad_value_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "loud")
        with pytest.raises(ValueError, match="REPRO_LOG_LEVEL"):
            env.log_level()


class TestProfileEnabled:
    def test_unset_means_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert env.profile_enabled() is False

    @pytest.mark.parametrize("raw", ["1", "true", "YES", " on "])
    def test_truthy(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_PROFILE", raw)
        assert env.profile_enabled() is True

    @pytest.mark.parametrize("raw", ["0", "false", "No", "off", ""])
    def test_falsy(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_PROFILE", raw)
        assert env.profile_enabled() is False

    def test_bad_value_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "maybe")
        with pytest.raises(ValueError, match="REPRO_PROFILE"):
            env.profile_enabled()


class TestValidate:
    def test_ok(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SCALE", "0.5")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_LOG_LEVEL", "debug")
        monkeypatch.setenv("REPRO_PROFILE", "1")
        env.validate()  # no exception

    def test_catches_either_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "banana")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            env.validate()
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_TRACE_SCALE", "zero")
        with pytest.raises(ValueError, match="REPRO_TRACE_SCALE"):
            env.validate()

    def test_catches_observability_variables(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "loud")
        with pytest.raises(ValueError, match="REPRO_LOG_LEVEL"):
            env.validate()
        monkeypatch.setenv("REPRO_LOG_LEVEL", "info")
        monkeypatch.setenv("REPRO_PROFILE", "maybe")
        with pytest.raises(ValueError, match="REPRO_PROFILE"):
            env.validate()


class TestSingleSourceOfTruth:
    def test_common_reexports_env(self):
        from repro.experiments import common

        assert common.trace_scale is env.trace_scale
        assert common.max_refs is env.max_refs
        assert common.BASE_MAX_REFS is env.BASE_MAX_REFS

    def test_parallel_uses_env(self):
        from repro.perf import parallel

        assert parallel.env_workers is env.env_workers


class TestMaxRefsFloor:
    def test_tiny_scale_floors_at_one_reference(self, monkeypatch):
        # 1e-9 * 200_000 truncates to 0; an empty trace budget breaks
        # every downstream sweep, so the floor is 1.
        monkeypatch.setenv("REPRO_TRACE_SCALE", "0.000000001")
        assert env.max_refs() == 1

    def test_scale_just_below_one_ref_per_trace(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SCALE", str(0.5 / env.BASE_MAX_REFS))
        assert env.max_refs() == 1

    def test_normal_scales_unaffected_by_the_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SCALE", "0.01")
        assert env.max_refs() == env.BASE_MAX_REFS // 100


class TestFleetHosts:
    def test_unset_means_empty(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLEET_HOSTS", raising=False)
        assert env.env_fleet_hosts() == []

    def test_blank_means_empty(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_HOSTS", "  ")
        assert env.env_fleet_hosts() == []

    def test_parsed_and_stripped(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_HOSTS", "local, user@box1 ,box2")
        assert env.env_fleet_hosts() == ["local", "user@box1", "box2"]

    def test_command_template_entry(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FLEET_HOSTS", "python3 -m repro.cli worker"
        )
        assert env.env_fleet_hosts() == ["python3 -m repro.cli worker"]

    def test_blank_entry_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_HOSTS", "local,,local")
        with pytest.raises(ValueError, match="REPRO_FLEET_HOSTS"):
            env.env_fleet_hosts()

    def test_trailing_comma_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_HOSTS", "local,")
        with pytest.raises(ValueError, match="non-empty"):
            env.env_fleet_hosts()

    def test_validate_covers_it(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_HOSTS", ",")
        with pytest.raises(ValueError, match="REPRO_FLEET_HOSTS"):
            env.validate()


class TestServeKnobs:
    def test_defaults(self, monkeypatch):
        for name in ("REPRO_SERVE_HOST", "REPRO_SERVE_PORT",
                     "REPRO_SERVE_STORE", "REPRO_SERVE_URL"):
            monkeypatch.delenv(name, raising=False)
        assert env.serve_host() == env.DEFAULT_SERVE_HOST
        assert env.serve_port() == env.DEFAULT_SERVE_PORT
        assert env.serve_store() is None
        assert env.serve_url() == (
            f"http://{env.DEFAULT_SERVE_HOST}:{env.DEFAULT_SERVE_PORT}"
        )

    def test_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_HOST", "0.0.0.0")
        monkeypatch.setenv("REPRO_SERVE_PORT", "0")
        monkeypatch.setenv("REPRO_SERVE_STORE", "/tmp/results")
        assert env.serve_host() == "0.0.0.0"
        assert env.serve_port() == 0
        assert env.serve_store() == "/tmp/results"

    def test_url_overrides_host_and_port(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_URL", "http://example.test:9999/")
        assert env.serve_url() == "http://example.test:9999"

    def test_bad_port_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", "http")
        with pytest.raises(ValueError, match="REPRO_SERVE_PORT"):
            env.serve_port()
        monkeypatch.setenv("REPRO_SERVE_PORT", "70000")
        with pytest.raises(ValueError, match="0..65535"):
            env.serve_port()

    def test_empty_host_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_HOST", "  ")
        with pytest.raises(ValueError, match="REPRO_SERVE_HOST"):
            env.serve_host()

    def test_empty_store_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_STORE", "")
        with pytest.raises(ValueError, match="REPRO_SERVE_STORE"):
            env.serve_store()

    def test_non_http_url_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_URL", "ftp://example.test")
        with pytest.raises(ValueError, match="REPRO_SERVE_URL"):
            env.serve_url()

    def test_validate_covers_the_serve_variables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", "banana")
        with pytest.raises(ValueError, match="REPRO_SERVE_PORT"):
            env.validate()
        monkeypatch.setenv("REPRO_SERVE_PORT", "8377")
        monkeypatch.setenv("REPRO_SERVE_URL", "gopher://x")
        with pytest.raises(ValueError, match="REPRO_SERVE_URL"):
            env.validate()
