"""Configuration validation, pilot pattern construction, and SNR mapping."""
import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chest import (ConfigError, EstimatorConfig, ExperimentPlan, ScenarioConfig,
                   SystemConfig, build_pilot_pattern, desk_config, load_config,
                   noise_variance_for_snr, validate_config, validate_plan)
from chest import cli
from chest.config import _SECTIONS
from chest.subspaces import denoise_subspace
from chest.validate import check_denoiser
from chest.experiments import SWEEPS


def _reject(message_part, **system_overrides):
    with pytest.raises(ConfigError, match=message_part):
        desk_config(**system_overrides)


class TestValidateConfig:
    def test_desk_bandwidth(self, desk):
        # 64 subcarriers at 480 kHz spacing
        assert desk.system.bandwidth == pytest.approx(30.72e6)
        assert desk.system.sample_interval == pytest.approx(1 / 30.72e6)

    def test_pilot_count_must_divide(self):
        _reject("n_pilots", n_pilots=33)

    def test_subcarriers_power_of_two(self):
        _reject("power of two", n_subcarriers=48)

    def test_delay_spread_boundary_rejected(self, desk):
        # equality with the CP duration is not enough, the bound is strict
        cp_seconds = desk.system.cp_length * desk.system.sample_interval
        scen = replace(desk.scenario, delay_spread=cp_seconds)
        with pytest.raises(ConfigError, match="delay_spread"):
            validate_config(desk.system, scen, desk.estimator)

    def test_dt_paths_cannot_exceed_paths(self, desk):
        scen = replace(desk.scenario, n_dt_paths=desk.scenario.n_paths + 1)
        with pytest.raises(ConfigError, match="n_dt_paths"):
            validate_config(desk.system, scen, desk.estimator)

    def test_rolloff_range(self, desk):
        scen = replace(desk.scenario, pulse_rolloff=1.0)
        with pytest.raises(ConfigError, match="pulse_rolloff"):
            validate_config(desk.system, scen, desk.estimator)

    def test_explicit_bml_rank_bounded(self, desk):
        est = replace(desk.estimator, bml_rank_spatial=desk.system.n_rx + 1)
        with pytest.raises(ConfigError, match="bml_rank_spatial"):
            validate_config(desk.system, desk.scenario, est)

    def test_nonpositive_symbol_power(self, tmp_path):
        """The retired key sets nothing, but a config file that names it must
        still give it a positive number."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"system": {"symbol_power": 0.0}}))
        with pytest.raises(ConfigError, match="symbol_power"):
            load_config(path)

    @pytest.mark.parametrize("snr", [-1000.5, 1000.5, 4000.0, -3085.0])
    def test_snr_grid_within_1000_db(self, snr):
        with pytest.raises(ConfigError, match=f"snr_grid_db entries .* got {snr!r}"):
            desk_config(snr_grid_db=(0.0, snr))

    def test_snr_grid_edges_accepted(self):
        assert desk_config(snr_grid_db=(-1000.0, 1000.0)).system.snr_grid_db == \
            (-1000.0, 1000.0)

    def test_trials_at_least_one(self):
        _reject("n_trials", n_trials=0)

    def test_seed_range(self):
        _reject("seed", seed=-1)
        _reject("seed", seed=2 ** 63)

    def test_tau_max_positive(self, desk):
        est = replace(desk.estimator, tau_max=0.0)
        with pytest.raises(ConfigError, match="tau_max"):
            validate_config(desk.system, desk.scenario, est)

    @pytest.mark.parametrize("section,key,value", [
        ("system", "subcarrier_spacing", "Infinity"),   # bandwidth inf, T_s 0
        ("system", "subcarrier_spacing", "1e308"),      # N * spacing overflows
        ("system", "subcarrier_spacing", "5e-324"),     # T_s = 1 / (N * spacing) is inf
        ("scenario", "array_spacing", "Infinity"),
        ("scenario", "array_spacing", "1e308"),         # 2 pi spacing n overflows
        ("estimator", "tau_max", "Infinity"),
    ])
    def test_value_that_overflows_names_its_field(self, section, key, value, tmp_path):
        """The JSON text is written as is: ``Infinity`` is what Python's json
        reads as an infinite float."""
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"{section}": {{"{key}": {value}}}}}')
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    def test_tau_max_wider_than_the_grid_keeps_every_tap(self, desk):
        """A finite window too wide to count its taps in floats keeps all of
        them, in the sweeps' window and in the denoiser check alike."""
        wide, one = (validate_config(desk.system, desk.scenario,
                                     replace(desk.estimator, tau_max=t))
                     for t in (1e308, 1.0))
        got = denoise_subspace(wide.system, wide.estimator.tau_max)
        want = denoise_subspace(one.system, one.estimator.tau_max)
        assert got.rank_temporal == desk.system.n_pilots
        np.testing.assert_array_equal(got.basis_temporal, want.basis_temporal)
        assert check_denoiser(wide) == check_denoiser(one)
        assert check_denoiser(wide).passed


class TestPilotPattern:
    def test_desk_indices(self, rng):
        pat = build_pilot_pattern(64, 32, rng)
        assert pat.indices.tolist() == list(range(0, 64, 2))

    def test_full_grid(self, rng):
        pat = build_pilot_pattern(64, 64, rng)
        assert pat.indices.tolist() == list(range(64))

    def test_symbol_power_exact(self, rng):
        """Pilots have unit power, exactly."""
        pat = build_pilot_pattern(64, 16, rng)
        assert np.all(np.abs(pat.symbols) ** 2 == 1.0)

    def test_four_point_constellation(self, rng):
        pat = build_pilot_pattern(256, 256, rng)
        assert len(set(np.round(pat.symbols, 12))) == 4

    def test_divisibility_enforced(self, rng):
        with pytest.raises(ConfigError):
            build_pilot_pattern(64, 24, rng)

    @pytest.mark.parametrize("n_pilots", [0, -4])
    def test_pilot_count_below_one_rejected(self, rng, n_pilots):
        with pytest.raises(ConfigError, match="n_pilots must be >= 1"):
            build_pilot_pattern(64, n_pilots, rng)

    @given(log_n=st.integers(min_value=1, max_value=8), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_uniform_spacing(self, log_n, data):
        """Pilot gaps are all equal to n_subcarriers / n_pilots."""
        n = 2 ** log_n
        n_p = 2 ** data.draw(st.integers(min_value=0, max_value=log_n))
        pat = build_pilot_pattern(n, n_p, np.random.default_rng(0))
        assert pat.indices[0] == 0
        if n_p > 1:
            gaps = np.diff(pat.indices)
            assert gaps.min() == gaps.max() == n // n_p


# Every grid size validate_config accepts up to the full-scale 2048.
POWERS_OF_TWO = [2 ** j for j in range(1, 12)]


def _bundle(n: int, **system_overrides):
    """A valid config on ``n`` subcarriers with one pilot; a CP of n / 2
    samples keeps the default 0.9 us delay spread inside it at every n."""
    system = {"n_subcarriers": n, "cp_length": n // 2, "n_rx": 2, "n_pilots": 1,
              **system_overrides}
    return validate_config(SystemConfig(**system), ScenarioConfig(), EstimatorConfig())


def _accepts(call) -> bool:
    """Whether ``call()`` returns, not raising ConfigError."""
    try:
        call()
    except ConfigError:
        return False
    return True


class TestSharedRules:
    """Each sweep-axis rule is one function in ``chest.config``, so every
    boundary that applies it accepts exactly the same inputs."""

    @pytest.mark.parametrize("n", POWERS_OF_TWO)
    def test_pilot_count_boundaries_agree(self, n):
        """Every count in [-2, 2n + 1] is accepted by the config's
        ``n_pilots``, the pilot comb and a pilot sweep's counts alike, and
        exactly when it is >= 1 and divides n."""
        plan = ExperimentPlan(bundle=_bundle(n))
        rng = np.random.default_rng(0)
        for count in range(-2, 2 * n + 2):
            verdicts = [
                _accepts(lambda: _bundle(n, n_pilots=count)),
                _accepts(lambda: build_pilot_pattern(n, count, rng)),
                _accepts(lambda: validate_plan(replace(plan, pilot_counts=(count,)),
                                               "pilot-sweep"))]
            assert verdicts == [count >= 1 and n % count == 0] * 3, count

    @given(snrs=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0, 5.0, -1000.0, 1000.0,
                                                    1000.5, -1000.5]),
                                   st.floats(), st.integers(-3000, 3000)),
                         min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_snr_list_boundaries_agree(self, snrs):
        """A config's ``snr_grid_db`` and every kind's plan SNR points accept
        the same non-empty lists: finite, within +-1000 dB, no repeat (an
        empty plan list asks for the kind's default, so it is not drawn)."""
        plan = ExperimentPlan(bundle=desk_config(), snrs=tuple(snrs))
        verdicts = [_accepts(lambda: desk_config(snr_grid_db=tuple(snrs)))]
        verdicts += [_accepts(lambda: validate_plan(plan, kind)) for kind in SWEEPS]
        assert len(set(verdicts)) == 1, verdicts

    @pytest.mark.parametrize("n", POWERS_OF_TWO)
    def test_default_pilot_counts(self, n):
        """A pilot sweep without counts runs every power of two from 2 to n,
        n = 2 included."""
        plan = validate_plan(ExperimentPlan(bundle=_bundle(n)), "pilot-sweep")
        assert plan.pilot_counts == tuple(POWERS_OF_TWO[:POWERS_OF_TWO.index(n) + 1])


class TestNoiseVariance:
    @pytest.mark.parametrize("snr_db,beta,expected", [
        (0.0, 1.0, 1.0),
        (10.0, 1.0, 0.1),
        (0.0, 0.5, 0.5),
    ])
    def test_examples(self, snr_db, beta, expected):
        assert noise_variance_for_snr(snr_db, beta) == pytest.approx(expected)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ConfigError):
            noise_variance_for_snr(0.0, 0.0)

    @given(snr_db=st.floats(min_value=-60, max_value=60),
           beta=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, snr_db, beta):
        sigma2 = noise_variance_for_snr(snr_db, beta)
        assert 10 * np.log10(beta / sigma2) == pytest.approx(snr_db, abs=1e-9)


class TestLoadConfig:
    def _write(self, tmp_path, payload):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        return path

    def _desk_payload(self):
        desk = desk_config()
        return {
            "system": {"n_subcarriers": 64, "cp_length": 32, "n_rx": 16,
                       "n_pilots": 32, "subcarrier_spacing": 480e3,
                       "snr_grid_db": list(desk.system.snr_grid_db),
                       "n_trials": 100, "seed": desk.system.seed},
            "scenario": {"n_paths": 25, "n_dt_paths": 5,
                         "delay_spread": 0.9e-6,
                         "pdp_decay": desk.scenario.pdp_decay,
                         "azimuth_range": list(desk.scenario.azimuth_range),
                         "elevation_range": list(desk.scenario.elevation_range),
                         "array_spacing": 0.5, "pulse_rolloff": 0.25},
            "estimator": {"tau_max": 0.5e-6, "n_batch": 64,
                          "bml_rank_spatial": "auto",
                          "bml_rank_temporal": "auto",
                          "svd_rank_tolerance": 1e-8},
        }

    def test_round_trip(self, tmp_path):
        bundle = load_config(self._write(tmp_path, self._desk_payload()))
        assert bundle.system.n_rx == 16
        assert bundle.scenario.n_paths == 25
        assert bundle.system.bandwidth == pytest.approx(30.72e6)

    def test_unknown_key_rejected(self, tmp_path):
        payload = self._desk_payload()
        payload["system"]["n_antennas"] = 8
        with pytest.raises(ConfigError, match="n_antennas"):
            load_config(self._write(tmp_path, payload))

    def test_unknown_section_rejected(self, tmp_path):
        payload = self._desk_payload()
        payload["extras"] = {}
        with pytest.raises(ConfigError, match="extras"):
            load_config(self._write(tmp_path, payload))

    def test_missing_section_gets_defaults(self, tmp_path):
        payload = self._desk_payload()
        del payload["scenario"]
        bundle = load_config(self._write(tmp_path, payload))
        assert bundle.scenario == desk_config().scenario

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_invalid_values_rejected_on_load(self, tmp_path):
        payload = self._desk_payload()
        payload["system"]["n_pilots"] = 33
        with pytest.raises(ConfigError, match="n_pilots"):
            load_config(self._write(tmp_path, payload))

    def test_section_must_be_object(self, tmp_path):
        payload = self._desk_payload()
        payload["system"] = 16
        with pytest.raises(ConfigError, match="'system' section"):
            load_config(self._write(tmp_path, payload))


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestShippedConfigs:
    def test_desk_and_reference_match_their_presets(self):
        assert load_config(CONFIGS / "desk.json") == desk_config()
        assert load_config(CONFIGS / "reference.json") == desk_config(n_rx=64)

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
    def test_every_config_spells_out_every_field_and_runs_every_sweep(self, path):
        payload = json.loads(path.read_text())
        assert {name: set(section) for name, section in payload.items()} == \
            {name: {f.name for f in fields(cls)} for name, cls in _SECTIONS.items()}
        bundle = load_config(path)
        for kind in SWEEPS:
            validate_plan(ExperimentPlan(bundle=bundle), kind)

    def test_full_scale_is_the_reference_array_on_2048_subcarriers(self):
        desk = desk_config()
        system = replace(desk.system, n_rx=64, n_subcarriers=2048, cp_length=1024)
        assert load_config(CONFIGS / "full-scale.json") == \
            validate_config(system, desk.scenario, desk.estimator)

    def test_pilot_config_loads_and_validates(self):
        bundle = load_config(CONFIGS / "pilot.json")
        plan = validate_plan(ExperimentPlan(bundle=bundle), "pilot-sweep")
        assert plan.bundle.system.n_subcarriers == 256


BENCH_CONFIG = CONFIGS.parent / "bench" / "c8.json"
RETIRED = ("carrier_freq", "symbol_power")


class TestConfigCompatibility:
    """Every config file the repo ships or the benchmark reads loads, and the
    retired system keys, which set nothing, are still checked and dropped."""

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")) + [BENCH_CONFIG],
                             ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_loads(self, path):
        bundle = load_config(path)
        assert not any(hasattr(bundle.system, key) for key in RETIRED)

    def test_bench_c8_loads_equal_to_the_pilot_config(self):
        assert set(RETIRED) <= set(json.loads(BENCH_CONFIG.read_text())["system"])
        assert load_config(BENCH_CONFIG) == load_config(CONFIGS / "pilot.json")

    def test_retired_keys_change_nothing(self, tmp_path):
        payload = json.loads((CONFIGS / "desk.json").read_text())
        without = tmp_path / "without.json"
        without.write_text(json.dumps(payload))
        payload["system"].update(carrier_freq=3.5e9, symbol_power=4.0)
        named = tmp_path / "named.json"
        named.write_text(json.dumps(payload))
        assert load_config(named) == load_config(without)

    @pytest.mark.parametrize("key", RETIRED)
    @pytest.mark.parametrize("value", [0, -1, "1", True], ids=json.dumps)
    def test_retired_key_must_be_positive_number(self, key, value, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"system": {key: value}}))
        assert cli.main(["validate", "--config", str(path)]) == 1
        assert f"'system.{key}' must be a positive number" in capsys.readouterr().err
