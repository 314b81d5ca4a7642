"""Tests for configuration validation and round-tripping."""

from __future__ import annotations

import argparse

import pytest

from repro.config import (
    DatasetConfig,
    IntegrationConfig,
    ModelConfig,
    PipelineConfig,
    RLHFConfig,
    ServerConfig,
    SFTConfig,
)
from repro.errors import ConfigurationError


class TestModelConfig:
    def test_defaults_are_valid(self):
        config = ModelConfig()
        assert config.feature_dim > 0

    @pytest.mark.parametrize("field,value", [
        ("embedding_dim", 0),
        ("hidden_dim", -1),
        ("feature_dim", 0),
        ("learning_rate", 0.0),
        ("temperature", 0.0),
        ("top_k", 0),
        ("top_p", 1.5),
        ("spec_constraint_threshold", 2.0),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            ModelConfig(**{field: value})

    def test_to_dict_round_trip(self):
        config = ModelConfig(hidden_dim=32, top_k=3)
        rebuilt = ModelConfig(**config.to_dict())
        assert rebuilt.hidden_dim == 32
        assert rebuilt.top_k == 3


class TestScheduleConfigs:
    def test_sft_rejects_non_positive_epochs(self):
        with pytest.raises(ConfigurationError):
            SFTConfig(epochs=0)

    def test_rlhf_rejects_negative_kl(self):
        with pytest.raises(ConfigurationError):
            RLHFConfig(kl_beta=-0.1)

    def test_rlhf_rejects_bad_momentum(self):
        with pytest.raises(ConfigurationError):
            RLHFConfig(baseline_momentum=1.0)

    def test_integration_rejects_zero_timeout(self):
        with pytest.raises(ConfigurationError):
            IntegrationConfig(test_timeout_seconds=0)

    def test_dataset_rejects_zero_samples(self):
        with pytest.raises(ConfigurationError):
            DatasetConfig(samples_per_target=0)


class TestServerConfig:
    def test_from_args_applies_every_serve_flag(self):
        args = argparse.Namespace(host="0.0.0.0", port=9000, max_queue_depth=7)
        config = ServerConfig.from_args(args)
        assert (config.host, config.port) == ("0.0.0.0", 9000)
        assert config.max_queue_depth == 7

    def test_from_args_keeps_base_values_for_omitted_flags(self):
        base = ServerConfig(host="10.0.0.1", port=8123, max_queue_depth=2)
        args = argparse.Namespace(host=None, port=None, max_queue_depth=None)
        config = ServerConfig.from_args(args, base=base)
        assert config == base

    def test_from_args_validates_the_combination(self):
        with pytest.raises(ConfigurationError, match="max_queue_depth must be non-negative"):
            ServerConfig.from_args(argparse.Namespace(max_queue_depth=-2))

    def test_round_trips_through_pipeline_config(self):
        config = PipelineConfig(server=ServerConfig(max_queue_depth=3, retry_after_seconds=5.0))
        rebuilt = PipelineConfig.from_dict(config.to_dict())
        assert rebuilt.server == config.server


class TestPipelineConfig:
    def test_defaults_compose(self):
        config = PipelineConfig()
        assert config.model.feature_dim == ModelConfig().feature_dim
        assert config.max_refinement_iterations > 0

    def test_rejects_zero_refinement_iterations(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(max_refinement_iterations=0)

    def test_round_trip_through_dict(self):
        config = PipelineConfig(
            model=ModelConfig(hidden_dim=48),
            sft=SFTConfig(epochs=2),
            max_refinement_iterations=7,
        )
        rebuilt = PipelineConfig.from_dict(config.to_dict())
        assert rebuilt.model.hidden_dim == 48
        assert rebuilt.sft.epochs == 2
        assert rebuilt.max_refinement_iterations == 7

    def test_from_dict_rejects_non_mapping_section(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig.from_dict({"model": "not-a-mapping"})

    @pytest.mark.parametrize("data,named", [
        ({"execution": {"max_worker": 2}}, "unknown execution field(s): max_worker"),
        ({"integration": {"keep_workspaces": True}}, "unknown integration field(s): keep_workspaces"),
        ({"execution": {"distributed": {"prot": 9}}}, "unknown execution.distributed field(s): prot"),
        ({"resilience": {"chaos": {"crash": 1.0}}}, "unknown resilience.chaos field(s): crash"),
        ({"executon": {}}, "unknown pipeline field(s): executon"),
        ({"server": {"shards": 4}}, "unknown server field(s): shards"),
        ({"server": {"shard_queue_depth": 8}}, "unknown server field(s): shard_queue_depth"),
        (
            {"engine": {"max_queue_delay_seconds": 0.002}},
            "unknown engine field(s): max_queue_delay_seconds",
        ),
    ])
    def test_from_dict_names_the_section_and_field_it_does_not_know(self, data, named):
        with pytest.raises(ConfigurationError) as caught:
            PipelineConfig.from_dict(data)
        assert str(caught.value) == named
