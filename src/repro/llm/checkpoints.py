"""Saving and restoring trained policy checkpoints."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from ..config import ModelConfig
from ..errors import CheckpointError
from .network import PolicyNetwork


def save_checkpoint(policy: PolicyNetwork, directory: str | Path, name: str = "policy") -> Path:
    """Persist a policy's parameters and configuration under ``directory``.

    Two files are written: ``<name>.npz`` with the parameter arrays and
    ``<name>.json`` with the model configuration and version, so a checkpoint
    can be inspected without loading numpy arrays.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    array_path = directory / f"{name}.npz"
    meta_path = directory / f"{name}.json"
    state = policy.state_dict()
    np.savez(array_path, **state)
    metadata = {"config": policy.config.to_dict(), "version": policy.version, "parameters": sorted(state)}
    meta_path.write_text(json.dumps(metadata, indent=2, sort_keys=True))
    return array_path


def load_checkpoint(directory: str | Path, name: str = "policy") -> PolicyNetwork:
    """Restore a policy previously saved with :func:`save_checkpoint`."""
    directory = Path(directory)
    array_path = directory / f"{name}.npz"
    meta_path = directory / f"{name}.json"
    if not array_path.exists() or not meta_path.exists():
        raise CheckpointError(f"checkpoint {name!r} not found in {directory}")
    try:
        metadata = json.loads(meta_path.read_text())
        # Checkpoints written before a ModelConfig field was retired still load.
        known = {field.name for field in dataclasses.fields(ModelConfig)}
        config = ModelConfig(**{k: v for k, v in metadata["config"].items() if k in known})
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
        raise CheckpointError(f"invalid checkpoint metadata in {meta_path}: {exc}") from exc
    with np.load(array_path) as arrays:
        state = {key: arrays[key] for key in arrays.files}
    policy = PolicyNetwork(config)
    policy.load_state(state)
    # Older checkpoints carry the version only in the JSON metadata; newer ones
    # also store it in the parameter archive, which load_state already applied.
    policy.version = int(metadata.get("version", policy.version))
    return policy
