"""Canonical JSON serialization for tensors, checkpoints, and reports.

All writers emit the same canonical form (sorted keys, compact separators)
so that serialize -> parse -> serialize is byte-identical. Float values
round-trip exactly through Python's shortest-repr float formatting.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .adapters import AdaptedLinear, Mode
from .errors import DataError

SCHEMA_VERSION = 1


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def array_to_json(arr: np.ndarray) -> dict:
    return {
        "shape": list(arr.shape),
        "dtype": str(arr.dtype),
        "data": arr.ravel().tolist(),
    }


def array_from_json(obj: dict) -> np.ndarray:
    arr = np.array(obj["data"], dtype=obj["dtype"]).reshape(obj["shape"])
    return arr


def layer_to_json(layer: AdaptedLinear) -> dict:
    tensors = {"w": array_to_json(layer.w)}
    if layer.a is not None:
        tensors["a"] = array_to_json(layer.a)
    if layer.b is not None:
        tensors["b"] = array_to_json(layer.b)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "adapted_linear",
        "mode": layer.mode.value,
        "rank": layer.rank,
        "alpha": layer.alpha,
        "tensors": tensors,
    }


def layer_from_json(obj: dict) -> AdaptedLinear:
    if obj.get("kind") != "adapted_linear":
        raise DataError("not an adapted_linear snapshot")
    tensors = obj["tensors"]
    return AdaptedLinear(
        w=array_from_json(tensors["w"]),
        a=array_from_json(tensors["a"]) if "a" in tensors else None,
        b=array_from_json(tensors["b"]) if "b" in tensors else None,
        rank=obj["rank"],
        alpha=obj["alpha"],
        mode=Mode(obj["mode"]),
    )


def model_to_json(model) -> dict:
    """Checkpoint: config header plus per-layer adapter snapshots."""
    from dataclasses import asdict

    blocks = []
    for i, block in enumerate(model.blocks):
        entry = {
            "ln1_gamma": array_to_json(block.ln1_gamma),
            "ln1_beta": array_to_json(block.ln1_beta),
            "ln2_gamma": array_to_json(block.ln2_gamma),
            "ln2_beta": array_to_json(block.ln2_beta),
        }
        for name, layer in block.layers().items():
            entry[name] = layer_to_json(layer)
        blocks.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "transformer_model",
        "config": asdict(model.config),
        "mode": model.mode.value,
        "rank": model.rank,
        "alpha": model.alpha,
        "tok_emb": array_to_json(model.tok_emb),
        "pos_emb": array_to_json(model.pos_emb),
        "lnf_gamma": array_to_json(model.lnf_gamma),
        "lnf_beta": array_to_json(model.lnf_beta),
        "blocks": blocks,
    }


def model_from_json(obj: dict):
    from .model import Block, ModelConfig, TransformerModel, block_layer_specs

    if obj.get("kind") != "transformer_model":
        raise DataError("not a transformer_model checkpoint")
    config = ModelConfig(**obj["config"])
    blocks = []
    for entry in obj["blocks"]:
        layers = {
            name: layer_from_json(entry[name]) for name, _, _, _ in block_layer_specs(config)
        }
        blocks.append(
            Block(
                ln1_gamma=array_from_json(entry["ln1_gamma"]),
                ln1_beta=array_from_json(entry["ln1_beta"]),
                ln2_gamma=array_from_json(entry["ln2_gamma"]),
                ln2_beta=array_from_json(entry["ln2_beta"]),
                **layers,
            )
        )
    return TransformerModel(
        config=config,
        mode=Mode(obj["mode"]),
        rank=obj["rank"],
        alpha=obj["alpha"],
        tok_emb=array_from_json(obj["tok_emb"]),
        pos_emb=array_from_json(obj["pos_emb"]),
        blocks=blocks,
        lnf_gamma=array_from_json(obj["lnf_gamma"]),
        lnf_beta=array_from_json(obj["lnf_beta"]),
    )


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
