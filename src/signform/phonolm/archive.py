"""Self-describing model archives: config, inventory, and tensors in one file.

The container is a zip of numpy arrays plus a JSON header stored as bytes;
the header carries a format tag and version so stale or foreign files fail
loudly instead of deserializing garbage. The parameter tensors keep the
dtype they were trained in, float32 or float64, so a loaded model scores
exactly as the fit that saved it.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass

import numpy as np

from ..errors import ArchiveFormatError, UnknownClassError
from ..lexicon import Phone, PhoneInventory
from ..semspace import PCAModel
from .model import LMConfig, LMParameters, param_shapes

FORMAT_TAG = "signform-model"
FORMAT_VERSION = 1
# Config keys of conditioning variants the model no longer has, with the
# one value it kept: older archives store them, and load only with it.
_RETIRED_CONFIG = {"condition_state": "both", "condition_layers": "first"}
_PARAM_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


@dataclass(frozen=True)
class ModelArchive:
    cfg: LMConfig
    inventory: PhoneInventory
    params: LMParameters
    pca: PCAModel | None = None
    extra: dict | None = None


def save_model(path, cfg: LMConfig, inventory: PhoneInventory,
               params: LMParameters, pca: PCAModel | None = None,
               extra: dict | None = None):
    arrays = {f"param.{name}": arr for name, arr in params.named_arrays()}
    if pca is not None:
        arrays["pca.mean"] = pca.mean
        arrays["pca.components"] = pca.components
        arrays["pca.explained_variance"] = pca.explained_variance
    meta = {
        "format": FORMAT_TAG,
        "version": FORMAT_VERSION,
        "config": cfg.to_dict(),
        "phones": list(inventory.phones),
        "eos_index": inventory.eos_index,
        "classes": list(params.classes) if params.classes else None,
        "param_names": [name for name, _ in params.named_arrays()],
        "has_pca": pca is not None,
        "extra": extra or {},
    }
    arrays["meta"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    # Write then rename, so a killed run never leaves a truncated archive.
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, **arrays)
    os.replace(tmp, path)


def load_model(path) -> ModelArchive:
    try:
        with np.load(path, allow_pickle=False) as data:
            if "meta" not in data:
                raise ArchiveFormatError(f"{path}: missing header")
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            if meta.get("format") != FORMAT_TAG:
                raise ArchiveFormatError(
                    f"{path}: not a model archive ({meta.get('format')!r})")
            if meta.get("version") != FORMAT_VERSION:
                raise ArchiveFormatError(
                    f"{path}: unsupported version {meta.get('version')!r}")
            cfg = _config_from_meta(path, meta["config"])
            inventory = PhoneInventory(
                phones=tuple(Phone(p) for p in meta["phones"]),
                eos_index=int(meta["eos_index"]))
            params = _load_params(path, data, meta, cfg, len(inventory))
            pca = None
            if meta.get("has_pca"):
                pca = PCAModel(mean=data["pca.mean"],
                               components=data["pca.components"],
                               explained_variance=data["pca.explained_variance"])
            return ModelArchive(cfg=cfg, inventory=inventory, params=params,
                                pca=pca, extra=meta.get("extra") or {})
    except (OSError, EOFError, ValueError, KeyError, UnknownClassError,
            zipfile.BadZipFile) as exc:
        raise ArchiveFormatError(f"{path}: unreadable archive: {exc}") from exc


def _config_from_meta(path, config: dict) -> LMConfig:
    config = dict(config)
    for key, kept in _RETIRED_CONFIG.items():
        value = config.pop(key, kept)
        if value != kept:
            raise ArchiveFormatError(
                f"{path}: {key}={value!r} is no longer supported "
                f"(only {kept!r})")
    try:
        return LMConfig.from_dict(config)
    except (TypeError, ValueError) as exc:
        raise ArchiveFormatError(f"{path}: bad config {config}: {exc}") from exc


def _load_params(path, data, meta: dict, cfg: LMConfig,
                 n_phones: int) -> LMParameters:
    """The stored tensors, each checked against the config's layout and
    copied into its view of a new buffer of their common dtype."""
    classes = tuple(meta["classes"]) if meta["classes"] else None
    shapes = param_shapes(cfg, n_phones, len(classes or ()))
    if meta["param_names"] != list(shapes):
        raise ArchiveFormatError(
            f"{path}: tensors {meta['param_names']} differ from the "
            f"config's layout {list(shapes)}")
    tensors = {}
    for name, shape in shapes.items():
        key = f"param.{name}"
        if key not in data:
            raise ArchiveFormatError(f"{path}: missing tensor {name}")
        tensor = tensors[name] = data[key]
        if tensor.shape != shape:
            raise ArchiveFormatError(
                f"{path}: tensor {name} has shape {tensor.shape}, the "
                f"config's layout {shape}")
        if tensor.dtype not in _PARAM_DTYPES:
            raise ArchiveFormatError(
                f"{path}: tensor {name} has dtype {tensor.dtype}, not "
                f"float32 or float64")
        first = next(iter(tensors))
        if tensor.dtype != tensors[first].dtype:
            raise ArchiveFormatError(
                f"{path}: tensor {name} has dtype {tensor.dtype}, tensor "
                f"{first} {tensors[first].dtype}")
    params = LMParameters.zeros(shapes, classes, tensors[first].dtype)
    for name, view in params.named_arrays():
        view[...] = tensors[name]
    return params
