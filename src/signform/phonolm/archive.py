"""Self-describing model archives: config, inventory, and tensors in one file.

The container is a zip of numpy arrays plus a JSON header stored as bytes;
the header carries a format tag and version so stale or foreign files fail
loudly instead of deserializing garbage.
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
    return LMConfig.from_dict(config)


def _load_params(path, data, meta: dict, cfg: LMConfig,
                 n_phones: int) -> LMParameters:
    """The stored tensors, each checked against the config's layout and
    copied into its view of a new buffer."""
    classes = tuple(meta["classes"]) if meta["classes"] else None
    params = LMParameters.zeros(
        param_shapes(cfg, n_phones, len(classes or ())), classes)
    names = list(params.shapes)
    if meta["param_names"] != names:
        raise ArchiveFormatError(
            f"{path}: tensors {meta['param_names']} differ from the "
            f"config's layout {names}")
    for name, view in params.named_arrays():
        key = f"param.{name}"
        if key not in data:
            raise ArchiveFormatError(f"{path}: missing tensor {name}")
        tensor = data[key]
        if tensor.shape != view.shape:
            raise ArchiveFormatError(
                f"{path}: tensor {name} has shape {tensor.shape}, the "
                f"config's layout {view.shape}")
        view[...] = tensor
    return params
