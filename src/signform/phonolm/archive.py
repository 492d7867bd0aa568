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

from ..errors import ArchiveFormatError
from ..lexicon import Phone, PhoneInventory
from ..semspace import PCAModel
from .model import LMConfig, LMParameters

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
            tensors = {}
            for name in meta["param_names"]:
                key = f"param.{name}"
                if key not in data:
                    raise ArchiveFormatError(f"{path}: missing tensor {name}")
                tensors[name] = data[key]
            params = _assemble_params(cfg, tensors, meta["classes"])
            pca = None
            if meta.get("has_pca"):
                pca = PCAModel(mean=data["pca.mean"],
                               components=data["pca.components"],
                               explained_variance=data["pca.explained_variance"])
            return ModelArchive(cfg=cfg, inventory=inventory, params=params,
                                pca=pca, extra=meta.get("extra") or {})
    except (OSError, EOFError, ValueError, KeyError,
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


def _assemble_params(cfg: LMConfig, tensors: dict,
                     classes) -> LMParameters:
    try:
        return LMParameters(
            embed=tensors["embed"],
            wx=[tensors[f"wx{l}"] for l in range(cfg.layers)],
            wh=[tensors[f"wh{l}"] for l in range(cfg.layers)],
            b=[tensors[f"b{l}"] for l in range(cfg.layers)],
            w_out=tensors["w_out"],
            b_out=tensors["b_out"],
            w_v=tensors.get("w_v"),
            b_v=tensors.get("b_v"),
            class_embed=tensors.get("class_embed"),
            classes=tuple(classes) if classes else None,
        )
    except KeyError as exc:
        raise ArchiveFormatError(f"incomplete parameter set: {exc}") from exc
