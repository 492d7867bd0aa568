"""Phone-level LSTM language models: architecture, training, persistence."""

from .archive import ModelArchive, load_model, save_model
from .model import (
    LMConfig,
    LMParameters,
    LossTable,
    encode_signs,
    evaluate,
    init_params,
    log_softmax2,
    loss_and_grads,
    param_shapes,
)
from .training import DTYPE, OptSettings, TrainResult, train_on_indices

__all__ = [
    "LMConfig", "LMParameters", "LossTable", "encode_signs", "evaluate",
    "init_params", "log_softmax2", "loss_and_grads", "param_shapes",
    "ModelArchive", "load_model", "save_model",
    "DTYPE", "OptSettings", "TrainResult", "train_on_indices",
]
