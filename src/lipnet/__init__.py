"""lipnet: train classifiers whose outputs change slowly under input noise.

The regularizer estimates the local Lipschitz quotient
k(x) = ||f(x_bar) - f(x)|| / ||x_bar - x|| on Gaussian-perturbed inputs and
penalizes beta * max(0, k - l_n) alongside the usual cross-entropy. A small
reverse-mode autodiff tape, the layer zoo, the data pipeline, the training
and evaluation protocol, and the distortion-radius guarantee live here.
"""

from .data import (IdxError, LabeledDataset, Provenance, batches, load_idx,
                   save_idx, subsample, synthetic_blobs, synthetic_digits)
from .layers import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, LayerSpec, Model,
                     build_blobs_mlp, build_mnist_model, build_model,
                     build_registered, checkpoint_bytes, forward,
                     load_checkpoint, read_checkpoint, save_checkpoint)
from .regularizer import (GuaranteeReport, KStatistics, LipschitzParams,
                          RampClassifier, aggregated_loss, audit_empirical_k,
                          compute_rho, counterexample_outside_radius, guarantee,
                          lipschitz_loss, one_hot_labels, perturb, quotient,
                          sample_in_ball, verify_theorem1_synthetic)
from .reports import (EvalReport, EvalRow, StepRecord, TrainRecord,
                      write_eval_report, write_json, write_train_record)
from .seeding import derive_int, derive_key, derive_rng
from .tensor import Graph, Tensor, backward, gradcheck
from .training import SGD, HyperParams, TrainingDivergedError, evaluate, sweep, train
from .version import VERSION

__version__ = VERSION

__all__ = [
    "CHECKPOINT_MAGIC", "CHECKPOINT_VERSION", "EvalReport", "EvalRow",
    "Graph", "GuaranteeReport", "HyperParams", "IdxError", "KStatistics",
    "LabeledDataset", "LayerSpec", "LipschitzParams", "Model", "Provenance",
    "RampClassifier", "SGD",
    "StepRecord", "Tensor", "TrainRecord", "TrainingDivergedError",
    "aggregated_loss", "audit_empirical_k", "backward", "batches",
    "build_blobs_mlp", "build_mnist_model", "build_model", "build_registered",
    "checkpoint_bytes", "compute_rho", "counterexample_outside_radius",
    "derive_int", "derive_key", "derive_rng", "evaluate", "forward",
    "gradcheck", "guarantee",
    "lipschitz_loss", "load_checkpoint", "load_idx", "one_hot_labels",
    "perturb", "quotient", "read_checkpoint", "sample_in_ball",
    "save_checkpoint", "save_idx", "subsample",
    "sweep", "synthetic_blobs", "synthetic_digits",
    "train", "verify_theorem1_synthetic",
    "write_eval_report", "write_json", "write_train_record", "__version__",
]
