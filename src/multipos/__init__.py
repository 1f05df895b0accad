"""Multi-positive contrastive sentence embeddings, desk scale.

Importing the package first runs BLAS on one thread: before the first
submodule loads numpy, each of OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
and MKL_NUM_THREADS that is unset is set to "1". A step's matrix
products are small, and a second BLAS thread only spins beside the
first: it adds CPU time and saves no wall time. A value already in the
environment is kept, and a process that imported numpy before this
package keeps the threading numpy started with. Child processes inherit
the setting.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, "1")

from .data import (
    PairRecord,
    SentenceGroup,
    TokenCache,
    TrainingBatch,
    assemble_groups,
    gen_cipher_corpus,
    groups_to_pairs,
    make_batches,
    read_groups_jsonl,
    write_groups_jsonl,
)
from .encoder import (
    ModelParams,
    OptimizerState,
    adam_step,
    encode,
    encode_backward,
    load_checkpoint,
    save_checkpoint,
    tokenize,
    tokenize_many,
)
from .evaluation import (
    EvalReport,
    linear_probe,
    mine_pairs_f1,
    retrieval_accuracy,
    spearman,
    sts_eval,
)
from .losses import (
    LossOutput,
    minmax_normalize,
    multi_positive_loss,
    single_positive_loss,
)
from .train import TrainConfig, init_params, load_config, schedule, train

__all__ = [
    "EvalReport",
    "LossOutput",
    "ModelParams",
    "OptimizerState",
    "PairRecord",
    "SentenceGroup",
    "TokenCache",
    "TrainConfig",
    "TrainingBatch",
    "adam_step",
    "assemble_groups",
    "encode",
    "encode_backward",
    "gen_cipher_corpus",
    "groups_to_pairs",
    "init_params",
    "linear_probe",
    "load_checkpoint",
    "load_config",
    "make_batches",
    "mine_pairs_f1",
    "minmax_normalize",
    "multi_positive_loss",
    "read_groups_jsonl",
    "retrieval_accuracy",
    "save_checkpoint",
    "schedule",
    "single_positive_loss",
    "spearman",
    "sts_eval",
    "tokenize",
    "tokenize_many",
    "train",
    "write_groups_jsonl",
]
