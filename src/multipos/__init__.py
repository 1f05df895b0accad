"""Multi-positive contrastive sentence embeddings, desk scale."""

from .data import (
    PairRecord,
    SentenceGroup,
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
    "train",
    "write_groups_jsonl",
]
