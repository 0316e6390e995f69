"""Kinship verification with cascaded local-expert comparator networks.

A pair of face embeddings is concatenated and fed through one small expert
network per kinship relation, chained so each expert refines the previous
one's hidden state; a one-hot relation encoder (or a learned attention
head when the relation is unknown) selects the output probability.
Includes the full training recipe, threshold calibration, tri-subject
fusion and a synthetic embedding-world generator for end-to-end runs
without any real face data.
"""

from .comparator import (
    Activation,
    ComparatorConfig,
    ComparatorParams,
    PoolingMode,
    SharingMode,
    attention_forward,
    forward,
    init_params,
    score_unknown,
    verify,
)
from .data import (
    DataFormatError,
    EmbeddingStore,
    KinPair,
    PairLabel,
    PairSet,
    PersonRef,
    TriSample,
    TriSet,
    augment_symmetric,
    concat_features,
    load_embeddings,
    load_pairs,
    load_tri,
    resample_nonkin,
    save_embeddings,
    save_pairs,
    save_tri,
)
from .evaluation import (
    EvaluationReport,
    HistogramTable,
    Objective,
    ScoredPair,
    ScoredSet,
    Scorer,
    accuracy_report,
    auc,
    calibrate_threshold,
    histogram,
    score_pairs,
    tri_score,
)
from .model_io import ModelFormatError, load_model, save_model
from .relations import (
    Gender,
    KinshipRelation,
    RELATION_ORDER,
    relation_index,
)
from .synth import SynthConfig, SynthWorld, generate_world
from .training import (
    AdamState,
    TrainConfig,
    adam_step,
    backward,
    bce_loss,
    gradcheck,
    train,
    train_attention,
)

__version__ = "0.1.0"
