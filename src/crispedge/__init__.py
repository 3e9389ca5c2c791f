"""Crisp boundary detection: losses, a small refinement network, and a
three-criterion benchmark, all on plain numpy.

The usual flow is gen_synthetic -> train -> predict -> eval_criteria; the
``crispedge`` command line wraps the same calls.
"""

from .data import (
    Sample,
    gen_synthetic,
    load_dataset,
    load_manifest,
    read_crb,
    read_raster,
    save_dataset,
    write_crb,
    write_raster,
)
from .errors import (
    ConfigError,
    ContractError,
    CrispEdgeError,
    DomainError,
    ParseError,
    ShapeError,
    TopologyError,
    TrainingError,
    ValidationError,
)
from .evalbench import (
    BenchmarkScores,
    EvalReport,
    eval_criteria,
    match_boundaries,
    nms_thin,
    thin_binary,
    tolerance_pixels,
)
from .losses import (
    AdaptiveLossState,
    AnnotationSet,
    ConsensusWeightMap,
    LossConfig,
    adaptive_loss,
    batch_weight_maps,
    combined_loss,
    soft_ce,
    soft_dice,
)
from .network import (
    NetworkTopology,
    RefineNet,
    ScaleSet,
    build_refine_net,
    default_topology,
    predict,
    predict_multiscale,
)
from .tensorcore import OptimizerConfig, Parameter, Tensor, backward, sgd_step
from .trainer import (
    TrainConfig,
    TrainReport,
    ablation_run,
    toy_dataset,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveLossState",
    "AnnotationSet",
    "BenchmarkScores",
    "ConfigError",
    "ConsensusWeightMap",
    "ContractError",
    "CrispEdgeError",
    "DomainError",
    "EvalReport",
    "LossConfig",
    "NetworkTopology",
    "OptimizerConfig",
    "Parameter",
    "ParseError",
    "RefineNet",
    "Sample",
    "ScaleSet",
    "ShapeError",
    "Tensor",
    "TopologyError",
    "TrainConfig",
    "TrainReport",
    "TrainingError",
    "ValidationError",
    "ablation_run",
    "adaptive_loss",
    "backward",
    "batch_weight_maps",
    "build_refine_net",
    "combined_loss",
    "default_topology",
    "eval_criteria",
    "gen_synthetic",
    "load_dataset",
    "load_manifest",
    "match_boundaries",
    "nms_thin",
    "predict",
    "predict_multiscale",
    "read_crb",
    "read_raster",
    "save_dataset",
    "sgd_step",
    "soft_ce",
    "soft_dice",
    "thin_binary",
    "tolerance_pixels",
    "toy_dataset",
    "train",
    "write_crb",
    "write_raster",
    "__version__",
]
