"""Desk-scale image description pipeline built on numpy.

Submodules cover the full loop: a dual-attention vision encoder, a
masked text decoder with a contrastive image-text head, training and
generation, caption metrics, netpbm/TSV data handling, and a CLI.
"""

from .autograd import Tape, Tensor, backward
from .data import CaptionDataset, load_dataset, make_synthetic, read_netpbm, write_netpbm
from .encoder import EncoderConfig, encode, heatmap, init_encoder_params, patch_saliency
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DualcapError,
    IntegrityError,
    NonFiniteError,
    ShapeError,
    VocabError,
)
from .fusion import contrastive_loss, retrieval_accuracy
from .metrics import ScoredCorpus, bleu, cider, meteor, rouge_l, score_report
from .model import CaptionModel, ModelConfig, build_model, encode_image
from .checkpoint import load_checkpoint, load_model, save_checkpoint, save_model
from .textdec import DecoderConfig, TokenSequence, Vocabulary, decode_text, encode_caption
from .train import TrainConfig, evaluate_model, fit, generate, run_ablation, training_pairs

__all__ = [
    "Tape",
    "Tensor",
    "backward",
    "CaptionDataset",
    "load_dataset",
    "make_synthetic",
    "read_netpbm",
    "write_netpbm",
    "EncoderConfig",
    "encode",
    "heatmap",
    "init_encoder_params",
    "patch_saliency",
    "ConfigError",
    "ContractError",
    "DataError",
    "DualcapError",
    "IntegrityError",
    "NonFiniteError",
    "ShapeError",
    "VocabError",
    "contrastive_loss",
    "retrieval_accuracy",
    "ScoredCorpus",
    "bleu",
    "cider",
    "meteor",
    "rouge_l",
    "score_report",
    "CaptionModel",
    "ModelConfig",
    "build_model",
    "encode_image",
    "load_checkpoint",
    "load_model",
    "save_checkpoint",
    "save_model",
    "DecoderConfig",
    "TokenSequence",
    "Vocabulary",
    "decode_text",
    "encode_caption",
    "TrainConfig",
    "evaluate_model",
    "fit",
    "generate",
    "run_ablation",
    "training_pairs",
]
__version__ = "0.1.0"
