"""Workload models: the paper's seven attention-based networks (Table II)."""

from .models import (
    ALBERT,
    BERT,
    BLENDERBOT,
    DEBERTA_V2,
    GPT2,
    LLAMA2,
    LLAMA2_SEQ_SWEEP,
    PAPER_MODELS,
    XLM,
    ModelConfig,
    model_by_name,
)
from .cnn import RESNET50_LAYERS, layer_names
from .decode import build_decode_graph
from .full_model import MODEL_LAYERS, layer_count
from .moe import build_moe_ffn_graph
from .training import build_ffn_training_graph
from .transformer import (
    attention_operators,
    build_layer_graph,
    ffn_operators,
    projection_operators,
    representative_matmuls,
)

__all__ = [
    "build_ffn_training_graph",
    "MODEL_LAYERS",
    "layer_count",
    "build_moe_ffn_graph",
    "RESNET50_LAYERS",
    "layer_names",
    "build_decode_graph",
    "ALBERT",
    "BERT",
    "BLENDERBOT",
    "DEBERTA_V2",
    "GPT2",
    "LLAMA2",
    "LLAMA2_SEQ_SWEEP",
    "PAPER_MODELS",
    "XLM",
    "ModelConfig",
    "model_by_name",
    "attention_operators",
    "build_layer_graph",
    "ffn_operators",
    "projection_operators",
    "representative_matmuls",
]
