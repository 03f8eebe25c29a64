"""Whole-model depth: the published layer count of each Table II model.

The per-layer graphs of :mod:`repro.workloads.transformer` are exact for
*normalized* comparisons (platform ratios are layer-count invariant); for
absolute end-to-end numbers -- total traffic, cycles, energy per inference
pass -- multiply by the model's depth.  This module records that depth;
:func:`repro.arch.evaluate_model` scales a platform's per-layer result by
it.
"""

from __future__ import annotations

from typing import Dict

from .models import ModelConfig

#: Published encoder/decoder depths of the Table II models.
MODEL_LAYERS: Dict[str, int] = {
    "Bert": 12,
    "GPT-2": 12,
    "Blenderbot": 12,     # 2 x (2 enc + 12 dec) family; 12 as representative
    "XLM": 12,
    "DeBERTa-v2": 24,
    "LLaMA2": 32,
    "ALBERT": 12,         # parameter-shared, but 12 computation layers
}


def layer_count(model: ModelConfig) -> int:
    """Layers for a Table II model (defaults to 12 for unknown names)."""
    return MODEL_LAYERS.get(model.name, 12)
