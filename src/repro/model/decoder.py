"""Transformer decoder layers — the paper's stated extension path.

Conclusion: "By swapping out the transformer model weights being
accelerated (e.g., adding decoder layers for language translation) ...
ProSE is easily applicable to a multitude of other protein and NLP-
related tasks."  This module adds that capability: a causal decoder layer
with self-attention, encoder-decoder cross-attention, and the same
GELU feed-forward block, so encoder-decoder models (translation,
sequence-to-sequence protein design) run on the same substrate.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..trace.ops import OpKind, elementwise_op
from ..trace.recorder import TraceRecorder, maybe_record
from .activations import gelu
from .attention import ATTENTION_MASK_VALUE, attend
from .config import BertConfig
from .layers import Embedding, LayerNorm, Linear
from .weights import _truncated_normal


def causal_mask(seq_len: int) -> np.ndarray:
    """Lower-triangular additive attention bias of shape (seq, seq)."""
    bias = np.triu(np.full((seq_len, seq_len), ATTENTION_MASK_VALUE,
                           dtype=np.float32), k=1)
    return bias


class CrossAttention:
    """Multi-head attention with separate query and key/value sources.

    With ``kv`` equal to the query source and a causal bias this is the
    decoder's masked self-attention; with ``kv`` set to the encoder
    output it is encoder-decoder cross-attention.
    """

    def __init__(self, config: BertConfig, query: Linear, key: Linear,
                 value: Linear, output: Linear, name: str = "cross",
                 layer: int = -1) -> None:
        self.config = config
        self.query = query
        self.key = key
        self.value = value
        self.output = output
        self.name = name
        self.layer = layer

    def forward(self, hidden: np.ndarray, kv: np.ndarray,
                additive_bias: Optional[np.ndarray] = None,
                recorder: Optional[TraceRecorder] = None) -> np.ndarray:
        return attend(self.query, self.key, self.value, self.output,
                      hidden, kv, self.config.num_heads, additive_bias,
                      name=self.name, bias_name="bias", layer=self.layer,
                      recorder=recorder)


def initialize_decoder_weights(config: BertConfig, seed: int = 0
                               ) -> Dict[str, np.ndarray]:
    """Deterministic weights for a decoder stack (flat dotted keys)."""
    rng = np.random.default_rng(seed + 10_000)
    weights: Dict[str, np.ndarray] = {}
    h, inter = config.hidden_size, config.intermediate_size
    weights["decoder.embeddings.token"] = _truncated_normal(
        rng, (config.vocab_size, h))
    weights["decoder.embeddings.position"] = _truncated_normal(
        rng, (config.max_position, h))
    weights["decoder.embeddings.layernorm.gamma"] = np.ones(
        h, dtype=np.float32)
    weights["decoder.embeddings.layernorm.beta"] = np.zeros(
        h, dtype=np.float32)
    for index in range(config.num_layers):
        prefix = f"decoder.layer.{index}"
        for block in ("self", "cross"):
            for proj in ("query", "key", "value", "output"):
                weights[f"{prefix}.{block}.{proj}.weight"] = \
                    _truncated_normal(rng, (h, h))
                weights[f"{prefix}.{block}.{proj}.bias"] = np.zeros(
                    h, dtype=np.float32)
            weights[f"{prefix}.{block}.layernorm.gamma"] = np.ones(
                h, dtype=np.float32)
            weights[f"{prefix}.{block}.layernorm.beta"] = np.zeros(
                h, dtype=np.float32)
        weights[f"{prefix}.intermediate.weight"] = _truncated_normal(
            rng, (h, inter))
        weights[f"{prefix}.intermediate.bias"] = np.zeros(
            inter, dtype=np.float32)
        weights[f"{prefix}.output.weight"] = _truncated_normal(
            rng, (inter, h))
        weights[f"{prefix}.output.bias"] = np.zeros(h, dtype=np.float32)
        weights[f"{prefix}.output.layernorm.gamma"] = np.ones(
            h, dtype=np.float32)
        weights[f"{prefix}.output.layernorm.beta"] = np.zeros(
            h, dtype=np.float32)
    return weights


class DecoderLayer:
    """Masked self-attention → cross-attention → feed-forward."""

    def __init__(self, config: BertConfig, weights: Dict[str, np.ndarray],
                 index: int) -> None:
        prefix = f"decoder.layer.{index}"
        self.index = index
        self.config = config

        def attention(block: str) -> CrossAttention:
            return CrossAttention(
                config,
                query=Linear(weights[f"{prefix}.{block}.query.weight"],
                             weights[f"{prefix}.{block}.query.bias"],
                             name=f"{prefix}.{block}.query", layer=index),
                key=Linear(weights[f"{prefix}.{block}.key.weight"],
                           weights[f"{prefix}.{block}.key.bias"],
                           name=f"{prefix}.{block}.key", layer=index),
                value=Linear(weights[f"{prefix}.{block}.value.weight"],
                             weights[f"{prefix}.{block}.value.bias"],
                             name=f"{prefix}.{block}.value", layer=index),
                output=Linear(weights[f"{prefix}.{block}.output.weight"],
                              weights[f"{prefix}.{block}.output.bias"],
                              name=f"{prefix}.{block}.output", layer=index),
                name=f"{prefix}.{block}", layer=index)

        self.self_attention = attention("self")
        self.self_norm = LayerNorm(
            weights[f"{prefix}.self.layernorm.gamma"],
            weights[f"{prefix}.self.layernorm.beta"],
            name=f"{prefix}.self.layernorm", layer=index)
        self.cross_attention = attention("cross")
        self.cross_norm = LayerNorm(
            weights[f"{prefix}.cross.layernorm.gamma"],
            weights[f"{prefix}.cross.layernorm.beta"],
            name=f"{prefix}.cross.layernorm", layer=index)
        self.intermediate = Linear(
            weights[f"{prefix}.intermediate.weight"],
            weights[f"{prefix}.intermediate.bias"],
            name=f"{prefix}.intermediate", layer=index)
        self.output = Linear(
            weights[f"{prefix}.output.weight"],
            weights[f"{prefix}.output.bias"],
            name=f"{prefix}.output", layer=index)
        self.output_norm = LayerNorm(
            weights[f"{prefix}.output.layernorm.gamma"],
            weights[f"{prefix}.output.layernorm.beta"],
            name=f"{prefix}.output.layernorm", layer=index)

    def forward(self, hidden: np.ndarray, encoder_hidden: np.ndarray,
                recorder: Optional[TraceRecorder] = None) -> np.ndarray:
        batch, tgt_len, _ = hidden.shape
        bias = causal_mask(tgt_len)[None, None]
        attended = self.self_attention.forward(hidden, hidden, bias,
                                               recorder)
        maybe_record(recorder, elementwise_op(
            OpKind.ADD, hidden.shape,
            name=f"decoder.layer.{self.index}.self.residual",
            layer=self.index))
        attended += hidden
        hidden = self.self_norm.forward(attended, recorder)

        crossed = self.cross_attention.forward(hidden, encoder_hidden,
                                               None, recorder)
        maybe_record(recorder, elementwise_op(
            OpKind.ADD, hidden.shape,
            name=f"decoder.layer.{self.index}.cross.residual",
            layer=self.index))
        crossed += hidden
        hidden = self.cross_norm.forward(crossed, recorder)

        inner = self.intermediate.forward(hidden, recorder)
        maybe_record(recorder, elementwise_op(
            OpKind.GELU, inner.shape,
            name=f"decoder.layer.{self.index}.gelu", layer=self.index))
        inner = gelu(inner)
        projected = self.output.forward(inner, recorder)
        maybe_record(recorder, elementwise_op(
            OpKind.ADD, hidden.shape,
            name=f"decoder.layer.{self.index}.output.residual",
            layer=self.index))
        projected += hidden
        return self.output_norm.forward(projected, recorder)


class ProteinSeq2Seq:
    """An encoder-decoder protein model on the same ProSE substrate.

    Pairs the standard :class:`~repro.model.bert.ProteinBert` encoder
    with a causal decoder stack — the "adding decoder layers" extension
    the paper's conclusion describes.
    """

    def __init__(self, config: Optional[BertConfig] = None,
                 seed: int = 0) -> None:
        from .bert import ProteinBert

        self.config = config or BertConfig()
        self.encoder = ProteinBert(self.config, seed=seed)
        weights = initialize_decoder_weights(self.config, seed=seed)
        self.weights = weights
        self.token_embedding = Embedding(
            weights["decoder.embeddings.token"],
            name="decoder.embeddings.token")
        self.position_embedding = Embedding(
            weights["decoder.embeddings.position"],
            name="decoder.embeddings.position")
        self.embedding_norm = LayerNorm(
            weights["decoder.embeddings.layernorm.gamma"],
            weights["decoder.embeddings.layernorm.beta"],
            name="decoder.embeddings.layernorm")
        self.layers = [DecoderLayer(self.config, weights, i)
                       for i in range(self.config.num_layers)]

    def forward(self, source_ids: np.ndarray, target_ids: np.ndarray,
                recorder: Optional[TraceRecorder] = None) -> np.ndarray:
        """Encode the source and decode the target (teacher-forced).

        Returns the decoder's final hidden states
        ``(batch, tgt_len, hidden)``.
        """
        encoder_hidden = self.encoder.forward(source_ids,
                                              recorder=recorder)
        target_ids = np.asarray(target_ids)
        batch, tgt_len = target_ids.shape
        tokens = self.token_embedding.forward(target_ids, recorder)
        positions = self.position_embedding.forward(
            np.tile(np.arange(tgt_len), (batch, 1)), recorder)
        maybe_record(recorder, elementwise_op(
            OpKind.ADD, tokens.shape, name="decoder.embeddings.add"))
        hidden = self.embedding_norm.forward(tokens + positions, recorder)
        for layer in self.layers:
            hidden = layer.forward(hidden, encoder_hidden, recorder)
        return hidden
