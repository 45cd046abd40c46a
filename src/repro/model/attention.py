"""Multi-head self-attention for the Protein BERT encoder.

The attention sublayer produces exactly the op mix the paper's dataflow
analysis keys on: four large MatMuls (Q/K/V projections and the output
projection → Dataflow 1) and the batched dot products with scaling and
softmax (→ Dataflow 3).  Per-head dot products have the small shapes the
paper quotes (m ≈ seq·heads-batched, k = 64), which drive the choice of
small E-Type systolic arrays.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..trace.ops import OpKind, bmm_op, elementwise_op
from ..trace.recorder import TraceRecorder, maybe_record
from .activations import softmax
from .config import BertConfig
from .layers import Linear

#: Large negative number used to mask out padding positions before softmax.
ATTENTION_MASK_VALUE = -1e9


def _adds_nothing(bias: np.ndarray) -> bool:
    """True when every entry is ``-0.0``, for which ``s + bias == s`` bit
    for bit (``+0.0`` is not: ``-0.0 + 0.0`` is ``+0.0``)."""
    return not bias.any() and bool(np.signbit(bias).all())


def attend(query: Linear, key: Linear, value: Linear, output: Linear,
           hidden: np.ndarray, kv: np.ndarray, num_heads: int,
           additive_bias: Optional[np.ndarray], *, name: str,
           bias_name: str, layer: int,
           recorder: Optional[TraceRecorder] = None) -> np.ndarray:
    """Scaled dot-product multi-head attention of ``hidden`` over ``kv``.

    The one attention core shared by the encoder's self-attention and the
    decoder's self- and cross-attention.  Queries come from ``hidden``
    ``(batch, q_len, width)``; keys and values from ``kv``
    ``(batch, kv_len, width)``.

    Args:
        query / key / value / output: the four projection layers.
        num_heads: attention heads; ``width`` must divide evenly.
        additive_bias: float32-castable bias broadcast onto the
            ``(batch, heads, q_len, kv_len)`` scores before softmax, or
            None.  A bias of all ``-0.0`` (an all-ones padding mask) is the
            identity and is skipped.
        name: op name prefix (``"attention"``, ``"decoder.layer.0.self"``).
        bias_name: op name suffix of the bias add (``"mask"``, ``"bias"``);
            the op is recorded whenever a bias is given, skipped or not.
        layer: layer index for trace provenance.
        recorder: optional trace recorder.

    Returns:
        Projected context of shape ``(batch, q_len, width)``.
    """
    batch, q_len, width = hidden.shape
    kv_len = kv.shape[1]
    head_dim = width // num_heads

    q = query.forward(hidden, recorder)
    k = key.forward(kv, recorder)
    v = value.forward(kv, recorder)

    def split_heads(x: np.ndarray, length: int) -> np.ndarray:
        maybe_record(recorder, elementwise_op(
            OpKind.TRANSPOSE, (batch, length, num_heads, head_dim),
            name=f"{name}.split_heads", layer=layer))
        return (x.reshape(batch, length, num_heads, head_dim)
                .transpose(0, 2, 1, 3))

    q = split_heads(q, q_len)
    k = split_heads(k, kv_len)
    v = split_heads(v, kv_len)
    scores_shape = (batch, num_heads, q_len, kv_len)

    # Attention scores: per-(batch, head) dot products — the paper's
    # "batched matrix multiplications ... the smallest matrices".
    maybe_record(recorder, bmm_op(
        batch * num_heads, q_len, head_dim, kv_len,
        name=f"{name}.scores", layer=layer))
    scores = q @ k.transpose(0, 1, 3, 2)

    # Scale by 1/sqrt(d): an elementwise Matrix Div in the ATen trace.
    maybe_record(recorder, elementwise_op(
        OpKind.DIV, scores_shape, name=f"{name}.scale", layer=layer,
        metadata={"divisor": float(np.sqrt(head_dim))}))
    scores /= np.sqrt(head_dim).astype(np.float32)

    if additive_bias is not None:
        maybe_record(recorder, elementwise_op(
            OpKind.ADD, scores_shape, name=f"{name}.{bias_name}",
            layer=layer))
        bias = np.asarray(additive_bias, dtype=np.float32)
        if not _adds_nothing(bias):
            scores += bias

    maybe_record(recorder, elementwise_op(
        OpKind.SOFTMAX, scores_shape, name=f"{name}.softmax", layer=layer))
    probabilities = softmax(scores, axis=-1)

    # Weighted sum of values: the second batched MatMul of Dataflow 3.
    maybe_record(recorder, bmm_op(
        batch * num_heads, q_len, kv_len, head_dim,
        name=f"{name}.context", layer=layer))
    context = probabilities @ v

    maybe_record(recorder, elementwise_op(
        OpKind.TRANSPOSE, (batch, q_len, num_heads, head_dim),
        name=f"{name}.merge_heads", layer=layer))
    context = context.transpose(0, 2, 1, 3).reshape(batch, q_len, width)
    return output.forward(context, recorder)


class MultiHeadAttention:
    """Scaled dot-product multi-head self-attention.

    Args:
        config: model hyperparameters.
        query / key / value / output: the four projection layers.
        layer: encoder layer index for trace provenance.
    """

    def __init__(self, config: BertConfig, query: Linear, key: Linear,
                 value: Linear, output: Linear, layer: int = -1) -> None:
        self.config = config
        self.query = query
        self.key = key
        self.value = value
        self.output = output
        self.layer = layer

    def forward(self, hidden: np.ndarray,
                attention_mask: Optional[np.ndarray] = None,
                recorder: Optional[TraceRecorder] = None) -> np.ndarray:
        """Run attention over ``hidden`` of shape ``(batch, seq, hidden)``.

        Args:
            hidden: input activations.
            attention_mask: optional ``(batch, seq)`` array with 1 for real
                tokens and 0 for padding.
            recorder: optional trace recorder.

        Returns:
            Context of shape ``(batch, seq, hidden)`` (pre-residual).
        """
        batch, seq, width = hidden.shape
        if width != self.config.hidden_size:
            raise ValueError("attention: hidden width mismatch")
        bias = None
        if attention_mask is not None:
            if attention_mask.shape != (batch, seq):
                raise ValueError("attention_mask must be (batch, seq)")
            bias = ((1.0 - attention_mask[:, None, None, :])
                    * ATTENTION_MASK_VALUE)
        return attend(self.query, self.key, self.value, self.output,
                      hidden, hidden, self.config.num_heads, bias,
                      name="attention", bias_name="mask", layer=self.layer,
                      recorder=recorder)
