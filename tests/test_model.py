"""Tests for the NumPy Protein BERT model: layers, attention, encoder."""

import numpy as np
import pytest

from repro.model import (
    ATTENTION_MASK_VALUE,
    BertConfig,
    Embedding,
    LayerNorm,
    Linear,
    ProteinBert,
    ProteinSeq2Seq,
    causal_mask,
    gelu,
    gelu_exact,
    initialize_weights,
    layer_norm,
    load_weights,
    protein_bert_base,
    protein_bert_tiny,
    save_weights,
    softmax,
    validate_weights,
)
from repro.model.activations import GELU_CUBIC_COEFF, GELU_TANH_COEFF
from repro.model.attention import _adds_nothing
from repro.model.weights import pretrained_like_weights
from repro.trace import TraceRecorder


# Reference kernels: the allocating formulas the model's in-place kernels
# were rewritten from.  The parity tests below hold the model to them bit
# for bit.

def reference_gelu(x: np.ndarray) -> np.ndarray:
    """GELU with the cube taken by ``np.power``, one temporary per step."""
    x = np.asarray(x, dtype=np.float64)
    inner = GELU_TANH_COEFF * (x + GELU_CUBIC_COEFF * np.power(x, 3))
    return (0.5 * x * (1.0 + np.tanh(inner))).astype(np.float32)


def reference_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    x = np.asarray(x, dtype=np.float32)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / np.sum(exps, axis=axis, keepdims=True)


def reference_linear(layer: Linear, x: np.ndarray) -> np.ndarray:
    y = x @ layer.weight
    return y if layer.bias is None else y + layer.bias


def reference_attention(attention, hidden: np.ndarray, kv: np.ndarray,
                        bias) -> np.ndarray:
    """Multi-head attention with the bias always added, even all -0.0."""
    batch, q_len, width = hidden.shape
    kv_len = kv.shape[1]
    heads, head_dim = attention.config.num_heads, attention.config.head_dim

    def split(x, length):
        return x.reshape(batch, length, heads, head_dim).transpose(0, 2, 1, 3)

    q = split(reference_linear(attention.query, hidden), q_len)
    k = split(reference_linear(attention.key, kv), kv_len)
    v = split(reference_linear(attention.value, kv), kv_len)
    scores = q @ k.transpose(0, 1, 3, 2)
    scores = scores / np.sqrt(head_dim).astype(np.float32)
    if bias is not None:
        scores = scores + bias.astype(np.float32)
    context = reference_softmax(scores, axis=-1) @ v
    merged = context.transpose(0, 2, 1, 3).reshape(batch, q_len, width)
    return reference_linear(attention.output, merged)


def reference_norm(norm: LayerNorm, x: np.ndarray) -> np.ndarray:
    return layer_norm(x, norm.gamma, norm.beta, eps=norm.eps)


def reference_embed(token, position, norm, ids: np.ndarray) -> np.ndarray:
    batch, seq = ids.shape
    positions = np.tile(np.arange(seq), (batch, 1))
    return reference_norm(norm, token.table[ids] + position.table[positions])


def reference_feed_forward(layer, hidden: np.ndarray) -> np.ndarray:
    inner = reference_gelu(reference_linear(layer.intermediate, hidden))
    projected = reference_linear(layer.output, inner)
    return reference_norm(layer.output_norm, projected + hidden)


def reference_encoder(model: ProteinBert, ids: np.ndarray,
                      mask=None) -> np.ndarray:
    hidden = reference_embed(model.token_embedding, model.position_embedding,
                             model.embedding_norm, ids)
    bias = None if mask is None else (
        (1.0 - mask[:, None, None, :]) * ATTENTION_MASK_VALUE)
    for layer in model.layers:
        attended = reference_attention(layer.attention, hidden, hidden, bias)
        hidden = reference_norm(layer.attention_norm, attended + hidden)
        hidden = reference_feed_forward(layer, hidden)
    return hidden


def reference_seq2seq(model: ProteinSeq2Seq, source: np.ndarray,
                      target: np.ndarray) -> np.ndarray:
    encoded = reference_encoder(model.encoder, source)
    hidden = reference_embed(model.token_embedding, model.position_embedding,
                             model.embedding_norm, target)
    bias = causal_mask(target.shape[1])[None, None]
    for layer in model.layers:
        attended = reference_attention(layer.self_attention, hidden, hidden,
                                       bias)
        hidden = reference_norm(layer.self_norm, attended + hidden)
        crossed = reference_attention(layer.cross_attention, hidden, encoded,
                                      None)
        hidden = reference_norm(layer.cross_norm, crossed + hidden)
        hidden = reference_feed_forward(layer, hidden)
    return hidden


def assert_bits_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype == np.float32
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint32), expected.view(np.uint32))


class TestActivations:
    def test_gelu_at_zero(self):
        assert gelu(np.array([0.0]))[0] == pytest.approx(0.0)

    def test_gelu_large_positive_is_identity(self):
        assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, rel=1e-4)

    def test_gelu_large_negative_is_zero(self):
        assert gelu(np.array([-10.0]))[0] == pytest.approx(0.0, abs=1e-4)

    def test_gelu_tanh_matches_exact(self):
        xs = np.linspace(-5, 5, 101)
        assert np.allclose(gelu(xs), gelu_exact(xs), atol=2e-3)

    def test_softmax_rows_sum_to_one(self):
        x = np.random.default_rng(0).normal(size=(4, 7)).astype(np.float32)
        assert np.allclose(softmax(x).sum(axis=-1), 1.0, atol=1e-6)

    def test_softmax_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
        assert np.allclose(softmax(x), softmax(x + 100.0), atol=1e-6)

    def test_softmax_numerically_stable_for_large_inputs(self):
        x = np.array([[1e4, 1e4 + 1.0]], dtype=np.float32)
        result = softmax(x)
        assert np.isfinite(result).all()

    def test_layer_norm_zero_mean_unit_var(self):
        x = np.random.default_rng(1).normal(3.0, 5.0, size=(10, 16))
        gamma = np.ones(16, dtype=np.float32)
        beta = np.zeros(16, dtype=np.float32)
        normalized = layer_norm(x, gamma, beta)
        assert np.allclose(normalized.mean(axis=-1), 0.0, atol=1e-5)
        assert np.allclose(normalized.std(axis=-1), 1.0, atol=1e-3)

    def test_layer_norm_affine(self):
        x = np.random.default_rng(2).normal(size=(4, 8)).astype(np.float32)
        gamma = np.full(8, 2.0, dtype=np.float32)
        beta = np.full(8, 1.0, dtype=np.float32)
        normalized = layer_norm(x, gamma, beta)
        assert np.allclose(normalized.mean(axis=-1), 1.0, atol=1e-5)


class TestBertConfig:
    def test_defaults_are_bert_base(self):
        config = protein_bert_base()
        assert config.hidden_size == 768
        assert config.num_layers == 12
        assert config.num_heads == 12
        assert config.intermediate_size == 3072
        assert config.head_dim == 64

    def test_vocab_is_protein_alphabet(self):
        assert protein_bert_base().vocab_size == 30

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            BertConfig(hidden_size=100, num_heads=12)

    def test_positive_fields_enforced(self):
        with pytest.raises(ValueError):
            BertConfig(num_layers=0)

    def test_parameter_count_scale(self):
        # BERT-base without the word-piece vocab: ~85M encoder params
        # plus protein/position embeddings.
        count = protein_bert_base().parameter_count
        assert 85_000_000 < count < 95_000_000


class TestLayers:
    def test_linear_matches_numpy(self):
        rng = np.random.default_rng(0)
        weight = rng.normal(size=(8, 4)).astype(np.float32)
        bias = rng.normal(size=4).astype(np.float32)
        x = rng.normal(size=(3, 8)).astype(np.float32)
        layer = Linear(weight, bias)
        assert np.allclose(layer.forward(x), x @ weight + bias, atol=1e-6)

    def test_linear_shape_validation(self):
        weight = np.zeros((8, 4), dtype=np.float32)
        layer = Linear(weight)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((3, 5), dtype=np.float32))

    def test_linear_bias_shape_validation(self):
        with pytest.raises(ValueError):
            Linear(np.zeros((8, 4)), bias=np.zeros(5))

    def test_embedding_lookup(self):
        table = np.arange(12, dtype=np.float32).reshape(4, 3)
        layer = Embedding(table)
        out = layer.forward(np.array([[0, 3], [1, 1]]))
        assert out.shape == (2, 2, 3)
        assert np.array_equal(out[0, 1], table[3])

    def test_embedding_out_of_range(self):
        layer = Embedding(np.zeros((4, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            layer.forward(np.array([[4]]))

    def test_layernorm_module_matches_function(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5, 8)).astype(np.float32)
        gamma = rng.normal(size=8).astype(np.float32)
        beta = rng.normal(size=8).astype(np.float32)
        module = LayerNorm(gamma, beta)
        assert np.allclose(module.forward(x), layer_norm(x, gamma, beta))


class TestProteinBert:
    @pytest.fixture(scope="class")
    def tiny(self):
        config = protein_bert_tiny()
        return config, ProteinBert(config, seed=0)

    def test_forward_shape(self, tiny):
        config, model = tiny
        ids = np.zeros((2, 10), dtype=np.int64)
        out = model.forward(ids)
        assert out.shape == (2, 10, config.hidden_size)

    def test_forward_deterministic(self, tiny):
        config, model = tiny
        ids = np.full((1, 8), 5, dtype=np.int64)
        assert np.array_equal(model.forward(ids), model.forward(ids))

    def test_sequence_too_long_rejected(self, tiny):
        config, model = tiny
        ids = np.zeros((1, config.max_position + 1), dtype=np.int64)
        with pytest.raises(ValueError):
            model.forward(ids)

    def test_mask_changes_output(self, tiny):
        config, model = tiny
        rng = np.random.default_rng(0)
        ids = rng.integers(5, 25, size=(1, 8))
        mask = np.ones((1, 8), dtype=np.int64)
        masked = mask.copy()
        masked[0, -3:] = 0
        assert not np.allclose(model.forward(ids, mask),
                               model.forward(ids, masked))

    def test_padding_does_not_change_real_token_features(self, tiny):
        config, model = tiny
        rng = np.random.default_rng(1)
        ids = rng.integers(5, 25, size=(1, 6))
        mask = np.ones((1, 6), dtype=np.int64)
        out_short = model.forward(ids, mask)
        padded = np.concatenate(
            [ids, np.zeros((1, 4), dtype=np.int64)], axis=1)
        padded_mask = np.concatenate(
            [mask, np.zeros((1, 4), dtype=np.int64)], axis=1)
        out_padded = model.forward(padded, padded_mask)
        assert np.allclose(out_short[0], out_padded[0, :6], atol=1e-4)

    def test_features_mean_pool_with_mask(self, tiny):
        config, model = tiny
        ids = np.full((1, 6), 7, dtype=np.int64)
        mask = np.array([[1, 1, 1, 0, 0, 0]])
        features = model.features(ids, mask)
        hidden = model.forward(ids, mask)
        assert np.allclose(features[0], hidden[0, :3].mean(axis=0),
                           atol=1e-6)

    def test_attention_mask_value_is_large_negative(self):
        assert ATTENTION_MASK_VALUE <= -1e8


class TestWeights:
    def test_initialization_deterministic(self):
        config = protein_bert_tiny()
        a = initialize_weights(config, seed=5)
        b = initialize_weights(config, seed=5)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_initialization_covers_all_layers(self):
        config = protein_bert_tiny(num_layers=3)
        weights = initialize_weights(config)
        assert "layer.2.output.weight" in weights
        assert "layer.3.output.weight" not in weights

    def test_truncated_normal_bounds(self):
        weights = initialize_weights(protein_bert_tiny(), seed=0)
        w = weights["layer.0.attention.query.weight"]
        assert np.abs(w).max() <= 0.04 + 1e-6

    def test_save_load_roundtrip(self, tmp_path):
        config = protein_bert_tiny()
        weights = initialize_weights(config, seed=1)
        path = tmp_path / "weights.npz"
        save_weights(weights, path)
        loaded = load_weights(path)
        assert set(loaded) == set(weights)
        assert all(np.array_equal(loaded[k], weights[k]) for k in weights)

    def test_validate_rejects_missing(self):
        config = protein_bert_tiny()
        weights = initialize_weights(config)
        del weights["layer.0.output.bias"]
        with pytest.raises(ValueError):
            validate_weights(weights, config)

    def test_validate_rejects_bad_shape(self):
        config = protein_bert_tiny()
        weights = initialize_weights(config)
        weights["layer.0.output.bias"] = np.zeros(3, dtype=np.float32)
        with pytest.raises(ValueError):
            validate_weights(weights, config)

    def test_pretrained_like_embeds_descriptors(self):
        config = protein_bert_tiny()
        weights = pretrained_like_weights(config, seed=0)
        table = weights["embeddings.token"]
        from repro.proteins import DEFAULT_VOCABULARY, HYDROPATHY
        ile = DEFAULT_VOCABULARY.index("I")
        arg = DEFAULT_VOCABULARY.index("R")
        # Hydropathy dim: isoleucine strongly positive, arginine negative.
        assert table[ile, 0] > 0 > table[arg, 0]
        assert table[ile, 0] == pytest.approx(
            0.3 * HYDROPATHY["I"] / 4.5, rel=1e-5)

    def test_pretrained_like_keeps_shapes_valid(self):
        config = protein_bert_tiny()
        validate_weights(pretrained_like_weights(config), config)


class TestKernelParity:
    """The in-place kernels reproduce the reference formulas bit for bit."""

    @pytest.fixture(scope="class")
    def tiny(self):
        return ProteinBert(protein_bert_tiny(), seed=3)

    def test_gelu_every_bf16_pattern(self):
        patterns = (np.arange(1 << 16, dtype=np.uint32) << 16).view(
            np.float32)
        with np.errstate(invalid="ignore"):
            assert_bits_equal(gelu(patterns), reference_gelu(patterns))

    def test_gelu_float32_stride(self):
        # Every 4099th bit pattern (~1M finite values); the full float32
        # proof is the opt-in benchmarks/test_bench_numerics.py.
        patterns = np.arange(0, 1 << 32, 4099, dtype=np.uint64)
        values = patterns.astype(np.uint32).view(np.float32)
        values = values[np.isfinite(values)]
        assert_bits_equal(gelu(values), reference_gelu(values))

    def test_gelu_leaves_float64_input_unmodified(self):
        x = np.linspace(-6.0, 6.0, 97)
        before = x.copy()
        gelu(x)
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_softmax_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        x = (rng.normal(size=(2, 4, 13, 13)) * 8).astype(np.float32)
        x[0, 1, :, -5:] += np.float32(ATTENTION_MASK_VALUE)
        before = x.copy()
        assert_bits_equal(softmax(x, axis=-1), reference_softmax(x, axis=-1))
        assert np.array_equal(x.view(np.uint32), before.view(np.uint32))

    def test_softmax_other_axis_matches_reference(self):
        x = np.random.default_rng(4).normal(size=(5, 7, 3)).astype(np.float32)
        assert_bits_equal(softmax(x, axis=1), reference_softmax(x, axis=1))

    def test_encoder_all_ones_mask(self, tiny):
        ids = np.random.default_rng(5).integers(5, 25, size=(2, 11))
        mask = np.ones((2, 11), dtype=np.int64)
        expected = reference_encoder(tiny, ids, mask)
        assert_bits_equal(tiny.forward(ids, mask), expected)
        # An all-ones mask adds exactly -0.0, so dropping it is exact too.
        assert_bits_equal(tiny.forward(ids), expected)

    def test_encoder_padded_mask(self, tiny):
        ids = np.random.default_rng(6).integers(5, 25, size=(3, 10))
        mask = np.ones((3, 10), dtype=np.int64)
        mask[1, -4:] = 0
        mask[2, -1:] = 0
        assert_bits_equal(tiny.forward(ids, mask),
                          reference_encoder(tiny, ids, mask))

    def test_only_an_all_negative_zero_bias_is_skipped(self):
        # s + (-0.0) == s for every s, but -0.0 + (+0.0) is +0.0.
        assert _adds_nothing(np.full((1, 1, 1, 4), -0.0, dtype=np.float32))
        assert not _adds_nothing(np.zeros((1, 1, 1, 4), dtype=np.float32))
        assert not _adds_nothing(
            np.array([-0.0, ATTENTION_MASK_VALUE], dtype=np.float32))

    def test_seq2seq_decoder(self):
        model = ProteinSeq2Seq(protein_bert_tiny(), seed=1)
        rng = np.random.default_rng(7)
        source = rng.integers(5, 25, size=(2, 12))
        target = rng.integers(5, 25, size=(2, 8))
        assert_bits_equal(model.forward(source, target),
                          reference_seq2seq(model, source, target))


#: Op stream of a one-layer tiny encoder over a (2, 9) batch with a padded
#: mask: (kind, name, shape, layer, batch, metadata), in execution order.
MASKED_ENCODER_OPS = [
    ("embedding", "embeddings.token", (2, 9, 64), -1, 1, ()),
    ("embedding", "embeddings.position", (2, 9, 64), -1, 1, ()),
    ("add", "embeddings.add", (2, 9, 64), -1, 1, ()),
    ("layernorm", "embeddings.layernorm", (2, 9, 64), -1, 1, ()),
    ("matmul", "layer.0.attention.query", (18, 64, 64), 0, 1, ()),
    ("add", "layer.0.attention.query.bias", (2, 9, 64), 0, 1,
     (("vector_operand", 1.0),)),
    ("matmul", "layer.0.attention.key", (18, 64, 64), 0, 1, ()),
    ("add", "layer.0.attention.key.bias", (2, 9, 64), 0, 1,
     (("vector_operand", 1.0),)),
    ("matmul", "layer.0.attention.value", (18, 64, 64), 0, 1, ()),
    ("add", "layer.0.attention.value.bias", (2, 9, 64), 0, 1,
     (("vector_operand", 1.0),)),
    ("transpose", "attention.split_heads", (2, 9, 4, 16), 0, 1, ()),
    ("transpose", "attention.split_heads", (2, 9, 4, 16), 0, 1, ()),
    ("transpose", "attention.split_heads", (2, 9, 4, 16), 0, 1, ()),
    ("bmm", "attention.scores", (8, 9, 16, 9), 0, 1, ()),
    ("div", "attention.scale", (2, 4, 9, 9), 0, 1, (("divisor", 4.0),)),
    ("add", "attention.mask", (2, 4, 9, 9), 0, 1, ()),
    ("softmax", "attention.softmax", (2, 4, 9, 9), 0, 1, ()),
    ("bmm", "attention.context", (8, 9, 9, 16), 0, 1, ()),
    ("transpose", "attention.merge_heads", (2, 9, 4, 16), 0, 1, ()),
    ("matmul", "layer.0.attention.output", (18, 64, 64), 0, 1, ()),
    ("add", "layer.0.attention.output.bias", (2, 9, 64), 0, 1,
     (("vector_operand", 1.0),)),
    ("add", "layer.0.attention.residual", (2, 9, 64), 0, 1, ()),
    ("layernorm", "layer.0.attention.layernorm", (2, 9, 64), 0, 1, ()),
    ("matmul", "layer.0.intermediate", (18, 64, 128), 0, 1, ()),
    ("add", "layer.0.intermediate.bias", (2, 9, 128), 0, 1,
     (("vector_operand", 1.0),)),
    ("gelu", "layer.0.gelu", (2, 9, 128), 0, 1, ()),
    ("matmul", "layer.0.output", (18, 128, 64), 0, 1, ()),
    ("add", "layer.0.output.bias", (2, 9, 64), 0, 1,
     (("vector_operand", 1.0),)),
    ("add", "layer.0.output.residual", (2, 9, 64), 0, 1, ()),
    ("layernorm", "layer.0.output.layernorm", (2, 9, 64), 0, 1, ()),
]


class TestTracedOpStream:
    @staticmethod
    def _ops(mask):
        model = ProteinBert(protein_bert_tiny(num_layers=1), seed=0)
        ids = np.random.default_rng(7).integers(5, 25, size=(2, 9))
        recorder = TraceRecorder()
        model.forward(ids, mask, recorder)
        return [(op.kind.value, op.name, op.shape, op.layer, op.batch,
                 op.metadata) for op in recorder.ops]

    def test_masked_encoder_op_stream_is_pinned(self):
        mask = np.ones((2, 9), dtype=np.int64)
        mask[1, -4:] = 0
        assert self._ops(mask) == MASKED_ENCODER_OPS

    def test_all_ones_mask_still_records_the_mask_add(self):
        # The add is skipped at run time, never in the recorded model.
        assert self._ops(np.ones((2, 9), dtype=np.int64)) == \
            MASKED_ENCODER_OPS
