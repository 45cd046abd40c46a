"""Reference activation functions for the Protein BERT model.

These are the float32 "golden" implementations.  The accelerator-side
approximations (bfloat16 lookup tables with exponent-window truncation) live
in :mod:`repro.arch.lut` and are validated against these references.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

#: Constant sqrt(2/pi) used by the tanh-based GELU approximation the paper
#: quotes: GELU(x) = 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))).
GELU_TANH_COEFF = float(np.sqrt(2.0 / np.pi))

#: Cubic coefficient from the same formulation.
GELU_CUBIC_COEFF = 0.044715


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian Error Linear Unit (tanh approximation, as in the paper).

    Evaluated in float64 and rounded to float32 once.  The cube is
    ``x * x * x``: for a float32 input ``x * x`` is exact in float64 (48
    significant bits), so the product is the correctly rounded cube, and
    the in-place steps below evaluate the formula in its written order.
    The result is bit-identical to ``np.power(x, 3)`` for every finite
    float32 input (checked exhaustively by
    ``benchmarks/test_bench_numerics.py``).  Float64 inputs get a correct
    GELU, with no bit-identity claim.
    """
    x = np.asarray(x, dtype=np.float64)
    inner = x * x
    inner *= x
    inner *= GELU_CUBIC_COEFF
    inner += x
    inner *= GELU_TANH_COEFF
    np.tanh(inner, out=inner)
    inner += 1.0
    values = 0.5 * x
    values *= inner
    return values.astype(np.float32)


def gelu_exact(x: np.ndarray) -> np.ndarray:
    """Exact GELU via the Gauss error function.

    ``scipy.special`` is imported here, not at module level: it costs
    ~0.2 s and ~25 MB of resident memory per process, and nothing else in
    the package needs it.
    """
    from scipy.special import erf

    x = np.asarray(x, dtype=np.float64)
    return (0.5 * x * (1.0 + erf(x / sqrt(2.0)))).astype(np.float32)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``; ``x`` is left unmodified."""
    x = np.asarray(x, dtype=np.float32)
    out = x - np.max(x, axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= np.sum(out, axis=axis, keepdims=True)
    return out


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
               eps: float = 1e-12) -> np.ndarray:
    """Layer normalization over the last axis with affine parameters."""
    x = np.asarray(x, dtype=np.float32)
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normalized = (x - mean) / np.sqrt(var + eps)
    return normalized * gamma + beta


def exp(x: np.ndarray) -> np.ndarray:
    """Elementwise exponential (reference for the accelerator Exp LUT)."""
    return np.exp(np.asarray(x, dtype=np.float32)).astype(np.float32)


def tanh(x: np.ndarray) -> np.ndarray:
    """Elementwise tanh."""
    return np.tanh(np.asarray(x, dtype=np.float32)).astype(np.float32)
