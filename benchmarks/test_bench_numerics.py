"""Benchmark E-NUM — end-to-end numerics validation.

Validates the paper's two accuracy assertions: 32-bit accumulation
"prevent[s] precision loss" and the LUT truncation policies "do not
affect the accuracy of the models we study."
"""

import numpy as np
import pytest
from conftest import emit, run_once

from repro.experiments import numerics
from repro.model import gelu
from repro.model.activations import GELU_CUBIC_COEFF, GELU_TANH_COEFF

#: Bit patterns per step of the exhaustive float32 sweep (~0.6 GB peak).
CHUNK = 1 << 24


def test_numerics_accuracy_preserved(benchmark):
    result = run_once(benchmark, numerics.run)
    emit("Numerics: bf16 + LUT datapath vs float reference",
         numerics.format_result(result))

    # Hidden states through the full hardware datapath track the float
    # reference almost exactly.
    assert result.output_correlation > 0.999
    assert result.output_max_error < 0.2

    # The downstream scientific conclusion is unchanged: rank correlation
    # through the hardware datapath matches the float pipeline.
    assert abs(result.accelerated_rank_correlation
               - result.reference_rank_correlation) < 0.1
    assert result.accuracy_preserved


def reference_gelu(x: np.ndarray) -> np.ndarray:
    """The ``np.power`` GELU the model's kernel replaced (as in
    ``tests/test_model.py``)."""
    x = np.asarray(x, dtype=np.float64)
    inner = GELU_TANH_COEFF * (x + GELU_CUBIC_COEFF * np.power(x, 3))
    return (0.5 * x * (1.0 + np.tanh(inner))).astype(np.float32)


@pytest.mark.exhaustive
def test_gelu_bit_identical_on_every_finite_float32():
    """``gelu`` equals the reference formula on all 2^32 - 2^24 finite
    float32 inputs.  Takes minutes; run with ``-m exhaustive``."""
    checked = 0
    for start in range(0, 1 << 32, CHUNK):
        patterns = np.arange(start, start + CHUNK,
                             dtype=np.uint64).astype(np.uint32)
        values = patterns.view(np.float32)
        values = values[np.isfinite(values)]
        mismatched = np.flatnonzero(
            gelu(values).view(np.uint32)
            != reference_gelu(values).view(np.uint32))
        assert mismatched.size == 0, (
            f"{mismatched.size} mismatches from "
            f"{values[mismatched[:8]].view(np.uint32)}")
        checked += values.size
    assert checked == (1 << 32) - (1 << 24)
