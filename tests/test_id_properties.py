"""Property test for token and target ids: whatever dtype, shape and values a
batch has, forward_loss either raises a LorafaError or returns a finite loss.
An empty or non-2-d batch is a DimensionError, a non-integer dtype (bool
and object included) or an id out of range a DataError; numpy's own
IndexError, TypeError or ValueError must never escape."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lorafa.adapters import Mode
from lorafa.errors import LorafaError
from lorafa.model import IGNORE_TARGET, ModelConfig, build_model, forward_loss
from lorafa.rng import RngState

TINY = ModelConfig(d=8, n_layers=1, n_heads=2, vocab=10, seq_len=6, batch_size=2)
# forward_loss writes into no model array, so one model per mode serves every example.
MODELS = {mode: build_model(TINY, mode, rank=2, rng=RngState(0)) for mode in Mode}
DTYPES = [np.int8, np.int64, np.uint8, np.uint64, np.float64, np.bool_, object]


def _ids(data, shape, low: int) -> np.ndarray:
    """An array of the given shape and a drawn dtype, with ids in [low, vocab)
    but for one, now and then, past either end of the vocabulary. Casts to a
    narrow or unsigned dtype wrap, and to float64, bool or object keep the value."""
    size = int(np.prod(shape))
    values = data.draw(st.lists(st.integers(low, TINY.vocab - 1), min_size=size, max_size=size))
    if size and data.draw(st.sampled_from([False, False, True])):
        values[data.draw(st.integers(0, size - 1))] = data.draw(
            st.sampled_from([-2, TINY.vocab, 2**40]))
    dtype = data.draw(st.sampled_from(DTYPES))
    return np.array(values, dtype=object if dtype is object else None).astype(dtype).reshape(shape)


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(st.sampled_from(list(Mode)), st.data())
def test_forward_loss_raises_a_lorafa_error_or_returns_a_finite_loss(mode, data):
    ndim = data.draw(st.sampled_from([2, 2, 2, 2, 2, 2, 1, 3]))
    # extents up to one past seq_len, and now and then 0
    extents = st.sampled_from([*range(1, TINY.seq_len + 2), 0])
    shape = tuple(data.draw(st.lists(extents, min_size=ndim, max_size=ndim)))
    target_shape = data.draw(st.sampled_from([shape, shape, shape, shape[::-1]]))
    tokens, targets = _ids(data, shape, 0), _ids(data, target_shape, IGNORE_TARGET)
    try:
        loss, _ = forward_loss(MODELS[mode], tokens, targets)
    except LorafaError:
        return
    assert np.isfinite(loss)
