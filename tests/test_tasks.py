import numpy as np
import pytest

from lorafa.errors import ParameterError
from lorafa.model import IGNORE_TARGET
from lorafa.tasks import BOS, NUM_RESERVED, SEP, gen_task


def _pair(ds):
    """(prompt, answer) token blocks of a copy/reverse dataset."""
    k = (ds.seq_len - 2) // 2
    return ds.tokens[:, 1 : 1 + k], ds.tokens[:, 2 + k : 2 + 2 * k]


def test_copy_pair_contract():
    ds = gen_task("copy", vocab=16, seq_len=8, n_examples=20, seed=0)
    prompt, answer = _pair(ds)
    assert np.array_equal(answer, prompt)


def test_reverse_pair_contract():
    ds = gen_task("reverse", vocab=16, seq_len=8, n_examples=20, seed=0)
    prompt, answer = _pair(ds)
    assert np.array_equal(answer, prompt[:, ::-1])


def test_stream_layout():
    ds = gen_task("copy", vocab=16, seq_len=8, n_examples=5, seed=1)
    k = (8 - 2) // 2
    assert np.all(ds.tokens[:, 0] == BOS)
    assert np.all(ds.tokens[:, 1 + k] == SEP)
    prompt, answer = _pair(ds)
    assert np.array_equal(ds.tokens[:, 2 + k :], prompt)  # copy: the answer ends the row
    # loss is confined to the answer region
    assert np.all(ds.targets[:, : 1 + k] == IGNORE_TARGET)
    assert np.array_equal(ds.targets[:, 1 + k : 1 + 2 * k], answer)


def test_content_tokens_avoid_reserved():
    ds = gen_task("reverse", vocab=6, seq_len=10, n_examples=50, seed=2)
    prompt, _ = _pair(ds)
    assert prompt.min() >= NUM_RESERVED
    assert prompt.max() < 6


def test_same_seed_identical_bytes():
    a = gen_task("copy", 16, 8, 10, seed=7)
    b = gen_task("copy", 16, 8, 10, seed=7)
    assert a.tokens.tobytes() == b.tokens.tobytes()
    assert a.targets.tobytes() == b.targets.tobytes()
    c = gen_task("copy", 16, 8, 10, seed=8)
    assert a.tokens.tobytes() != c.tokens.tobytes()


def test_char_lm_next_token_targets():
    ds = gen_task("char-lm", vocab=12, seq_len=9, n_examples=8, seed=3)
    assert np.array_equal(ds.targets[:, :-1], ds.tokens[:, 1:])
    assert np.all(ds.targets[:, -1] == IGNORE_TARGET)
    assert ds.tokens[:, 1:].min() >= NUM_RESERVED


def test_char_lm_is_markov():
    # each content token always transitions into one of two successors
    ds = gen_task("char-lm", vocab=20, seq_len=32, n_examples=40, seed=4)
    succ = {}
    for row in ds.tokens:
        for a, b in zip(row[1:-1], row[2:]):
            succ.setdefault(int(a), set()).add(int(b))
    assert max(len(s) for s in succ.values()) <= 2


def test_parameter_validation():
    with pytest.raises(ParameterError):
        gen_task("sort", 16, 8, 4, 0)
    with pytest.raises(ParameterError):
        gen_task("copy", 3, 8, 4, 0)
    with pytest.raises(ParameterError):
        gen_task("copy", 16, 3, 4, 0)
    with pytest.raises(ParameterError):
        gen_task("copy", 16, 8, 0, 0)


def test_batch_wraps_deterministically():
    ds = gen_task("copy", 16, 8, n_examples=5, seed=5)
    t1, _ = ds.batch(0, 4)
    t2, _ = ds.batch(0, 4)
    assert np.array_equal(t1, t2)
    t3, _ = ds.batch(1, 4)  # wraps past the end
    assert t3.shape == (4, 8)
    assert np.array_equal(t3[0], ds.tokens[4])
    assert np.array_equal(t3[1], ds.tokens[0])
