"""Synthetic sequence tasks standing in for NLP benchmarks.

Token ids 0..2 are reserved (PAD, BOS, SEP); content tokens occupy
[3, vocab). copy and reverse are prompt/answer tasks laid out as

    [BOS, x_1 .. x_k, SEP, y_1 .. y_k]      k = (seq_len - 2) // 2

with next-token loss only on the answer region (the position holding SEP
predicts y_1, and so on). char-lm is a plain next-token task over a seeded
first-order Markov grammar with loss at every position. All generation is
deterministic under the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, require_array_size, require_number
from .model import IGNORE_TARGET
from .rng import RngState, derive, randint, uniform

PAD, BOS, SEP = 0, 1, 2
NUM_RESERVED = 3

TASK_KINDS = ("copy", "reverse", "char-lm")


@dataclass
class Dataset:
    kind: str
    vocab: int
    seq_len: int
    tokens: np.ndarray   # (n, seq_len) int64 model inputs
    targets: np.ndarray  # (n, seq_len) int64, IGNORE_TARGET off the loss

    def __len__(self) -> int:
        return self.tokens.shape[0]

    def batch(self, step: int, batch_size: int):
        """Deterministic wrap-around batching."""
        require_number("step", step, integral=True, at_least=0)
        require_number("batch_size", batch_size, integral=True, at_least=1)
        require_array_size("a batch", batch_size * self.seq_len)
        n = len(self)
        idx = (step * batch_size % n + np.arange(batch_size)) % n  # Python ints fit any step
        return self.tokens[idx], self.targets[idx]


def check_task(kind: str, vocab: int, seq_len: int, n_examples: int) -> None:
    """ParameterError unless gen_task can build this task; RunConfig checks it too."""
    if kind not in TASK_KINDS:
        raise ParameterError(f"task must be one of {TASK_KINDS}, got {kind!r}")
    require_number("vocab", vocab, integral=True, at_least=NUM_RESERVED + 1)
    require_number("seq_len", seq_len, integral=True, at_least=4)
    require_number("n_examples", n_examples, integral=True, at_least=1)
    # char-lm's successor table is (vocab - 3) x 2; its bound keeps every id an int64.
    require_array_size("the token table", n_examples * seq_len)
    require_array_size("the successor table", 2 * (vocab - NUM_RESERVED))


def gen_task(kind: str, vocab: int, seq_len: int, n_examples: int, seed: int) -> Dataset:
    check_task(kind, vocab, seq_len, n_examples)
    rng = derive(RngState(seed), f"task:{kind}")
    if kind == "char-lm":
        return _gen_char_lm(vocab, seq_len, n_examples, rng)
    return _gen_pair_task(kind, vocab, seq_len, n_examples, rng)


def _gen_pair_task(kind: str, vocab: int, seq_len: int, n: int, rng: RngState) -> Dataset:
    k = (seq_len - 2) // 2
    inputs = randint(rng, NUM_RESERVED, vocab, (n, k))
    answers = inputs if kind == "copy" else inputs[:, ::-1]
    tokens = np.full((n, seq_len), PAD, dtype=np.int64)
    targets = np.full((n, seq_len), IGNORE_TARGET, dtype=np.int64)
    tokens[:, 0] = BOS
    tokens[:, 1 : 1 + k] = inputs
    tokens[:, 1 + k] = SEP
    tokens[:, 2 + k : 2 + 2 * k] = answers
    # position j predicts token j+1; supervise only the answer tokens
    targets[:, 1 + k : 1 + 2 * k] = answers
    return Dataset(kind, vocab, seq_len, tokens, targets)


def _gen_char_lm(vocab: int, seq_len: int, n: int, rng: RngState) -> Dataset:
    n_content = vocab - NUM_RESERVED
    # Sparse stochastic grammar: each content token has two successors,
    # taken with probability 0.75 / 0.25.
    succ = randint(rng, NUM_RESERVED, vocab, (n_content, 2))
    tokens = np.full((n, seq_len), PAD, dtype=np.int64)
    tokens[:, 0] = BOS
    state = randint(rng, NUM_RESERVED, vocab, (n,))
    tokens[:, 1] = state
    for j in range(2, seq_len):
        branch = (uniform((n,), rng) < 0.25).astype(np.int64)
        state = succ[state - NUM_RESERVED, branch]
        tokens[:, j] = state
    targets = np.full((n, seq_len), IGNORE_TARGET, dtype=np.int64)
    targets[:, :-1] = tokens[:, 1:]
    return Dataset("char-lm", vocab, seq_len, tokens, targets)
