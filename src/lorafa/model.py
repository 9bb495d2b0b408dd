"""GPT-style transformer assembled from adapted linear layers.

Backprop here is a fixed tape over the known block structure, not a
general autodiff graph: the forward pass keeps exactly what each op's
backward rule needs, with linear-layer inputs governed by the adaptation
mode's retention policy. The tape is a dict keyed like tape_elements, one
array (or a linear's RetainedActivations) per key, with the forward's
TAPE_INPUTS beside them. The memory meter counts the same tape, filing all
else (attention, GeLU, layernorm, log-softmax) under "other". Liveness
rule: forward and backward drop every temporary right after its last read,
and backward consumes the tape, popping every array at its last read, so a
consumed tape is {}. Last reads come first where the order is free: each
linear builds its parameter gradients, which read its retained inputs
last, before its dx; each layer norm's vjp takes dgamma/dbeta from its
upstream and then builds dx in it; both residual adds land in the stream.
Tiles keep intermediates from being whole (Dao et al., arXiv 2205.14135):
ffn2 runs over blocks of ops.ROWS rows (adapters.forward with gelu_into=),
adding into the residual stream, so its output is never whole, nor, in
modes that do not retain it (lora-fa, frozen), is GeLU's output; a linear
builds its dx from row tiles of its merged weight. So a step's peak is the
tape plus a few temporaries (Chen et al., arXiv 1604.06174, section 3):
lora-fa's is at the last ffn2 dx, which must be whole there, as GeLU's
input and the residual gradient must. The meter counts a tape before
backward. The tape keeps each block's causal attention probabilities
packed: the b*h*s(s+1)/2 entries on and below the diagonal, since the
rest are exactly 0, where Korthikanti et al. (arXiv 2205.05198, section 4)
price the full b*h*s^2 square. Backward expands them into a zeroed
square, bit for bit the softmax's output, just before its two reads, so
nothing is recomputed.

Blocks are pre-norm: x + attn(ln(x)), x + ffn(ln(x)), with a final
layernorm and an output head tied to the (frozen-in-adapter-modes) token
embedding. Attention is plain scaled dot-product with a causal mask and
no dropout. Bias terms are omitted everywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import adapters, ops
from .adapters import AdaptedLinear, Mode
from .errors import (DataError, DimensionError, NumericsError, ParameterError,
                     require_array_size, require_number)
from .rng import RngState, derive, randn

IGNORE_TARGET = -1


@dataclass
class ModelConfig:
    """Transformer geometry; also drives the analytic memory formulas."""

    d: int
    n_layers: int
    n_heads: int
    vocab: int
    seq_len: int
    batch_size: int = 1
    d_ff: Optional[int] = None

    def __post_init__(self):
        for name in ("d", "n_layers", "n_heads", "vocab", "seq_len", "batch_size", "d_ff"):
            if name == "d_ff" and self.d_ff is None:
                self.d_ff = 4 * self.d  # d is checked by now
            require_number(name, getattr(self, name), integral=True, at_least=1)
        if self.d % self.n_heads != 0:
            raise ParameterError(f"d={self.d} not divisible by n_heads={self.n_heads}")

    @property
    def max_rank(self) -> int:
        """Largest adapter rank: min(d_in, d_out) over the block's linears."""
        return min(self.d, self.d_ff)


def check_rank(config: ModelConfig, mode: Mode, rank: int) -> None:
    """ParameterError unless rank is an integer >= 1, and <= config.max_rank in an adapter mode."""
    require_number("rank", rank, integral=True)
    if rank < 1:
        raise ParameterError(f"rank {rank} is below 1")
    if mode.has_adapter and rank > config.max_rank:
        raise ParameterError(f"rank {rank} exceeds min(d, d_ff) = {config.max_rank}")


@dataclass
class Block:
    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    attn_q: AdaptedLinear
    attn_k: AdaptedLinear
    attn_v: AdaptedLinear
    attn_o: AdaptedLinear
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray
    ffn1: AdaptedLinear
    ffn2: AdaptedLinear

    def layers(self) -> dict[str, AdaptedLinear]:
        """The adapted linears by name, in field order."""
        return {name: v for name, v in vars(self).items() if isinstance(v, AdaptedLinear)}


@dataclass
class TransformerModel:
    config: ModelConfig
    mode: Mode
    rank: int
    alpha: float
    tok_emb: np.ndarray
    pos_emb: np.ndarray
    blocks: list[Block]
    lnf_gamma: np.ndarray
    lnf_beta: np.ndarray

    def __post_init__(self):
        require_number("rank", self.rank, integral=True, at_least=1)
        require_number("alpha", self.alpha, positive=True)

    def adapted_layers(self) -> list[tuple[str, AdaptedLinear]]:
        out = []
        for i, block in enumerate(self.blocks):
            for name, layer in block.layers().items():
                out.append((f"block{i}.{name}", layer))
        return out


def build_model(
    config: ModelConfig,
    mode: Mode,
    rank: int = 1,
    alpha: Optional[float] = None,
    rng: Optional[RngState] = None,
) -> TransformerModel:
    """Deterministic model construction.

    Frozen weights and adapters draw from independent substreams derived
    from the seed, so models built in different modes from the same seed
    share bit-identical W and embeddings.
    """
    if rng is None:
        rng = RngState(0)
    check_rank(config, mode, rank)
    d, d_ff = config.d, config.d_ff
    require_array_size("the largest weight", max(d * d_ff, config.vocab * d))  # before 1 / sqrt(d)
    rng_w = derive(rng, "weights")
    rng_a = derive(rng, "adapters")
    rng_e = derive(rng, "embeddings")
    tok_emb = randn((config.vocab, d), rng_e, std=1.0 / np.sqrt(d))
    pos_emb = randn((config.seq_len, d), rng_e, std=1.0 / np.sqrt(d))
    blocks = []
    for _ in range(config.n_layers):
        layers = {}
        for name, (d_in, d_out) in dict(attn_q=(d, d), attn_k=(d, d), attn_v=(d, d),
                                        attn_o=(d, d), ffn1=(d, d_ff), ffn2=(d_ff, d)).items():
            w = randn((d_in, d_out), rng_w, std=1.0 / np.sqrt(d_in))
            layers[name] = adapters.init_adapter(d_in, d_out, rank, alpha, mode, rng_a, w=w)
        blocks.append(
            Block(
                ln1_gamma=np.ones(d),
                ln1_beta=np.zeros(d),
                ln2_gamma=np.ones(d),
                ln2_beta=np.zeros(d),
                **layers,
            )
        )
    return TransformerModel(
        config=config,
        mode=mode,
        rank=rank,
        alpha=blocks[0].attn_q.alpha,  # init_adapter's, which states the default
        tok_emb=tok_emb,
        pos_emb=pos_emb,
        blocks=blocks,
        lnf_gamma=np.ones(d),
        lnf_beta=np.zeros(d),
    )


# --- tape ---------------------------------------------------------------

TAPE_INPUTS = ("tokens", "targets")  # the forward's inputs, which the tape holds beside its table


@functools.lru_cache(maxsize=None)
def _key(i: int, name: str) -> str:
    """Block i's tape key for name, as tape_elements states it, built once so
    that no step builds it anew: one string per block field of the deepest
    model run."""
    return f"block{i}.{name}"


def tape_elements(config: ModelConfig, mode: Mode, rank: int, b: int, s: int) -> dict:
    """Elements per key of a (b, s) forward_loss tape, but its TAPE_INPUTS, in
    forward order: the one statement of its layout, which memory.reconcile
    matches against the meter. A linear keeps {"full": its input, "low": x@A},
    key and value no input of their own (they read query's); every other key
    is a count, 0 where the tape holds None: block 0's ln1 stats and
    head_input outside ft."""
    d, bs = config.d, b * s
    bsd, keep_full, keep_low = bs * d, mode.retains_full_input, mode.has_adapter

    def linear(d_in: int, own_input: bool = True) -> dict[str, int]:
        return {"full": bs * d_in * (keep_full and own_input), "low": bs * rank * keep_low}

    out: dict = {}
    for i in range(config.n_layers):
        ln1 = mode.trains_dense or i > 0
        cache = dict(
            ln1_xhat=bsd * ln1, ln1_inv=bs * ln1,
            attn_q=linear(d), attn_k=linear(d, False), attn_v=linear(d, False),
            qh=bsd, kh=bsd, vh=bsd, probs=b * config.n_heads * s * (s + 1) // 2,
            attn_o=linear(d),
            ln2_xhat=bsd, ln2_inv=bs,
            ffn1=linear(d), gelu_in=bs * config.d_ff, ffn2=linear(config.d_ff),
        )
        out.update((f"block{i}.{name}", n) for name, n in cache.items())
    out.update(lnf_xhat=bsd, lnf_inv=bs, head_input=bsd * mode.trains_dense,
               log_probs=bs * config.vocab)
    return out


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, s, d = x.shape
    return x.reshape(b, s, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, nh, s, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, s, nh * dh)


@functools.lru_cache(maxsize=8)
def _causal(s: int) -> tuple[np.ndarray, np.ndarray]:
    """Causal attention's structure at sequence length s: the (s, s) mask of
    the future entries, which forward sets to -inf, and the flat indices of
    the other s(s+1)/2, row by row, which _pack_causal keeps. Read-only."""
    future = np.triu(np.ones((s, s), dtype=bool), 1)
    lower = np.flatnonzero(~future)
    future.flags.writeable = lower.flags.writeable = False
    return future, lower


def _pack_causal(probs: np.ndarray) -> np.ndarray:
    """The lower triangles of (..., s, s) causal probs, row by row, as a fresh
    (..., s(s+1)/2) array: softmax makes every future entry exactly +0.0."""
    s = probs.shape[-1]
    return np.take(probs.reshape(probs.shape[:-2] + (s * s,)), _causal(s)[1], axis=-1)


def _unpack_causal(packed: np.ndarray) -> np.ndarray:
    """_pack_causal's inverse: the (..., s, s) probs, bit for bit, in a zeroed
    buffer, one row's slice at a time (a fancy-index scatter costs twice as much)."""
    s = (math.isqrt(8 * packed.shape[-1] + 1) - 1) // 2
    probs = np.zeros(packed.shape[:-1] + (s, s))
    lo = 0
    for i in range(s):
        probs[..., i, : i + 1] = packed[..., lo : lo + i + 1]
        lo += i + 1
    return probs


def _block_forward(model, i: int, x: np.ndarray, tape: dict) -> np.ndarray:
    """Block i's forward, which writes each array it retains into the tape."""
    block, key = model.blocks[i], functools.partial(_key, i)
    nh = model.config.n_heads
    dh = model.config.d // nh

    h, tape[key("ln1_xhat")], tape[key("ln1_inv")] = ops.layer_norm(x, block.ln1_gamma,
                                                                    block.ln1_beta)
    if not (model.mode.trains_dense or i > 0):
        # Block i keeps ln1's stats, which backward reads as "input gradient
        # live", only in ft or if i > 0: nothing below block 0 trains outside ft.
        tape[key("ln1_xhat")] = tape[key("ln1_inv")] = None
    q, tape[key("attn_q")] = adapters.forward(block.attn_q, h)
    k, tape[key("attn_k")] = adapters.forward(block.attn_k, h)
    v, tape[key("attn_v")] = adapters.forward(block.attn_v, h)
    del h

    qh, kh, vh = (_split_heads(t, nh) for t in (q, k, v))
    tape[key("qh")], tape[key("kh")], tape[key("vh")] = qh, kh, vh
    scores = qh @ np.swapaxes(kh, -1, -2)
    scores /= np.sqrt(dh)
    np.copyto(scores, -np.inf, where=_causal(x.shape[1])[0])
    probs = ops.softmax_rows(scores)
    del scores
    ctx = _merge_heads(probs @ vh)
    tape[key("probs")] = _pack_causal(probs)
    del probs

    attn_out, tape[key("attn_o")] = adapters.forward(block.attn_o, ctx)
    del ctx
    # Residual adds land in the stream x, which nothing retains and which the
    # caller still holds: attention's (x + y is y + x bit for bit), and
    # ffn2's, which runs over row blocks.
    x += attn_out
    del attn_out

    h2, tape[key("ln2_xhat")], tape[key("ln2_inv")] = ops.layer_norm(x, block.ln2_gamma,
                                                                     block.ln2_beta)
    f1, tape[key("ffn1")] = adapters.forward(block.ffn1, h2)
    del h2
    tape[key("gelu_in")] = f1
    x, tape[key("ffn2")] = adapters.forward(block.ffn2, f1, gelu_into=x)
    return x


def _check_ids(ids: np.ndarray, name: str) -> None:
    """DimensionError unless a non-empty (batch, seq) array, DataError unless integer (not bool)."""
    if ids.ndim != 2 or ids.size == 0:
        raise DimensionError(f"{name} must be a non-empty (batch, seq) array, got {ids.shape}")
    if not np.issubdtype(ids.dtype, np.integer):
        raise DataError(f"{name} must be integer ids, got dtype {ids.dtype}")


def _forward(model: TransformerModel, tokens: np.ndarray):
    """Shared forward: returns (logits, tape). Its one NaN/Inf check is the logits'."""
    tokens = np.asarray(tokens)
    _check_ids(tokens, "tokens")
    s = tokens.shape[1]
    if s > model.config.seq_len:
        raise DimensionError(f"sequence length {s} exceeds configured {model.config.seq_len}")
    if tokens.min() < 0 or tokens.max() >= model.config.vocab:
        raise DataError("token id out of range")
    tape = {"tokens": tokens}
    x = model.tok_emb[tokens] + model.pos_emb[:s]
    for i in range(len(model.blocks)):
        x = _block_forward(model, i, x, tape)
    h, tape["lnf_xhat"], tape["lnf_inv"] = ops.layer_norm(x, model.lnf_gamma, model.lnf_beta)
    del x
    # Tied head: h is needed for the embedding gradient only when training it.
    tape["head_input"] = h if model.mode.trains_dense else None
    return ops.ensure_finite(ops.matmul(h, model.tok_emb.T), "logits"), tape


def forward_logits(model: TransformerModel, tokens: np.ndarray) -> np.ndarray:
    return _forward(model, tokens)[0]


def forward_loss(model: TransformerModel, tokens: np.ndarray, targets: np.ndarray):
    """Mean cross-entropy over supervised positions (targets of -1 are ignored).

    Targets are validated before the forward pass, so a bad batch costs none.
    """
    targets = np.asarray(targets)
    _check_ids(targets, "targets")
    if targets.shape != np.shape(tokens):
        raise DimensionError("targets must match tokens shape")
    # IGNORE_TARGET (-1) is the only valid negative id; anything below it
    # would silently index from the end of the vocabulary.
    if targets.min() < IGNORE_TARGET or targets.max() >= model.config.vocab:
        raise DataError("target id out of range")
    mask = targets != IGNORE_TARGET
    count = int(mask.sum())
    if count == 0:
        raise DataError("no supervised positions in targets")
    logits, tape = _forward(model, tokens)
    # log_probs = (logits - max) - logz, in the logits' buffer.
    log_probs = logits
    log_probs -= logits.max(axis=-1, keepdims=True)
    log_probs -= np.log(np.sum(np.exp(log_probs), axis=-1, keepdims=True))
    picked = np.where(mask, targets, 0)[..., None]
    ll = np.take_along_axis(log_probs, picked, axis=-1)[..., 0]
    loss = -float(np.sum(ll[mask])) / count
    if not np.isfinite(loss):
        raise NumericsError("loss is not finite")
    tape["log_probs"], tape["targets"] = log_probs, targets
    return loss, tape


# --- backward -----------------------------------------------------------

def _linear_backward(block: Block, tape: dict, i: int, name: str, dy, grads,
                     input_grad: bool = True):
    """One adapted linear's backward: pops its retained activations straight
    into adapters.backward, so they die once its parameter gradients exist,
    before its dx is built; files those gradients under id() of their tensor
    and returns its dx."""
    layer = getattr(block, name)
    dx, layer_grads = adapters.backward(layer, tape.pop(_key(i, name)), dy, input_grad)
    for tensor, g in layer_grads.items():
        grads[id(getattr(layer, tensor))] = g
    return dx


def _layer_norm_backward(model, x_hat, inv, gamma, beta, dy, grads) -> np.ndarray:
    """A layer norm's input gradient, built in dy, its dead upstream; files
    dgamma and dbeta where they train."""
    dense = model.mode.trains_dense
    dx, dg, db = ops.layer_norm_vjp(x_hat, inv, gamma, dy, param_grads=dense, out=dy)
    if dense:
        grads[id(gamma)] = dg
        grads[id(beta)] = db
    return dx


def _block_backward(model, i: int, tape: dict, dx: np.ndarray, grads):
    """Backward through block i; its input gradient (accumulated into dx in
    place) only where forward kept ln1's stats, else None. Each temporary
    dies after its last read, and each retained array is popped there."""
    block, key = model.blocks[i], functools.partial(_key, i)
    nh = model.config.n_heads
    input_grad = tape[key("ln1_xhat")] is not None

    # x_out = x_mid + ffn2(gelu(ffn1(ln2(x_mid)))); GeLU's vjp overwrites
    # ffn2's dx, which it reads last, and is the last read of GeLU's input.
    df1 = _linear_backward(block, tape, i, "ffn2", dx, grads)
    df1 = ops.gelu_vjp(tape.pop(key("gelu_in")), df1, out=df1)
    dh2 = _linear_backward(block, tape, i, "ffn1", df1, grads)
    del df1
    dx += _layer_norm_backward(model, tape.pop(key("ln2_xhat")), tape.pop(key("ln2_inv")),
                               block.ln2_gamma, block.ln2_beta, dh2, grads)
    del dh2

    # x_mid = x_in + attn_o(attention(q, k, v))
    dctx_h = _split_heads(_linear_backward(block, tape, i, "attn_o", dx, grads), nh)
    dprobs = dctx_h @ np.swapaxes(tape.pop(key("vh")), -1, -2)
    probs = _unpack_causal(tape.pop(key("probs")))
    dv = _merge_heads(np.swapaxes(probs, -1, -2) @ dctx_h)
    del dctx_h
    dscores = ops.softmax_rows_vjp(probs, dprobs)
    del dprobs, probs
    dscores /= np.sqrt(model.config.d // nh)
    dq = _merge_heads(dscores @ tape.pop(key("kh")))
    dk = _merge_heads(np.swapaxes(dscores, -1, -2) @ tape.pop(key("qh")))
    del dscores
    dh1 = _linear_backward(block, tape, i, "attn_q", dq, grads, input_grad)
    del dq
    dh1_k = _linear_backward(block, tape, i, "attn_k", dk, grads, input_grad)
    del dk
    dh1_v = _linear_backward(block, tape, i, "attn_v", dv, grads, input_grad)
    del dv
    if not input_grad:
        del tape[key("ln1_xhat")], tape[key("ln1_inv")]
        return None
    dh1 += dh1_k
    dh1 += dh1_v
    del dh1_k, dh1_v
    dx += _layer_norm_backward(model, tape.pop(key("ln1_xhat")), tape.pop(key("ln1_inv")),
                               block.ln1_gamma, block.ln1_beta, dh1, grads)
    return dx


def backward(model: TransformerModel, tape: dict) -> dict[str, np.ndarray]:
    """Gradients for exactly the mode's trainable set, keyed like trainable_params.

    Backward does the work the tape allows, and consumes it: it builds the
    loss gradient from the tape's log_probs, pops each array at its last read,
    writes into none and leaves the tape {}, so a second backward is a
    DataError. A block whose ln1 stats are None (block 0 outside ft) returns
    no input gradient and skips its ln1 vjp; dgamma/dbeta exist only in ft;
    frozen mode returns {}. Gradients are filed under id() of their tensor; a
    NaN/Inf in one is a NumericsError.
    """
    if tape.get("log_probs") is None:
        raise DataError("tape has no loss; run forward_loss first")
    dense = model.mode.trains_dense
    if not (model.mode.trains or dense):
        tape.clear()
        return {}
    # The fused softmax-cross-entropy gradient: (softmax - onehot) / count where supervised, else 0.
    dlogits = np.exp(tape.pop("log_probs"))
    targets = tape.pop("targets")
    mask = targets != IGNORE_TARGET
    picked = np.where(mask, targets, 0)[..., None]
    np.put_along_axis(dlogits, picked, np.take_along_axis(dlogits, picked, axis=-1) - 1.0, axis=-1)
    dlogits *= mask[..., None] / int(mask.sum())
    del targets, mask, picked

    grads: dict[int, np.ndarray] = {}
    dh = ops.matmul(dlogits, model.tok_emb)
    head_input = tape.pop("head_input")  # None outside ft
    if dense:
        grads[id(model.tok_emb)] = (dlogits.reshape(-1, dlogits.shape[-1]).T
                                    @ head_input.reshape(-1, head_input.shape[-1]))
    del dlogits, head_input
    dx = _layer_norm_backward(model, tape.pop("lnf_xhat"), tape.pop("lnf_inv"), model.lnf_gamma,
                              model.lnf_beta, dh, grads)
    del dh  # dx's buffer, which the blocks own from here
    for i in reversed(range(len(model.blocks))):
        dx = _block_backward(model, i, tape, dx, grads)
    tokens = tape.pop("tokens")
    if dense:
        dtok = np.zeros_like(model.tok_emb)
        np.add.at(dtok, tokens, dx)
        grads[id(model.tok_emb)] += dtok
        dpos = np.zeros_like(model.pos_emb)
        dpos[: tokens.shape[1]] = dx.sum(axis=0)
        grads[id(model.pos_emb)] = dpos
    return {k: ops.ensure_finite(grads[id(p)], f"gradient {k}")
            for k, p in trainable_params(model).items()}


# --- parameter accounting -------------------------------------------------

def trainable_params(model: TransformerModel) -> dict[str, np.ndarray]:
    """Insertion-ordered {name: array} views of the mode's trainable set."""
    params: dict[str, np.ndarray] = {}
    dense = model.mode.trains_dense
    if dense:
        params["tok_emb"] = model.tok_emb
        params["pos_emb"] = model.pos_emb
    for i, block in enumerate(model.blocks):
        pre = f"block{i}"
        if dense:
            params[f"{pre}.ln1.gamma"] = block.ln1_gamma
            params[f"{pre}.ln1.beta"] = block.ln1_beta
        for name, layer in block.layers().items():
            for tensor in model.mode.trains:
                params[f"{pre}.{name}.{tensor}"] = getattr(layer, tensor)
        if dense:
            params[f"{pre}.ln2.gamma"] = block.ln2_gamma
            params[f"{pre}.ln2.beta"] = block.ln2_beta
    if dense:
        params["ln_f.gamma"] = model.lnf_gamma
        params["ln_f.beta"] = model.lnf_beta
    return params


@dataclass
class TrainableCount:
    linear_only: int
    full: int


def count_trainable(model: TransformerModel) -> TrainableCount:
    """Enumerated trainable parameters: block-linear-only and full counts.

    The linear-only figure is the one comparable to the closed forms, which
    exclude embeddings and layernorms.
    """
    params = trainable_params(model)
    linear = sum(
        getattr(layer, t).size for _, layer in model.adapted_layers() for t in model.mode.trains
    )
    return TrainableCount(linear_only=linear, full=sum(p.size for p in params.values()))


def count_trainable_formula(config: ModelConfig, mode: Mode, rank: int) -> int:
    """Closed-form linear-only trainable count; 12d^2L / 18drL / 9drL at d_ff=4d.

    Per block W holds 4d^2 + 2 d d_ff elements, and A and B r (5d + d_ff) each.
    """
    require_number("rank", rank, integral=True, at_least=1)
    d, d_ff = config.d, config.d_ff
    adapter = rank * (5 * d + d_ff)
    per_block = {"w": 4 * d * d + 2 * d * d_ff, "a": adapter, "b": adapter}
    return config.n_layers * sum(per_block[tensor] for tensor in mode.trains)
