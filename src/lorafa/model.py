"""GPT-style transformer assembled from adapted linear layers.

Backprop here is a fixed tape over the known block structure, not a
general autodiff graph: the forward pass keeps exactly what each op's
backward rule needs, with linear-layer inputs governed by the adaptation
mode's retention policy. The memory meter counts the same tape, filing all
else (attention, GeLU, layernorm, loss gradient) under "other". Liveness
rule: forward and backward drop every temporary right after its last read,
and backward consumes the tape: a linear layer's retained inputs, GeLU's
input and the loss gradient, final layernorm and head arrays go at their
last read, a block's other arrays once its backward returns. Last reads
come first where the order is free: each linear builds its parameter
gradients, which read its retained inputs last, before its merged weight
and dx; each layer norm's vjp takes dgamma/dbeta from its upstream and
then builds dx in it; both residual adds land in the stream. ffn2 runs
over blocks of ops.ROWS rows (adapters.forward with gelu_into=), adding
into the residual stream, so its output is never whole, nor, in modes that
do not retain it (lora-fa, frozen), is GeLU's output (Dao et al., arXiv
2205.14135, tile so that no full intermediate exists). So a step's
peak is the tape plus a few temporaries (Chen et al., arXiv 1604.06174,
section 3), and the meter counts a tape before backward. The tape keeps
each block's causal attention probabilities packed: the b*h*s(s+1)/2
entries on and below the diagonal, since the rest are exactly 0, where
Korthikanti et al. (arXiv 2205.05198, section 4) price the full b*h*s^2
square. Backward expands them into a zeroed square, bit for bit the
softmax's output, just before its two reads, so nothing is recomputed.

Blocks are pre-norm: x + attn(ln(x)), x + ffn(ln(x)), with a final
layernorm and an output head tied to the (frozen-in-adapter-modes) token
embedding. Attention is plain scaled dot-product with a causal mask and
no dropout. Bias terms are omitted everywhere.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import adapters, ops
from .adapters import AdaptedLinear, Mode, RetainedActivations
from .errors import DataError, DimensionError, NumericsError, ParameterError
from .rng import RngState, derive, randn

IGNORE_TARGET = -1


def require_number(name: str, value, integral: bool = False) -> None:
    """ParameterError unless value is an integer (if integral) or a finite real.

    Config values arrive from JSON files, so a quoted "5", a true, an
    Infinity or an integer beyond the float range must end in a config
    error, not in a TypeError from the first comparison, an OverflowError
    in the optimizer or a run that diverges.
    """
    kind = numbers.Integral if integral else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ParameterError(
            f"{name} must be {'an integer' if integral else 'a number'}, got {value!r}"
        )
    if integral:
        return
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ParameterError(f"{name} must be finite, got {value!r}")


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
        if self.d_ff is None:
            require_number("d", self.d, integral=True)  # before d_ff derives from it
            self.d_ff = 4 * self.d
        for name in ("d", "n_layers", "n_heads", "vocab", "seq_len", "batch_size", "d_ff"):
            require_number(name, getattr(self, name), integral=True)
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1")
        if self.d % self.n_heads != 0:
            raise ParameterError(f"d={self.d} not divisible by n_heads={self.n_heads}")

    @property
    def max_rank(self) -> int:
        """Largest adapter rank: min(d_in, d_out) over the block's linears."""
        return min(self.d, self.d_ff)


def check_rank(config: ModelConfig, mode: Mode, rank: int) -> None:
    """ParameterError unless 1 <= rank, and rank <= config.max_rank in an adapter mode."""
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
    rng_w = derive(rng, "weights")
    rng_a = derive(rng, "adapters")
    rng_e = derive(rng, "embeddings")
    d, d_ff = config.d, config.d_ff
    tok_emb = randn((config.vocab, d), rng_e, std=1.0 / np.sqrt(d))
    pos_emb = randn((config.seq_len, d), rng_e, std=1.0 / np.sqrt(d))
    if alpha is None:
        alpha = 1.0 / rank
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
        alpha=alpha,
        tok_emb=tok_emb,
        pos_emb=pos_emb,
        blocks=blocks,
        lnf_gamma=np.ones(d),
        lnf_beta=np.zeros(d),
    )


# --- tape ---------------------------------------------------------------

@dataclass
class BlockCache:
    """One block's retained arrays in forward order, sized by tape_elements;
    a RetainedActivations field carries its layer's name.
    ln1's stats are None where the block's input gradient is dead, which is
    how backward knows it. probs holds the causal attention probabilities'
    lower triangles, from _pack_causal. Backward takes out each
    RetainedActivations, GeLU's input at its vjp and probs where it expands
    them."""

    ln1_xhat: Optional[np.ndarray]
    ln1_inv: Optional[np.ndarray]
    attn_q: RetainedActivations
    attn_k: RetainedActivations
    attn_v: RetainedActivations
    qh: np.ndarray
    kh: np.ndarray
    vh: np.ndarray
    probs: np.ndarray
    attn_o: RetainedActivations
    ln2_xhat: np.ndarray
    ln2_inv: np.ndarray
    ffn1: RetainedActivations
    gelu_in: Optional[np.ndarray]
    ffn2: RetainedActivations

    def take(self, name: str):
        """The named field's value, which the cache then no longer holds."""
        value = getattr(self, name)
        setattr(self, name, None)
        return value


@dataclass
class Tape:
    """The arrays one forward pass retained for backward, and nothing else.

    Backward consumes it and the activation meter counts it: the block
    caches, then every other field but tokens, each sized by tape_elements.
    """

    tokens: Optional[np.ndarray] = None
    block_caches: list[BlockCache] = field(default_factory=list)
    lnf_xhat: Optional[np.ndarray] = None
    lnf_inv: Optional[np.ndarray] = None
    head_input: Optional[np.ndarray] = None  # ft only
    dlogits: Optional[np.ndarray] = None  # the loss gradient forward_loss leaves

    def clear(self) -> None:
        """Drop every retained array, as backward leaves the tape it consumed."""
        vars(self).update(vars(Tape()))


def tape_elements(config: ModelConfig, mode: Mode, rank: int, b: int, s: int) -> dict:
    """Elements per field of a (b, s) forward_loss tape, the one statement of
    its layout, which memory.reconcile matches against the meter: block<i>.<field>
    for the block caches, then the Tape's own fields. A linear keeps
    {"full": its input, "low": x@A}, key and value no input of their own
    (they read query's); every other field is a count, 0 where forward
    leaves None: block 0's ln1 stats and head_input outside ft."""
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
               dlogits=bs * config.vocab)
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


def _block_forward(model, block: Block, x: np.ndarray, tape: Tape, keep_ln1: bool) -> np.ndarray:
    nh = model.config.n_heads
    dh = model.config.d // nh

    h, xh1, inv1 = ops.layer_norm(x, block.ln1_gamma, block.ln1_beta)
    if not keep_ln1:
        xh1 = inv1 = None
    q, kept_q = adapters.forward(block.attn_q, h)
    k, kept_k = adapters.forward(block.attn_k, h)
    v, kept_v = adapters.forward(block.attn_v, h)
    del h

    qh, kh, vh = (_split_heads(t, nh) for t in (q, k, v))
    scores = qh @ np.swapaxes(kh, -1, -2)
    scores /= np.sqrt(dh)
    np.copyto(scores, -np.inf, where=_causal(x.shape[1])[0])
    probs = ops.softmax_rows(scores)
    del scores
    ctx = _merge_heads(probs @ vh)
    probs = _pack_causal(probs)

    attn_out, kept_o = adapters.forward(block.attn_o, ctx)
    del ctx
    # Residual adds land in the stream x, which nothing retains and which the
    # caller still holds: attention's (x + y is y + x bit for bit), and
    # ffn2's, which runs over row blocks.
    x += attn_out
    del attn_out

    h2, xh2, inv2 = ops.layer_norm(x, block.ln2_gamma, block.ln2_beta)
    f1, kept_f1 = adapters.forward(block.ffn1, h2)
    del h2
    x, kept_f2 = adapters.forward(block.ffn2, f1, gelu_into=x)

    tape.block_caches.append(
        BlockCache(
            ln1_xhat=xh1, ln1_inv=inv1,
            attn_q=kept_q, attn_k=kept_k, attn_v=kept_v,
            qh=qh, kh=kh, vh=vh, probs=probs,
            attn_o=kept_o,
            ln2_xhat=xh2, ln2_inv=inv2,
            ffn1=kept_f1, gelu_in=f1, ffn2=kept_f2,
        )
    )
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
    tape = Tape(tokens=tokens)
    x = model.tok_emb[tokens] + model.pos_emb[:s]
    for i, block in enumerate(model.blocks):
        # Block i keeps ln1's stats, which backward reads as "input gradient
        # live", only in ft or if i > 0: nothing below block 0 trains outside ft.
        x = _block_forward(model, block, x, tape, model.mode.trains_dense or i > 0)
    h, tape.lnf_xhat, tape.lnf_inv = ops.layer_norm(x, model.lnf_gamma, model.lnf_beta)
    del x
    if model.mode.trains_dense:
        # Tied head: h is needed for the embedding gradient only when training it.
        tape.head_input = h
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
    # log_probs = (logits - max) - logz and probs = exp(log_probs), in the
    # logits' buffer and one more (which first holds exp(logits - max)).
    log_probs = logits
    log_probs -= logits.max(axis=-1, keepdims=True)
    probs = np.exp(log_probs)
    log_probs -= np.log(np.sum(probs, axis=-1, keepdims=True))
    np.exp(log_probs, out=probs)
    picked = np.where(mask, targets, 0)[..., None]
    ll = np.take_along_axis(log_probs, picked, axis=-1)[..., 0]
    loss = -float(np.sum(ll[mask])) / count
    if not np.isfinite(loss):
        raise NumericsError("loss is not finite")
    # The fused softmax-cross-entropy gradient, (probs - onehot) / count on
    # supervised positions and 0 elsewhere, in probs' buffer.
    np.put_along_axis(probs, picked, np.take_along_axis(probs, picked, axis=-1) - 1.0, axis=-1)
    probs *= mask[..., None] / count
    tape.dlogits = probs
    return loss, tape


# --- backward -----------------------------------------------------------

def _linear_backward(block: Block, cache: BlockCache, name: str, dy, grads,
                     input_grad: bool = True):
    """One adapted linear's backward: hands its retained activations over to
    adapters.backward, so they die once its parameter gradients exist, before
    its dx is built; files those gradients under id() of their tensor and
    returns its dx."""
    layer = getattr(block, name)
    dx, layer_grads = adapters.backward(layer, cache.take(name), dy, input_grad)
    for tensor, g in layer_grads.items():
        grads[id(getattr(layer, tensor))] = g
    return dx


def _layer_norm_backward(model, dx, x_hat, inv, gamma, beta, dy, grads) -> None:
    """Adds a block layer norm's input gradient into the stream gradient dx in
    place; dy, the norm's dead upstream, takes the vjp's dx first."""
    dense = model.mode.trains_dense
    dx_ln, dg, db = ops.layer_norm_vjp(x_hat, inv, gamma, dy, param_grads=dense, out=dy)
    dx += dx_ln
    if dense:
        grads[id(gamma)] = dg
        grads[id(beta)] = db


def _block_backward(model, block: Block, cache: BlockCache, dx: np.ndarray, grads):
    """Backward through one block; the block's input gradient (accumulated into
    dx in place) only where forward kept ln1's stats, else None. Each
    temporary and retained array dies after its last read."""
    nh = model.config.n_heads
    input_grad = cache.ln1_xhat is not None

    # x_out = x_mid + ffn2(gelu(ffn1(ln2(x_mid)))); GeLU's vjp overwrites
    # ffn2's dx, which it reads last, and is the last read of GeLU's input.
    df1 = _linear_backward(block, cache, "ffn2", dx, grads)
    df1 = ops.gelu_vjp(cache.take("gelu_in"), df1, out=df1)
    dh2 = _linear_backward(block, cache, "ffn1", df1, grads)
    del df1
    _layer_norm_backward(model, dx, cache.ln2_xhat, cache.ln2_inv, block.ln2_gamma,
                         block.ln2_beta, dh2, grads)
    del dh2

    # x_mid = x_in + attn_o(attention(q, k, v))
    dctx_h = _split_heads(_linear_backward(block, cache, "attn_o", dx, grads), nh)
    dprobs = dctx_h @ np.swapaxes(cache.vh, -1, -2)
    probs = _unpack_causal(cache.take("probs"))
    dv = _merge_heads(np.swapaxes(probs, -1, -2) @ dctx_h)
    del dctx_h
    dscores = ops.softmax_rows_vjp(probs, dprobs)
    del dprobs, probs
    dscores /= np.sqrt(model.config.d // nh)
    dq = _merge_heads(dscores @ cache.kh)
    dk = _merge_heads(np.swapaxes(dscores, -1, -2) @ cache.qh)
    del dscores
    dh1 = _linear_backward(block, cache, "attn_q", dq, grads, input_grad)
    del dq
    dh1_k = _linear_backward(block, cache, "attn_k", dk, grads, input_grad)
    del dk
    dh1_v = _linear_backward(block, cache, "attn_v", dv, grads, input_grad)
    del dv
    if not input_grad:
        return None
    dh1 += dh1_k
    dh1 += dh1_v
    del dh1_k, dh1_v
    _layer_norm_backward(model, dx, cache.ln1_xhat, cache.ln1_inv, block.ln1_gamma,
                         block.ln1_beta, dh1, grads)
    return dx


def backward(model: TransformerModel, tape: Tape) -> dict[str, np.ndarray]:
    """Gradients for exactly the mode's trainable set, keyed like trainable_params.

    Backward does the work the tape allows, and consumes it: it starts from
    tape.dlogits in place, drops each array at its last read (the module
    docstring says when), writes into none and leaves the tape empty, so a
    second backward is a DataError. A block whose cache holds no ln1 stats
    (block 0 outside ft) returns no input gradient and skips its ln1 vjp;
    dgamma/dbeta exist only in ft; frozen mode returns {}. Gradients are
    filed under id() of their tensor; a NaN/Inf in one is a NumericsError.
    """
    if tape.dlogits is None:
        raise DataError("tape has no loss; run forward_loss first")
    dense = model.mode.trains_dense
    if not (model.mode.trains or dense):
        tape.clear()
        return {}
    dlogits, tape.dlogits = tape.dlogits, None

    grads: dict[int, np.ndarray] = {}
    dh = ops.matmul(dlogits, model.tok_emb)
    if dense:
        grads[id(model.tok_emb)] = (dlogits.reshape(-1, dlogits.shape[-1]).T
                                    @ tape.head_input.reshape(-1, tape.head_input.shape[-1]))
        tape.head_input = None
    del dlogits
    dx, dgf, dbf = ops.layer_norm_vjp(
        tape.lnf_xhat, tape.lnf_inv, model.lnf_gamma, dh, param_grads=dense, out=dh
    )
    tape.lnf_xhat = tape.lnf_inv = None
    del dh  # dx's buffer, which the blocks own from here
    if dense:
        grads[id(model.lnf_gamma)] = dgf
        grads[id(model.lnf_beta)] = dbf
    for block in reversed(model.blocks):
        # The popped cache dies when its block's backward returns.
        dx = _block_backward(model, block, tape.block_caches.pop(), dx, grads)
    if dense:
        dtok = np.zeros_like(model.tok_emb)
        np.add.at(dtok, tape.tokens, dx)
        grads[id(model.tok_emb)] += dtok
        dpos = np.zeros_like(model.pos_emb)
        dpos[: tape.tokens.shape[1]] = dx.sum(axis=0)
        grads[id(model.pos_emb)] = dpos
    tape.clear()
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
    d, d_ff = config.d, config.d_ff
    adapter = rank * (5 * d + d_ff)
    per_block = {"w": 4 * d * d + 2 * d * d_ff, "a": adapter, "b": adapter}
    return config.n_layers * sum(per_block[tensor] for tensor in mode.trains)
