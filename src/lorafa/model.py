"""GPT-style transformer assembled from adapted linear layers.

Backprop here is a fixed tape over the known block structure, not a
general autodiff graph: the forward pass keeps exactly what each op's
backward rule needs, with linear-layer inputs governed by the adaptation
mode's retention policy. The memory meter counts the same tape, filing all
else (attention, GeLU, layernorm, loss softmax) under "other".

Blocks are pre-norm: x + attn(ln(x)), x + ffn(ln(x)), with a final
layernorm and an output head tied to the (frozen-in-adapter-modes) token
embedding. Attention is plain scaled dot-product with a causal mask and
no dropout. Bias terms are omitted everywhere.
"""

from __future__ import annotations

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


def block_layer_specs(config: ModelConfig) -> list[tuple[str, int, int, bool]]:
    """The six linear layers of one block: (name, d_in, d_out, shares_input).

    shares_input marks key/value, whose stored input is the same tensor as
    query's; the memory model must count that tensor once.
    """
    d, d_ff = config.d, config.d_ff
    return [
        ("attn_q", d, d, False),
        ("attn_k", d, d, True),
        ("attn_v", d, d, True),
        ("attn_o", d, d, False),
        ("ffn1", d, d_ff, False),
        ("ffn2", d_ff, d, False),
    ]


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
        """The adapted linears by name, in field (and block_layer_specs) order."""
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
    d = config.d
    tok_emb = randn((config.vocab, d), rng_e, std=1.0 / np.sqrt(d))
    pos_emb = randn((config.seq_len, d), rng_e, std=1.0 / np.sqrt(d))
    if alpha is None:
        alpha = 1.0 / rank
    blocks = []
    for _ in range(config.n_layers):
        layers = {}
        for name, d_in, d_out, _shared in block_layer_specs(config):
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
    """One block's retained arrays in forward order; a RetainedActivations
    field carries its layer's block_layer_specs name, the meter's key.
    ln1's stats are None where the block's input gradient is dead."""

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
    gelu_in: np.ndarray
    ffn2: RetainedActivations


@dataclass
class Tape:
    """Everything one forward pass retained for backward.

    Backward reads it and the activation meter counts it: the block
    caches, then lnf_xhat, lnf_inv, head_input (ft only) and loss_probs.
    """

    b: int
    s: int
    block_caches: list[BlockCache] = field(default_factory=list)
    tokens: Optional[np.ndarray] = None
    targets: Optional[np.ndarray] = None
    lnf_xhat: Optional[np.ndarray] = None
    lnf_inv: Optional[np.ndarray] = None
    head_input: Optional[np.ndarray] = None
    loss_probs: Optional[np.ndarray] = None
    loss_mask: Optional[np.ndarray] = None
    loss_count: int = 0


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, s, d = x.shape
    return x.reshape(b, s, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, nh, s, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, s, nh * dh)


def _input_grad_live(model: TransformerModel, i: int) -> bool:
    """Whether block i's input gradient is live: the mode trains the embeddings
    (with the other dense tensors) or block i - 1's linears. Where it is not,
    block i's ln1 vjp is dead, and forward drops the ln1 stats it would read."""
    return model.mode.trains_dense or i > 0


def _block_forward(model, block: Block, x: np.ndarray, tape: Tape, keep_ln1: bool) -> np.ndarray:
    nh = model.config.n_heads
    dh = model.config.d // nh

    h, xh1, inv1 = ops.layer_norm(x, block.ln1_gamma, block.ln1_beta)
    if not keep_ln1:
        xh1 = inv1 = None
    q, kept_q = adapters.forward(block.attn_q, h)
    k, kept_k = adapters.forward(block.attn_k, h)
    v, kept_v = adapters.forward(block.attn_v, h)

    qh, kh, vh = (_split_heads(t, nh) for t in (q, k, v))
    scores = qh @ np.swapaxes(kh, -1, -2)
    scores /= np.sqrt(dh)
    s_len = x.shape[1]
    future = np.triu(np.ones((s_len, s_len), dtype=bool), 1)
    np.copyto(scores, -np.inf, where=future)
    probs = ops.softmax_rows(scores)

    ctx = _merge_heads(probs @ vh)
    attn_out, kept_o = adapters.forward(block.attn_o, ctx)
    # Residual adds land in the branch output's buffer, which nothing retains.
    attn_out += x
    x = attn_out

    h2, xh2, inv2 = ops.layer_norm(x, block.ln2_gamma, block.ln2_beta)
    f1, kept_f1 = adapters.forward(block.ffn1, h2)
    g = ops.gelu(f1)
    f2, kept_f2 = adapters.forward(block.ffn2, g)
    f2 += x
    x = f2

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


def _forward(model: TransformerModel, tokens: np.ndarray):
    """Shared forward: returns (logits, tape)."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise DimensionError("tokens must be (batch, seq)")
    b, s = tokens.shape
    if s > model.config.seq_len:
        raise DimensionError(f"sequence length {s} exceeds configured {model.config.seq_len}")
    if tokens.min() < 0 or tokens.max() >= model.config.vocab:
        raise DataError("token id out of range")
    tape = Tape(b=b, s=s, tokens=tokens)
    x = model.tok_emb[tokens] + model.pos_emb[:s]
    for i, block in enumerate(model.blocks):
        x = _block_forward(model, block, x, tape, _input_grad_live(model, i))
    h, tape.lnf_xhat, tape.lnf_inv = ops.layer_norm(x, model.lnf_gamma, model.lnf_beta)
    if model.mode.trains_dense:
        # Tied head: h is needed for the embedding gradient only when training it.
        tape.head_input = h
    logits = ops.matmul(h, model.tok_emb.T)
    return logits, tape


def forward_logits(model: TransformerModel, tokens: np.ndarray) -> np.ndarray:
    return _forward(model, tokens)[0]


def forward_loss(model: TransformerModel, tokens: np.ndarray, targets: np.ndarray):
    """Mean cross-entropy over supervised positions (targets of -1 are ignored).

    Targets are validated before the forward pass, so a bad batch costs none.
    """
    targets = np.asarray(targets)
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
    tape.loss_probs = probs
    tape.loss_mask = mask
    tape.loss_count = count
    tape.targets = targets
    picked = np.where(mask, targets, 0)
    ll = np.take_along_axis(log_probs, picked[..., None], axis=-1)[..., 0]
    loss = -float(np.sum(ll[mask])) / count
    if not np.isfinite(loss):
        raise NumericsError("loss is not finite")
    return loss, tape


# --- backward -----------------------------------------------------------

def _block_backward(
    model, block: Block, cache: BlockCache, dx: np.ndarray, grads, pre: str, input_grad: bool
):
    """Backward through one block; the block's input gradient only if input_grad."""
    nh = model.config.n_heads
    dh = model.config.d // nh
    dense = model.mode.trains_dense

    # x_out = x_mid + ffn2(gelu(ffn1(ln2(x_mid))))
    dupstream, g_f2 = adapters.backward(block.ffn2, cache.ffn2, dx)
    _store(grads, f"{pre}.ffn2", g_f2)
    df1 = ops.gelu_vjp(cache.gelu_in, dupstream)
    dh2, g_f1 = adapters.backward(block.ffn1, cache.ffn1, df1)
    _store(grads, f"{pre}.ffn1", g_f1)
    dx_mid, dg2, db2 = ops.layer_norm_vjp(
        cache.ln2_xhat, cache.ln2_inv, block.ln2_gamma, dh2, param_grads=dense
    )
    dx_mid += dx
    if dense:
        grads[f"{pre}.ln2.gamma"] = dg2
        grads[f"{pre}.ln2.beta"] = db2

    # x_mid = x_in + attn_o(attention(q, k, v))
    dctx, g_o = adapters.backward(block.attn_o, cache.attn_o, dx_mid)
    _store(grads, f"{pre}.attn_o", g_o)
    dctx_h = _split_heads(dctx, nh)
    dprobs = dctx_h @ np.swapaxes(cache.vh, -1, -2)
    dvh = np.swapaxes(cache.probs, -1, -2) @ dctx_h
    dscores = ops.softmax_rows_vjp(cache.probs, dprobs)
    dscores /= np.sqrt(dh)
    dqh = dscores @ cache.kh
    dkh = np.swapaxes(dscores, -1, -2) @ cache.qh
    dq, dk, dv = (_merge_heads(t) for t in (dqh, dkh, dvh))
    dh1_q, g_q = adapters.backward(block.attn_q, cache.attn_q, dq, input_grad)
    dh1_k, g_k = adapters.backward(block.attn_k, cache.attn_k, dk, input_grad)
    dh1_v, g_v = adapters.backward(block.attn_v, cache.attn_v, dv, input_grad)
    _store(grads, f"{pre}.attn_q", g_q)
    _store(grads, f"{pre}.attn_k", g_k)
    _store(grads, f"{pre}.attn_v", g_v)
    if not input_grad:
        return None
    dh1_q += dh1_k
    dh1_q += dh1_v
    # Free the attention gradients before ln1's vjp, where a step's memory peaks.
    del dctx, dctx_h, dprobs, dvh, dscores, dqh, dkh, dq, dk, dv, dh1_k, dh1_v
    dx_in, dg1, db1 = ops.layer_norm_vjp(
        cache.ln1_xhat, cache.ln1_inv, block.ln1_gamma, dh1_q, param_grads=dense
    )
    dx_in += dx_mid
    if dense:
        grads[f"{pre}.ln1.gamma"] = dg1
        grads[f"{pre}.ln1.beta"] = db1
    return dx_in


def _store(grads: dict, prefix: str, layer_grads: dict) -> None:
    for name, g in layer_grads.items():
        grads[f"{prefix}.{name}"] = g


def backward(model: TransformerModel, tape: Tape) -> dict[str, np.ndarray]:
    """Gradients for exactly the mode's trainable set, keyed like trainable_params.

    Only live gradients are computed. Block i's input gradient is live when
    the mode trains dense tensors (embeddings, layer norms) or i > 0
    (_input_grad_live), so in lora and lora-fa block 0's query/key/value
    return only their adapter gradients and its ln1 vjp is skipped (the
    tape holds no stats for it); layer-norm dgamma/dbeta exist only
    where the mode trains dense tensors; in frozen mode, which trains
    nothing, the result is {} once the tape is validated. A NaN/Inf in a
    returned gradient is a NumericsError.
    """
    if tape.loss_probs is None:
        raise DataError("tape has no loss; run forward_loss first")
    dense = model.mode.trains_dense
    if not (model.mode.trains or dense):
        return {}
    # (probs - onehot) / count on supervised positions, zero elsewhere.
    dlogits = tape.loss_probs.copy()
    safe_targets = np.where(tape.loss_mask, tape.targets, 0)[..., None]
    np.put_along_axis(
        dlogits, safe_targets,
        np.take_along_axis(dlogits, safe_targets, axis=-1) - 1.0,
        axis=-1,
    )
    dlogits *= tape.loss_mask[..., None] / tape.loss_count

    grads: dict[str, np.ndarray] = {}
    dh = ops.matmul(dlogits, model.tok_emb)
    if dense:
        d2 = dlogits.reshape(-1, dlogits.shape[-1])
        h2 = tape.head_input.reshape(-1, tape.head_input.shape[-1])
        grads["tok_emb"] = d2.T @ h2
    dx, dgf, dbf = ops.layer_norm_vjp(
        tape.lnf_xhat, tape.lnf_inv, model.lnf_gamma, dh, param_grads=dense
    )
    if dense:
        grads["ln_f.gamma"] = dgf
        grads["ln_f.beta"] = dbf
    for i in reversed(range(len(model.blocks))):
        dx = _block_backward(model, model.blocks[i], tape.block_caches[i], dx, grads, f"block{i}",
                             _input_grad_live(model, i))
    if dense:
        dtok = np.zeros_like(model.tok_emb)
        np.add.at(dtok, tape.tokens, dx)
        grads["tok_emb"] += dtok
        dpos = np.zeros_like(model.pos_emb)
        dpos[: tape.s] = dx.sum(axis=0)
        grads["pos_emb"] = dpos

    ordered = trainable_params(model)
    if set(grads) != set(ordered):
        extra = sorted(set(grads) ^ set(ordered))
        raise DataError(f"gradient keys do not match trainable set: {extra}")
    return {k: ops.ensure_finite(grads[k], f"gradient {k}") for k in ordered}


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
        p.size for key, p in params.items() if key.rpartition(".")[2] in model.mode.trains
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
