from dataclasses import fields

import numpy as np
import pytest

from lorafa import adapters, ops
from lorafa.adapters import Mode, RetainedActivations
from lorafa.errors import DataError, DimensionError, ParameterError
from lorafa.gradcheck import check_tiny_model
from lorafa.model import (
    IGNORE_TARGET,
    ModelConfig,
    Tape,
    _merge_heads,
    _pack_causal,
    _split_heads,
    _unpack_causal,
    backward,
    build_model,
    count_trainable,
    count_trainable_formula,
    forward_logits,
    forward_loss,
    trainable_params,
)
from lorafa.optim import AdamWConfig, adamw_step, init_adamw_state
from lorafa.rng import RngState, randint, randn

CFG = ModelConfig(d=16, n_layers=2, n_heads=2, vocab=11, seq_len=8, batch_size=2)


def data(seed=0, cfg=CFG, b=2):
    tokens = randint(RngState(seed), 0, cfg.vocab, (b, cfg.seq_len))
    targets = randint(RngState(seed + 1), 0, cfg.vocab, (b, cfg.seq_len))
    return tokens, targets


def test_config_validation():
    with pytest.raises(ParameterError):
        ModelConfig(d=15, n_layers=1, n_heads=2, vocab=4, seq_len=4)
    with pytest.raises(ParameterError):
        ModelConfig(d=8, n_layers=0, n_heads=2, vocab=4, seq_len=4)
    assert ModelConfig(d=8, n_layers=1, n_heads=2, vocab=4, seq_len=4).d_ff == 32


def test_adapted_layer_count_is_6L():
    m = build_model(CFG, Mode.LORA, rank=2, rng=RngState(0))
    assert len(m.adapted_layers()) == 6 * CFG.n_layers


def test_frozen_has_zero_trainables():
    m = build_model(CFG, Mode.FROZEN, rng=RngState(0))
    assert trainable_params(m) == {}
    counts = count_trainable(m)
    assert counts.linear_only == 0 and counts.full == 0


def test_fresh_adapter_logits_match_frozen_bitwise():
    tokens, _ = data()
    frozen = forward_logits(build_model(CFG, Mode.FROZEN, rank=2, rng=RngState(5)), tokens)
    for mode in (Mode.LORA, Mode.LORA_FA):
        m = build_model(CFG, mode, rank=2, rng=RngState(5))
        assert forward_logits(m, tokens).tobytes() == frozen.tobytes()


def test_uniform_logits_loss_is_log_vocab():
    m = build_model(CFG, Mode.FROZEN, rng=RngState(1))
    m.tok_emb[:] = 0.0  # zero embedding table -> all logits zero -> uniform
    tokens, targets = data(3)
    loss, _ = forward_loss(m, tokens, targets)
    assert loss == pytest.approx(np.log(CFG.vocab), abs=1e-12)


def test_loss_finite_on_random_inputs():
    cfg = ModelConfig(d=32, n_layers=2, n_heads=4, vocab=16, seq_len=8, batch_size=2)
    m = build_model(cfg, Mode.LORA_FA, rank=4, rng=RngState(2))
    tokens, targets = data(7, cfg)
    loss, _ = forward_loss(m, tokens, targets)
    assert np.isfinite(loss)


def test_ignore_mask_excludes_positions():
    m = build_model(CFG, Mode.FROZEN, rng=RngState(1))
    tokens, targets = data(9)
    full_loss, _ = forward_loss(m, tokens, targets)
    masked = targets.copy()
    masked[:, ::2] = IGNORE_TARGET
    masked_loss, _ = forward_loss(m, tokens, masked)
    assert masked_loss != pytest.approx(full_loss)
    with pytest.raises(DataError):
        forward_loss(m, tokens, np.full_like(targets, IGNORE_TARGET))


def test_token_id_out_of_range():
    m = build_model(CFG, Mode.FROZEN, rng=RngState(1))
    tokens, targets = data(4)
    tokens[0, 0] = CFG.vocab
    with pytest.raises(DataError):
        forward_loss(m, tokens, targets)


@pytest.mark.parametrize("bad", [-2, CFG.vocab])
def test_target_id_out_of_range(bad):
    # -1 is IGNORE_TARGET; -2 must not wrap round to the last vocabulary entry
    m = build_model(CFG, Mode.FROZEN, rng=RngState(1))
    tokens, targets = data(4)
    targets[0, 0] = bad
    with pytest.raises(DataError):
        forward_loss(m, tokens, targets)


@pytest.mark.parametrize("tokens, error", [
    (np.zeros((0, 4), dtype=int), DimensionError),
    (np.zeros((1, 0), dtype=int), DimensionError),
    (np.zeros(4, dtype=int), DimensionError),
    (np.zeros((1, 4)), DataError),
    (np.zeros((1, 4), dtype=bool), DataError),
    (np.zeros((1, 4), dtype=object), DataError),
    (np.full((1, 4), -1), DataError),
], ids=["no-rows", "no-positions", "1-d", "float", "bool", "object", "negative"])
def test_bad_tokens_are_typed_errors(tokens, error):
    # numpy would raise ValueError, IndexError or TypeError for these
    m = build_model(CFG, Mode.FROZEN, rng=RngState(1))
    with pytest.raises(error):
        forward_logits(m, tokens)


def test_causality():
    m = build_model(CFG, Mode.FT, rng=RngState(8))
    tokens, _ = data(11)
    logits = forward_logits(m, tokens)
    t = 3
    mutated = tokens.copy()
    mutated[:, t + 1 :] = (mutated[:, t + 1 :] + 1) % CFG.vocab
    logits2 = forward_logits(m, mutated)
    assert np.array_equal(logits[:, : t + 1], logits2[:, : t + 1])
    assert not np.array_equal(logits[:, t + 1 :], logits2[:, t + 1 :])


# --- gradients ----------------------------------------------------------------

def test_gradient_set_cardinality_lorafa():
    m = build_model(CFG, Mode.LORA_FA, rank=2, rng=RngState(3))
    tokens, targets = data(5)
    _, tape = forward_loss(m, tokens, targets)
    grads = backward(m, tape)
    assert len(grads) == 6 * CFG.n_layers
    assert all(k.endswith(".b") for k in grads)


def test_gradient_set_cardinality_ft():
    m = build_model(CFG, Mode.FT, rng=RngState(3))
    tokens, targets = data(5)
    _, tape = forward_loss(m, tokens, targets)
    grads = backward(m, tape)
    # embeddings + 6L weights + 2 layernorms per block + final layernorm
    expected = 2 + 6 * CFG.n_layers + 4 * CFG.n_layers + 2
    assert len(grads) == expected
    assert set(grads) == set(trainable_params(m))


@pytest.mark.parametrize("mode", [Mode.FT, Mode.LORA, Mode.LORA_FA])
def test_full_model_finite_differences(mode):
    assert check_tiny_model(mode, seed=2) < 1e-4


# --- live work -----------------------------------------------------------------
# The reference backward runs the full chain the engine ran before it skipped
# dead work: every block's input gradient (block 0's query/key/value input
# gradients included) and every layer norm's dgamma/dbeta, then keeps the
# trainable set. Only block 0's ln1 vjp is skipped where the tape holds no
# ln1 stats for it. backward must match it bit for bit.

def _ref_block_backward(model, block, cache, dx, grads, pre):
    nh = model.config.n_heads
    dh = model.config.d // nh

    def linear(name, upstream):
        dinput, layer_grads = adapters.backward(getattr(block, name), getattr(cache, name), upstream)
        grads.update({f"{pre}.{name}.{k}": g for k, g in layer_grads.items()})
        return dinput

    df1 = ops.gelu_vjp(cache.gelu_in, linear("ffn2", dx))
    dh2 = linear("ffn1", df1)
    dx_mid, grads[f"{pre}.ln2.gamma"], grads[f"{pre}.ln2.beta"] = ops.layer_norm_vjp(
        cache.ln2_xhat, cache.ln2_inv, block.ln2_gamma, dh2)
    dx_mid += dx
    dctx_h = _split_heads(linear("attn_o", dx_mid), nh)
    dprobs = dctx_h @ np.swapaxes(cache.vh, -1, -2)
    # The tape holds each (s, s) probs' lower triangle, row by row.
    s = cache.kh.shape[-2]
    probs = np.zeros(cache.probs.shape[:-1] + (s, s))
    rows, cols = np.tril_indices(s)
    probs[..., rows, cols] = cache.probs
    dvh = np.swapaxes(probs, -1, -2) @ dctx_h
    dscores = ops.softmax_rows_vjp(probs, dprobs)
    dscores /= np.sqrt(dh)
    dqh = dscores @ cache.kh
    dkh = np.swapaxes(dscores, -1, -2) @ cache.qh
    dh1 = (linear("attn_q", _merge_heads(dqh)) + linear("attn_k", _merge_heads(dkh))
           + linear("attn_v", _merge_heads(dvh)))
    if cache.ln1_xhat is None:  # block 0 outside ft: nothing below it trains
        return None
    dx_in, grads[f"{pre}.ln1.gamma"], grads[f"{pre}.ln1.beta"] = ops.layer_norm_vjp(
        cache.ln1_xhat, cache.ln1_inv, block.ln1_gamma, dh1)
    return dx_in + dx_mid


def _ref_backward(model, tape):
    dlogits = tape.dlogits.copy()
    grads = {}
    d2 = dlogits.reshape(-1, dlogits.shape[-1])
    if tape.head_input is not None:
        grads["tok_emb"] = d2.T @ tape.head_input.reshape(-1, tape.head_input.shape[-1])
    dx, grads["ln_f.gamma"], grads["ln_f.beta"] = ops.layer_norm_vjp(
        tape.lnf_xhat, tape.lnf_inv, model.lnf_gamma, ops.matmul(dlogits, model.tok_emb))
    for i in reversed(range(len(model.blocks))):
        dx = _ref_block_backward(model, model.blocks[i], tape.block_caches[i], dx, grads, f"block{i}")
    if "tok_emb" in grads:
        dtok = np.zeros_like(model.tok_emb)
        np.add.at(dtok, tape.tokens, dx)
        grads["tok_emb"] += dtok
        dpos = np.zeros_like(model.pos_emb)
        dpos[: tape.tokens.shape[1]] = dx.sum(axis=0)
        grads["pos_emb"] = dpos
    return {k: grads[k] for k in trainable_params(model)}


@pytest.mark.parametrize("mode", [Mode.FT, Mode.LORA, Mode.LORA_FA])
@pytest.mark.parametrize("seed", [0, 1])
def test_backward_matches_the_full_chain_bit_for_bit(mode, seed):
    m = build_model(CFG, mode, rank=2, rng=RngState(20 + seed))
    for p in trainable_params(m).values():
        p += 0.1 * randn(p.shape, RngState(p.size + seed))
    _, tape = forward_loss(m, *data(30 + seed))
    want = _ref_backward(m, tape)  # first: backward consumes the tape
    got = backward(m, tape)
    assert list(got) == list(want)
    for key in want:
        assert got[key].dtype == want[key].dtype and got[key].tobytes() == want[key].tobytes(), key


@pytest.mark.parametrize("mode", [Mode.FT, Mode.LORA, Mode.LORA_FA])
def test_backward_computes_only_live_gradients(monkeypatch, mode):
    linears, norms, matmuls = [], [], []
    real_backward, real_vjp, real_matmul = adapters.backward, ops.layer_norm_vjp, ops.matmul

    def spy_backward(layer, kept, dy, *args):
        dx, grads = real_backward(layer, kept, dy, *args)
        linears.append((layer, dx))
        return dx, grads

    def spy_vjp(*args, **kwargs):
        out = real_vjp(*args, **kwargs)
        norms.append(out)
        return out

    def spy_matmul(a, b):
        matmuls.append(a.shape)
        return real_matmul(a, b)

    monkeypatch.setattr(adapters, "backward", spy_backward)
    monkeypatch.setattr(ops, "layer_norm_vjp", spy_vjp)
    monkeypatch.setattr(ops, "matmul", spy_matmul)
    monkeypatch.setattr(adapters, "matmul", spy_matmul)
    m = build_model(CFG, mode, rank=2, rng=RngState(9))
    _, tape = forward_loss(m, *data(10))
    matmuls.clear()
    backward(m, tape)
    block0 = m.blocks[0]
    dead = [] if mode.trains_dense else [block0.attn_q, block0.attn_k, block0.attn_v]
    assert len(linears) == 6 * CFG.n_layers
    assert [layer for layer, dx in linears if dx is None] == dead
    # one head product plus one dx per linear whose input gradient is live
    assert len(matmuls) == 1 + 6 * CFG.n_layers - len(dead)
    # ln_f and two per block, less block 0's ln1 where nothing below it trains
    assert len(norms) == 1 + 2 * CFG.n_layers - (0 if mode.trains_dense else 1)
    for dx, dgamma, dbeta in norms:
        assert dx is not None
        assert (dgamma is not None, dbeta is not None) == (mode.trains_dense,) * 2


def test_frozen_backward_returns_no_gradients(monkeypatch):
    m = build_model(CFG, Mode.FROZEN, rng=RngState(11))
    _, tape = forward_loss(m, *data(12))
    monkeypatch.setattr(adapters, "backward", None)  # frozen backward runs no linear
    assert backward(m, tape) == {}
    with pytest.raises(DataError, match="no loss"):
        backward(m, Tape())


# --- frozen-parameter purity ----------------------------------------------------

@pytest.mark.parametrize("mode", [Mode.LORA, Mode.LORA_FA])
def test_frozen_purity_under_training(mode):
    m = build_model(CFG, mode, rank=2, rng=RngState(6))
    w_bytes = [layer.w.tobytes() for _, layer in m.adapted_layers()]
    a_bytes = [layer.a.tobytes() for _, layer in m.adapted_layers()]
    emb_bytes = m.tok_emb.tobytes()
    params = trainable_params(m)
    state = init_adamw_state(params)
    tokens, targets = data(13)
    for _ in range(3):
        _, tape = forward_loss(m, tokens, targets)
        adamw_step(params, backward(m, tape), state, AdamWConfig(eta=1e-2))
    assert all(layer.w.tobytes() == wb for (_, layer), wb in zip(m.adapted_layers(), w_bytes))
    assert m.tok_emb.tobytes() == emb_bytes
    if mode is Mode.LORA_FA:
        assert all(layer.a.tobytes() == ab for (_, layer), ab in zip(m.adapted_layers(), a_bytes))
    else:
        assert any(layer.a.tobytes() != ab for (_, layer), ab in zip(m.adapted_layers(), a_bytes))


# --- parameter counting -----------------------------------------------------------

def test_count_examples_d4():
    cfg = ModelConfig(d=4, n_layers=1, n_heads=2, vocab=7, seq_len=4)
    ft = build_model(cfg, Mode.FT, rng=RngState(0))
    assert count_trainable(ft).linear_only == 192
    lora = build_model(cfg, Mode.LORA, rank=2, rng=RngState(0))
    assert count_trainable(lora).linear_only == 144
    fa = build_model(cfg, Mode.LORA_FA, rank=2, rng=RngState(0))
    assert count_trainable(fa).linear_only == 72


@pytest.mark.parametrize("d,L,r", [(4, 1, 2), (4, 2, 1), (16, 2, 4), (16, 3, 8)])
def test_enumeration_matches_formula(d, L, r):
    cfg = ModelConfig(d=d, n_layers=L, n_heads=2, vocab=7, seq_len=4)
    for mode in (Mode.FT, Mode.LORA, Mode.LORA_FA, Mode.FROZEN):
        m = build_model(cfg, mode, rank=r, rng=RngState(1))
        assert count_trainable(m).linear_only == count_trainable_formula(cfg, mode, r)
    assert count_trainable_formula(cfg, Mode.FT, r) == 12 * d * d * L
    assert count_trainable_formula(cfg, Mode.LORA, r) == 18 * d * r * L
    assert count_trainable_formula(cfg, Mode.LORA_FA, r) == 9 * d * r * L


def test_lorafa_is_half_of_lora_at_model_totals():
    for d, L, r in [(8, 1, 2), (16, 2, 4), (32, 3, 8)]:
        cfg = ModelConfig(d=d, n_layers=L, n_heads=2, vocab=7, seq_len=4)
        assert (
            2 * count_trainable_formula(cfg, Mode.LORA_FA, r)
            == count_trainable_formula(cfg, Mode.LORA, r)
        )


def test_full_count_exceeds_linear_only_in_ft_only():
    m = build_model(CFG, Mode.FT, rng=RngState(0))
    c = count_trainable(m)
    assert c.full > c.linear_only
    for mode in (Mode.LORA, Mode.LORA_FA):
        m = build_model(CFG, mode, rank=2, rng=RngState(0))
        c = count_trainable(m)
        assert c.full == c.linear_only


def test_rank_larger_than_d_rejected():
    with pytest.raises(ParameterError):
        build_model(CFG, Mode.LORA, rank=CFG.d + 1, rng=RngState(0))


@pytest.mark.parametrize("mode", [Mode.LORA, Mode.LORA_FA])
def test_rank_above_min_d_and_d_ff_rejected_before_any_layer(monkeypatch, mode):
    cfg = ModelConfig(d=16, n_layers=1, n_heads=2, vocab=7, seq_len=4, d_ff=4)
    assert cfg.max_rank == 4
    built = build_model(cfg, mode, rank=4, rng=RngState(0))
    assert built.blocks[0].ffn2.a.shape == (4, 4)

    def no_layer(*args, **kw):
        raise AssertionError("init_adapter called for an out-of-range rank")

    monkeypatch.setattr(adapters, "init_adapter", no_layer)
    with pytest.raises(ParameterError, match=r"rank 8 exceeds min\(d, d_ff\) = 4"):
        build_model(cfg, mode, rank=8, rng=RngState(0))


@pytest.mark.parametrize("mode", list(Mode))
def test_rank_below_one_rejected(mode):
    # the default alpha is 1 / rank, so rank 0 used to end in ZeroDivisionError
    with pytest.raises(ParameterError):
        build_model(CFG, mode, rank=0, rng=RngState(0))


def test_targets_are_validated_before_the_forward_pass(monkeypatch):
    import lorafa.model as model_mod

    def no_forward(*_args, **_kwargs):
        raise AssertionError("_forward ran for a batch with bad targets")

    monkeypatch.setattr(model_mod, "_forward", no_forward)
    m = build_model(CFG, Mode.LORA_FA, rank=2, rng=RngState(1))
    tokens, targets = data(4)
    below_ignore = targets.copy()
    below_ignore[0, 0] = -2
    for bad, error in (
        (targets[:, :-1], DimensionError),
        (below_ignore, DataError),
        (np.full_like(targets, CFG.vocab), DataError),
        (np.full_like(targets, IGNORE_TARGET), DataError),
        (targets.astype(float), DataError),
        (targets.astype(bool), DataError),
    ):
        with pytest.raises(error):
            forward_loss(m, tokens, bad)
    with pytest.raises(DimensionError):
        forward_loss(m, tokens[:, :0], targets[:, :0])


@pytest.mark.parametrize("mode", list(Mode))
def test_forward_loss_leaves_the_cross_entropy_gradient(mode):
    # (softmax - onehot) * mask / count, in the op order backward used to
    # build it from the tape's softmax; ignored positions are exactly 0.
    m = build_model(CFG, mode, rank=2, rng=RngState(3))
    tokens, targets = data(14)
    targets[0, :3] = IGNORE_TARGET
    logits = forward_logits(m, tokens)
    log_probs = logits - logits.max(axis=-1, keepdims=True)
    probs = np.exp(log_probs)
    log_probs -= np.log(np.sum(probs, axis=-1, keepdims=True))
    np.exp(log_probs, out=probs)
    mask = targets != IGNORE_TARGET
    safe = np.where(mask, targets, 0)[..., None]
    want = probs.copy()
    np.put_along_axis(want, safe, np.take_along_axis(want, safe, axis=-1) - 1.0, axis=-1)
    want *= mask[..., None] / int(mask.sum())
    _, tape = forward_loss(m, tokens, targets)
    assert tape.dlogits.tobytes() == want.tobytes()
    assert not tape.dlogits[~mask].any()


@pytest.mark.parametrize("mode", [Mode.FT, Mode.LORA, Mode.LORA_FA])
def test_backward_leaves_the_tape_unchanged(mode):
    # Backward accumulates residual and q/k/v gradients in place and writes
    # GeLU's vjp over ffn2's dx; none of that may write into an array the
    # forward pass retained. Backward drops the tape's arrays, so the test
    # holds its own references to them, and the tape comes back empty.
    m = build_model(CFG, mode, rank=2, rng=RngState(5))
    for p in trainable_params(m).values():
        p += 0.1 * randn(p.shape, RngState(p.size))
    tokens, targets = data(6)
    _, tape = forward_loss(m, tokens, targets)
    held = tape_arrays(tape)
    before = {key: arr.tobytes() for key, arr in held.items()}
    assert any(key.endswith((".x_full", ".x_low")) for key in before)
    backward(m, tape)
    assert tape_arrays(tape) == {} and tape.block_caches == []
    for key, arr in held.items():
        assert arr.tobytes() == before[key], f"{key} changed"


# ffn2 runs over blocks of ops.ROWS of the b*s = 200 rows here: one block, the
# default (a full block and a ragged one) and 48-row blocks (four and a ragged 8).
# ft and lora read their blocks from the whole retained GeLU output.
ROW_CFG = ModelConfig(d=16, n_layers=2, n_heads=2, vocab=11, seq_len=40, batch_size=5)
ROW_BLOCKS = [ROW_CFG.batch_size * ROW_CFG.seq_len, ops.ROWS, 48]


def _step_over_row_blocks(monkeypatch, mode, rows):
    monkeypatch.setattr(ops, "ROWS", rows)
    m = build_model(ROW_CFG, mode, rank=2, rng=RngState(9))
    for p in trainable_params(m).values():  # B != 0, so the adapter branch counts
        p += 0.1 * randn(p.shape, RngState(p.size))
    tokens, targets = data(10, ROW_CFG, b=ROW_CFG.batch_size)
    loss, tape = forward_loss(m, tokens, targets)
    return loss, backward(m, tape), forward_logits(m, tokens)


@pytest.mark.parametrize("mode", list(Mode))
def test_ffn2_row_blocks_agree_with_one_block(monkeypatch, mode):
    # A row block's GEMMs may round differently from the whole array's (BLAS
    # blocks fewer rows differently), so this holds to 1e-12, not bit for bit;
    # tools/report_digest.py shows the default is bit-identical at the
    # benchmark geometries.
    loss, grads, logits = _step_over_row_blocks(monkeypatch, mode, ROW_BLOCKS[0])
    for rows in ROW_BLOCKS[1:]:
        got_loss, got_grads, got_logits = _step_over_row_blocks(monkeypatch, mode, rows)
        assert got_loss == pytest.approx(loss, rel=1e-12, abs=0)
        np.testing.assert_allclose(got_logits, logits, rtol=1e-12, atol=0)
        assert got_grads.keys() == grads.keys()
        for name, g in grads.items():
            np.testing.assert_allclose(got_grads[name], g, rtol=1e-12, atol=0, err_msg=name)


@pytest.mark.parametrize("mode", list(Mode))
def test_a_consumed_tape_cannot_be_backpropagated_again(mode):
    m = build_model(CFG, mode, rank=2, rng=RngState(5))
    _, tape = forward_loss(m, *data(6))
    backward(m, tape)
    with pytest.raises(DataError, match="no loss"):
        backward(m, tape)


@pytest.mark.parametrize("mode", [Mode.FT, Mode.LORA, Mode.LORA_FA])
def test_retained_products_own_their_memory(mode):
    # A retained view into a larger buffer would keep that buffer alive
    # while the meter counts only the view.
    m = build_model(CFG, mode, rank=2, rng=RngState(7))
    _, tape = forward_loss(m, *data(8))
    owned = {
        key: arr for key, arr in tape_arrays(tape).items()
        if key.endswith((".x_low", ".gelu_in", ".probs"))
    }
    assert len(owned) == CFG.n_layers * (8 if mode.has_adapter else 2)
    for key, arr in owned.items():
        assert arr.base is None, f"{key} is a view"
    b, h, s = CFG.batch_size, CFG.n_heads, CFG.seq_len
    for i in range(CFG.n_layers):
        assert owned[f"block{i}.probs"].size == b * h * s * (s + 1) // 2


@pytest.mark.parametrize("s", [1, 2, 5, 64])
def test_packed_causal_probs_unpack_bit_for_bit(s):
    scores = randn((3, 2, s, s), RngState(s)) * 4.0
    rows, cols = np.triu_indices(s, 1)
    scores[..., rows, cols] = -np.inf  # forward's causal mask
    probs = ops.softmax_rows(scores)
    packed = _pack_causal(probs)
    assert packed.shape == (3, 2, s * (s + 1) // 2) and packed.base is None
    unpacked = _unpack_causal(packed)
    assert unpacked.shape == probs.shape and unpacked.tobytes() == probs.tobytes()


def tape_arrays(tape) -> dict:
    """Every array a tape holds, named by where it sits."""
    out = {}
    for i, cache in enumerate(tape.block_caches):
        for f in fields(cache):
            value = getattr(cache, f.name)
            if isinstance(value, RetainedActivations):
                if value.has_x_full:
                    out[f"block{i}.{f.name}.x_full"] = value.x_full
                if value.has_x_low:
                    out[f"block{i}.{f.name}.x_low"] = value.x_low
            elif value is not None:
                out[f"block{i}.{f.name}"] = value
    for f in fields(tape):
        if isinstance(getattr(tape, f.name), np.ndarray):
            out[f.name] = getattr(tape, f.name)
    return out
