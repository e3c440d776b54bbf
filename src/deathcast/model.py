"""Dense network with a per-hero shared encoder and a concatenation head.

One weight set encodes all 10 hero feature vectors (hero-slot invariant by
construction); the 10 encodings are concatenated in slot order and fed to a
fully connected head ending in 10 sigmoid outputs, one death probability
per hero. Gradients are hand-derived for this fixed family; training error
is backpropagated only through the batch's selected slot. No autodiff
framework, no GPU.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import features as ft
from .errors import (ChecksumMismatch, InvalidArchitecture, NonFiniteGradient,
                     ShapeMismatch, VersionMismatch)
from .match_data import N_HEROES
from .util import seal, unseal, write_atomic

# Tuned per-variant defaults for full-scale corpora (batch 128, Adam).
DEFAULT_HYPERPARAMS = {
    "minimal": {"learning_rate": 3.06e-5, "shared_layers": (200, 100, 60, 20),
                "final_layers": (150, 75)},
    "medium": {"learning_rate": 7.48e-5, "shared_layers": (256, 128, 64),
               "final_layers": (1024, 512, 256, 128, 64, 32)},
    "full": {"learning_rate": 6.15e-5, "shared_layers": (256, 128, 64),
             "final_layers": (1024, 512, 256, 128, 64, 32)},
}

_DTYPES = {"float32": np.float32, "float64": np.float64}

# Elements per block of the Adam update: a block's six operands (parameters,
# gradient, two moments, two scratch blocks; 1.5 MB in float32) stay in
# cache across the update's 14 passes over them.
ADAM_BLOCK = 1 << 16


@dataclass(frozen=True)
class ModelConfig:
    variant: str
    per_hero_count: int
    shared_layers: tuple
    final_layers: tuple
    learning_rate: float
    batch_size: int = 128
    seed: int = 0
    window: float = 5.0
    roster_size: int = 130
    dtype: str = "float32"

    @property
    def np_dtype(self):
        return _DTYPES[self.dtype]

    @property
    def head_input_width(self):
        return N_HEROES * self.shared_layers[-1]

    def n_parameters(self):
        return sum(a * b + b for widths in _layer_widths(self)
                   for a, b in zip(widths, widths[1:]))


def default_config(variant, roster_size=130, **overrides) -> ModelConfig:
    """Per-variant defaults; keyword overrides win."""
    schema = ft.feature_schema(variant, roster_size)
    base = dict(DEFAULT_HYPERPARAMS[variant])
    base.update(overrides)
    return ModelConfig(variant=variant, per_hero_count=schema.per_hero_count,
                       roster_size=roster_size, **base)


def _layer_views(cfg, flat):
    """encoder_w/encoder_b/head_w/head_b tuples of views into the 1-D buffer
    `flat`, laid out in serialization order (each weight, then its bias).
    Tuples, so that a layer can be written only through its view."""
    if flat.ndim != 1 or flat.size != cfg.n_parameters():
        raise ShapeMismatch(f"a {cfg.n_parameters()}-element flat buffer is needed "
                            f"for this architecture, got shape {flat.shape}")
    views, off = {}, 0
    for prefix, widths in zip(("encoder", "head"), _layer_widths(cfg)):
        ws, bs = [], []
        for fan_in, fan_out in zip(widths, widths[1:]):
            ws.append(flat[off:off + fan_in * fan_out].reshape(fan_in, fan_out))
            off += fan_in * fan_out
            bs.append(flat[off:off + fan_out])
            off += fan_out
        views[f"{prefix}_w"], views[f"{prefix}_b"] = tuple(ws), tuple(bs)
    return views


@dataclass
class _FlatLayers:
    """One contiguous buffer in serialization order, plus per-layer views of
    it; writing through a view writes the buffer."""

    config: ModelConfig
    flat: np.ndarray
    encoder_w: tuple = field(init=False, repr=False)
    encoder_b: tuple = field(init=False, repr=False)
    head_w: tuple = field(init=False, repr=False)
    head_b: tuple = field(init=False, repr=False)

    def __post_init__(self):
        for name, views in _layer_views(self.config, self.flat).items():
            setattr(self, name, views)

    def arrays(self):
        """(name, view) pairs in the documented serialization order."""
        for prefix in ("encoder", "head"):
            ws, bs = getattr(self, f"{prefix}_w"), getattr(self, f"{prefix}_b")
            for i, (w, b) in enumerate(zip(ws, bs)):
                yield f"{prefix}_w{i}", w
                yield f"{prefix}_b{i}", b


@dataclass
class ModelParams(_FlatLayers):
    """Weights: one encoder copy shared by all 10 slots, plus the head.

    head_w/head_b include the output layer (last entry maps the final
    hidden width to 10 logits).
    """

    def copy(self):
        return replace(self, flat=self.flat.copy())


@dataclass
class GradientSet(_FlatLayers):
    """d loss / d parameters, laid out like the parameters of `config`."""


@dataclass
class AdamState:
    """First/second moment accumulators, flat like the parameters, and the
    two scratch blocks of the blocked update."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = np.empty((2, min(ADAM_BLOCK, self.m.size)), self.m.dtype)


@dataclass
class ForwardTrace:
    """Cached pre-activations/activations needed by the backward pass."""

    x0: np.ndarray  # (B*10, F)
    encoder_pre: list
    encoder_act: list
    concat: np.ndarray  # (B, 10*E)
    head_pre: list
    head_act: list  # hidden activations only, not the output layer
    logits: np.ndarray  # (B, 10)
    probs: np.ndarray


def _layer_widths(cfg):
    enc = [cfg.per_hero_count, *cfg.shared_layers]
    head = [cfg.head_input_width, *cfg.final_layers, N_HEROES]
    return enc, head


def init_params(cfg: ModelConfig, rng=None) -> ModelParams:
    """Variance-scaled uniform weights (bound sqrt(6/(fan_in+fan_out))),
    zero biases; deterministic for a fixed seed."""
    for w in (*cfg.shared_layers, *cfg.final_layers, cfg.per_hero_count):
        if w < 1:
            raise InvalidArchitecture(f"layer width must be >= 1, got {w}")
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    params = ModelParams(config=cfg, flat=np.zeros(cfg.n_parameters(), cfg.np_dtype))
    for w in (*params.encoder_w, *params.head_w):
        fan_in, fan_out = w.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def init_adam(params: ModelParams, beta1=0.9, beta2=0.999, eps=1e-8) -> AdamState:
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat),
                     step=0, beta1=beta1, beta2=beta2, eps=eps)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_features(cfg, feats):
    feats = np.asarray(feats)
    if feats.ndim != 3 or feats.shape[1] != N_HEROES or feats.shape[2] != cfg.per_hero_count:
        raise ShapeMismatch(
            f"features must be (batch, {N_HEROES}, {cfg.per_hero_count}), got {feats.shape}")
    return feats.astype(cfg.np_dtype, copy=False)


def _relu_stack_forward(act, ws, bs):
    """Dense layers with a ReLU after each; (pre-activations, activations)."""
    pres, acts = [], []
    for w, b in zip(ws, bs):
        pre = act @ w + b
        act = np.maximum(pre, 0)
        pres.append(pre)
        acts.append(act)
    return pres, acts


def _relu_stack_backward(dact, x, pres, acts, ws, w_g, b_g, input_grad=True):
    """Writes the weight and bias gradients of `_relu_stack_forward` on x
    into w_g and b_g, from d loss/d(last activation); returns d loss/d x,
    or None unless input_grad."""
    for i in range(len(ws) - 1, -1, -1):
        dpre = dact * (pres[i] > 0)
        np.matmul((x if i == 0 else acts[i - 1]).T, dpre, out=w_g[i])
        np.sum(dpre, axis=0, out=b_g[i])
        dact = dpre @ ws[i].T if i > 0 or input_grad else None
    return dact


def forward(params: ModelParams, feats):
    """Probabilities (B, 10) plus the trace needed for backprop.

    Every hero vector passes through the shared encoder (ReLU after each
    layer); encodings concatenate in slot order; the head applies ReLU
    hidden layers and a sigmoid on the 10-unit output.
    """
    cfg = params.config
    feats = _check_features(cfg, feats)
    b = feats.shape[0]
    x0 = feats.reshape(b * N_HEROES, cfg.per_hero_count)
    enc_pre, enc_act = _relu_stack_forward(x0, params.encoder_w, params.encoder_b)
    concat = enc_act[-1].reshape(b, cfg.head_input_width)
    head_pre, head_act = _relu_stack_forward(concat, params.head_w[:-1], params.head_b[:-1])
    logits = (head_act[-1] if head_act else concat) @ params.head_w[-1] + params.head_b[-1]
    probs = _sigmoid(logits)
    trace = ForwardTrace(x0=x0, encoder_pre=enc_pre, encoder_act=enc_act,
                         concat=concat, head_pre=head_pre, head_act=head_act,
                         logits=logits, probs=probs)
    return probs, trace


def loss_and_grad(params: ModelParams, batch):
    """Mean binary cross-entropy on the selected slot only, plus gradients.

    batch needs .features (B,10,F), .labels (B,10) and .selected_slot.
    Gradients for the other nine outputs are exactly zero at the output
    layer; the shared encoder still accumulates contributions from all ten
    forward paths.
    """
    cfg = params.config
    slot = int(batch.selected_slot)
    if not 0 <= slot < N_HEROES:
        raise ShapeMismatch(f"selected_slot {slot} out of range")
    _, trace = forward(params, batch.features)
    b = trace.logits.shape[0]
    dt = cfg.np_dtype

    z = trace.logits[:, slot]
    y = np.asarray(batch.labels)[:, slot].astype(dt)
    # softplus form of BCE-with-logits; safe for large |z|
    loss = float(np.mean(np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))))

    dlogits = np.zeros_like(trace.logits)
    dlogits[:, slot] = (_sigmoid(z) - y) / b

    grads = GradientSet(config=cfg, flat=np.empty(params.flat.size, dt))
    # output layer: linear, so its pre-activation gradient is dlogits itself
    out_in = trace.head_act[-1] if trace.head_act else trace.concat
    dconcat = _relu_stack_backward(
        dlogits @ params.head_w[-1].T, trace.concat, trace.head_pre, trace.head_act,
        params.head_w[:-1], grads.head_w, grads.head_b)
    np.matmul(out_in.T, dlogits, out=grads.head_w[-1])
    np.sum(dlogits, axis=0, out=grads.head_b[-1])

    denc = dconcat.reshape(b * N_HEROES, cfg.shared_layers[-1])
    _relu_stack_backward(denc, trace.x0, trace.encoder_pre, trace.encoder_act,
                         params.encoder_w, grads.encoder_w, grads.encoder_b,
                         input_grad=False)
    return loss, grads


def adam_step(params: ModelParams, state: AdamState, grads: GradientSet, lr=None):
    """Bias-corrected Adam (Kingma & Ba 2015), in place; returns (params, state).

    The update runs over the flat parameter, gradient and moment buffers in
    blocks of ADAM_BLOCK elements, through the state's two scratch blocks.
    Each block takes the float operations of the per-array update
    `p -= lr * (m / c1) / (sqrt(v / c2) + eps)` in the same order, so the
    results are bit-identical to it. Nothing is written unless the whole
    gradient is finite.
    """
    lr = params.config.learning_rate if lr is None else lr
    if _layer_widths(grads.config) != _layer_widths(params.config):
        raise ShapeMismatch("gradient shapes do not mirror the parameters")
    if not np.isfinite(grads.flat).all():
        raise NonFiniteGradient("gradient contains NaN or inf")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for lo in range(0, params.flat.size, ADAM_BLOCK):
        hi = lo + ADAM_BLOCK
        p, g = params.flat[lo:hi], grads.flat[lo:hi]
        m, v = state.m[lo:hi], state.v[lo:hi]
        tmp, upd = state.scratch[:, :p.size]
        m *= b1
        np.multiply(g, 1 - b1, out=tmp)
        m += tmp
        v *= b2
        np.square(g, out=tmp)
        tmp *= 1 - b2
        v += tmp
        np.divide(m, c1, out=upd)
        upd *= lr
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += state.eps
        upd /= tmp
        p -= upd
    return params, state


# ---------------------------------------------------------------------------
# Numerical verification


@dataclass
class GradCheckReport:
    max_rel_error: float
    tolerance: float
    n_checked: int
    worst_param: str

    @property
    def passed(self):
        return self.max_rel_error < self.tolerance


@dataclass(frozen=True)
class _RawBatch:
    features: np.ndarray
    labels: np.ndarray
    selected_slot: int


def small_check_config(per_hero_count=15, batch_size=4, seed=0) -> ModelConfig:
    """The tiny 64-bit configuration used for finite-difference checks."""
    return ModelConfig(variant="minimal", per_hero_count=per_hero_count,
                       shared_layers=(8, 4), final_layers=(8,),
                       learning_rate=1e-3, batch_size=batch_size, seed=seed,
                       dtype="float64")


def gradient_check(cfg: ModelConfig, tolerance=1e-4, rng=None, eps=1e-5,
                   loss_and_grad_fn=None) -> GradCheckReport:
    """Max relative error between analytic and central-difference gradients
    over every parameter, for one random batch.

    loss_and_grad_fn exists so tests can inject a sabotaged backward pass;
    the analytic side comes from it, the numeric side never does.
    """
    if cfg.dtype != "float64":
        cfg = replace(cfg, dtype="float64")
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    fn = loss_and_grad if loss_and_grad_fn is None else loss_and_grad_fn

    params = init_params(cfg, rng)
    # biases start at zero; nudge them so the check exercises nonzero offsets
    for _, arr in params.arrays():
        if arr.ndim == 1:
            arr += rng.uniform(-0.05, 0.05, size=arr.shape)
    feats = rng.random((cfg.batch_size, N_HEROES, cfg.per_hero_count))
    labels = rng.random((cfg.batch_size, N_HEROES)) < 0.5
    batch = _RawBatch(features=feats, labels=labels,
                      selected_slot=int(rng.integers(N_HEROES)))

    _, grads = fn(params, batch)
    g_arrs = dict(grads.arrays())

    worst = 0.0
    worst_name = ""
    n_checked = 0
    for name, arr in params.arrays():
        flat = arr.reshape(-1)
        g_flat = g_arrs[name].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up, _ = loss_and_grad(params, batch)
            flat[j] = orig - eps
            dn, _ = loss_and_grad(params, batch)
            flat[j] = orig
            numeric = (up - dn) / (2 * eps)
            analytic = g_flat[j]
            denom = max(abs(analytic), abs(numeric))
            rel = 0.0 if denom < 1e-10 else abs(analytic - numeric) / denom
            n_checked += 1
            if rel > worst:
                worst = rel
                worst_name = f"{name}[{j}]"
    return GradCheckReport(max_rel_error=worst, tolerance=tolerance,
                           n_checked=n_checked, worst_param=worst_name)


# ---------------------------------------------------------------------------
# Checkpoints

CHECKPOINT_MAGIC = b"DTHCKPT1"
CHECKPOINT_VERSION = 1
_DTYPE_NAMES = tuple(_DTYPES)  # the dtype code is the index
_FIXED = struct.Struct("<8sHBBIIIqQdd")


def encode_checkpoint(params: ModelParams, stats: ft.NormalizationStats, step=0) -> bytes:
    cfg = params.config
    if stats.schema.variant != cfg.variant or stats.schema.per_hero_count != cfg.per_hero_count:
        raise ShapeMismatch("normalization stats do not match the model schema")
    out = [
        *(struct.pack(f"<H{len(ws)}I", len(ws), *ws)
          for ws in (cfg.shared_layers, cfg.final_layers)),
        struct.pack("<I", stats.schema.per_hero_count),
        stats.mins.astype("<f8").tobytes(),
        stats.maxs.astype("<f8").tobytes(),
    ]
    le = "<f4" if cfg.dtype == "float32" else "<f8"
    out.append(np.ascontiguousarray(params.flat, dtype=le))
    return seal(_FIXED, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, cfg.variant,
                _DTYPE_NAMES.index(cfg.dtype), cfg.per_hero_count, cfg.roster_size,
                cfg.batch_size, cfg.seed, step, cfg.learning_rate, cfg.window,
                body=out)


def decode_checkpoint(blob: bytes, expect_variant=None):
    variant, fields, body = unseal(blob, _FIXED, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                   "checkpoint")
    dtype_code, per_hero, roster, batch, seed, step, lr, window = fields
    if expect_variant is not None and variant != expect_variant:
        raise VersionMismatch(f"checkpoint is {variant!r}, expected {expect_variant!r}")
    if dtype_code >= len(_DTYPE_NAMES):
        raise VersionMismatch(f"unknown checkpoint dtype code {dtype_code}")
    dtype = _DTYPE_NAMES[dtype_code]
    off = _FIXED.size

    def take(fmt, count):
        nonlocal off
        size = np.dtype(fmt).itemsize * count
        if off + size > len(body):
            raise ChecksumMismatch("checkpoint is shorter than its layer table says")
        arr = np.frombuffer(body, dtype=fmt, count=count, offset=off).copy()
        off += size
        return arr

    def take_ints(fmt, count):
        return tuple(int(v) for v in take(fmt, count))

    shared = take_ints("<u4", *take_ints("<u2", 1))
    final = take_ints("<u4", *take_ints("<u2", 1))
    (n_feat,) = take_ints("<u4", 1)
    if not shared:
        raise VersionMismatch("checkpoint has no encoder layers")
    if n_feat != per_hero:
        raise VersionMismatch("embedded stats length differs from feature count")
    mins = take("<f8", n_feat)
    maxs = take("<f8", n_feat)

    cfg = ModelConfig(variant=variant, per_hero_count=per_hero, shared_layers=shared,
                      final_layers=final, learning_rate=lr, batch_size=batch,
                      seed=seed, window=window, roster_size=roster, dtype=dtype)
    schema = ft.header_schema(variant, roster, len(blob), "checkpoint")
    stats = ft.NormalizationStats(schema=schema, mins=mins, maxs=maxs)

    le = "<f4" if dtype == "float32" else "<f8"
    flat = take(le, cfg.n_parameters())
    if off != len(body):
        raise ChecksumMismatch("checkpoint has trailing bytes")
    return ModelParams(config=cfg, flat=flat), stats, step


def save_checkpoint(params: ModelParams, stats: ft.NormalizationStats, path, step=0):
    """Self-contained checkpoint: config, schema variant, stats, weights."""
    write_atomic(path, encode_checkpoint(params, stats, step))


def load_checkpoint(path, expect_variant=None):
    """Returns (params, stats, step); params.config carries the ModelConfig."""
    with open(path, "rb") as fh:
        return decode_checkpoint(fh.read(), expect_variant)
