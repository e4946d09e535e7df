"""Encoder -> scan/frequency blocks -> decoder pipeline, losses and training.

Frames are encoded by two stride-2 conv blocks, mixed by a stack of blocks
that fuse selective-scan route features with a wavelet high-frequency
feature, decoded by two transposed-conv blocks, refined by depthwise convs,
and mapped to either a deterministic frame or a Gaussian (mu, sigma) pair
per pixel.

Every output lead is a residual on the last observed frame: the head's mean
channel predicts the change since the forecast origin, and the origin frame
is added back, so a zero head forecasts persistence. This is a departure
from the paper, which does not say how latent frames map to lead days.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import data, hsa, metrics, nd, sfc, ssm, wavelet
from .data import FormatError
from .nd import NumericalError, Tensor

HEADS = ("deterministic", "gaussian")


@dataclass(frozen=True)
class ModelConfig:
    in_len: int = 14
    out_len: int = 14
    hidden: int = 32
    n_fssm: int = 3
    n_routes: int = 2
    scan_kind: str = "hilbert_temporal_first"
    lambda_grad: float = 0.1
    head: str = "deterministic"
    fusion: str = "hsa"
    state_size: int = 8

    def __post_init__(self):
        for name in ("in_len", "out_len", "hidden", "n_fssm", "n_routes", "state_size"):
            if type(getattr(self, name)) is not int:   # 8.0 and True are refused too
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.n_fssm < 1:
            raise ValueError("n_fssm must be >= 1")
        if self.n_routes not in (1, 2, 4):
            raise ValueError("n_routes must be 1, 2 or 4")
        if isinstance(self.lambda_grad, bool) or not (  # True >= 0 would pass
                math.isfinite(self.lambda_grad) and self.lambda_grad >= 0):
            raise ValueError(f"lambda_grad must be a finite number >= 0, "
                             f"got {self.lambda_grad!r}")
        if self.in_len < 1 or self.out_len < 1:
            raise ValueError("window lengths must be >= 1")
        if self.hidden < 2 or self.hidden % 2:
            raise ValueError(f"hidden must be even and >= 2, got {self.hidden}")
        if self.state_size < 1:
            raise ValueError(f"state_size must be >= 1, got {self.state_size}")
        if self.scan_kind not in sfc.KINDS:
            raise ValueError(f"unknown scan kind {self.scan_kind!r}")
        if self.head not in HEADS:
            raise ValueError(f"unknown head {self.head!r}")
        if self.fusion not in hsa.FUSERS:
            raise ValueError(f"unknown fusion {self.fusion!r}")

    @property
    def head_channels(self) -> int:
        return 1 if self.head == "deterministic" else 2

    @property
    def gn_groups(self) -> int:
        return math.gcd(4, self.hidden // 2)


@dataclass
class Forecast:
    """Predicted frames: mean in [0, 1], sigma > 0 when probabilistic."""

    mean: np.ndarray              # [L_o, 1, H, W]
    sigma: np.ndarray | None = None


class ModelParams(dict):
    """Checkpoint name -> Tensor for every learnable tensor, in the order
    ``param_layout`` yields them, which is the order they are drawn and the
    order the checkpoint is written in."""

    def named_tensors(self) -> dict[str, Tensor]:
        """The dict itself; kept for callers that ask for the named view."""
        return self


def param_layout(config: ModelConfig):
    """Yield (name, shape, init) of every tensor of ``config``, lazily and
    allocating nothing sized by it, in the order the RNG draws them:
    ``fssm{i}.*`` per block (``mamba.*`` as ``ssm.mamba_layout`` lists it,
    ``gains``, ``hsa.*`` or ``cagate.*``, ``dw_k``, ``dw_b``), then ``enc.*``,
    ``dec.*`` and, when ``out_len != in_len``, ``time.w`` and ``time.b``.

    Checkpoints are written in this order and read by name, so a file in
    another order loads; changing the order changes every trained model.
    """
    d, dh, hc = config.hidden, config.hidden // 2, config.head_channels

    def conv(name, kernel, n):  # kernel, then bias and norm gain/shift over n channels
        return [(f"{name}_k", kernel, nd.normal_init(math.prod(kernel[1:]))),
                (f"{name}_b", (n,), 0.0), (f"{name}_g", (n,), 1.0), (f"{name}_be", (n,), 0.0)]

    fusion_layout, _ = hsa.FUSERS[config.fusion]
    # one block's entries, built once and shared by every block
    block = [*nd.prefixed("mamba", ssm.mamba_layout(d, config.state_size)),
             ("gains", (d, 3), 1.0),  # detail-band gains
             *nd.prefixed(config.fusion, fusion_layout(d)),
             ("dw_k", (d, 3, 3), nd.normal_init(9)), ("dw_b", (d,), 0.0)]
    for i in range(config.n_fssm):
        yield from nd.prefixed(f"fssm{i}", block)
    yield from nd.prefixed("enc", conv("enc1", (dh, 1, 3, 3), dh) + conv("enc2", (d, dh, 3, 3), d))
    yield from nd.prefixed("dec", [
        *conv("dec1", (d, dh, 4, 4), dh), *conv("dec2", (dh, dh, 4, 4), dh),
        ("ref1_k", (dh, 3, 3), nd.normal_init(9)), ("ref1_b", (dh,), 0.0),
        ("ref2_k", (dh, 3, 3), nd.normal_init(9)), ("ref2_b", (dh,), 0.0),
        ("head_k", (hc, dh, 1, 1), nd.normal_init(dh)), ("head_b", (hc,), 0.0)])
    if config.out_len != config.in_len:
        yield from (("time.w", (config.in_len, config.out_len), nd.normal_init(config.in_len)),
                    ("time.b", (config.out_len,), 0.0))


# Most float32 parameter elements a config may ask for: 256 MiB of values,
# which training holds four times over (values, gradients and AdamW's two
# moments). Larger configs are refused before anything is drawn.
MAX_PARAMS = 1 << 26


def init_params(rng: np.random.Generator, config: ModelConfig) -> ModelParams:
    """The parameters of ``config`` drawn from ``rng`` in ``param_layout``
    order. A ValueError, before any draw, when they number over
    ``MAX_PARAMS``."""
    # every block has one size, so one- and two-block layouts give the count
    # without walking all n_fssm blocks, which may be any number
    one, two = (sum(math.prod(shape) for _, shape, _ in param_layout(replace(config, n_fssm=n)))
                for n in (1, 2))
    count = one + (config.n_fssm - 1) * (two - one)
    if count > MAX_PARAMS:
        raise ValueError(f"config asks for {count} parameters, over the budget of {MAX_PARAMS}")
    return ModelParams(nd.make_params(rng, param_layout(config)))


@lru_cache(maxsize=32)
def _route_table(kind: str, dims: tuple[int, int, int], n_routes: int) -> np.ndarray:
    return sfc.routes(kind, dims, n_routes)


def _fssm_block(z: Tensor, blk: dict[str, Tensor], table: np.ndarray,
                config: ModelConfig) -> Tensor:
    """One scan/frequency block on z[B, T, D, h, w]: z plus the fused,
    depthwise-mixed route and wavelet features. Its temporaries are freed on
    return, before the next block or the decoder allocates."""
    routed = ssm.mamba_block(ssm.volume_to_seq(z), table, nd.sub_params(blk, "mamba"))
    vol = ssm.seq_to_volume(routed, (z.shape[1], *z.shape[3:]))   # [R, B, T, D, h, w]
    if table.shape[1] == 4:
        # route 2*rotation + direction: average the two rotations per direction
        vol = nd.mean(nd.reshape(vol, (2, 2, *vol.shape[1:])), axis=0)
    x1 = nd.index(vol, np.s_[0])
    # one route feeds both fuser inputs as one tensor; two copies of it would
    # sum its gradient in another order, and training would not repeat bit for bit
    x2 = x1 if table.shape[1] == 1 else nd.index(vol, np.s_[-1])
    xf = wavelet.freq_branch(z, blk["gains"])
    _, fuse = hsa.FUSERS[config.fusion]
    fused = fuse(x1, x2, xf, nd.sub_params(blk, config.fusion))
    mixed = nd.depthwise_conv2d(fused, blk["dw_k"], blk["dw_b"])
    return nd.add(z, mixed)


def forward_features(x: Tensor, params: dict[str, Tensor],
                     config: ModelConfig) -> Tensor:
    """Raw head output [B, L_o, head_channels, H, W] of a batch
    x[B, L_in, 1, H, W]; no clamping.

    Convolutions and norms see the B*L_in frames as one frame axis; each
    block scans the sequences of all B samples along all routes in one scan
    call. Fusion pooling, the ``time_w`` map and the origin residual act per
    sample: each sample's last input frame is added to the mean channel of
    its every lead (taped, so input gradients stay exact); the
    Gaussian sigma channel is left untouched.
    """
    if x.ndim != 5 or x.shape[1:3] != (config.in_len, 1):
        raise ValueError(f"input shape {x.shape} does not match config "
                         f"(B, {config.in_len}, 1, H, W)")
    b, l_in, c, h, w = x.shape
    if h % 4 or w % 4:
        raise ValueError(f"spatial dims ({h}, {w}) must be divisible by 4")
    enc = nd.sub_params(params, "enc")
    dec = nd.sub_params(params, "dec")

    z = nd.conv2d(nd.reshape(x, (b * l_in, c, h, w)), enc["enc1_k"], enc["enc1_b"],
                  stride=2, padding=1)
    z = nd.layernorm(z, enc["enc1_g"], enc["enc1_be"], axis=1, leaky=True)
    z = nd.conv2d(z, enc["enc2_k"], enc["enc2_b"], stride=2, padding=1)
    z = nd.layernorm(z, enc["enc2_g"], enc["enc2_be"], axis=1, leaky=True)

    table = _route_table(config.scan_kind, (l_in, h // 4, w // 4), config.n_routes)
    z = nd.reshape(z, (b, l_in, *z.shape[1:]))                  # [B, L_in, D, H/4, W/4]

    for i in range(config.n_fssm):
        try:
            z = _fssm_block(z, nd.sub_params(params, f"fssm{i}"), table, config)
        except NumericalError as e:
            raise NumericalError(f"fssm{i}: {e}") from e

    y = nd.conv_transpose2d(nd.reshape(z, (b * l_in, *z.shape[2:])), dec["dec1_k"],
                            dec["dec1_b"], stride=2, padding=1)
    y = nd.groupnorm(y, config.gn_groups, dec["dec1_g"], dec["dec1_be"])
    y = nd.conv_transpose2d(y, dec["dec2_k"], dec["dec2_b"], stride=2, padding=1)
    y = nd.groupnorm(y, config.gn_groups, dec["dec2_g"], dec["dec2_be"])

    y = nd.depthwise_conv2d(y, dec["ref1_k"], dec["ref1_b"])
    y = nd.depthwise_conv2d(y, dec["ref2_k"], dec["ref2_b"])
    y = nd.conv2d(y, dec["head_k"], dec["head_b"])
    y = nd.reshape(y, (b, l_in, *y.shape[1:]))

    if config.out_len != config.in_len:
        y = nd.moveaxis(nd.linear(nd.moveaxis(y, 1, -1), params["time.w"], params["time.b"]),
                        -1, 1)
    origin = nd.index(x, np.s_[:, -1:])                        # [B, 1, 1, H, W]
    # one path for both heads: the mask keeps the residual off the sigma channel
    mean_only = np.eye(1, config.head_channels, dtype=np.float32).reshape(1, -1, 1, 1)
    return nd.add(y, nd.mul(origin, mean_only))


def _split_head(raw: Tensor, config: ModelConfig) -> tuple[Tensor, Tensor | None]:
    if config.head == "deterministic":
        return raw, None
    mu, s = nd.chunk(raw, 2, axis=-3)
    # softplus keeps sigma positive; the floor guards float32 underflow
    return mu, nd.add(nd.softplus(s), 1e-6)


def _predict(xb: np.ndarray, params: dict[str, Tensor],
             config: ModelConfig) -> tuple[np.ndarray, np.ndarray | None]:
    """Means clamped into [0, 1], and sigmas when gaussian, of the batch xb."""
    mu, sigma = _split_head(forward_features(Tensor(xb), params, config), config)
    return np.clip(mu.data, 0.0, 1.0), None if sigma is None else sigma.data


def forward(x: np.ndarray, params: dict[str, Tensor], config: ModelConfig) -> Forecast:
    """Inference on one window x[L_in, 1, H, W], run as a batch of one: clamp
    the mean into [0, 1] and expose sigma when gaussian."""
    mean, sigma = _predict(x[None], params, config)
    return Forecast(mean=mean[0], sigma=None if sigma is None else sigma[0])


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def loss_rec(yhat: Tensor, y: Tensor) -> Tensor:
    """Mean absolute difference."""
    if yhat.shape != y.shape:
        raise ValueError(f"shape mismatch {yhat.shape} vs {y.shape}")
    return nd.mean(nd.absolute(nd.sub(yhat, y)))


def loss_grad(yhat: Tensor, y: Tensor) -> Tensor:
    """Mean absolute difference of forward spatial gradients (H and W), taken
    of the residual by slicing. Each mean runs over every pixel: the last
    row's H difference and the last column's W difference are zero."""
    if yhat.shape != y.shape:
        raise ValueError(f"shape mismatch {yhat.shape} vs {y.shape}")
    h, w = y.shape[-2:]
    d = nd.sub(yhat, y)
    dp = nd.pad2d(d, (0, 1, 0, 1))               # replicated last row and column
    dh = nd.sub(nd.index(dp, np.s_[..., 1:, :w]), d)
    dw = nd.sub(nd.index(dp, np.s_[..., :h, 1:]), d)
    return nd.mul(nd.mean(nd.add(nd.absolute(dh), nd.absolute(dw))), 0.5)


def loss_total(yhat: Tensor, y: Tensor, lam: float) -> Tensor:
    """Reconstruction plus lam-weighted gradient loss."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    return nd.add(loss_rec(yhat, y), nd.mul(loss_grad(yhat, y), float(lam)))


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def loss_nll(mu: Tensor, sigma: Tensor, y: Tensor) -> Tensor:
    """Mean Gaussian negative log-likelihood."""
    if mu.shape != y.shape or sigma.shape != y.shape:
        raise ValueError("mu/sigma/y shapes must match")
    if (sigma.data <= 0).any():
        raise ValueError("sigma must be strictly positive")
    z2 = nd.square(nd.sub(y, mu))
    var2 = nd.mul(nd.square(sigma), 2.0)
    return nd.mean(nd.add(nd.add(nd.log(sigma), nd.div(z2, var2)), _HALF_LOG_2PI))


def sample_loss(raw: Tensor, target: Tensor, config: ModelConfig) -> Tensor:
    """Training loss of raw head outputs [B, L_o, head_channels, H, W] against
    targets [B, L_o, 1, H, W]. Every sample has the same size, so the mean
    over all pixels is the mean over the batch of the per-sample losses."""
    mu, sigma = _split_head(raw, config)
    if sigma is None:
        return loss_total(mu, target, config.lambda_grad)
    return loss_nll(mu, sigma, target)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8
WEIGHT_DECAY = 0.01


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict, with betas
    ADAM_B1 and ADAM_B2, ADAM_EPS and WEIGHT_DECAY."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self) -> None:
        """One update. A non-finite gradient raises NumericalError, naming the
        parameter and the step, before any parameter is touched."""
        for k, p in self.params.items():
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NumericalError(f"non-finite gradient of {k} at step {self.t}")
        self.t += 1
        bc1 = 1.0 - ADAM_B1 ** self.t
        bc2 = 1.0 - ADAM_B2 ** self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            m = self._m[k]
            v = self._v[k]
            m *= ADAM_B1
            m += (1.0 - ADAM_B1) * g
            v *= ADAM_B2
            v += (1.0 - ADAM_B2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS) + WEIGHT_DECAY * p.data
            p.data -= np.float32(self.lr) * update

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    params: ModelParams
    history: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_val_mae: float = math.inf


def validation_mae(val_set: np.ndarray, params: dict[str, Tensor],
                   config: ModelConfig, batch_size: int = 4) -> float:
    """Mean over the windows val_set[N, in_len + out_len, 1, H, W] of the
    per-window MAE; one forward per chunk of at most ``batch_size`` windows."""
    total = 0.0
    for start in range(0, len(val_set), batch_size):
        chunk = val_set[start:start + batch_size]
        means, _ = _predict(chunk[:, :config.in_len], params, config)
        for mean, target in zip(means, chunk[:, config.in_len:]):
            total += metrics.mae(mean, target)
    return total / len(val_set)


def train(train_set: np.ndarray, val_set: np.ndarray,
          config: ModelConfig, seed: int = 0, max_epochs: int = 50,
          patience: int = 10, batch_size: int = 4, lr: float = 1e-3,
          max_steps: int | None = None,
          log=None) -> TrainResult:
    """AdamW training with early stopping on validation MAE, on window sets
    [N, in_len + out_len, 1, H, W] such as ``data.windows`` returns.

    Each step takes one forward pass over its batch and one loss, the mean
    over the batch. Deterministic for a fixed seed. Aborts with the offending
    step index if the loss goes non-finite. lr = 0 leaves the parameters as
    initialised.
    """
    if not len(train_set) or not len(val_set):
        raise ValueError("train and validation splits must be nonempty")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if max_epochs < 1:
        raise ValueError(f"max_epochs must be >= 1, got {max_epochs}")
    if patience < 1:
        raise ValueError(f"patience must be >= 1, got {patience}")
    if not (math.isfinite(lr) and lr >= 0):
        raise ValueError(f"lr must be finite and >= 0, got {lr}")
    rng = np.random.default_rng(seed)
    params = init_params(rng, config)
    opt = AdamW(params, lr=lr)

    result = TrainResult(params=params)
    best_state: dict[str, np.ndarray] | None = None
    bad_epochs = 0
    global_step = 0

    for epoch in range(max_epochs):
        order = rng.permutation(len(train_set))
        losses = []
        for start in range(0, len(order), batch_size):
            # a copy each: split from one copy, the inputs would be copied again by the reshape
            batch = order[start:start + batch_size]
            opt.zero_grad()
            with nd.Tape() as tape:
                raw = forward_features(Tensor(train_set[batch, :config.in_len]), params, config)
                loss = sample_loss(raw, Tensor(train_set[batch, config.in_len:]), config)
                loss_val = float(loss.data)
                if not math.isfinite(loss_val):
                    raise NumericalError(f"non-finite loss at step {global_step}")
                tape.backward(loss)
            opt.step()
            losses.append(loss_val)
            global_step += 1
            if max_steps is not None and global_step >= max_steps:
                break

        val_mae = validation_mae(val_set, params, config, batch_size)
        row = {"epoch": epoch, "train_loss": sum(losses) / len(losses),
               "val_mae": val_mae, "lr": lr}
        result.history.append(row)
        if log:
            log(row)

        if val_mae < result.best_val_mae:
            result.best_val_mae = val_mae
            result.best_epoch = epoch
            best_state = {k: p.data.copy() for k, p in params.items()}
            bad_epochs = 0
        else:
            bad_epochs += 1
        if bad_epochs >= patience or (max_steps is not None and global_step >= max_steps):
            break

    if best_state is not None:
        for k, p in params.items():
            p.data = best_state[k]
    return result


def history_csv(history: list[dict]) -> str:
    lines = ["epoch,train_loss,val_mae,lr"]
    for row in history:
        lines.append(f"{row['epoch']},{row['train_loss']:.6f},"
                     f"{row['val_mae']:.6f},{row['lr']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# recursive forecasting
# ---------------------------------------------------------------------------


# Most float32 values a recursive forecast may hold: 1 GiB, or 4681 steps of
# 14 frames at 64x64. Longer forecasts are refused before the first forward.
MAX_FORECAST_VALUES = 1 << 28


def recursive_forecast(x: np.ndarray, params: dict[str, Tensor], config: ModelConfig,
                       steps: int = 1) -> np.ndarray:
    """Chain prediction windows, re-feeding each clamped window as the next
    input; returns [steps * out_len, 1, H, W]. Only the last in_len frames
    of the stream are kept."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    stream = np.asarray(x, dtype=np.float32)[-config.in_len:]
    values = steps * config.out_len * stream[0].size
    if values > MAX_FORECAST_VALUES:
        raise ValueError(f"{steps} steps forecast {values} values, "
                         f"over {MAX_FORECAST_VALUES}")
    outputs = []
    for _ in range(steps):
        pred = forward(stream, params, config).mean
        outputs.append(pred)
        stream = np.concatenate([stream, pred], axis=0)[-config.in_len:]
    return np.concatenate(outputs, axis=0)


# ---------------------------------------------------------------------------
# checkpoint helpers
# ---------------------------------------------------------------------------


def save_checkpoint(path, params: dict[str, Tensor]) -> None:
    data.save_params(path, params)


def load_checkpoint(path, config: ModelConfig) -> ModelParams:
    """Load a checkpoint written for ``config``. Its names and shapes are
    checked against ``param_layout(config)`` first, so a config that does not
    match (however large) allocates nothing; a mismatch raises FormatError."""
    stored = data.load_params(path)
    params = ModelParams()
    for name, shape, _ in param_layout(config):
        if name not in stored:
            raise FormatError(f"checkpoint does not match config (missing {name})")
        if stored[name].data.shape != shape:
            raise FormatError(f"checkpoint tensor {name} has shape "
                              f"{stored[name].data.shape}, expected {shape}")
        params[name] = stored.pop(name)
    if stored:
        raise FormatError(f"checkpoint does not match config (extra={sorted(stored)[:3]})")
    return params
