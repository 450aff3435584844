"""No-grad inference engine for video transformers.

:class:`InferenceEngine` is the straight-line numpy forward pass over a
trained :class:`~repro.models.video_transformer.VideoTransformer` —
no autograd ``Tensor`` wrappers, no graph bookkeeping, and fused
in-place kernels (einsum LayerNorm, in-place softmax/GELU/residuals).
:class:`~repro.core.pipeline.ScenarioExtractor` runs every
``VideoTransformer`` through it, at the ``precision`` it was built
with:

- ``"fp32"`` — full precision; the default inference path.  Sites hold
  live references to the model's weight arrays, so in-place updates
  (training steps, ``load_state_dict``) are seen by the next forward.
  The autograd forward stays for training and as the test reference
  (agreement to ~1e-6).
- ``"fp16"`` — weights stored in half precision, widened to fp32 for
  BLAS.  Storage/rounding precision only: numpy has no half BLAS, so
  this halves weight memory at fp32 speed (see ``docs/performance.md``
  for the honest numbers).
- ``"int8"`` — per-output-channel symmetric weight quantization for
  every Linear/attention projection plus *static* per-site activation
  scales fixed by a small calibration pass.  Quantized operands stay
  integer-valued float32 so the matmul runs on BLAS and is exact
  integer arithmetic at these accumulation depths.

Every kernel is row-independent — a clip's (or frame's) activations do
not depend on what else is in the batch — which the sliding-window
overlap-reuse path relies on when it assembles per-frame activations
computed across different windows.  For int8 that takes *static*
(rather than dynamic per-batch) activation scales.  The frame-level
reuse hooks (``frame_features`` / ``head_logits_from_frame_features``)
split the forward at its last window-independent stage.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.models.video_transformer import VideoTransformer
from repro.nn.layers import Linear
from repro.nn.quant import (
    activation_scale,
    dequantize_per_channel,
    quantize_activations,
    quantize_fp16,
    quantize_per_channel,
)

PRECISIONS = ("fp32", "fp16", "int8")

_SQRT_2_OVER_PI = np.float32(np.sqrt(2.0 / np.pi))
_GELU_C = np.float32(0.044715)

#: Synthetic calibration defaults: a handful of uniform [0, 1) clips is
#: enough to pin activation ranges for these shallow models, and keeps
#: engine construction deterministic when no sample clips are passed.
CALIBRATION_SEED = 0
CALIBRATION_CLIPS = 4


class _Site:
    """One Linear projection in the quantized network.

    Holds the precision-specific weight representation and performs the
    matmul; for int8 it also owns the calibration state (observed input
    absmax → static activation scale).
    """

    def __init__(self, name: str, linear: Linear, precision: str) -> None:
        self.name = name
        self.precision = precision
        weight = linear.weight.data
        bias = linear.bias.data if linear.bias is not None else None
        self.in_features = weight.shape[0]
        self.bias = bias
        self.act_scale: Optional[float] = None
        self.observing = False
        self.absmax = 0.0
        if precision == "int8":
            self.codes, self.w_scales = quantize_per_channel(weight)
            self.weight = None
            # Integer codes staged as float32 once, so the hot path is
            # a straight BLAS matmul (exact: operands stay integers).
            self._codes_f32 = self.codes.astype(np.float32)
        elif precision == "fp16":
            self.w16 = quantize_fp16(weight)
            self.weight = None
            # fp16 is the *stored* representation; compute uses a
            # widened copy staged once (numpy has no half BLAS).
            self._w16_f32 = self.w16.astype(np.float32)
        else:
            self.weight = weight

    # -- storage accounting -------------------------------------------
    def stored_bytes(self) -> int:
        if self.precision == "int8":
            return self.codes.nbytes + self.w_scales.nbytes
        if self.precision == "fp16":
            return self.w16.nbytes
        return self.weight.nbytes

    def fp32_bytes(self) -> int:
        if self.precision == "int8":
            return self.codes.size * 4
        if self.precision == "fp16":
            return self.w16.size * 4
        return self.weight.nbytes

    # -- compute ------------------------------------------------------
    def _dequantized(self) -> np.ndarray:
        if self.precision == "int8":
            return dequantize_per_channel(self.codes, self.w_scales)
        if self.precision == "fp16":
            return self._w16_f32
        return self.weight

    def __call__(self, x: np.ndarray) -> np.ndarray:
        shape = x.shape
        flat = x.reshape(-1, self.in_features) if x.ndim != 2 else x
        if self.precision == "int8" and not self.observing \
                and self.act_scale is not None:
            xq = quantize_activations(flat, self.act_scale)
            out = xq @ self._codes_f32
            out *= self.w_scales * np.float32(self.act_scale)
        else:
            if self.observing:
                peak = float(np.abs(flat).max()) if flat.size else 0.0
                if peak > self.absmax:
                    self.absmax = peak
            out = flat @ self._dequantized()
        if self.bias is not None:
            out += self.bias
        if x.ndim != 2:
            out = out.reshape(shape[:-1] + (out.shape[-1],))
        return out


# -- fused kernels -------------------------------------------------------
def _layer_norm(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                eps: float = 1e-5) -> np.ndarray:
    n = np.float32(x.shape[-1])
    # einsum row sums: cheaper than ``mean``'s reduction on these short
    # feature rows, and the variance avoids materialising c**2.
    c = x - (np.einsum("...i->...", x) / n)[..., None]
    var = np.einsum("...i,...i->...", c, c) / n
    inv = 1.0 / np.sqrt(var + np.float32(eps))
    c *= inv[..., None]
    c *= w
    c += b
    return c


def _softmax_inplace(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place.

    Many short rows (8 temporal, 16 spatial keys) make numpy's per-row
    reductions mostly overhead, so the row max is a running
    ``np.maximum`` over key columns and the row sum an einsum.  Both
    are row-independent: a row's result does not depend on its stack.
    (The optional attention pool's one softmax per clip, over
    frames × patches keys, pays one column pass per key.)
    """
    peak = scores[..., 0].copy()
    for k in range(1, scores.shape[-1]):
        np.maximum(peak, scores[..., k], out=peak)
    scores -= peak[..., None]
    np.exp(scores, out=scores)
    scores /= np.einsum("...k->...", scores)[..., None]
    return scores


def _gelu_inplace(z: np.ndarray) -> np.ndarray:
    """tanh-approximation GELU computed with one scratch array."""
    inner = z * z
    inner *= z
    inner *= _GELU_C
    inner += z
    inner *= _SQRT_2_OVER_PI
    np.tanh(inner, out=inner)
    inner += 1.0
    inner *= 0.5
    inner *= z
    return inner


class InferenceEngine:
    """Fused no-grad forward for one :class:`VideoTransformer`.

    Construction quantizes every Linear/attention projection (including
    the patch/tubelet embedding and the SDL head) and — for int8 —
    immediately runs the calibration pass, so a built engine is ready
    and deterministic.  Pass ``calibration`` clips ``(N, T, C, H, W)``
    to calibrate on real footage; otherwise a seeded synthetic batch is
    used.
    """

    def __init__(self, model: VideoTransformer, precision: str,
                 calibration: Optional[np.ndarray] = None,
                 calibration_seed: int = CALIBRATION_SEED) -> None:
        if precision not in PRECISIONS:
            raise ValueError(
                f"precision must be one of {PRECISIONS}, got {precision!r}"
            )
        if not isinstance(model, VideoTransformer):
            raise ValueError(
                "quantized inference requires a VideoTransformer; got "
                f"{type(model).__name__}"
            )
        model.eval()
        self.model = model
        self.precision = precision
        self.attention = model.attention
        self.config = model.config
        self._sites: List[_Site] = []
        self.embed = self._site("embed.proj", model.embed.proj)
        if self.attention == "joint":
            self._enc_joint = self._encoder_sites("encoder", model.encoder)
        elif self.attention == "divided":
            self._blocks = [
                {
                    "attn_t": self._attn_sites(f"blocks.{i}.attn_t",
                                               blk.attn_t),
                    "attn_s": self._attn_sites(f"blocks.{i}.attn_s",
                                               blk.attn_s),
                    "mlp": self._mlp_sites(f"blocks.{i}.mlp", blk.mlp),
                    "block": blk,
                }
                for i, blk in enumerate(model.blocks)
            ]
        else:  # factorized
            self._enc_spatial = self._encoder_sites(
                "spatial_encoder", model.spatial_encoder)
            self._enc_temporal = self._encoder_sites(
                "temporal_encoder", model.temporal_encoder)
        self.heads = {
            key: self._site(f"head.{key}", getattr(model.head, key))
            for key in ("scene", "ego_action", "actors", "actor_actions")
        }
        self.calibration: Dict[str, object] = {"calibrated": False}
        if precision == "int8":
            self.calibrate(calibration, seed=calibration_seed)

    # -- site wiring ---------------------------------------------------
    def _site(self, name: str, linear: Linear) -> _Site:
        site = _Site(name, linear, self.precision)
        self._sites.append(site)
        return site

    def _attn_sites(self, name: str, attn) -> Dict[str, object]:
        return {
            "qkv": self._site(f"{name}.qkv", attn.qkv),
            "proj": self._site(f"{name}.proj", attn.proj),
            "heads": attn.num_heads,
            "head_dim": attn.head_dim,
            "scale": np.float32(attn.scale),
        }

    def _mlp_sites(self, name: str, mlp) -> Dict[str, _Site]:
        return {"fc1": self._site(f"{name}.fc1", mlp.fc1),
                "fc2": self._site(f"{name}.fc2", mlp.fc2)}

    def _encoder_sites(self, name: str, encoder) -> Dict[str, object]:
        return {
            "layers": [
                {
                    "attn": self._attn_sites(f"{name}.layers.{i}.attn",
                                             layer.attn),
                    "mlp": self._mlp_sites(f"{name}.layers.{i}.mlp",
                                           layer.mlp),
                    "layer": layer,
                }
                for i, layer in enumerate(encoder.layers)
            ],
            "encoder": encoder,
        }

    # -- calibration ---------------------------------------------------
    def calibrate(self, clips: Optional[np.ndarray] = None,
                  seed: int = CALIBRATION_SEED,
                  samples: int = CALIBRATION_CLIPS) -> Dict[str, object]:
        """Fix static activation scales from sample clips.

        With ``clips=None`` a deterministic synthetic batch (uniform
        [0, 1) pixels under ``seed``) is used — same seed, same model
        ⇒ bit-identical scales and therefore bit-identical quantized
        logits.  Observation runs the *quantized-weight* network in
        fp32, so the scales see the distributions inference will see.
        """
        cfg = self.config
        if clips is None:
            rng = np.random.default_rng(seed)
            clips = rng.random(
                (samples, cfg.frames, cfg.channels, cfg.height,
                 cfg.width), dtype=np.float32)
            source = "synthetic"
        else:
            clips = np.asarray(clips, dtype=np.float32)
            source = "provided"
        for site in self._sites:
            site.observing = True
            site.absmax = 0.0
        try:
            self._forward(clips)
        finally:
            for site in self._sites:
                site.observing = False
        for site in self._sites:
            site.act_scale = activation_scale(site.absmax)
        self.calibration = {
            "calibrated": True,
            "source": source,
            "clips": int(len(clips)),
            "seed": int(seed) if source == "synthetic" else None,
        }
        return self.calibration

    def activation_scales(self) -> Dict[str, float]:
        """Per-site static activation scales (empty before calibration)."""
        return {s.name: s.act_scale for s in self._sites
                if s.act_scale is not None}

    def weight_bytes(self) -> Dict[str, int]:
        """Stored-weight footprint of the quantized projections vs fp32."""
        return {
            "stored": sum(s.stored_bytes() for s in self._sites),
            "fp32": sum(s.fp32_bytes() for s in self._sites),
        }

    # -- kernels -------------------------------------------------------
    def _attention(self, x: np.ndarray, spec: Dict[str, object]
                   ) -> np.ndarray:
        batch, tokens, dim = x.shape
        qkv = spec["qkv"](x).reshape(
            batch, tokens, 3, spec["heads"], spec["head_dim"]
        ).transpose(2, 0, 3, 1, 4)
        q, k, v = qkv[0], qkv[1], qkv[2]
        scores = q @ k.swapaxes(-1, -2)
        scores *= spec["scale"]
        _softmax_inplace(scores)
        out = scores @ v
        out = out.transpose(0, 2, 1, 3).reshape(batch, tokens, dim)
        return spec["proj"](out)

    def _mlp(self, x: np.ndarray, spec: Dict[str, _Site]) -> np.ndarray:
        return spec["fc2"](_gelu_inplace(spec["fc1"](x)))

    def _encoder(self, x: np.ndarray, enc: Dict[str, object]
                 ) -> np.ndarray:
        for entry in enc["layers"]:
            layer = entry["layer"]
            x = x + self._attention(
                _layer_norm(x, layer.norm1.weight.data,
                            layer.norm1.bias.data), entry["attn"])
            x += self._mlp(
                _layer_norm(x, layer.norm2.weight.data,
                            layer.norm2.bias.data), entry["mlp"])
        norm = enc["encoder"].norm
        return _layer_norm(x, norm.weight.data, norm.bias.data)

    def _patch_tokens(self, clips: np.ndarray) -> np.ndarray:
        """(B, T, C, H, W) → (B, T, N, D) per-frame patch tokens."""
        batch, frames, channels, height, width = clips.shape
        p = self.model.embed.patch_size
        nh, nw = height // p, width // p
        x = clips.reshape(batch, frames, channels, nh, p, nw, p)
        x = x.transpose(0, 1, 3, 5, 2, 4, 6)
        x = np.ascontiguousarray(x).reshape(
            batch, frames, nh * nw, channels * p * p)
        return self.embed(x)

    def _tubelet_tokens(self, clips: np.ndarray) -> np.ndarray:
        batch, frames, channels, height, width = clips.shape
        t = self.model.embed.tubelet_size
        p = self.model.embed.patch_size
        nt, nh, nw = frames // t, height // p, width // p
        x = clips.reshape(batch, nt, t, channels, nh, p, nw, p)
        x = x.transpose(0, 1, 4, 6, 3, 2, 5, 7)
        x = np.ascontiguousarray(x).reshape(
            batch, nt * nh * nw, channels * t * p * p)
        return self.embed(x)

    # -- forwards ------------------------------------------------------
    def _head_logits(self, feat: np.ndarray) -> Dict[str, np.ndarray]:
        return {key: site(feat) for key, site in self.heads.items()}

    def _forward_joint(self, clips: np.ndarray) -> Dict[str, np.ndarray]:
        m = self.model
        tokens = self._tubelet_tokens(clips)
        batch, _, dim = tokens.shape
        cls = np.broadcast_to(m.cls_token.data, (batch, 1, dim))
        x = np.concatenate([cls, tokens], axis=1) + m.pos_embed.data
        x = self._encoder(x, self._enc_joint)
        return self._head_logits(x[:, 0])

    def _divided_from_tokens(self, tokens: np.ndarray
                             ) -> Dict[str, np.ndarray]:
        m = self.model
        x = tokens + m.pos_spatial.data + m.pos_temporal.data
        batch, frames, patches, dim = x.shape
        for entry in self._blocks:
            blk = entry["block"]
            xt = np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(
                batch * patches, frames, dim)
            yt = self._attention(
                _layer_norm(xt, blk.norm_t.weight.data,
                            blk.norm_t.bias.data), entry["attn_t"])
            x += yt.reshape(batch, patches, frames,
                            dim).transpose(0, 2, 1, 3)
            xs = x.reshape(batch * frames, patches, dim)
            ys = self._attention(
                _layer_norm(xs, blk.norm_s.weight.data,
                            blk.norm_s.bias.data), entry["attn_s"])
            x += ys.reshape(batch, frames, patches, dim)
            x += self._mlp(
                _layer_norm(x, blk.norm_m.weight.data,
                            blk.norm_m.bias.data), entry["mlp"])
        x = _layer_norm(x, m.norm.weight.data, m.norm.bias.data)
        if self.config.pool == "attention":
            flat = x.reshape(batch, frames * patches, dim)
            scores = np.einsum("bnd,d->bn", flat, m.pool_query.data)
            scores *= np.float32(1.0 / np.sqrt(dim))
            _softmax_inplace(scores)
            feat = np.einsum("bn,bnd->bd", scores, flat)
        else:
            feat = x.mean(axis=(1, 2))
        return self._head_logits(feat)

    def _frame_summaries(self, tokens: np.ndarray) -> np.ndarray:
        """(F, N, D) patch tokens → (F, D) spatial-encoder summaries."""
        m = self.model
        rows, _, dim = tokens.shape
        cls = np.broadcast_to(m.cls_spatial.data, (rows, 1, dim))
        x = np.concatenate([cls, tokens], axis=1) + m.pos_spatial.data
        return self._encoder(x, self._enc_spatial)[:, 0]

    def _factorized_from_summaries(self, summaries: np.ndarray
                                   ) -> Dict[str, np.ndarray]:
        m = self.model
        batch, _, dim = summaries.shape
        cls = np.broadcast_to(m.cls_temporal.data, (batch, 1, dim))
        y = np.concatenate([cls, summaries], axis=1) + m.pos_temporal.data
        y = self._encoder(y, self._enc_temporal)
        return self._head_logits(y[:, 0])

    def _forward(self, clips: np.ndarray) -> Dict[str, np.ndarray]:
        clips = np.ascontiguousarray(clips, dtype=np.float32)
        if self.attention == "joint":
            return self._forward_joint(clips)
        tokens = self._patch_tokens(clips)
        if self.attention == "divided":
            return self._divided_from_tokens(tokens)
        batch, frames, patches, dim = tokens.shape
        summaries = self._frame_summaries(
            tokens.reshape(batch * frames, patches, dim)
        ).reshape(batch, frames, dim)
        return self._factorized_from_summaries(summaries)

    # -- public API ----------------------------------------------------
    def logits(self, clips: np.ndarray,
               batch_size: int = 16) -> Dict[str, np.ndarray]:
        """Batched head logits for ``(N, T, C, H, W)`` clips."""
        pieces: Dict[str, List[np.ndarray]] = {}
        for start in range(0, len(clips), batch_size):
            out = self._forward(clips[start:start + batch_size])
            for key, value in out.items():
                pieces.setdefault(key, []).append(value)
        return {k: np.concatenate(v) for k, v in pieces.items()}

    # -- frame-level reuse hooks ----------------------------------------
    @property
    def supports_frame_reuse(self) -> bool:
        """Whether per-frame activations are window-independent: patch
        tokens under ``divided`` (all attention comes after), whole
        spatial-encoder summaries under ``factorized``.  ``joint``
        tubelets span frames, so there is nothing to memoize."""
        return self.attention in ("divided", "factorized")

    def _require_frame_stage(self) -> None:
        if not self.supports_frame_reuse:
            raise ValueError(
                f"{self.attention!r} attention has no per-frame stage")

    def frame_features(self, frames: np.ndarray) -> np.ndarray:
        """Window-independent per-frame features for ``(F, C, H, W)``
        frames: patch tokens ``(F, N, D)`` for divided attention,
        spatial-encoder summaries ``(F, D)`` for factorized."""
        self._require_frame_stage()
        frames = np.ascontiguousarray(frames, dtype=np.float32)
        tokens = self._patch_tokens(frames[None])[0]
        if self.attention == "divided":
            return tokens
        return self._frame_summaries(tokens)

    def head_logits_from_frame_features(self, feats: np.ndarray
                                        ) -> Dict[str, np.ndarray]:
        """Window logits from stacked per-frame features ``(B, T, ...)``
        as produced by :meth:`frame_features`."""
        self._require_frame_stage()
        if self.attention == "divided":
            return self._divided_from_tokens(feats)
        return self._factorized_from_summaries(feats)


__all__ = ["CALIBRATION_CLIPS", "CALIBRATION_SEED", "InferenceEngine",
           "PRECISIONS"]
