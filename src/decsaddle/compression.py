"""Unbiased quantization and the difference-compression exchange.

Nodes never transmit raw vectors.  Each node keeps a reference H of what it
last "promised" to its neighbors, quantizes only the deviation nu - H, and
everyone advances matching references with a small mixing factor alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .topology import DecGraph, mix


# beyond 32 bits the float quantizer gains nothing, and 2^(b-1) overflows
# a float at b = 1025
MAX_BITS = 32


class InfeasibleParameterError(ValueError):
    """A derived algorithm parameter left its admissible window."""


@dataclass(frozen=True)
class Compressor:
    """Either the b-bit infinity-norm quantizer or the identity map.

    delta is the variance factor E||Q(x)-x||^2 <= delta ||x||^2 used by all
    step-size formulas; identity forces delta = 0.
    """

    kind: str  # "identity" or "quantize_inf"
    bits: int = 0
    delta: float = 0.0

    def __post_init__(self):
        if self.kind == "identity":
            if self.delta != 0.0:
                raise ValueError("identity compressor must have delta = 0")
        elif self.kind == "quantize_inf":
            if not 1 <= self.bits <= MAX_BITS:
                raise ValueError(f"need 1 <= bits <= {MAX_BITS}, got {self.bits}")
            # delta*(b, 1) = 0: at d = 1 the one coordinate is its row's
            # maximum, so the quantizer is exact
            if not 0.0 <= self.delta <= 1.0:
                raise InfeasibleParameterError(
                    f"quantizer variance factor delta = {self.delta:.4g} "
                    "outside [0, 1]; increase bits if it exceeds 1"
                )
        else:
            raise ValueError(f"unknown compressor kind {self.kind!r}")

    @property
    def bits_per_coord(self) -> int:
        """Payload cost per transmitted coordinate."""
        return self.bits + 1 if self.kind == "quantize_inf" else 32

    def bind(self, shape: tuple, rng: np.random.Generator):
        """compress(x, out): apply to a float array x of the given shape,
        into out (not sharing memory with x), with the kind resolved and
        the quantizer's work arrays allocated here once.

        The quantizer maps each row v of x (the last axis; a 1-D x is one
        row) to
        Q(v) = (||v||_inf 2^{1-b} sign(v)) * floor(2^{b-1}|v| / ||v||_inf + u)
        with u drawn i.i.d. uniform per coordinate, and a zero row to zero
        without drawing.  One call draws the uniforms of every nonzero row
        in one rng.random call, in row order.
        """
        if self.kind != "quantize_inf":
            return lambda x, out: np.copyto(out, x)
        scale, u = np.empty(shape[:-1] + (1,)), np.empty(shape)
        levels = np.full(scale.shape, 2.0 ** (self.bits - 1))

        def compress(x, out):
            mag = np.abs(x, out)
            np.maximum.reduce(mag, axis=-1, keepdims=True, out=scale)
            # one reduce checks every row for a zero (or NaN) scale
            if np.minimum.reduce(scale, axis=None, initial=np.inf) > 0.0:
                _round_levels(x, mag, scale, levels, rng.random(out=u))
                return
            # a zero (or NaN) row maps to zero and draws nothing
            nz = scale[..., 0] > 0.0
            q = mag[nz]
            _round_levels(x[nz], q, scale[nz], levels[nz], rng.random(q.shape))
            mag.fill(0.0)
            mag[nz] = q

        return compress


def identity_compressor() -> Compressor:
    return Compressor(kind="identity")


def _round_levels(x, mag, scale, levels, u):
    """Q(x) of rows with nonzero scale, in place on mag = |x|: scale (the
    row maxima, overwritten) over levels = 2^(b-1) is the level width, u
    the uniforms; returns mag."""
    # dividing by the width is exact scaling by a power of two, so
    # mag / step is levels * mag / scale to the bit
    step = np.divide(scale, levels, scale)
    # in place on mag: floor(mag / step + u), times step, with x's sign
    np.divide(mag, step, mag)
    np.add(mag, u, mag)
    np.floor(mag, mag)
    np.multiply(step, mag, mag)
    return np.copysign(mag, x, mag)


def quantizer_delta(bits: int, d: int) -> float:
    """The exact variance factor of the b-bit quantizer on R^d: the least
    delta with E||Q(x)-x||^2 <= delta ||x||^2 for every x.

    A coordinate at fraction f of a level width w = 2^(1-b) ||x||_inf
    contributes w^2 f (1-f), and the maximal one contributes nothing, so the
    ratio peaks at (1, a, ..., a) with a = w / (sqrt(1+t) + 1), where it
    equals delta*(b, d) = (sqrt(1+t) - 1)/2 with t = (d-1) 4^(1-b) (the
    QSGD-style bound, Alistarh et al. 2017).  It is evaluated as
    t / (2 (sqrt(1+t) + 1)), which keeps its digits where t is tiny.
    """
    t = (d - 1) * 4.0 ** (1 - bits)
    return t / (2.0 * (math.sqrt(1.0 + t) + 1.0))


@dataclass
class CommState:
    """Per-node reference vectors H and their mixed counterparts Hw, held
    as one stacked pair HH = [H, Hw]; H and Hw are shaped like the
    exchanged payload: (m, d), or (2, m, d) for a primal-dual pair.

    The invariant Hw = W H holds whenever the state was initialized
    consistently; an exchange bound by bind_exchange preserves it,
    updating HH in place.
    """

    HH: np.ndarray

    @property
    def H(self) -> np.ndarray:
        return self.HH[0]

    @property
    def Hw(self) -> np.ndarray:
        return self.HH[1]

    @classmethod
    def from_reference(cls, g: DecGraph, H: np.ndarray) -> "CommState":
        H = np.asarray(H, dtype=float)
        return cls(HH=np.array([H, mix(g, H)]))


def bind_exchange(
    st: CommState,
    alpha: float | np.ndarray,
    keep: float | np.ndarray,
    g: DecGraph,
    c: Compressor,
    rng: np.random.Generator,
    NN: np.ndarray,
    diff: np.ndarray,
    scaled: np.ndarray,
):
    """Bind the compressed gossip exchange of st; returns exchange(nu),
    which runs one exchange of the payload nu, advancing st in place.

    alpha is the reference mixing factor and keep = 1 - alpha, both
    precomputed by the caller: scalars, or arrays that broadcast against
    the pair st.HH (one factor per block of a stacked payload).  The window
    (0, 1/(1+delta)) of alpha is checked once, by StepParams, not here.
    Each exchange builds [nu_hat, nu_hat_w] in NN (shaped like st.HH): Q =
    C(nu - H) goes into its first slot and W Q into its second, then H and
    Hw are added.  It writes nu_hat - nu_hat_w into diff (shaped like H),
    and then [H, Hw] = keep [H, Hw] + alpha [nu_hat, nu_hat_w] with the
    product formed in scaled: given NN itself, alpha scales the pair in
    place, which leaves only diff to read.  The quantizer is bound here
    once, and the shapes are checked here once.  Counts as one
    communication round (the only transmitted payload is Q).
    """
    HH = st.HH
    H, W = HH[0], g.W
    if H.ndim < 2 or H.shape[-2] != g.m or NN.shape != HH.shape:
        raise ValueError(
            f"references of shape {HH.shape} (pair {NN.shape}) do not hold "
            f"{g.m} node blocks"
        )
    Q, QW = NN[0], NN[1]
    compress = c.bind(H.shape, rng)

    # out arrays go positionally, which costs less per call than the keyword
    def exchange(nu):
        np.subtract(nu, H, QW)  # the deviation, staged in the second slot
        compress(QW, Q)
        np.matmul(W, Q, QW)  # mix(g, Q)
        np.add(HH, NN, NN)  # [nu_hat, nu_hat_w]
        np.subtract(Q, QW, diff)
        np.multiply(keep, HH, HH)
        np.add(HH, np.multiply(alpha, NN, scaled), HH)

    return exchange
