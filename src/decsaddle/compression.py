"""Unbiased quantization and the difference-compression exchange.

Nodes never transmit raw vectors.  Each node keeps a reference H of what it
last "promised" to its neighbors, quantizes only the deviation nu - H, and
everyone advances matching references with a small mixing factor alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .topology import DecGraph, bind_mix


# the bits of one coordinate sent raw (uncompressed)
RAW_FLOAT_BITS = 32
# a quantizer finer than a raw coordinate gains nothing, and 2^(b-1)
# overflows a float at b = 1025
MAX_BITS = RAW_FLOAT_BITS


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
        return self.bits + 1 if self.kind == "quantize_inf" else RAW_FLOAT_BITS

    def bind(self, shape: tuple, rng: np.random.Generator):
        """compress(x, out): apply to a float array x of the given shape,
        into out (not sharing memory with x), with the kind resolved and
        the quantizer's work arrays allocated here once.

        The quantizer maps each row v of x (the last axis; a 1-D x is one
        row) to
        Q(v) = (w sign(v)) * floor(|v| / w + u),  w = ||v||_inf 2^{1-b},
        with u drawn i.i.d. uniform per coordinate.  The row scale is
        floored at the least normal float, so a zero row has a positive
        width and maps to zero through the same body, and a subnormal row
        is quantized at the floor's width (still unbiased).  One call
        draws the uniforms of every row in one rng.random call, in row
        order.
        """
        if self.kind != "quantize_inf":
            return lambda x, out: np.copyto(out, x)
        scale, u = np.empty(shape[:-1] + (1,)), np.empty(shape)
        levels = np.full(scale.shape, 2.0 ** (self.bits - 1))
        least = np.full(scale.shape, np.finfo(float).tiny)  # least row scale

        # out arrays go positionally, which costs less per call than the
        # keyword, but np.maximum takes out by keyword (a third is deprecated)
        def compress(x, out):
            mag = np.abs(x, out)
            np.maximum.reduce(mag, axis=-1, keepdims=True, out=scale)
            np.maximum(scale, least, out=scale)
            # dividing by the width is exact scaling by a power of two, so
            # mag / step is levels * mag / scale to the bit
            step = np.divide(scale, levels, scale)
            # in place on mag: floor(mag / step + u), times step, with x's sign
            np.divide(mag, step, mag)
            np.add(mag, rng.random(out=u), mag)
            np.floor(mag, mag)
            np.multiply(step, mag, mag)
            np.copysign(mag, x, mag)

        return compress


def identity_compressor() -> Compressor:
    return Compressor(kind="identity")


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


def bind_exchange(
    HH: np.ndarray,
    alpha: float | np.ndarray,
    g: DecGraph,
    c: Compressor,
    rng: np.random.Generator,
    NN: np.ndarray,
    diff: np.ndarray,
):
    """Bind the compressed gossip exchange of the reference pair HH = [H,
    Hw]; returns exchange(nu), which runs one exchange of the payload nu,
    advancing HH in place.

    H and Hw are shaped like the payload: (m, d), or (2, m, d) for a
    primal-dual pair.  The invariant Hw = W H holds whenever HH was
    initialized consistently (Hw = W H), and an exchange preserves it.
    alpha is the reference mixing factor: a scalar, or an array that
    broadcasts against HH (one factor per block of a stacked payload);
    keep = 1 - alpha is computed here once.  The window (0,
    1/(1+delta)) of alpha is checked once, by ipdhg.check_windows when the
    step's parameter record is built, not here.  Each
    exchange builds [nu_hat, nu_hat_w] in NN (shaped like HH): Q = C(nu -
    H) goes into its first slot and W Q, from topology.bind_mix, into its
    second, then H and Hw are added.  It writes nu_hat - nu_hat_w into
    diff (shaped like H), and then [H, Hw] = keep [H, Hw] + alpha [nu_hat,
    nu_hat_w], with alpha scaling NN in place, which leaves only diff to
    read.  The quantizer and the gossip product are bound here once; the
    pair's shape is checked here, the node count by bind_mix.  Counts as
    one communication round (the only transmitted payload is Q).
    """
    if NN.shape != HH.shape:
        raise ValueError(f"pair of shape {NN.shape} does not match references {HH.shape}")
    H, Q, QW = HH[0], NN[0], NN[1]
    keep = np.subtract(1.0, alpha)
    gossip, compress = bind_mix(g, H.shape), c.bind(H.shape, rng)

    # out arrays go positionally, which costs less per call than the keyword
    def exchange(nu):
        np.subtract(nu, H, QW)  # the deviation, staged in the second slot
        compress(QW, Q)
        gossip(Q, QW)
        np.add(HH, NN, NN)  # [nu_hat, nu_hat_w]
        np.subtract(Q, QW, diff)
        np.multiply(keep, HH, HH)
        np.add(HH, np.multiply(alpha, NN, NN), HH)

    return exchange
