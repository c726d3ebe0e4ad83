"""Independent re-derivations of the sigmoid law, used as cross-checks.

Three routes to the same probability, none of which shares code with
`laws.prob_sigmoid`:

* `trapezium_ratio` - exact plane geometry.  For h at or below the
  crossover, the event "high-order error <= low-order error" is the part of
  the rectangle [0, a] x [0, b] (a = high bound, b = low bound, a <= b)
  lying on or above the diagonal, a trapezium of area a*(b - a) + a**2/2.
* `numeric_area_oracle` - deterministic midpoint-rule integration of the
  indicator over the same rectangle; works on both sides of the crossover.
* `mc_estimate` - direct Monte Carlo sampling of the two uniform error
  variables on a counter-based stream, reproducible under any trial split;
  the trials are drawn block by block into one reused buffer per stream.

`conditional_identity_check` verifies the conditional-probability identity

    P{high wins} = P{low in band} / P{low in band | high wins}

("high wins" = high-order error <= low-order error; "low in band" = the
low-order error falls between the two bounds) from three independent
sample batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .laws import ElementPair, _checked_h
from .rng import _BLOCK, derive_key, uniforms

__all__ = [
    "McEstimate",
    "ConditionalIdentityReport",
    "draw_error_samples",
    "trapezium_ratio",
    "mc_estimate",
    "conditional_identity_check",
    "numeric_area_oracle",
]

# sub-stream tags keeping the low/high draws and the three identity batches apart
_STREAM_LOW = 0
_STREAM_HIGH = 1
_STREAM_WIN = 2
_STREAM_BAND = 3
_STREAM_CONDITIONAL = 4


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo event frequency with its binomial standard error."""

    p_hat: float
    n_trials: int
    seed: int
    std_error: float = field(init=False)

    def __post_init__(self):
        if self.n_trials < 1:
            raise ParameterError("n_trials must be >= 1")
        if not 0.0 <= self.p_hat <= 1.0:
            raise ParameterError("p_hat must lie in [0, 1]")
        object.__setattr__(
            self,
            "std_error",
            float(np.sqrt(self.p_hat * (1.0 - self.p_hat) / self.n_trials)),
        )


@dataclass(frozen=True)
class ConditionalIdentityReport:
    """Empirical check of P{win} = P{band} / P{band | win}.

    `identity_residual` is |prob_high_wins - prob_low_in_band / prob_band_given_win|,
    each probability estimated on its own independent batch.
    """

    prob_high_wins: float
    prob_low_in_band: float
    prob_band_given_win: float
    identity_residual: float


def _intervals(pair: ElementPair, h: float) -> tuple[float, float]:
    """Upper endpoints (low family, high family) of the two error intervals."""
    h = _checked_h(h)
    return pair.low.bound(h), pair.high.bound(h)


def draw_error_samples(
    pair: ElementPair, h: float, n_trials: int, seed: int, offset: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized draws (x_low, x_high) for trials offset..offset+n_trials-1."""
    if n_trials < 1:
        raise ParameterError("n_trials must be >= 1")
    top_low, top_high = _intervals(pair, h)
    x_low = uniforms(derive_key(seed, _STREAM_LOW), n_trials, offset) * top_low
    x_high = uniforms(derive_key(seed, _STREAM_HIGH), n_trials, offset) * top_high
    return x_low, x_high


def trapezium_ratio(pair: ElementPair, h: float) -> float:
    """Winning-region area over rectangle area, valid for h <= crossover.

    Surfaces are computed literally: trapezium a*(b - a) + a**2/2 against
    rectangle a*b, with a the high-order bound and b the low-order bound.
    Above the crossover the roles of the two families swap; callers must
    use the complementary geometry there, so such h are rejected.
    """
    h = _checked_h(h)
    if h > pair.h_star:
        raise ParameterError(
            f"trapezium geometry requires h <= h_star ({pair.h_star!r}), got {h!r};"
            " swap the two families for the other branch"
        )
    b, a = _intervals(pair, h)
    rectangle = a * b
    if rectangle == 0.0:
        raise ParameterError("bound intervals underflowed to zero; h too extreme")
    trapezium = a * (b - a) + 0.5 * a * a
    return trapezium / rectangle


def _scaled_blocks(n_trials: int, step: int, *streams: tuple[int, float]):
    """Yield, block by block, each stream's draws scaled by its interval top.

    `streams` are (key, top) pairs; every block covers the same `step`
    trial indices of all of them (the last block may be shorter), so a
    block's working set stays small while the values match one long draw.
    Each stream draws every block into the one buffer it gets per call, so
    a yielded block is overwritten by the next.
    """
    buffers = [np.empty(min(step, n_trials)) for _ in streams]
    for offset in range(0, n_trials, step):
        count = min(step, n_trials - offset)
        blocks = []
        for (key, top), buffer in zip(streams, buffers):
            x = uniforms(key, count, offset, out=buffer[:count])
            x *= top
            blocks.append(x)
        yield blocks


def mc_estimate(
    pair: ElementPair,
    h: float,
    n_trials: int,
    seed: int,
    chunk_size: int | None = None,
) -> McEstimate:
    """Monte Carlo frequency of "high-order error <= low-order error".

    Trials are drawn and counted in blocks of `_BLOCK` (an L2-sized
    working set), or of `chunk_size` when given, which then bounds
    memory; every block is drawn into the same two buffers and compared
    into the same mask.  The counter-based stream makes any block size
    (or a parallel split along trial indices) return bit-identical
    results.  Ties count as a win for the high-order family, matching the
    non-strict event definition.
    """
    if n_trials < 1:
        raise ParameterError("n_trials must be >= 1")
    if chunk_size is not None and chunk_size < 1:
        raise ParameterError("chunk_size must be >= 1 when given")
    top_low, top_high = _intervals(pair, h)
    streams = (
        (derive_key(seed, _STREAM_LOW), top_low),
        (derive_key(seed, _STREAM_HIGH), top_high),
    )
    step = chunk_size or _BLOCK
    wins = np.empty(min(step, n_trials), dtype=bool)
    hits = 0
    for x_low, x_high in _scaled_blocks(n_trials, step, *streams):
        hits += int(np.count_nonzero(np.less_equal(x_high, x_low, out=wins[:x_low.size])))
    return McEstimate(p_hat=hits / n_trials, n_trials=n_trials, seed=seed)


def conditional_identity_check(
    pair: ElementPair, h: float, n_trials: int, seed: int
) -> ConditionalIdentityReport:
    """Estimate both sides of P{win} = P{band}/P{band|win}; report the residual.

    Each probability comes from its own independent batch of `n_trials`
    draws.  (On a single shared batch the identity holds exactly by
    counting, because every in-band sample is also a winning sample;
    independent batches make the residual a real n**-1/2 statistical
    quantity.)  Stated for h below the crossover, where the band
    [high bound, low bound] is nonempty.  P{win} is the `mc_estimate` of
    sub-stream 2 of `seed`; the other two batches are counted block by
    block, like it.
    """
    h = _checked_h(h)
    if h >= pair.h_star:
        raise ParameterError(
            f"the identity is stated for h < h_star ({pair.h_star!r}), got {h!r}"
        )
    if n_trials < 1:
        raise ParameterError("n_trials must be >= 1")
    prob_win = mc_estimate(pair, h, n_trials, derive_key(seed, _STREAM_WIN)).p_hat
    top_low, top_high = _intervals(pair, h)
    band, conditional = (derive_key(seed, tag) for tag in (_STREAM_BAND, _STREAM_CONDITIONAL))
    streams = (
        (derive_key(band, _STREAM_LOW), top_low),
        (derive_key(conditional, _STREAM_LOW), top_low),
        (derive_key(conditional, _STREAM_HIGH), top_high),
    )
    n_band = n_wins = n_band_and_win = 0
    for band_low, x_low, x_high in _scaled_blocks(n_trials, _BLOCK, *streams):
        n_band += int(np.count_nonzero((band_low >= top_high) & (band_low <= top_low)))
        wins = x_high <= x_low
        n_wins += int(np.count_nonzero(wins))
        in_band = (x_low >= top_high) & (x_low <= top_low)
        n_band_and_win += int(np.count_nonzero(in_band & wins))

    if prob_win == 0.0:
        raise InsufficientDataError(
            "the winning event never occurred; increase n_trials to estimate it"
        )
    prob_band = n_band / n_trials
    if n_wins == 0:
        raise InsufficientDataError(
            "the winning event never occurred; increase n_trials to condition on it"
        )
    prob_band_given_win = n_band_and_win / n_wins
    if prob_band_given_win == 0.0:
        raise InsufficientDataError(
            "the conditional band event never occurred; increase n_trials"
        )

    return ConditionalIdentityReport(
        prob_high_wins=float(prob_win),
        prob_low_in_band=float(prob_band),
        prob_band_given_win=float(prob_band_given_win),
        identity_residual=float(abs(prob_win - prob_band / prob_band_given_win)),
    )


def numeric_area_oracle(pair: ElementPair, h: float, grid_n: int) -> float:
    """Midpoint-rule fraction of the rectangle where the high family wins.

    Counts cell centers of a grid_n x grid_n grid on [0, a] x [0, b]
    satisfying x_high <= x_low; deterministic, independent of both the
    closed form and the Monte Carlo path, and valid on both branches.
    The abscissa count per column is a sorted-array rank, which reproduces
    the midpoint-rule sum exactly in O(n log n).
    """
    h = _checked_h(h)
    if grid_n < 2:
        raise ParameterError(f"grid_n must be >= 2, got {grid_n}")
    top_low, top_high = _intervals(pair, h)
    centers = (np.arange(grid_n) + 0.5) / grid_n
    x_high = centers * top_high
    x_low = centers * top_low
    wins = np.searchsorted(x_high, x_low, side="right").sum()
    return float(wins) / (grid_n * grid_n)
