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
  both streams of a block of trials are drawn by one `uniforms` call into
  one reused buffer.

`conditional_identity_check` verifies the conditional-probability identity

    P{high wins} = P{low in band} / P{low in band | high wins}

("high wins" = high-order error <= low-order error; "low in band" = the
low-order error falls between the two bounds) from three independent
sample batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, ParameterError, _checked_count, _checked_integer
from .laws import ElementPair, _checked_h
from .rng import _blocks, _rows_per_block, derive_key, uniforms

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
        object.__setattr__(self, "seed", _checked_integer(self.seed, "seed"))
        _checked_count(self.n_trials, "n_trials")
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


def _streams(pair: ElementPair, h: float, seed: int) -> tuple[tuple[int, float], ...]:
    """The (key, interval top) stream of the low family under `seed`, then the high's.

    The low family draws from ``derive_key(seed, 0)`` scaled by its bound at
    h, the high family from ``derive_key(seed, 1)`` scaled by its own.
    """
    return (
        (derive_key(seed, _STREAM_LOW), pair.low.bound(h)),
        (derive_key(seed, _STREAM_HIGH), pair.high.bound(h)),
    )


def draw_error_samples(
    pair: ElementPair, h: float, n_trials: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized draws (x_low, x_high) of trials 0..n_trials-1.

    Both streams come from one `uniforms` call, one row each, scaled by
    their interval tops: the reference that the blocks of `mc_estimate`
    must reproduce, drawn without them.
    """
    n_trials = _checked_count(n_trials, "n_trials")
    (key_low, top_low), (key_high, top_high) = _streams(pair, h, seed)
    x_low, x_high = uniforms(np.array([key_low, key_high], dtype=np.uint64), n_trials)
    x_low *= top_low
    x_high *= top_high
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
    b, a = pair.low.bound(h), pair.high.bound(h)
    rectangle = a * b
    if rectangle == 0.0:
        raise ParameterError("bound intervals underflowed to zero; h too extreme")
    trapezium = a * (b - a) + 0.5 * a * a
    return trapezium / rectangle


def _scaled_blocks(n_trials: int, *streams: tuple[int, float]):
    """Yield, block by block, the streams' draws scaled by their interval tops.

    `streams` are (key, top) pairs.  A block is one (streams x trials)
    array of the same trial indices of every stream, drawn by one
    `uniforms` call: as many trials as fit in one `rng._BLOCK` of values
    across the streams (the last block may be shorter), so a block's
    working set stays small while the values match one long draw.  Every
    block is drawn into the one buffer of the call, so a yielded block is
    overwritten by the next.
    """
    keys = np.array([key for key, _ in streams], dtype=np.uint64)
    tops = np.array([[top] for _, top in streams])
    buffer = np.empty((len(keys), min(n_trials, _rows_per_block(len(keys)))))
    for trials, _ in _blocks(n_trials, len(keys)):
        count = trials.stop - trials.start
        x = uniforms(keys, count, trials.start, out=buffer[:, :count])
        x *= tops
        yield x


def mc_estimate(pair: ElementPair, h: float, n_trials: int, seed: int) -> McEstimate:
    """Monte Carlo frequency of "high-order error <= low-order error".

    Trials are drawn and counted in the blocks of `_scaled_blocks`, whose
    size `rng._BLOCK` alone sets (32,768 values across the two streams, an
    L2-sized working set); both streams of a block come from one `uniforms`
    call into the same buffer.  The counter-based stream makes any block
    size (or a parallel split along trial indices) return bit-identical
    results.  Ties count as a win for the high-order family, matching the
    non-strict event definition.
    """
    n_trials = _checked_count(n_trials, "n_trials")
    hits = 0
    for x_low, x_high in _scaled_blocks(n_trials, *_streams(pair, h, seed)):
        hits += int(np.count_nonzero(x_high <= x_low))
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
    n_trials = _checked_count(n_trials, "n_trials")
    prob_win = mc_estimate(pair, h, n_trials, derive_key(seed, _STREAM_WIN)).p_hat
    # the band batch counts its low-family draws alone
    band = _streams(pair, h, derive_key(seed, _STREAM_BAND))[0]
    low, high = _streams(pair, h, derive_key(seed, _STREAM_CONDITIONAL))
    top_low, top_high = low[1], high[1]
    n_band = n_wins = n_band_and_win = 0
    for band_low, x_low, x_high in _scaled_blocks(n_trials, band, low, high):
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
    grid_n = _checked_count(grid_n, "grid_n", minimum=2)
    top_low, top_high = pair.low.bound(h), pair.high.bound(h)
    centers = (np.arange(grid_n) + 0.5) / grid_n
    x_high = centers * top_high
    x_low = centers * top_low
    wins = np.searchsorted(x_high, x_low, side="right").sum()
    return float(wins) / (grid_n * grid_n)
