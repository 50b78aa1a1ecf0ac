"""Mean-square errors, MMSE combiners, residual self-interference, and rate reporting.

The solver's tracked quantity is the penalized sum MSE: the sum of every
user's stream-recovery MSE plus a per-cell penalty nu_g times the residual
self-interference (RSI) power that the cell's precoders leave at its own
receive array.  Sum rate is reported alongside as the conventional
log-det measure with everything that is not the desired signal treated as
noise, from each user's b x b MMSE error matrix E = I - (HW)^H U alone,
so a solve keeps only the b x b (HW)^H U of each record to rate it.

Every figure comes from `score`, the one scoring step that the solver, the
baselines and `evaluate` share: it reads the covariances (module
`covariance`) of the beams, so the same beams score the same on every path.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import covariance
from .model import HardwareProfile, Realization
from .stacked import (BeamformingState, Channels, columns, frobenius_sq, hermitian, re_inner,
                      uncolumns)

log = logging.getLogger(__name__)

ASIC_DEPTH_CAP_DB = 200.0


@dataclass(frozen=True)
class ObjectiveReport:
    """All scalar figures of merit of one (realization, state) pair."""

    sum_mse_dl: float
    sum_mse_ul: float
    rsi_watts: tuple            # per cell, W
    asic_depth_db: tuple        # per cell, dB
    loss: float                 # penalized sum MSE
    sum_rate_dl: float          # bits/s/Hz
    sum_rate_ul: float

    @property
    def sum_mse(self) -> float:
        return self.sum_mse_dl + self.sum_mse_ul

    @property
    def sum_rate(self) -> float:
        return self.sum_rate_dl + self.sum_rate_ul


def checked_nu(nu) -> float:
    """nu as a float; ValueError unless it is one finite number >= 0."""
    if not isinstance(nu, numbers.Real):
        raise ValueError(f"nu must be one number or None, got {nu!r}")
    if not 0.0 <= nu < math.inf:
        raise ValueError(f"nu must be finite and >= 0, got {nu!r}")
    return float(nu)


def resolve_nu(realization: Realization, nu) -> np.ndarray:
    """Per-cell RSI penalty weights from a SolverConfig.nu: the number for
    every cell, or by default (None) nu_g = l_g^2 for a cell whose analog
    stage leaves SI gain l_g, which equals 10**(-l_db/5) for a cancellation
    depth of l_db decibels."""
    if nu is None:
        return np.array([l * l for l in realization.hardware.si_gain])
    return np.full(realization.cell_count, checked_nu(nu))


def _mse(c, received, combiner):
    """tr(U^H C U) - 2 Re tr(U^H H W) + streams for every user of a stack,
    given the received beams H W; U has one column per stream."""
    return (re_inner(combiner, c @ combiner) - 2.0 * re_inner(combiner, received)
            + combiner.shape[-1])


def _depth_db(gain: float, power: float, rsi: float) -> float:
    if power <= 0.0:
        return 0.0
    numerator = gain * power
    if numerator <= 0.0 or rsi <= 1e-30 * numerator:
        return ASIC_DEPTH_CAP_DB
    return min(10.0 * math.log10(numerator / rsi), ASIC_DEPTH_CAP_DB)


def mmse_combiners(cov: covariance.Covariances):
    """U = C^-1 H W for every user, C-contiguous, from the covariances and
    desired signals `cov`; a BS solves once for all the uplink users it decodes."""
    signal_dl, signal_ul = cov.signal
    try:
        # a direction without users has empty combiners, shaped as its signals
        dl = np.linalg.solve(cov.dl_rx, signal_dl) if signal_dl.size else signal_dl
        ul = (uncolumns(np.linalg.solve(cov.bs_rx, columns(signal_ul)), signal_ul.shape[-1]).copy()
              if signal_ul.size else signal_ul)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"singular received covariance ({exc}); check the noise configuration") from exc
    return dl, ul


def signal_gains(signal, mmse) -> tuple:
    """The b x b gain G = A^H U of every user, per direction, from the desired
    signals A = H W and MMSE combiners U = C^-1 A, (dl, ul) pairs of arrays
    of shape (..., cells, users, rows, streams); E = I - G is its MMSE error matrix."""
    return tuple(hermitian(a) @ u for a, u in zip(signal, mmse))


def _rate_bits(gain: np.ndarray) -> np.ndarray:
    """-log2 det E for every user of a stack of signal_gains G, E = I - G.

    By the matrix determinant lemma, det(C - A A^H) = det(C) det(E), so this
    is log2 det(C) - log2 det(C - A A^H).  E is Hermitian with eigenvalues in
    (0, 1]; a singular one is shifted by 1e-15 I, which leaves every other
    user's bits as they are.
    """
    eye = np.eye(gain.shape[-1])
    error = eye - gain
    sign, logdet = np.linalg.slogdet(error)
    singular = (sign.real <= 0) | ~np.isfinite(logdet)
    if np.logical_or.reduce(singular, axis=None):
        log.warning("singular noise covariance regularized in rate computation")
        logdet = np.where(singular, np.linalg.slogdet(error + 1e-15 * eye)[1], logdet)
    return -logdet / math.log(2.0)


def sum_rates(gains) -> tuple:
    """Downlink and uplink sum rates in bits/s/Hz of the signal_gains
    (G_dl, G_ul), each of shape (..., cells, users, b, b): a float per
    direction for one state, a list over the leading axis for a stack of
    states, each entry the bits of that state's own call."""
    # a direction without users has rate 0 and costs no slogdet
    return tuple((np.add.reduce(_rate_bits(g), axis=(-2, -1)) if g.size
                  else np.zeros(g.shape[:-4])).tolist() for g in gains)


def score(ch: Channels, hw: HardwareProfile, beams, nu_arr: np.ndarray, combiners=None,
          with_rates: bool = False) -> tuple:
    """Every figure of merit of the beams (W_dl, W_ul) on the channels `ch`
    under the combiners (U_dl, U_ul), or their MMSE combiners if None.
    Returns (scored combiners, covariances, report).

    The RSI of cell g is tr(H_si T_g H_si^H) with T_g the cell's transmit
    covariance, distortion diagonal included; it depends only on the cell's
    own downlink beams W_g, and equals ||H_si W_g||_F^2 plus kappa times the
    column powers of H_si weighted by the row powers of W_g.  The
    cancellation depth is 10 log10(l_g tr(T_g) / rsi), capped at +200 dB,
    with tr(T_g) = (1 + kappa) ||W_g||_F^2.  It is 0 for a silent cell,
    tr(T_g) = 0, and the cap for a transmitting cell whose residual vanishes
    against l_g tr(T_g), ideal cancellation (l_g = 0) included.  The rates
    do not depend on the combiners: with_rates rates the signal_gains of the
    MMSE combiners of the covariances, and without it they are nan.
    """
    cov = covariance.covariances(ch, hw, beams)
    mmse = mmse_combiners(cov) if combiners is None or with_rates else None
    combiners = mmse if combiners is None else combiners
    u_dl, u_ul = combiners    # no users, no MSE; a BS covariance serves each uplink user
    sum_mse_dl = (float(np.add.reduce(_mse(cov.dl_rx, cov.signal[0], u_dl), axis=None))
                  if u_dl.size else 0.0)
    sum_mse_ul = (float(np.add.reduce(_mse(cov.bs_rx[:, None], cov.signal[1], u_ul), axis=None))
                  if u_ul.size else 0.0)
    rsi = (frobenius_sq(cov.si_signal)
           + hw.kappa_bs * np.add.reduce(ch.si_colpow * cov.cell_load, axis=-1)
           if cov.si_signal.size else np.zeros(ch.cells))    # no SI link or no beam through it
    depth = tuple(_depth_db(gain, p, r) for gain, p, r
                  in zip(hw.si_gain, cov.cell_power.tolist(), rsi.tolist()))
    nan = float("nan")
    rate_dl, rate_ul = sum_rates(signal_gains(cov.signal, mmse)) if with_rates else (nan, nan)
    return combiners, cov, ObjectiveReport(
        sum_mse_dl=sum_mse_dl,
        sum_mse_ul=sum_mse_ul,
        rsi_watts=tuple(rsi.tolist()),
        asic_depth_db=depth,
        loss=sum_mse_dl + sum_mse_ul + float(np.dot(nu_arr, rsi)),
        sum_rate_dl=rate_dl,
        sum_rate_ul=rate_ul,
    )


def evaluate(realization: Realization, state: BeamformingState, nu) -> ObjectiveReport:
    """Compute every reported metric of `state`, rates included: `score` of
    its beams under its combiners, with nu a SolverConfig.nu: None or one
    number."""
    nu_arr = resolve_nu(realization, nu)
    return score(realization.channels, realization.hardware,
                 (state.dl_beams, state.ul_beams), nu_arr,
                 (state.dl_combiners, state.ul_combiners), with_rates=True)[2]
