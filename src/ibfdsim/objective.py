"""Mean-square errors, residual self-interference, and rate reporting.

The solver's tracked quantity is the penalized sum MSE: the sum of every
user's stream-recovery MSE plus a per-cell penalty nu_g times the residual
self-interference (RSI) power that the cell's precoders leave at its own
receive array.  Sum rate is reported alongside as the conventional
log-det measure with everything that is not the desired signal treated as
noise.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import covariance
from .model import HardwareProfile, Realization
from .stacked import ChannelStack, StackedState, hermitian, re_inner, stack_channels, trace
from .state import BeamformingState

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
    sum_rate: float             # bits/s/Hz, downlink + uplink
    sum_rate_dl: float
    sum_rate_ul: float

    @property
    def sum_mse(self) -> float:
        return self.sum_mse_dl + self.sum_mse_ul


def nu_from_asic(l_db: float) -> float:
    """RSI penalty weight matched to an analog cancellation depth in dB."""
    return 10.0 ** (-l_db / 5.0)


def _nu_per_cell(realization: Realization, nu) -> np.ndarray:
    arr = np.asarray(nu, dtype=float)
    if arr.ndim == 0:
        arr = np.full(realization.cell_count, float(arr))
    if arr.shape != (realization.cell_count,):
        raise ValueError(f"nu must be scalar or per-cell, got shape {arr.shape}")
    if np.any(arr < 0):
        raise ValueError("nu must be >= 0")
    return arr


def _mse(c, hv, combiner, coefficient, streams):
    """tr(U^H C U) - 2 coefficient Re tr(U^H H V) + streams for every user of a stack."""
    return re_inner(combiner, c @ combiner) - 2.0 * coefficient * re_inner(combiner, hv) + streams


def _depth_db(numerator: float, rsi: float) -> float:
    if numerator <= 0.0:
        return 0.0
    if rsi < 1e-30 * numerator:
        return ASIC_DEPTH_CAP_DB
    return min(10.0 * math.log10(numerator / rsi), ASIC_DEPTH_CAP_DB)


def report(ch: ChannelStack, hw: HardwareProfile, s: StackedState,
           cov: covariance.Covariances, nu_arr: np.ndarray, with_rates: bool) -> ObjectiveReport:
    """Every figure of merit of a stacked state whose covariances are `cov`.

    The RSI of cell g is tr(H_si T_g H_si^H) with T_g the cell's transmit
    covariance, distortion diagonal included; it depends only on the cell's
    own downlink precoders and coefficients.  The cancellation depth is
    10 log10(l_g tr(T_g) / rsi), capped at +200 dB, 0 for a silent cell.
    """
    dl_streams, ul_streams = s.dl_precoders.shape[-1], s.ul_precoders.shape[-1]
    hv_dl = ch.dl_own @ s.dl_precoders
    hv_ul = ch.ul_own @ s.ul_precoders
    bs_rx = cov.bs_rx[:, None]                   # each BS covariance, once per uplink user
    sum_mse_dl = float(_mse(cov.dl_rx, hv_dl, s.dl_combiners, s.dl_coefficients,
                            dl_streams).sum())
    sum_mse_ul = float(_mse(bs_rx, hv_ul, s.ul_combiners, s.ul_coefficients,
                            ul_streams).sum())
    rsi = (ch.si @ cov.cell_tx * ch.si.conj()).real.sum(axis=(-2, -1))
    tx_power = trace(cov.cell_tx)
    depth = tuple(_depth_db(gain * p, r) for gain, p, r
                  in zip(hw.si_gain, tx_power.tolist(), rsi.tolist()))
    nan = float("nan")
    rate_dl = rate_ul = nan
    if with_rates:
        def signal(coefficient, hv):
            return (coefficient ** 2)[..., None, None] * (hv @ hermitian(hv))

        rate_dl = float(_rate_bits(cov.dl_rx, signal(s.dl_coefficients, hv_dl)).sum())
        rate_ul = float(_rate_bits(bs_rx, signal(s.ul_coefficients, hv_ul)).sum())
    return ObjectiveReport(
        sum_mse_dl=sum_mse_dl,
        sum_mse_ul=sum_mse_ul,
        rsi_watts=tuple(rsi.tolist()),
        asic_depth_db=depth,
        loss=sum_mse_dl + sum_mse_ul + float(np.dot(nu_arr, rsi)),
        sum_rate=rate_dl + rate_ul,
        sum_rate_dl=rate_dl,
        sum_rate_ul=rate_ul,
    )


def mse_downlink(realization: Realization, state: BeamformingState, k: int, g: int) -> float:
    """Stream-recovery MSE of downlink user (k, g) under its current combiner."""
    ch, s, cov = _stacked(realization, state)
    return float(_mse(cov.dl_rx[g, k], ch.dl_own[g, k] @ s.dl_precoders[g, k],
                      s.dl_combiners[g, k], s.dl_coefficients[g, k],
                      realization.antennas.dl_streams))


def mse_uplink(realization: Realization, state: BeamformingState, k: int, g: int) -> float:
    """Stream-recovery MSE of uplink user (k, g), decoded at BS g."""
    ch, s, cov = _stacked(realization, state)
    return float(_mse(cov.bs_rx[g], ch.ul_own[g, k] @ s.ul_precoders[g, k],
                      s.ul_combiners[g, k], s.ul_coefficients[g, k],
                      realization.antennas.ul_streams))


def rsi_power(realization: Realization, state: BeamformingState, g: int) -> float:
    """Self-interference power received at BS g through the true SI channel.

    Depends only on the cell's own downlink precoders and coefficients; the
    transmit-distortion diagonal is included.
    """
    return evaluate(realization, state, 0.0, with_rates=False).rsi_watts[g]


def asic_depth(realization: Realization, state: BeamformingState, g: int) -> float:
    """Cancellation depth 10 log10(l_g tr(T_g) / rsi) in dB, capped at +200.

    Measures how far below the (path-scaled) transmitted power the residual
    SI lands.  Returns the cap for a numerically vanished residual and 0 for
    a silent cell.
    """
    return evaluate(realization, state, 0.0, with_rates=False).asic_depth_db[g]


def loss(realization: Realization, state: BeamformingState, nu) -> float:
    """Penalized sum MSE: all stream MSEs plus nu_g-weighted RSI powers."""
    return evaluate(realization, state, nu, with_rates=False).loss


def _rate_bits(c: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """log2 det(I + S Q^-1) with Q = C - S for every matrix pair of a stack;
    a singular Q is regularized."""
    q = c - signal
    sign, logdet_q = np.linalg.slogdet(q)
    singular = (sign.real <= 0) | ~np.isfinite(logdet_q)
    if np.any(singular):
        log.warning("singular noise covariance regularized in rate computation")
        shift = np.where(singular, 1e-15 * trace(q), 0.0)
        q = q + shift[..., None, None] * np.eye(q.shape[-1])
        sign, logdet_q = np.linalg.slogdet(q)
    _, logdet_c = np.linalg.slogdet(q + signal)
    return (logdet_c - logdet_q) / math.log(2.0)


def sum_rate(realization: Realization, state: BeamformingState) -> float:
    """Network sum rate in bits/s/Hz with interference treated as noise."""
    report = evaluate(realization, state, nu=0.0)
    return report.sum_rate


def _stacked(realization: Realization, state: BeamformingState):
    ch = stack_channels(realization)
    s = StackedState.from_state(realization, state)
    return ch, s, covariance.covariances(ch, realization.hardware, s)


def evaluate(realization: Realization, state: BeamformingState, nu,
             with_rates: bool = True) -> ObjectiveReport:
    """Compute every reported metric, sharing covariance assembly.

    with_rates=False skips the log-det rate terms (reported as nan), which
    roughly halves the cost of per-iteration bookkeeping inside the solver.
    """
    nu_arr = _nu_per_cell(realization, nu)
    ch, s, cov = _stacked(realization, state)
    return report(ch, realization.hardware, s, cov, nu_arr, with_rates)
