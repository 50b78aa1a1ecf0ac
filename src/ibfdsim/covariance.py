"""Transmit and receive covariance assembly under hardware distortion.

Every transmitter injects a distortion term proportional to the diagonal of
its transmit covariance, and every receiver adds a distortion proportional to
the diagonal of what it receives, plus thermal noise and an aggregate
CSI-error power.  The helper form f1 bundles the resulting quadratic
contributions of a (channel, matrix) pair; summed over every receiver it is
the transmit-side matrix omega that the precoder update diagonalizes.

The kernels work on the stacked layout (module `stacked`) and treat every
cell, user and link at once with batched `@`; the per-node functions below
them are thin adapters for callers that hold a Realization and a
BeamformingState.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import HardwareProfile, Realization
from .stacked import (ChannelStack, StackedState, TransmitSide, add_scaled_diag, columns,
                      hermitian, row_powers, stack_channels, trace)
from .state import BeamformingState

# ---------------------------------------------------------------------------
# distortion-aware Gram forms
# ---------------------------------------------------------------------------


def distortion_gram(yx: np.ndarray, y: np.ndarray, weights: np.ndarray,
                    sigma_t: float) -> np.ndarray:
    """(YX)(YX)^H + Y diag(weights) Y^H plus sigma_t times its own diagonal.

    The shared form of f1 and of its sums over receivers: the columns of Y
    and the entries of `weights` may run over many receivers at once.
    """
    total = yx @ hermitian(yx) + (y * weights) @ hermitian(y)
    return add_scaled_diag(total, sigma_t)


def tx_gram(beams: np.ndarray, kappa: float) -> np.ndarray:
    """Transmit covariance W W^H + kappa diag(W W^H) of beamformers W."""
    return add_scaled_diag(beams @ hermitian(beams), kappa)


# ---------------------------------------------------------------------------
# stacked kernels
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Covariances:
    """Transmit and receive covariances of every node of one state.

    They depend on the precoders and coefficients only, never on the
    combiners, so one assembly serves a combiner update and the evaluation
    that follows it.
    """

    cell_tx: np.ndarray     # (G, N_bs, N_bs) per BS, summed over its users
    ul_tx: np.ndarray       # (G, K_u, N_ue, N_ue)
    dl_rx: np.ndarray       # (G, K_d, M_ue, M_ue)
    bs_rx: np.ndarray       # (G, M_bs, M_bs)
    dl_csi: np.ndarray      # (G, K_d) aggregate CSI-error power at each downlink user
    bs_csi: np.ndarray      # (G,) the same at each BS


def _received(h: np.ndarray, t: np.ndarray) -> np.ndarray:
    return h @ t @ hermitian(h)


def covariances(ch: ChannelStack, hw: HardwareProfile, s: StackedState) -> Covariances:
    """All transmit covariances, then every receiver's covariance.

    A receiver sees each transmitter's covariance through its estimated
    channel (the SI link stores its true matrix as the estimate), its own
    distortion diagonal, thermal noise, and the CSI-error power
    sum err_var * tr(T), which follows from E{Delta T Delta^H} = err_var
    tr(T) I for an i.i.d. error matrix Delta.
    """
    cell_tx = tx_gram(columns(s.dl_coefficients[..., None, None] * s.dl_precoders),
                      hw.kappa_bs)
    ul_tx = tx_gram(s.ul_coefficients[..., None, None] * s.ul_precoders, hw.kappa_ue)
    cell_power = trace(cell_tx)
    ul_power = trace(ul_tx)
    dl_csi = ((ch.err_dl_bs * cell_power).sum(axis=-1)
              + (ch.err_dl_ul * ul_power).sum(axis=(-2, -1)))
    bs_csi = ((ch.err_bs_bs * cell_power).sum(axis=-1)
              + (ch.err_bs_ul * ul_power).sum(axis=(-2, -1)))
    dl_rx = (_received(ch.dl_bs, cell_tx).sum(axis=2)
             + _received(ch.dl_ul, ul_tx).sum(axis=(2, 3)))
    bs_rx = (_received(ch.bs_bs, cell_tx).sum(axis=1)
             + _received(ch.bs_ul, ul_tx).sum(axis=(1, 2)))
    for rx, beta, floor in ((dl_rx, hw.beta_ue, hw.noise_ue_w + dl_csi),
                            (bs_rx, hw.beta_bs, hw.noise_bs_w + bs_csi)):
        diagonal = np.einsum("...ii->...i", add_scaled_diag(rx, beta))
        diagonal += floor[..., None]
    return Covariances(cell_tx=cell_tx, ul_tx=ul_tx, dl_rx=dl_rx, bs_rx=bs_rx,
                       dl_csi=dl_csi, bs_csi=bs_csi)


def transmit_grams(ch: ChannelStack, hw: HardwareProfile, s: StackedState):
    """Interference-plus-distortion matrices seen from each transmitter.

    For BS g this aggregates, over every receiver in the network, the f1
    form of the estimated channel from g and that receiver's combiners (the
    SI link contributes through its true matrix, stored as its estimate).
    The uplink variant does the same from each uplink user's antennas.
    Returns ((G, N_bs, N_bs), (G, K_u, N_ue, N_ue)).
    """
    cells, k_d = s.dl_coefficients.shape
    # every downlink user, then every BS with the combiners of all the
    # uplink users it decodes side by side: the receiver order of TransmitSide
    dl_u = s.dl_combiners.reshape(cells * k_d, *s.dl_combiners.shape[2:])
    bs_u = columns(s.ul_combiners)
    weights = np.concatenate([hw.beta_ue * row_powers(dl_u).reshape(-1),
                              hw.beta_bs * row_powers(bs_u).reshape(-1)])

    def summed_f1(side: TransmitSide, kappa: float) -> np.ndarray:
        yx = np.concatenate([columns(side.to_dl @ dl_u), columns(side.to_bs @ bs_u)], axis=-1)
        return distortion_gram(yx, side.y, weights, kappa)

    return summed_f1(ch.bs_side, hw.kappa_bs), summed_f1(ch.ul_side, hw.kappa_ue)


# ---------------------------------------------------------------------------
# per-node adapters
# ---------------------------------------------------------------------------


def tx_covariance_dl(alpha: float, precoder: np.ndarray, kappa: float) -> np.ndarray:
    """Per-user downlink transmit covariance alpha^2 (VV^H + kappa diag(VV^H))."""
    return tx_gram(alpha * precoder, kappa)


def tx_covariance_ul(gamma: float, precoder: np.ndarray, kappa: float) -> np.ndarray:
    """Uplink transmit covariance gamma^2 (VV^H + kappa diag(VV^H))."""
    return tx_gram(gamma * precoder, kappa)


def _of(realization: Realization, state: BeamformingState) -> Covariances:
    return covariances(stack_channels(realization), realization.hardware,
                       StackedState.from_state(realization, state))


def cell_tx_covariance(realization: Realization, state: BeamformingState, g: int) -> np.ndarray:
    """Total transmit covariance of BS g (sum over its downlink users)."""
    return _of(realization, state).cell_tx[g]


def csi_error_variance(realization: Realization, state: BeamformingState, rx) -> float:
    """Aggregate estimation-error power seen at receiver node `rx`.

    Each imperfectly known link contributes err_var * tr(T) of its
    transmitter.  Perfectly known links (the SI channel) contribute nothing.
    """
    cov = _of(realization, state)
    return float(cov.dl_csi[rx[1], rx[2]] if rx[0] == "dl" else cov.bs_csi[rx[1]])


def rx_covariance_dl(realization: Realization, state: BeamformingState,
                     k: int, g: int) -> np.ndarray:
    """Received-signal covariance at downlink user (k, g), estimated channels.

    Sum of every transmitter's covariance propagated through its estimated
    channel, the receiver distortion diagonal, thermal noise, and the
    aggregate CSI-error power.
    """
    return _of(realization, state).dl_rx[g, k]


def rx_covariance_ul(realization: Realization, state: BeamformingState, g: int) -> np.ndarray:
    """Received-signal covariance at BS g.

    Identical structure to the downlink case except that the perfectly known
    self-interference channel enters with its true matrix.
    """
    return _of(realization, state).bs_rx[g]


# ---------------------------------------------------------------------------
# distortion-aware quadratic forms
# ---------------------------------------------------------------------------


def f1(y: np.ndarray, x: np.ndarray, sigma_t: float, sigma_r: float) -> np.ndarray:
    """Matrix form Y X X^H Y^H with transmit/receive distortion diagonals.

    sigma_t is the distortion factor of the node transmitting through the
    channel inside Y, sigma_r that of the receiving node represented by X.
    """
    return distortion_gram(y @ x, y, sigma_r * row_powers(x), sigma_t)


def f2(z: np.ndarray, y: np.ndarray, x: np.ndarray,
       sigma_t: float, sigma_r: float) -> float:
    """Scalar form tr(Z^H Y (XX^H + sigma_t diag) Y^H Z) plus its receive-side diagonal.

    Equals tr(X^H f1(Y^H, Z, sigma_t, sigma_r) X): one receiver's share of a
    power coefficient's curvature, which the solver takes from the summed
    f1 forms instead.
    """
    # inner = Y (XX^H + sigma_t diag(XX^H)) Y^H is only needed through
    # tr(Z^H inner Z) and its diagonal
    yx = y @ x
    zy = z.conj().T @ y
    zyx = zy @ x
    weights = sigma_t * row_powers(x)
    quad = np.vdot(zyx, zyx).real + float(row_powers(zy.T) @ weights)
    inner_diag = row_powers(yx) + np.abs(y) ** 2 @ weights
    return float(quad + sigma_r * (inner_diag @ row_powers(z)))
