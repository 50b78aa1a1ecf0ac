"""Receive covariance assembly under hardware distortion.

Every transmitter injects a distortion term proportional to the diagonal of
its transmit covariance, and every receiver adds a distortion proportional to
the diagonal of what it receives, plus thermal noise and an aggregate
CSI-error power.  The helper form f1 bundles the resulting quadratic
contributions of a (channel, matrix) pair; summed over every receiver it is
the transmit-side matrix omega that the precoder update diagonalizes.  The
receive covariances take the same form from the receive side, so the
kernels never form a transmit covariance.

The kernels take a realization's Channels (module `stacked`) and the one
(downlink, uplink) pair of arrays they read, the beams W or the
combiners U, and treat every cell, user and link at once with
batched `@`.  Their Gram products pair blocks of X with the matching
blocks of its stored conjugate transpose X^H, so no call conjugates a
channel.  One node's covariance or CSI-error power is a field
of the Covariances that `covariances` returns, and the per-node forms that
the tests check the kernels against (the transmit covariance and f1) live
in tests/helpers.py.

A node kind without users costs no kernel call, so a half-duplex phase or
a network without downlink or uplink users pays only for what it has: a
transmitter kind that sends no stream adds no received beams and gets zero
transmit-side matrices, and a receiver kind that decodes no user adds no
rows to Z and gets a zero covariance, which nothing reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import HardwareProfile
from .stacked import (Channels, add_scaled_diag, columns, diagonal, hermitian, row_powers,
                      uncolumns)

# ---------------------------------------------------------------------------
# distortion-aware Gram forms
# ---------------------------------------------------------------------------


def distortion_gram(a: np.ndarray, a_h: np.ndarray, y: np.ndarray, y_h: np.ndarray,
                    weights: np.ndarray, sigma: float) -> np.ndarray:
    """A A^H + Y diag(weights) Y^H plus sigma times its own diagonal, given
    a_h = A^H and y_h = Y^H.

    The shared form of the receive covariances, with A = Y blockdiag(W), and
    of the transmit-side sums of f1, with Y = X_t^H and A = Z^H.
    """
    total = a @ a_h + (y * weights) @ y_h
    return add_scaled_diag(total, sigma)


# ---------------------------------------------------------------------------
# stacked kernels
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Covariances:
    """Receive covariances of every node of one state, every user's desired
    signal, and what the residual self-interference needs.

    They depend on the beams only, never on the combiners, so one assembly
    serves a combiner update and the evaluation that follows it.
    """

    dl_rx: np.ndarray       # (G, K_d, M_ue, M_ue)
    bs_rx: np.ndarray       # (G, M_bs, M_bs), zero when no BS decodes an uplink user
    dl_csi: np.ndarray      # (G, K_d) aggregate CSI-error power at each downlink user
    bs_csi: np.ndarray      # (G,) the same at each BS
    signal: tuple           # (H W_dl, H W_ul): each user's beams through its serving link
    si_signal: np.ndarray   # (G, M_bs, K_d b_d) H_si W_g: each cell's beams through its SI link
    cell_load: np.ndarray   # (G, N_bs) each BS's per-antenna power before distortion
    cell_power: np.ndarray  # (G,) tr(T_g): each BS's transmit power, distortion included


def covariances(ch: Channels, hw: HardwareProfile, beams) -> Covariances:
    """Every receiver's covariance under the beams (W_dl, W_ul), and the
    desired signals H W.

    A transmitter with beams W sends T = W W^H + kappa diag(W W^H).  Summed
    over the transmitters, H T H^H is R R^H + X diag(t) X^H, with X the
    receiver's channels from every transmitter side by side (the SI link
    stores its true matrix as the estimate), R = X blockdiag(W) the
    received beams and t the kappa-scaled per-antenna transmit power.  The
    receiver adds its own distortion diagonal, thermal noise, and the
    CSI-error power sum err_var * tr(T), which follows from
    E{Delta T Delta^H} = err_var tr(T) I for an i.i.d. error matrix Delta;
    tr(T) = (1 + kappa) ||W||_F^2.  Each user's desired signal, and each
    cell's beams through its SI link, are column blocks of R.
    """
    cells, k_d, n_bs, b_d = beams[0].shape
    k_u, n_ue, b_u = beams[1].shape[1:]
    w_bs = columns(beams[0])                         # (G, N_bs, K_d b_d) per BS
    w_ul = beams[1].reshape(cells * k_u, n_ue, b_u)
    # t over the columns of x and tr(T) over those of err, BSs first; a
    # transmitter kind that sends no stream keeps zeros and costs no kernel
    weights, tx_power = np.zeros(ch.x.shape[1]), np.zeros(ch.err.shape[1])
    if k_d:
        cell_load = row_powers(w_bs)
        weights[:cells * n_bs] = (hw.kappa_bs * cell_load).ravel()
        tx_power[:cells] = (1.0 + hw.kappa_bs) * np.add.reduce(cell_load, axis=-1)
    else:
        cell_load = np.zeros((cells, n_bs))
    if k_u:
        ul_load = row_powers(w_ul)
        weights[cells * n_bs:] = (hw.kappa_ue * ul_load).ravel()
        tx_power[cells:] = (1.0 + hw.kappa_ue) * np.add.reduce(ul_load, axis=-1)
    cell_power = tx_power[:cells]
    csi = ch.err @ tx_power
    # the received beams R of every receiver, transmitters in the order of x; a
    # transmitter kind that sends no stream adds no columns
    parts = [columns(x @ w) for x, w in ((ch.from_bs, w_bs), (ch.from_ul, w_ul)) if w.size]
    received = np.concatenate(parts or [np.zeros((len(ch.x), 0), complex)], axis=-1)
    m_ue, m_bs, width = ch.m_ue, ch.m_bs, received.shape[1]
    r_dl = received[:cells * k_d * m_ue].reshape(cells, k_d, m_ue, width)
    r_bs = received[cells * k_d * m_ue:].reshape(cells, m_bs, width)
    dl_csi, bs_csi = csi[:cells * k_d].reshape(cells, k_d), csi[cells * k_d:]
    # a receiver kind that decodes no user gets a zero covariance: nothing reads it
    dl_rx = (distortion_gram(r_dl, hermitian(r_dl), ch.dl, ch.dl_h, weights, hw.beta_ue)
             if k_d else np.zeros((cells, 0, m_ue, m_ue), complex))
    bs_rx = (distortion_gram(r_bs, hermitian(r_bs), ch.bs, ch.bs_h, weights, hw.beta_bs)
             if k_u else np.zeros((cells, m_bs, m_bs), complex))
    for k, rx, noise_w, err_power in ((k_d, dl_rx, hw.noise_ue_w, dl_csi),
                                      (k_u, bs_rx, hw.noise_bs_w, bs_csi)):
        if k:
            diagonal(rx)[...] += (noise_w + err_power)[..., None]
    # the column blocks of R that a receiver's own cell sends it, empty without users
    own, (cell, user), dl_cols = ch.cell_index, ch.dl_user_index, cells * k_d * b_d
    if k_d:
        signal_dl = r_dl[..., :dl_cols].reshape(cells, k_d, m_ue, cells, k_d, b_d)[
            cell, user, :, cell, user]
        si_signal = r_bs[..., :dl_cols].reshape(cells, m_bs, cells, k_d * b_d)[own, :, own]
    else:
        signal_dl = np.zeros((cells, 0, m_ue, b_d), complex)
        si_signal = np.zeros((cells, m_bs, 0), complex)
    signal_ul = (uncolumns(r_bs[..., dl_cols:].reshape(cells, m_bs, cells, k_u * b_u)[
        own, :, own], b_u) if k_u else np.zeros((cells, 0, m_bs, b_u), complex))
    return Covariances(dl_rx=dl_rx, bs_rx=bs_rx, dl_csi=dl_csi, bs_csi=bs_csi,
                       signal=(signal_dl, signal_ul),
                       si_signal=si_signal, cell_load=cell_load, cell_power=cell_power)


def transmit_grams(ch: Channels, hw: HardwareProfile, combiners):
    """Interference-plus-distortion matrices seen from each transmitter.

    For BS g this aggregates, over every receiver in the network, the f1
    form of the estimated channel from g and that receiver's combiners in
    (U_dl, U_ul) (the SI link contributes through its true matrix, stored
    as its estimate).  The uplink variant does the same from each uplink
    user's antennas.  Returns ((G, N_bs, N_bs), (G, K_u, N_ue, N_ue)).

    Both read the transmitter's columns X_t of X and their stored conjugate
    transpose X_t^H: the sum is Z^H Z + X_t^H diag(w) X_t plus kappa times
    its diagonal, with Z = blockdiag(U)^H X_t and w the beta-scaled row
    powers of the combiners.
    """
    u_dl, u_ul = combiners
    cells, k_d, m_ue, b_d = u_dl.shape
    k_u = u_ul.shape[1]
    dl_rows = cells * k_d * m_ue
    # every downlink user, then every BS with the combiners of all the uplink
    # users it decodes side by side: the row order of X
    bs_u = columns(u_ul)
    dl_uh, bs_uh = hermitian(u_dl.reshape(cells * k_d, m_ue, b_d)), hermitian(bs_u)
    # the beta-scaled row powers of the combiners over the rows of X, zero at a
    # receiver kind that decodes no user, which costs no kernel
    weights = np.zeros(len(ch.x))
    if k_d:
        weights[:dl_rows] = (hw.beta_ue * row_powers(u_dl)).ravel()
    if k_u:
        weights[dl_rows:] = (hw.beta_bs * row_powers(bs_u)).ravel()
    # the rows of Z: a block for each receiver kind that decodes a user
    blocks = [block for block in ((dl_uh, slice(dl_rows)), (bs_uh, slice(dl_rows, None)))
              if block[0].size]

    def summed_f1(x: np.ndarray, x_h: np.ndarray, kappa: float, users: int) -> np.ndarray:
        # x: (transmitters, rows of X, N), x_h its conjugate transpose; zero when
        # the transmitters serve no users, as nothing reads it then
        count, _, n = x.shape
        if not users:
            return np.zeros((count, n, n), complex)
        z = np.concatenate([(u_h @ x[:, rows].reshape(count, len(u_h), -1, n)).reshape(
            count, -1, n) for u_h, rows in blocks], axis=1)
        return distortion_gram(hermitian(z), z, x_h, x, weights, kappa)

    omega_ul = summed_f1(ch.from_ul, ch.from_ul_h, hw.kappa_ue, k_u)
    return (summed_f1(ch.from_bs, ch.from_bs_h, hw.kappa_bs, k_d),
            omega_ul.reshape(cells, k_u, *omega_ul.shape[-2:]))
