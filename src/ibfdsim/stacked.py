"""The stacked layout: every channel as a dense array, and batched matrix helpers.

The solver kernels (covariance, objective, jpaim) treat all cells, users
and links at once with batched `@`, `solve` and `eigh` over these arrays
and over the (cell, user, rows, streams) arrays of the beams and combiners
(module `state` converts a BeamformingState to them), instead of looping
over per-link dictionaries.  Channel
arrays are grouped by (receiver kind, transmitter kind) with the receiver
indices first, the transmitter indices next and the matrix axes last.  The
layout needs the same downlink and the same uplink user count in every
cell, which is what build_realization and the single-direction
restrictions produce.

A realization stores its links once, as the arrays of a Channels.  A
ChannelStack shares those arrays and adds what the kernels derive from
them; it is built per call, so an in-place edit of a stored link reaches
the next call.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, fields

import numpy as np

# ---------------------------------------------------------------------------
# batched matrix helpers
# ---------------------------------------------------------------------------


def hermitian(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack."""
    return np.swapaxes(x, -1, -2).conj()


def columns(x: np.ndarray) -> np.ndarray:
    """(..., K, n, b) -> (..., n, K*b): the K matrices side by side."""
    *lead, count, rows, cols = x.shape
    return np.swapaxes(x, -3, -2).reshape(*lead, rows, count * cols)


def uncolumns(x: np.ndarray, cols: int) -> np.ndarray:
    """Inverse of columns: (..., n, K*b) -> (..., K, n, b) for b = cols."""
    *lead, rows, width = x.shape
    return np.swapaxes(x.reshape(*lead, rows, width // cols, cols), -3, -2)


def add_scaled_diag(matrix: np.ndarray, factor) -> np.ndarray:
    """matrix + factor * diag(matrix) for every matrix of a stack, in place on
    `matrix`, which is returned.  `factor` is a scalar or one value per matrix."""
    diagonal = np.einsum("...ii->...i", matrix)      # a writable view
    diagonal *= 1.0 + np.asarray(factor)[..., None]
    return matrix


def trace(x: np.ndarray) -> np.ndarray:
    """Real part of the trace of every matrix in a stack."""
    return np.einsum("...ii->...", x).real


def row_powers(x: np.ndarray) -> np.ndarray:
    """Diagonal of X X^H, i.e. the squared norm of every row of X."""
    return (x.real ** 2 + x.imag ** 2).sum(axis=-1)


def re_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(A^H B) for every matrix pair of a stack."""
    return (a.conj() * b).real.sum(axis=(-2, -1))


def frobenius_sq(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of every matrix in a stack."""
    return (x.real ** 2 + x.imag ** 2).sum(axis=(-2, -1))


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class TransmitSide:
    """The links leaving every transmitter of one kind, transmitter axes first.

    `to_dl` holds H^H for every downlink user, `to_bs` for every BS, the
    receivers flattened into one axis; `y` puts all of them side by side,
    the Y of the f1 form summed over every receiver in the network.
    """

    to_dl: np.ndarray    # (..., G K_d, N, M_ue)
    to_bs: np.ndarray    # (..., G, N, M_bs)
    y: np.ndarray        # (..., N, G K_d M_ue + G M_bs)

    @classmethod
    def of(cls, to_dl: np.ndarray, to_bs: np.ndarray) -> "TransmitSide":
        """From the channels (..., R, M, N) to each receiver group."""
        to_dl, to_bs = hermitian(to_dl), hermitian(to_bs)
        return cls(to_dl=to_dl, to_bs=to_bs,
                   y=np.concatenate([columns(to_dl), columns(to_bs)], axis=-1))


@dataclass(eq=False)
class Channels:
    """Every link of one realization, stored once.

    `dl_bs[g, k, j]` is the estimated channel from BS j to downlink user
    (g, k), `bs_ul[g, j, k]` the one from uplink user (j, k) to BS g.  Each
    `err_*` array holds the per-element estimation-error variances of its
    group, each `true_*` array the true matrices.  The SI link of BS g is
    known exactly and has one matrix, `bs_bs[g, g]`, both its estimate and
    its truth; the block `true_bs_bs[g, g]` is not used and stays zero.
    """

    dl_bs: np.ndarray        # (G, K_d, G, M_ue, N_bs)
    dl_ul: np.ndarray        # (G, K_d, G, K_u, M_ue, N_ue)
    bs_bs: np.ndarray        # (G, G, M_bs, N_bs)
    bs_ul: np.ndarray        # (G, G, K_u, M_bs, N_ue)
    err_dl_bs: np.ndarray    # (G, K_d, G)
    err_dl_ul: np.ndarray    # (G, K_d, G, K_u)
    err_bs_bs: np.ndarray    # (G, G)
    err_bs_ul: np.ndarray    # (G, G, K_u)
    true_dl_bs: np.ndarray   # the true matrices, laid out as the estimates
    true_dl_ul: np.ndarray
    true_bs_bs: np.ndarray
    true_bs_ul: np.ndarray


@dataclass(eq=False)
class ChannelStack(Channels):
    """The channels as the kernels read them: the stored arrays, shared and
    not copied, plus the layouts derived from them, among them `si`, the SI
    channels, and `si_gram`, H^H H + kappa_bs diag(H^H H) of each."""

    kappa_bs: InitVar[float]     # BS transmit distortion factor, for the SI Gram

    def __post_init__(self, kappa_bs: float):
        cells, k_d = self.dl_bs.shape[:2]
        k_u = self.bs_ul.shape[2]
        diag = np.arange(cells)
        # layouts derived once per stack: SI channels, serving links, and the
        # links seen from each transmitter
        self.si = self.bs_bs[diag, diag]            # (G, M_bs, N_bs)
        self.si_gram = add_scaled_diag(hermitian(self.si) @ self.si, kappa_bs)
        self.dl_own = self.dl_bs[diag, :, diag]     # (G, K_d, M_ue, N_bs)
        self.ul_own = self.bs_ul[diag, diag]        # (G, K_u, M_bs, N_ue)
        self.dl_own_h = hermitian(self.dl_own)
        self.ul_own_h = hermitian(self.ul_own)
        self.bs_side = TransmitSide.of(
            np.moveaxis(self.dl_bs, 2, 0).reshape(cells, cells * k_d, *self.dl_bs.shape[-2:]),
            np.moveaxis(self.bs_bs, 1, 0))
        self.ul_side = TransmitSide.of(
            np.moveaxis(self.dl_ul, (2, 3), (0, 1)).reshape(cells, k_u, cells * k_d,
                                                             *self.dl_ul.shape[-2:]),
            np.moveaxis(self.bs_ul, (1, 2), (0, 1)))


def stack_channels(realization) -> ChannelStack:
    """The ChannelStack of a realization (module `model`) and its hardware."""
    stored = realization.channels
    return ChannelStack(**{f.name: getattr(stored, f.name) for f in fields(Channels)},
                        kappa_bs=realization.hardware.kappa_bs)
