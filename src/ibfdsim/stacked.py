"""The stacked layout: every channel and every state matrix as a dense array.

The solver kernels (covariance, objective, jpaim) treat all cells, users
and links at once with batched `@`, `solve` and `eigh` over these arrays
instead of looping over per-link dictionaries.  Arrays are grouped by
(receiver kind, transmitter kind) with the receiver indices first, the
transmitter indices next and the matrix axes last.  The layout needs the
same downlink and the same uplink user count in every cell, which is what
build_realization and the single-direction restrictions produce.

A ChannelStack copies the link matrices of one realization.  It is built
per call and never cached on the realization, whose links callers may edit
in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Realization, bs_node, dl_node, ul_node
from .state import BeamformingState

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
class ChannelStack:
    """Dense channel arrays of one realization.

    `dl_bs[g, k, j]` is the estimated channel from BS j to downlink user
    (g, k), `bs_ul[g, j, k]` the one from uplink user (j, k) to BS g.  Each
    `err_*` array holds the per-element estimation-error variances of its
    stack.  The SI link keeps its true matrix as its estimate, so the
    diagonal of `bs_bs` is the SI channel; `si` holds the true SI matrices.
    """

    dl_bs: np.ndarray        # (G, K_d, G, M_ue, N_bs)
    dl_ul: np.ndarray        # (G, K_d, G, K_u, M_ue, N_ue)
    bs_bs: np.ndarray        # (G, G, M_bs, N_bs)
    bs_ul: np.ndarray        # (G, G, K_u, M_bs, N_ue)
    err_dl_bs: np.ndarray    # (G, K_d, G)
    err_dl_ul: np.ndarray    # (G, K_d, G, K_u)
    err_bs_bs: np.ndarray    # (G, G)
    err_bs_ul: np.ndarray    # (G, G, K_u)
    si: np.ndarray           # (G, M_bs, N_bs) true SI channels
    si_gram: np.ndarray      # (G, N_bs, N_bs) H^H H + kappa_bs diag(H^H H) of each SI channel

    def __post_init__(self):
        # layouts derived once per stack: serving links, and the links seen
        # from each transmitter
        cells, k_d = self.dl_bs.shape[:2]
        k_u = self.bs_ul.shape[2]
        diag = np.arange(cells)
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


def stack_channels(realization: Realization) -> ChannelStack:
    """Copy every link of a realization into the stacked layout."""
    topo, ant = realization.topology, realization.antennas
    if len(set(topo.dl_counts)) > 1 or len(set(topo.ul_counts)) > 1:
        raise ValueError("the stacked channel layout needs equal user counts in every cell")
    cells = topo.cell_count
    k_d, k_u = topo.dl_counts[0], topo.ul_counts[0]
    links = realization.channels.links
    dl = [dl_node(g, k) for g in range(cells) for k in range(k_d)]
    bs = [bs_node(g) for g in range(cells)]
    ul = [ul_node(g, k) for g in range(cells) for k in range(k_u)]

    def block(receivers, transmitters, rows, cols):
        est = np.zeros((len(receivers), len(transmitters), rows, cols), dtype=complex)
        err = np.zeros((len(receivers), len(transmitters)))
        for i, rx in enumerate(receivers):
            for j, tx in enumerate(transmitters):
                link = links[(rx, tx)]
                est[i, j] = link.est
                err[i, j] = link.err_var
        return est, err

    dl_bs, err_dl_bs = block(dl, bs, ant.ue_rx, ant.bs_tx)
    dl_ul, err_dl_ul = block(dl, ul, ant.ue_rx, ant.ue_tx)
    bs_bs, err_bs_bs = block(bs, bs, ant.bs_rx, ant.bs_tx)
    bs_ul, err_bs_ul = block(bs, ul, ant.bs_rx, ant.ue_tx)
    si = np.zeros((cells, ant.bs_rx, ant.bs_tx), dtype=complex)
    for g in range(cells):
        si[g] = links[(bs_node(g), bs_node(g))].true
    return ChannelStack(
        dl_bs=dl_bs.reshape(cells, k_d, cells, ant.ue_rx, ant.bs_tx),
        dl_ul=dl_ul.reshape(cells, k_d, cells, k_u, ant.ue_rx, ant.ue_tx),
        bs_bs=bs_bs,
        bs_ul=bs_ul.reshape(cells, cells, k_u, ant.bs_rx, ant.ue_tx),
        err_dl_bs=err_dl_bs.reshape(cells, k_d, cells),
        err_dl_ul=err_dl_ul.reshape(cells, k_d, cells, k_u),
        err_bs_bs=err_bs_bs,
        err_bs_ul=err_bs_ul.reshape(cells, cells, k_u),
        si=si,
        si_gram=add_scaled_diag(hermitian(si) @ si, realization.hardware.kappa_bs),
    )


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class StackedState:
    """A BeamformingState as dense arrays.

    Axes are (cell, user, rows, streams) for the matrices and (cell, user)
    for the coefficients, matching ChannelStack.
    """

    dl_precoders: np.ndarray      # (G, K_d, N_bs, b_d)
    dl_combiners: np.ndarray      # (G, K_d, M_ue, b_d)
    dl_coefficients: np.ndarray   # (G, K_d)
    ul_precoders: np.ndarray      # (G, K_u, N_ue, b_u)
    ul_combiners: np.ndarray      # (G, K_u, M_bs, b_u)
    ul_coefficients: np.ndarray   # (G, K_u)

    @classmethod
    def from_state(cls, realization: Realization, state: BeamformingState) -> "StackedState":
        ant, topo = realization.antennas, realization.topology
        cells, k_d, k_u = topo.cell_count, topo.dl_counts[0], topo.ul_counts[0]

        def stack(cell_lists, rows, cols, count):
            out = np.zeros((cells, count, rows, cols), dtype=complex)
            for g, cell in enumerate(cell_lists):
                for k, m in enumerate(cell):
                    out[g, k] = m
            return out

        def coefficients(cell_arrays, count):
            out = np.zeros((cells, count))
            for g, a in enumerate(cell_arrays):
                out[g] = a
            return out

        return cls(
            dl_precoders=stack(state.dl_precoders, ant.bs_tx, ant.dl_streams, k_d),
            dl_combiners=stack(state.dl_combiners, ant.ue_rx, ant.dl_streams, k_d),
            dl_coefficients=coefficients(state.dl_coefficients, k_d),
            ul_precoders=stack(state.ul_precoders, ant.ue_tx, ant.ul_streams, k_u),
            ul_combiners=stack(state.ul_combiners, ant.bs_rx, ant.ul_streams, k_u),
            ul_coefficients=coefficients(state.ul_coefficients, k_u),
        )

    def to_state(self) -> BeamformingState:
        """Per-user lists holding copies of the arrays' slices."""
        def cells(a):
            return [list(cell) for cell in a.copy()]

        return BeamformingState(
            dl_precoders=cells(self.dl_precoders),
            dl_combiners=cells(self.dl_combiners),
            dl_coefficients=list(self.dl_coefficients.copy()),
            ul_precoders=cells(self.ul_precoders),
            ul_combiners=cells(self.ul_combiners),
            ul_coefficients=list(self.ul_coefficients.copy()),
        )

    def dl_cell_powers(self) -> np.ndarray:
        """(G,) transmit power of each BS before distortion."""
        return (self.dl_coefficients ** 2 * frobenius_sq(self.dl_precoders)).sum(axis=-1)

    def ul_powers(self) -> np.ndarray:
        """(G, K_u) transmit power of each uplink user before distortion."""
        return self.ul_coefficients ** 2 * frobenius_sq(self.ul_precoders)
