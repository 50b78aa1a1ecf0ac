"""The stacked layout: every channel as a dense array, and batched matrix helpers.

The solver kernels (covariance, objective, jpaim) treat all cells, users
and links at once with batched `@`, `solve` and `eigh` over these arrays
and over the (cell, user, rows, streams) arrays of the beams and combiners
(the fields of a BeamformingState, module `state`), instead of looping
over per-link dictionaries.  Channel
arrays are grouped by (receiver kind, transmitter kind) with the receiver
indices first, the transmitter indices next and the matrix axes last.  The
layout needs the same downlink and the same uplink user count in every
cell, which is what build_realization and the single-direction
restrictions produce.

A realization stores its links once, as the arrays of a Channels.  A
ChannelStack shares those arrays and adds what the kernels derive from
them, chiefly one matrix X of every link side by side and one copy of its
conjugate transpose X^H (ReceiveSide), from which both the receive
covariances and the transmit-side Gram matrices are formed: every such
product multiplies a block of X by a block of X^H, so X^H is conjugated
once per stack rather than once per kernel call.  A ChannelStack is built
per call of the solver, so an in-place edit of a stored link reaches the
next call.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, fields

import numpy as np

# ---------------------------------------------------------------------------
# batched matrix helpers
# ---------------------------------------------------------------------------


def hermitian(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack."""
    return x.swapaxes(-1, -2).conj()


def columns(x: np.ndarray) -> np.ndarray:
    """(..., K, n, b) -> (..., n, K*b): the K matrices side by side."""
    *lead, count, rows, cols = x.shape
    return x.swapaxes(-3, -2).reshape(*lead, rows, count * cols)


def uncolumns(x: np.ndarray, cols: int) -> np.ndarray:
    """Inverse of columns: (..., n, K*b) -> (..., K, n, b) for b = cols."""
    *lead, rows, width = x.shape
    return x.reshape(*lead, rows, width // cols, cols).swapaxes(-3, -2)


def diagonal(matrix: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of every matrix of a C-contiguous stack,
    such as a fresh result of `@`."""
    if not matrix.flags.c_contiguous:
        raise ValueError("diagonal needs a C-contiguous stack of matrices")
    *lead, n, _ = matrix.shape
    return matrix.reshape(*lead, n * n)[..., ::n + 1]


def add_scaled_diag(matrix: np.ndarray, factor) -> np.ndarray:
    """matrix + factor * diag(matrix) for every matrix of a C-contiguous
    stack, in place on `matrix`, which is returned.  `factor` is a scalar or
    one value per matrix."""
    scaled = diagonal(matrix)
    scaled *= 1.0 + np.asarray(factor)[..., None]
    return matrix


def row_powers(x: np.ndarray) -> np.ndarray:
    """Diagonal of X X^H, i.e. the squared norm of every row of X."""
    return np.add.reduce(x.real ** 2 + x.imag ** 2, axis=-1)


def re_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(A^H B) for every matrix pair of a stack."""
    return np.add.reduce((a.conj() * b).real, axis=(-2, -1))


def frobenius_sq(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of every matrix in a stack."""
    return np.add.reduce(x.real ** 2 + x.imag ** 2, axis=(-2, -1))


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ReceiveSide:
    """The links into every receiver of the network, receive antennas as rows.

    `x` holds every transmitter's channel into every receiver side by side:
    its rows run over the antennas of every downlink user, then of every
    BS, its columns over the antennas of every BS, then of every uplink
    user.  x times the block diagonal of the transmitters' beams gives the
    received beams.  `err` holds the links' per-element error variances in
    the same order, one row per receiver and one column per transmitter.
    `dl`, `bs`, `from_bs` and `from_ul` are views of `x`: its rows per
    receiver kind, and its columns per transmitter, transmitters first.

    `xh` holds X^H once, and the `*_h` fields are its views, each the
    conjugate transpose of the view of `x` it is named after.  Every
    covariance and transmit-side Gram matrix multiplies by such a block, so
    the kernels read it instead of conjugating X again on every call.  `xh`
    is the transpose of a C-contiguous conj(X), so each block keeps the
    memory layout that a conjugated copy of the block of `x` has: numpy then
    makes the same BLAS calls on it, and every product rounds as it would
    on that copy.  (A C-contiguous X^H rounds the covariance of a receiver
    with one antenna differently in the last bits.)
    """

    x: np.ndarray          # (G K_d M_ue + G M_bs, G N_bs + G K_u N_ue)
    err: np.ndarray        # (G K_d + G, G + G K_u)
    dl: np.ndarray         # (G, K_d, M_ue, columns of x)
    bs: np.ndarray         # (G, M_bs, columns of x)
    from_bs: np.ndarray    # (G, rows of x, N_bs)
    from_ul: np.ndarray    # (G K_u, rows of x, N_ue)
    xh: np.ndarray         # (columns of x, rows of x), the transpose of conj(x)
    dl_h: np.ndarray       # (G, K_d, columns of x, M_ue)
    bs_h: np.ndarray       # (G, columns of x, M_bs)
    from_bs_h: np.ndarray  # (G, N_bs, rows of x)
    from_ul_h: np.ndarray  # (G K_u, N_ue, rows of x)

    @classmethod
    def of(cls, ch: "Channels") -> "ReceiveSide":
        cells, k_d, _, m_ue, n_bs = ch.dl_bs.shape
        k_u, m_bs, n_ue = ch.bs_ul.shape[2:]
        dl_rows, bs_cols = cells * k_d * m_ue, cells * n_bs
        x = np.empty((dl_rows + cells * m_bs, bs_cols + cells * k_u * n_ue), dtype=complex)
        # each link group (receiver..., transmitter..., M, N) into rows
        # (receiver..., M) and columns (transmitter..., N), views of x
        dl, bs = x[:dl_rows], x[dl_rows:]
        dl[:, :bs_cols].reshape(cells, k_d, m_ue, cells, n_bs)[...] = \
            ch.dl_bs.transpose(0, 1, 3, 2, 4)
        dl[:, bs_cols:].reshape(cells, k_d, m_ue, cells, k_u, n_ue)[...] = \
            ch.dl_ul.transpose(0, 1, 4, 2, 3, 5)
        bs[:, :bs_cols].reshape(cells, m_bs, cells, n_bs)[...] = ch.bs_bs.transpose(0, 2, 1, 3)
        bs[:, bs_cols:].reshape(cells, m_bs, cells, k_u, n_ue)[...] = \
            ch.bs_ul.transpose(0, 3, 1, 2, 4)
        # the error variances in the same order, one entry per link
        err = np.empty((cells * k_d + cells, cells + cells * k_u))
        err[:cells * k_d, :cells] = ch.err_dl_bs.reshape(cells * k_d, cells)
        err[:cells * k_d, cells:] = ch.err_dl_ul.reshape(cells * k_d, cells * k_u)
        err[cells * k_d:, :cells] = ch.err_bs_bs
        err[cells * k_d:, cells:] = ch.err_bs_ul.reshape(cells, cells * k_u)
        rows, cols = x.shape
        xh = x.conj().T
        return cls(x=x, err=err,
                   dl=dl.reshape(cells, k_d, m_ue, cols), bs=bs.reshape(cells, m_bs, cols),
                   from_bs=np.swapaxes(x[:, :bs_cols].reshape(rows, cells, n_bs), 0, 1),
                   from_ul=np.swapaxes(x[:, bs_cols:].reshape(rows, cells * k_u, n_ue), 0, 1),
                   xh=xh,
                   dl_h=xh[:, :dl_rows].reshape(cols, cells, k_d, m_ue).transpose(1, 2, 0, 3),
                   bs_h=xh[:, dl_rows:].reshape(cols, cells, m_bs).swapaxes(0, 1),
                   from_bs_h=xh[:bs_cols].reshape(cells, n_bs, rows),
                   from_ul_h=xh[bs_cols:].reshape(cells * k_u, n_ue, rows))


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
    not copied, plus the layouts derived from them: `rx`, every link side by
    side (ReceiveSide); `si_colpow`, the squared norm of each column of each
    SI channel; `si_gram`, H^H H + kappa_bs diag(H^H H) of each SI channel
    H; and H^H of each serving link."""

    kappa_bs: InitVar[float]     # BS transmit distortion factor, for the SI Gram

    def __post_init__(self, kappa_bs: float):
        diag = np.arange(self.dl_bs.shape[0])
        si = self.bs_bs[diag, diag]                              # (G, M_bs, N_bs)
        self.si_colpow = row_powers(np.swapaxes(si, -1, -2))     # (G, N_bs)
        self.si_gram = add_scaled_diag(hermitian(si) @ si, kappa_bs)
        self.dl_own_h = hermitian(self.dl_bs[diag, :, diag])    # (G, K_d, N_bs, M_ue)
        self.ul_own_h = hermitian(self.bs_ul[diag, diag])       # (G, K_u, N_ue, M_bs)
        self.rx = ReceiveSide.of(self)


def stack_channels(realization) -> ChannelStack:
    """The ChannelStack of a realization (module `model`) and its hardware."""
    stored = realization.channels
    return ChannelStack(**{f.name: getattr(stored, f.name) for f in fields(Channels)},
                        kappa_bs=realization.hardware.kappa_bs)
