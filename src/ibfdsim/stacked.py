"""The stacked layout: every channel as one dense matrix, the beams and
combiners as dense arrays, and batched matrix helpers.

The solver kernels (covariance, objective, jpaim) treat all cells, users
and links at once with batched `@`, `solve` and `eigh` over the channels
and over the (cell, user, rows, streams) arrays of the beams and combiners
that a BeamformingState holds, instead of looping over per-link
dictionaries.  The layout needs the same downlink and the same uplink user
count in every cell, which is what build_realization and the
single-direction restrictions produce.

A realization stores its links once, as the matrix X of a Channels: every
transmitter's channel into every receiver side by side, receive antennas
as rows and transmit antennas as columns, with the true matrices and the
error variances in the same order.  Its size fields (cells, users per
cell, antennas per node) are the realization's one record of its sizes.
A ChannelStack shares X and adds what the kernels derive from it: views
of X per receiver and per transmitter, and one copy of its conjugate
transpose X^H with the matching views, from which both the receive
covariances and the transmit-side Gram matrices are formed: every such
product multiplies a block of X by a block of X^H, so X^H is conjugated
once per stack rather than once per kernel call.  A ChannelStack reads
the stored channels alone, no hardware, and is built per call of the
solver, so an in-place edit of a stored link reaches the next call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

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


def add_scaled_diag(matrix: np.ndarray, factor: float) -> np.ndarray:
    """matrix + factor * diag(matrix) for every matrix of a C-contiguous
    stack, in place on `matrix`, which is returned."""
    scaled = diagonal(matrix)
    scaled *= 1.0 + factor
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
# beams and combiners
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class BeamformingState:
    """Transmitted beams and combiners of every user.

    Each field is one dense array with axes (cell, user, rows, streams),
    matching the ChannelStack below; `dl_beams[g][k]` is a view that can
    be read or written in place.  The transmitted signal of downlink user
    (g, k) is dl_beams[g, k] @ symbols, and likewise ul_beams[g, k] for
    uplink users, so a beam carries its power: it is the paper's precoder
    times its scalar amplitude.
    """

    dl_beams: np.ndarray          # (G, K_d, N_bs, b_d) complex
    dl_combiners: np.ndarray      # (G, K_d, M_ue, b_d) complex
    ul_beams: np.ndarray          # (G, K_u, N_ue, b_u) complex
    ul_combiners: np.ndarray      # (G, K_u, M_bs, b_u) complex

    def copy(self) -> "BeamformingState":
        """A state of C-contiguous arrays that share no memory with this one."""
        return BeamformingState(*(getattr(self, f.name).copy() for f in fields(self)))

    def dl_cell_powers(self) -> np.ndarray:
        """(G,) transmit power of each BS before distortion, sum_k ||W||_F^2."""
        return frobenius_sq(self.dl_beams).sum(axis=-1)

    def ul_powers(self) -> np.ndarray:
        """(G, K_u) transmit power of each uplink user before distortion."""
        return frobenius_sq(self.ul_beams)

    def dl_cell_power(self, g: int) -> float:
        """Transmit power of BS g before distortion."""
        return float(self.dl_cell_powers()[g])

    def ul_power(self, g: int, k: int) -> float:
        """Transmit power of uplink user (g, k) before distortion."""
        return float(self.ul_powers()[g, k])


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class LinkView:
    """One receiver <- transmitter link as views into a realization's channels."""

    true: np.ndarray
    est: np.ndarray
    err_var: np.ndarray      # 0-d, the per-element estimation-error variance


@dataclass(eq=False)
class Channels:
    """Every link of one realization, stored once.

    `x` holds every transmitter's estimated channel into every receiver,
    rows over the antennas of every downlink user, then of every BS, and
    columns over those of every BS, then of every uplink user.  `x_true`
    holds the true matrices and `err` each link's per-element error variance
    (one row per receiver, one column per transmitter) in the same order.
    The SI link of BS g is known exactly: its block of `x` is its estimate
    and its truth, and its block of `x_true` stays zero.
    """

    x: np.ndarray          # (G K_d M_ue + G M_bs, G N_bs + G K_u N_ue)
    x_true: np.ndarray     # the true matrices, laid out as x
    err: np.ndarray        # (G K_d + G, G + G K_u)
    cells: int             # G
    k_d: int               # downlink users per cell
    m_ue: int              # receive antennas per downlink user
    m_bs: int              # receive antennas per BS
    n_bs: int              # transmit antennas per BS
    k_u: int               # uplink users per cell
    n_ue: int              # transmit antennas per uplink user

    @staticmethod
    def shapes(cells, k_d, m_ue, m_bs, n_bs, k_u, n_ue) -> tuple[tuple, tuple]:
        """The shape of `x` (and of `x_true`) and that of `err` for the given sizes."""
        return ((cells * (k_d * m_ue + m_bs), cells * (n_bs + k_u * n_ue)),
                (cells * (k_d + 1), cells * (1 + k_u)))

    @classmethod
    def zeros(cls, *sizes) -> "Channels":
        """All-zero channels for the sizes that `shapes` takes."""
        shape, err_shape = cls.shapes(*sizes)
        return cls(np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex),
                   np.zeros(err_shape), *sizes)

    def link(self, rx: tuple, tx: tuple) -> LinkView:
        """Views of the blocks of the link rx <- tx, with nodes ("bs", g),
        ("dl", g, k) and ("ul", g, k) as in module model; raises IndexError
        for a node outside the topology.  The SI link's truth is its estimate."""
        r, rows = _locate(rx, (("dl", self.k_d, self.m_ue), ("bs", 1, self.m_bs)), self.cells)
        t, cols = _locate(tx, (("bs", 1, self.n_bs), ("ul", self.k_u, self.n_ue)), self.cells)
        est = self.x[rows, cols]
        return LinkView(true=est if rx == tx else self.x_true[rows, cols], est=est,
                        err_var=self.err[r, t, ...])


def _locate(node: tuple, side, cells: int) -> tuple[int, slice]:
    """Entry and antenna slice of `node` on one side of X, whose node kinds
    `side` lists in order as (kind, nodes per cell, antennas per node)."""
    entry = first = 0
    for kind, per_cell, antennas in side:
        if node[0] == kind:
            g, k = (*node[1:], 0) if kind == "bs" else node[1:]
            if not (0 <= g < cells and 0 <= k < per_cell):
                break
            at = g * per_cell + k
            return entry + at, slice(first + at * antennas, first + (at + 1) * antennas)
        entry, first = entry + cells * per_cell, first + cells * per_cell * antennas
    raise IndexError(f"no {'/'.join(s[0] for s in side)} node {node} in this topology")


@dataclass(eq=False)
class ChannelStack(Channels):
    """The channels as the kernels read them: the stored arrays, shared and
    not copied, plus what the kernels derive from them.

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

    `si` is the SI channel H of each BS, which the precoder step and the
    null-space projection baseline read too, `si_colpow` the squared norm of
    each column of H, and `dl_own_h` and `ul_own_h` are H^H of each serving
    link.  `cell_index` and `dl_user_index` are the gather indices of the
    blocks a cell sends its own receivers, built once here rather than on
    every covariance assembly.
    """

    dl: np.ndarray = field(init=False)         # (G, K_d, M_ue, columns of x)
    bs: np.ndarray = field(init=False)         # (G, M_bs, columns of x)
    from_bs: np.ndarray = field(init=False)    # (G, rows of x, N_bs)
    from_ul: np.ndarray = field(init=False)    # (G K_u, rows of x, N_ue)
    xh: np.ndarray = field(init=False)         # (columns of x, rows of x), conj(x).T
    dl_h: np.ndarray = field(init=False)       # (G, K_d, columns of x, M_ue)
    bs_h: np.ndarray = field(init=False)       # (G, columns of x, M_bs)
    from_bs_h: np.ndarray = field(init=False)  # (G, N_bs, rows of x)
    from_ul_h: np.ndarray = field(init=False)  # (G K_u, N_ue, rows of x)
    cell_index: np.ndarray = field(init=False)     # (G,) every cell
    dl_user_index: tuple = field(init=False)       # (G, 1) cells, (K_d,) users: each downlink user

    def __post_init__(self):
        x, cells, k_d, k_u = self.x, self.cells, self.k_d, self.k_u
        self.cell_index = diag = np.arange(cells)
        self.dl_user_index = (diag[:, None], np.arange(k_d))
        dl_rows, bs_cols = cells * k_d * self.m_ue, cells * self.n_bs
        rows, cols = x.shape
        self.xh = xh = x.conj().T
        self.dl = x[:dl_rows].reshape(cells, k_d, self.m_ue, cols)
        self.bs = x[dl_rows:].reshape(cells, self.m_bs, cols)
        self.from_bs = np.swapaxes(x[:, :bs_cols].reshape(rows, cells, self.n_bs), 0, 1)
        self.from_ul = np.swapaxes(x[:, bs_cols:].reshape(rows, cells * k_u, self.n_ue), 0, 1)
        self.dl_h = xh[:, :dl_rows].reshape(cols, cells, k_d, self.m_ue).transpose(1, 2, 0, 3)
        self.bs_h = xh[:, dl_rows:].reshape(cols, cells, self.m_bs).swapaxes(0, 1)
        self.from_bs_h = xh[:bs_cols].reshape(cells, self.n_bs, rows)
        self.from_ul_h = xh[bs_cols:].reshape(cells * k_u, self.n_ue, rows)
        # each BS's SI link and each user's serving link, copied out of X into
        # C-contiguous (cell, [user,] receive antennas, transmit antennas) arrays
        self.si = self.bs[..., :bs_cols].reshape(cells, self.m_bs, cells, self.n_bs)[diag, :, diag]
        dl_own = self.dl[..., :bs_cols].reshape(
            cells, k_d, self.m_ue, cells, self.n_bs)[diag, :, :, diag]
        ul_own = self.bs[..., bs_cols:].reshape(
            cells, self.m_bs, cells, k_u, self.n_ue)[diag, :, diag].swapaxes(1, 2)
        self.si_colpow = row_powers(np.swapaxes(self.si, -1, -2))    # (G, N_bs)
        self.dl_own_h = hermitian(dl_own)                        # (G, K_d, N_bs, M_ue)
        self.ul_own_h = hermitian(np.ascontiguousarray(ul_own))  # (G, K_u, N_ue, M_bs)


def stack_channels(realization) -> ChannelStack:
    """The ChannelStack of a realization's channels (module `model`)."""
    return ChannelStack(**vars(realization.channels))
