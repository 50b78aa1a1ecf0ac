"""The stacked layout: every channel as one dense matrix, the beams and
combiners as dense arrays, and batched matrix helpers.

The solver kernels (covariance, objective, jpaim) treat all cells, users
and links at once with batched `@`, `solve` and `eigh` over the channels
and over the (cell, user, rows, streams) arrays of the beams and combiners
that a BeamformingState holds, instead of looping over per-link
dictionaries.  The layout needs the same downlink and the same uplink user
count in every cell, which is what build_realization and the
single-direction restrictions produce.

A realization stores its links once, as the matrix X of a Channels, which
also holds what the kernels derive from X when it is built.  The package
reads and writes X only as whole arrays and blocks: model.build_realization
draws it one block per pair of receiver and transmitter kinds, and no code
addresses a single link.
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
    matching the Channels below; `dl_beams[g][k]` is a view that can
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
class Channels:
    """Every link of one realization, stored once, and what the kernels
    derive from it.

    `x` holds every transmitter's estimated channel into every receiver,
    rows over the antennas of every downlink user, then of every BS, and
    columns over those of every BS, then of every uplink user.  `x_true`
    holds the true matrices and `err` each link's per-element error variance
    (one row per receiver, one column per transmitter) in the same order.
    The SI link of BS g is known exactly: its block of `x` is its estimate
    and its truth, and its block of `x_true` stays zero.

    The other fields are derived from `x` alone, all at once on
    construction: views of `x` per receiver kind and per transmitter,
    transmitters first (`dl`, `bs`, `from_bs`, `from_ul`), the matching
    views of X^H (`*_h`), each BS's SI channel H (`si`) with its column
    powers, H^H of every serving link, and the gather indices of the blocks
    a cell sends its own receivers.  Every covariance and transmit-side
    Gram matrix multiplies a block of X by a block of X^H, so the kernels
    read the `*_h` views instead of conjugating X on every call.  X^H is
    kept only through those four views, which share one buffer: the
    transpose of a C-contiguous conj(X), so each block keeps the memory
    layout that a conjugated copy of the block of `x` has: numpy then makes
    the same BLAS calls on it, and every product rounds as it would on that
    copy.  (A C-contiguous X^H rounds the covariance of a receiver with one
    antenna differently in the last bits.)

    A Channels never changes: its stored and derived arrays are read-only,
    so the derived fields always match `x`.  To change a link, edit copies
    of the stored arrays and `dataclasses.replace` them in.
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
    dl: np.ndarray = field(init=False, repr=False)         # (G, K_d, M_ue, columns of x)
    bs: np.ndarray = field(init=False, repr=False)         # (G, M_bs, columns of x)
    from_bs: np.ndarray = field(init=False, repr=False)    # (G, rows of x, N_bs)
    from_ul: np.ndarray = field(init=False, repr=False)    # (G K_u, rows of x, N_ue)
    dl_h: np.ndarray = field(init=False, repr=False)       # (G, K_d, columns of x, M_ue)
    bs_h: np.ndarray = field(init=False, repr=False)       # (G, columns of x, M_bs)
    from_bs_h: np.ndarray = field(init=False, repr=False)  # (G, N_bs, rows of x)
    from_ul_h: np.ndarray = field(init=False, repr=False)  # (G K_u, N_ue, rows of x)
    si: np.ndarray = field(init=False, repr=False)         # (G, M_bs, N_bs)
    si_colpow: np.ndarray = field(init=False, repr=False)  # (G, N_bs)
    dl_own_h: np.ndarray = field(init=False, repr=False)   # (G, K_d, N_bs, M_ue)
    ul_own_h: np.ndarray = field(init=False, repr=False)   # (G, K_u, N_ue, M_bs)
    cell_index: np.ndarray = field(init=False, repr=False) # (G,) every cell
    dl_user_index: tuple = field(init=False, repr=False)   # (G, 1) cells, (K_d,) users

    def __post_init__(self):
        x, cells, k_d, k_u = self.x, self.cells, self.k_d, self.k_u
        m_ue, m_bs, n_bs, n_ue = self.m_ue, self.m_bs, self.n_bs, self.n_ue
        diag = np.arange(cells)
        dl_rows, bs_cols = cells * k_d * m_ue, cells * n_bs
        rows, cols = x.shape
        xh = x.conj().T
        dl = x[:dl_rows].reshape(cells, k_d, m_ue, cols)
        bs = x[dl_rows:].reshape(cells, m_bs, cols)
        # each BS's SI link and each user's serving link, copied out of X into
        # C-contiguous (cell, [user,] receive antennas, transmit antennas) arrays
        si = bs[..., :bs_cols].reshape(cells, m_bs, cells, n_bs)[diag, :, diag]
        dl_own = dl[..., :bs_cols].reshape(cells, k_d, m_ue, cells, n_bs)[diag, :, :, diag]
        ul_own = bs[..., bs_cols:].reshape(cells, m_bs, cells, k_u, n_ue)[diag, :, diag]
        derived = dict(
            dl=dl, bs=bs,
            from_bs=np.swapaxes(x[:, :bs_cols].reshape(rows, cells, n_bs), 0, 1),
            from_ul=np.swapaxes(x[:, bs_cols:].reshape(rows, cells * k_u, n_ue), 0, 1),
            dl_h=xh[:, :dl_rows].reshape(cols, cells, k_d, m_ue).transpose(1, 2, 0, 3),
            bs_h=xh[:, dl_rows:].reshape(cols, cells, m_bs).swapaxes(0, 1),
            from_bs_h=xh[:bs_cols].reshape(cells, n_bs, rows),
            from_ul_h=xh[bs_cols:].reshape(cells * k_u, n_ue, rows),
            si=si, si_colpow=row_powers(np.swapaxes(si, -1, -2)),
            dl_own_h=hermitian(dl_own),
            ul_own_h=hermitian(np.ascontiguousarray(ul_own.swapaxes(1, 2))),
            cell_index=diag, dl_user_index=(diag[:, None], np.arange(k_d)))
        vars(self).update(derived)
        for a in (x, self.x_true, self.err, *derived.values(), *self.dl_user_index):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    @staticmethod
    def shapes(cells, k_d, m_ue, m_bs, n_bs, k_u, n_ue) -> tuple[tuple, tuple]:
        """The shape of `x` (and of `x_true`) and that of `err` for the given sizes."""
        return ((cells * (k_d * m_ue + m_bs), cells * (n_bs + k_u * n_ue)),
                (cells * (k_d + 1), cells * (1 + k_u)))
