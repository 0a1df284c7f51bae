"""Tiled matrix container.

The paper works on a square matrix ``A`` of order ``N = n * nb`` viewed as an
``n``-by-``n`` matrix of ``nb``-by-``nb`` tiles.  :class:`TileMatrix` wraps a
contiguous numpy array and exposes tile views (no copies), panel views, and
tile-wise norms.  An extra, narrower tile column can be attached to hold the
right-hand side ``b`` so that all transformations of the factorization are
applied to the augmented matrix ``[A | b]`` exactly as in Section II-D1 of
the paper.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = ["TileMatrix"]


class TileMatrix:
    """A square matrix stored as an ``n``-by-``n`` grid of ``nb``-by-``nb`` tiles.

    Parameters
    ----------
    data:
        A 2-D array of shape ``(n*nb, n*nb)``.  A C-contiguous float64
        array is used in place (aliased); any other input (another dtype,
        a Fortran-ordered or strided array) is converted to a C-contiguous
        float64 copy.
    tile_size:
        The tile order ``nb``.
    rhs:
        Optional right-hand side of shape ``(n*nb,)`` or ``(n*nb, nrhs)``;
        it is carried along as an extra (narrow) tile column so the hybrid
        factorization can transform ``[A | b]`` in one pass; aliased or
        converted like ``data``.
    copy:
        Always copy ``data`` (and ``rhs``), never alias them.
    """

    def __init__(
        self,
        data: np.ndarray,
        tile_size: int,
        rhs: Optional[np.ndarray] = None,
        copy: bool = False,
    ) -> None:
        data = np.array(data, dtype=np.float64) if copy else np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError(f"TileMatrix requires a square 2-D array, got shape {data.shape}")
        if tile_size < 1:
            raise ValueError(f"tile_size must be positive, got {tile_size}")
        if data.shape[0] % tile_size != 0:
            raise ValueError(
                f"matrix order {data.shape[0]} is not a multiple of tile_size {tile_size}"
            )
        self._data = np.ascontiguousarray(data)
        self._nb = int(tile_size)
        self._n = data.shape[0] // tile_size

        self._rhs: Optional[np.ndarray] = None
        if rhs is not None:
            rhs = np.array(rhs, dtype=np.float64) if copy else np.asarray(rhs, dtype=np.float64)
            if rhs.ndim == 1:
                rhs = rhs.reshape(-1, 1)
            if rhs.shape[0] != data.shape[0]:
                raise ValueError(
                    f"rhs has {rhs.shape[0]} rows, expected {data.shape[0]}"
                )
            self._rhs = np.ascontiguousarray(rhs)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of tile rows (= tile columns)."""
        return self._n

    @property
    def nb(self) -> int:
        """Tile order ``nb``."""
        return self._nb

    @property
    def order(self) -> int:
        """Matrix order ``N = n * nb``."""
        return self._n * self._nb

    @property
    def array(self) -> np.ndarray:
        """The underlying ``(N, N)`` array (a view, not a copy)."""
        return self._data

    @property
    def dtype(self) -> np.dtype:
        """Element dtype of the tile storage."""
        return self._data.dtype

    @property
    def rhs(self) -> Optional[np.ndarray]:
        """The attached right-hand side block (``(N, nrhs)``), if any."""
        return self._rhs

    @property
    def has_rhs(self) -> bool:
        return self._rhs is not None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dense(
        cls,
        a: np.ndarray,
        tile_size: int,
        rhs: Optional[np.ndarray] = None,
    ) -> "TileMatrix":
        """Create a tile matrix by *copying* a dense array."""
        return cls(a, tile_size, rhs=rhs, copy=True)

    def copy(self) -> "TileMatrix":
        """Deep copy of the tile matrix (and its RHS)."""
        return TileMatrix(self._data, self._nb, rhs=self._rhs, copy=True)

    def to_dense(self) -> np.ndarray:
        """A dense copy of the matrix."""
        return self._data.copy()

    # ------------------------------------------------------------------ #
    # Tile access (views)
    # ------------------------------------------------------------------ #
    def tile(self, i: int, j: int) -> np.ndarray:
        """The ``nb``-by-``nb`` view of tile ``(i, j)``."""
        self._check(i, j)
        nb = self._nb
        return self._data[i * nb : (i + 1) * nb, j * nb : (j + 1) * nb]

    def set_tile(self, i: int, j: int, value: np.ndarray) -> None:
        """Overwrite tile ``(i, j)`` with ``value``."""
        self.tile(i, j)[...] = value

    def rhs_tile(self, i: int) -> np.ndarray:
        """The ``nb``-by-``nrhs`` view of RHS tile row ``i``."""
        if self._rhs is None:
            raise ValueError("this TileMatrix has no attached right-hand side")
        if not (0 <= i < self._n):
            raise IndexError(f"tile row {i} outside 0..{self._n - 1}")
        nb = self._nb
        return self._rhs[i * nb : (i + 1) * nb, :]

    def block(self, i0: int, i1: int, j0: int, j1: int) -> np.ndarray:
        """View of the rectangular tile block ``[i0:i1, j0:j1)`` (no copy).

        The returned array has shape ``((i1-i0)*nb, (j1-j0)*nb)`` and
        aliases the underlying storage, so a whole trailing block can be
        updated with a single GEMM (the LU trailing-update sweep).
        """
        if not (0 <= i0 <= i1 <= self._n and 0 <= j0 <= j1 <= self._n):
            raise IndexError(
                f"tile block [{i0}:{i1}, {j0}:{j1}] outside {self._n}x{self._n} tile matrix"
            )
        nb = self._nb
        return self._data[i0 * nb : i1 * nb, j0 * nb : j1 * nb]

    def rhs_block(self, i0: int, i1: int) -> np.ndarray:
        """View of RHS tile rows ``[i0, i1)`` stacked (no copy)."""
        if self._rhs is None:
            raise ValueError("this TileMatrix has no attached right-hand side")
        if not (0 <= i0 <= i1 <= self._n):
            raise IndexError(
                f"rhs tile rows [{i0}:{i1}] outside 0..{self._n - 1}"
            )
        nb = self._nb
        return self._rhs[i0 * nb : i1 * nb, :]

    def row_block(self, i: int, j_start: int, j_stop: Optional[int] = None) -> np.ndarray:
        """View of tile row ``i`` restricted to tile columns ``[j_start, j_stop)``.

        Bounds follow :meth:`block`: ``0 <= i < n`` and
        ``0 <= j_start <= j_stop <= n``, so an empty column range at the
        right edge is a valid (empty) view.
        """
        if j_stop is None:
            j_stop = self._n
        if not (0 <= i < self._n and 0 <= j_start <= j_stop <= self._n):
            raise IndexError(
                f"tile row block [{i}, {j_start}:{j_stop}] outside "
                f"{self._n}x{self._n} tile matrix"
            )
        nb = self._nb
        return self._data[i * nb : (i + 1) * nb, j_start * nb : j_stop * nb]

    def column_rows(self, j0: int, j1: int, rows: Sequence[int]) -> np.ndarray:
        """Full-height view of tile columns ``[j0, j1)`` for tile rows ``rows``.

        For a kernel that works in place on a row set that is no rectangular
        block (the strided domain rows of a ``p > 1`` grid): it indexes the
        view by matrix row and must stay inside the tile rows it names —
        ``rows`` is what access tracing records and guards.
        """
        if not (0 <= j0 <= j1 <= self._n and all(0 <= i < self._n for i in rows)):
            raise IndexError(
                f"tile rows {list(rows)} x columns [{j0}:{j1}] outside "
                f"{self._n}x{self._n} tile matrix"
            )
        nb = self._nb
        return self._data[:, j0 * nb : j1 * nb]

    def rhs_rows(self, rows: Sequence[int]) -> np.ndarray:
        """The attached RHS as one view, for a kernel touching tile rows ``rows``."""
        if self._rhs is None:
            raise ValueError("this TileMatrix has no attached right-hand side")
        for i in rows:
            self._check(i, 0)
        return self._rhs

    def panel(self, k: int, rows: Optional[Sequence[int]] = None) -> np.ndarray:
        """A *copy* of panel column ``k`` stacked over the given tile rows.

        When ``rows`` is omitted the full panel ``k..n-1`` is returned.  The
        stacking order follows ``rows``.  One block copy: a fancy index on
        the column's ``(n, nb, nb)`` tile view.
        """
        rows = list(range(k, self._n) if rows is None else rows)
        return self._column_tiles(k, rows)[rows].reshape(-1, self._nb)

    def scatter_panel(self, k: int, rows: Sequence[int], panel: np.ndarray) -> None:
        """Write a stacked panel back into the tiles listed in ``rows`` (one block copy)."""
        nb, rows = self._nb, list(rows)
        if panel.shape != (len(rows) * nb, nb):
            raise ValueError(
                f"panel shape {panel.shape} does not match {len(rows)} tiles of order {nb}"
            )
        self._column_tiles(k, rows)[rows] = panel.reshape(-1, nb, nb)

    def _column_tiles(self, k: int, rows: Sequence[int]) -> np.ndarray:
        """Tile column ``k`` as an ``(n, nb, nb)`` view, once ``rows`` are bounds-checked."""
        n, nb = self._n, self._nb
        if not 0 <= k < n or len(rows) and not (0 <= min(rows) and max(rows) < n):
            raise IndexError(f"panel tiles {list(rows)} x column {k} outside {n}x{n} tile matrix")
        return self._data[:, k * nb : (k + 1) * nb].reshape(n, nb, nb)

    def tiles(self) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Iterate over ``(i, j, tile_view)`` in row-major order."""
        for i in range(self._n):
            for j in range(self._n):
                yield i, j, self.tile(i, j)

    # ------------------------------------------------------------------ #
    # Norms and diagnostics
    # ------------------------------------------------------------------ #
    def tile_norm(self, i: int, j: int, ord: object = 1) -> float:
        """Norm of tile ``(i, j)`` (1-norm by default, as in the paper)."""
        return float(np.linalg.norm(self.tile(i, j), ord=ord))

    def tile_norms(self, ord: object = 1) -> np.ndarray:
        """``(n, n)`` array of tile norms."""
        out = np.empty((self._n, self._n))
        for i in range(self._n):
            for j in range(self._n):
                out[i, j] = self.tile_norm(i, j, ord=ord)
        return out

    def region_tile_norms(self, i0: int, i1: int, j0: int, j1: int) -> np.ndarray:
        """Tile 1-norms of the rectangular tile region in one vectorized pass.

        Returns the ``(i1 - i0, j1 - j0)`` array of 1-norms of the tiles
        ``(i, j)`` with ``i0 <= i < i1`` and ``j0 <= j < j1``.  The 1-norm
        of a tile is its largest column absolute sum — computed here with a
        single reshape/sum/max over the region instead of one
        ``np.linalg.norm`` call per tile, which is what makes per-step
        growth tracking cheap.
        """
        if not (0 <= i0 <= i1 <= self._n and 0 <= j0 <= j1 <= self._n):
            raise IndexError(
                f"tile region [{i0}:{i1}, {j0}:{j1}] outside {self._n}x{self._n} tile matrix"
            )
        rows, cols = i1 - i0, j1 - j0
        if rows == 0 or cols == 0:
            return np.zeros((rows, cols))
        nb = self._nb
        sub = self._data[i0 * nb : i1 * nb, j0 * nb : j1 * nb]
        return np.abs(sub).reshape(rows, nb, cols, nb).sum(axis=1).max(axis=2)

    def sampled_tile_norms(self, refs: Sequence[Tuple[int, int]]) -> Tuple[float, ...]:
        """1-norms of the tiles ``refs``, bit-identical to per-tile calls, from
        one :meth:`region_tile_norms` call over their bounding box."""
        rows = [i for i, _ in refs]
        cols = [j for _, j in refs]
        i0, j0 = min(rows), min(cols)
        box = self.region_tile_norms(i0, max(rows) + 1, j0, max(cols) + 1)
        return tuple(float(box[i - i0, j - j0]) for i, j in refs)

    def max_tile_norm(self, ord: object = 1) -> float:
        """Largest tile norm of the whole matrix."""
        if ord == 1:
            return float(self.region_tile_norms(0, self._n, 0, self._n).max())
        return float(self.tile_norms(ord=ord).max())

    def norm(self, ord: object = np.inf) -> float:
        """Norm of the full matrix (infinity norm by default, as HPL uses)."""
        return float(np.linalg.norm(self._data, ord=ord))

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rhs = f", rhs={self._rhs.shape}" if self._rhs is not None else ""
        return f"TileMatrix(n={self._n}, nb={self._nb}{rhs})"

    def _check(self, i: int, j: int) -> None:
        if not (0 <= i < self._n and 0 <= j < self._n):
            raise IndexError(f"tile ({i}, {j}) outside {self._n}x{self._n} tile matrix")
