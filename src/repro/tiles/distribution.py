"""Data distribution of a tiled matrix over a virtual process grid.

The paper distributes the ``n``-by-``n`` tile matrix over a ``p``-by-``q``
virtual process grid using the standard 2D block-cyclic mapping: tile
``(i, j)`` lives on process ``(i mod p, j mod q)``.  At elimination step
``k`` the tiles of the panel (column ``k``, rows ``k..n-1``) are partitioned
into *domains*, one per process row that owns tiles of that panel column.
The *diagonal domain* is the set of panel tiles owned by the node that owns
the diagonal tile ``(k, k)``; pivoting inside the LU step is restricted to
that domain, so that it never requires inter-node communication.

This module implements the grid, the block-cyclic mapping and the domain
queries needed by the hybrid algorithm, the criteria, and the performance
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

__all__ = [
    "ProcessGrid",
    "BlockCyclicDistribution",
]


@dataclass(frozen=True)
class ProcessGrid:
    """A virtual ``p``-by-``q`` grid of processes (nodes).

    Parameters
    ----------
    p:
        Number of process rows.
    q:
        Number of process columns.

    The paper's default platform is a 4-by-4 grid of 16 nodes (Figure 2,
    Table II) and a 16-by-1 grid for the special-matrix experiments
    (Figure 3).
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1:
            raise ValueError(f"process grid must be at least 1x1, got {self.p}x{self.q}")

    @property
    def size(self) -> int:
        """Total number of processes in the grid."""
        return self.p * self.q

    def rank_of(self, prow: int, pcol: int) -> int:
        """Linear rank (row-major) of grid coordinate ``(prow, pcol)``."""
        if not (0 <= prow < self.p and 0 <= pcol < self.q):
            raise ValueError(f"({prow}, {pcol}) outside {self.p}x{self.q} grid")
        return prow * self.q + pcol

    def coords_of(self, rank: int) -> Tuple[int, int]:
        """Grid coordinates ``(prow, pcol)`` of a linear rank."""
        if not (0 <= rank < self.size):
            raise ValueError(f"rank {rank} outside grid of size {self.size}")
        return divmod(rank, self.q)

    def ranks(self) -> Iterator[int]:
        """Iterate over all linear ranks."""
        return iter(range(self.size))


@dataclass(frozen=True)
class BlockCyclicDistribution:
    """2D block-cyclic ownership of an ``n``-by-``n`` tile matrix.

    Tile ``(i, j)`` is owned by process ``(i mod p, j mod q)``.  This is
    the distribution used throughout the paper; it balances the load of
    both LU and QR steps.

    Parameters
    ----------
    grid:
        The virtual process grid.
    n:
        Number of tile rows (= tile columns) of the matrix.
    """

    grid: ProcessGrid
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"tile count must be positive, got {self.n}")
        if self.grid.p > self.n or self.grid.q > self.n:
            # A grid dimension exceeding the tile count leaves processes
            # that own nothing: every panel/domain query for them silently
            # returns an empty (degenerate) domain, which downstream
            # placement analysis would misread as "no work, no messages".
            raise ValueError(
                f"process grid {self.grid.p}x{self.grid.q} is larger than the "
                f"{self.n}x{self.n} tile matrix; every process must own at "
                "least one tile row and column"
            )

    # ------------------------------------------------------------------ #
    # Ownership queries
    # ------------------------------------------------------------------ #
    def owner_coords(self, i: int, j: int) -> Tuple[int, int]:
        """Grid coordinates of the process owning tile ``(i, j)``."""
        self._check_tile(i, j)
        return (i % self.grid.p, j % self.grid.q)

    def owner(self, i: int, j: int) -> int:
        """Linear rank of the process owning tile ``(i, j)``."""
        prow, pcol = self.owner_coords(i, j)
        return self.grid.rank_of(prow, pcol)

    def is_local(self, i: int, j: int, rank: int) -> bool:
        """Whether tile ``(i, j)`` lives on process ``rank``."""
        self.grid.coords_of(rank)  # reject out-of-range ranks loudly
        return self.owner(i, j) == rank

    def rhs_owner(self, i: int) -> int:
        """Rank owning the right-hand-side tile of tile row ``i``.

        The RHS is distributed as one extra block column appended after the
        matrix (column index ``n``), so RHS tiles cycle over process rows
        exactly like their matrix row while all landing in the process
        column ``n mod q``.
        """
        if not (0 <= i < self.n):
            raise IndexError(f"RHS tile row {i} outside 0..{self.n - 1}")
        return self.grid.rank_of(i % self.grid.p, self.n % self.grid.q)

    def local_tiles(self, rank: int) -> List[Tuple[int, int]]:
        """All tiles owned by process ``rank`` (row-major order)."""
        prow, pcol = self.grid.coords_of(rank)
        return [
            (i, j)
            for i in range(prow, self.n, self.grid.p)
            for j in range(pcol, self.n, self.grid.q)
        ]

    def local_tile_count(self, rank: int) -> int:
        """Number of tiles owned by process ``rank``."""
        prow, pcol = self.grid.coords_of(rank)
        rows = len(range(prow, self.n, self.grid.p))
        cols = len(range(pcol, self.n, self.grid.q))
        return rows * cols

    # ------------------------------------------------------------------ #
    # Panel / domain queries (Section II of the paper)
    # ------------------------------------------------------------------ #
    def panel_rows(self, k: int) -> List[int]:
        """Tile-row indices of the elimination panel at step ``k``."""
        self._check_step(k)
        return list(range(k, self.n))

    def panel_owners(self, k: int) -> List[int]:
        """Ranks owning at least one tile of panel ``k`` (sorted, unique).

        The panel's ``n - k`` rows cycle over the process rows, all in
        process column ``k mod q``.
        """
        self._check_step(k)
        p, q = self.grid.p, self.grid.q
        return sorted((i % p) * q + k % q for i in range(k, k + min(p, self.n - k)))

    def diagonal_owner(self, k: int) -> int:
        """Rank of the node owning the diagonal tile ``(k, k)``."""
        return self.owner(k, k)

    def domain_rows(self, k: int, rank: int) -> List[int]:
        """Panel rows of step ``k`` owned by ``rank`` (a *domain*).

        Every ``p``-th row from the first one at or after ``k`` in the
        rank's process row, when the rank's process column holds column ``k``.
        """
        prow, pcol = self.grid.coords_of(rank)  # rejects out-of-range ranks
        self._check_step(k)
        p = self.grid.p
        if k % self.grid.q != pcol:
            return []
        return list(range(k + (prow - k) % p, self.n, p))

    def diagonal_domain_rows(self, k: int) -> List[int]:
        """Panel rows of step ``k`` in the *diagonal domain*.

        These are the rows of the panel owned by the same node as the
        diagonal tile; the LU step restricts its pivot search to them
        (Section II-A), which keeps the search purely node-local.
        """
        return self.domain_rows(k, self.diagonal_owner(k))

    def off_diagonal_domain_rows(self, k: int) -> List[int]:
        """Panel rows of step ``k`` *outside* the diagonal domain (the rows
        whose process row differs from row ``k``'s)."""
        self._check_step(k)
        p = self.grid.p
        return [i for i in range(k + 1, self.n) if (i - k) % p]

    def domains(self, k: int) -> List[Tuple[int, List[int]]]:
        """All ``(rank, rows)`` domains of panel ``k``, diagonal domain first."""
        diag_rank = self.diagonal_owner(k)
        out = [(diag_rank, self.domain_rows(k, diag_rank))]
        for rank in self.panel_owners(k):
            if rank != diag_rank:
                out.append((rank, self.domain_rows(k, rank)))
        return out

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _check_tile(self, i: int, j: int) -> None:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"tile ({i}, {j}) outside {self.n}x{self.n} tile matrix")

    def _check_step(self, k: int) -> None:
        if not (0 <= k < self.n):
            raise IndexError(f"step {k} outside 0..{self.n - 1}")
