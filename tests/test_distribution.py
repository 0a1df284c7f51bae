"""Tests for the process grid and the 2D block-cyclic distribution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tiles import BlockCyclicDistribution, ProcessGrid


class TestProcessGrid:
    def test_size(self):
        assert ProcessGrid(4, 4).size == 16
        assert ProcessGrid(16, 1).size == 16
        assert ProcessGrid(1, 1).size == 1

    def test_rank_of_roundtrip(self):
        grid = ProcessGrid(3, 5)
        seen = set()
        for pr in range(3):
            for pc in range(5):
                rank = grid.rank_of(pr, pc)
                assert grid.coords_of(rank) == (pr, pc)
                seen.add(rank)
        assert seen == set(range(15))

    def test_rank_of_out_of_range(self):
        grid = ProcessGrid(2, 2)
        with pytest.raises(ValueError):
            grid.rank_of(2, 0)
        with pytest.raises(ValueError):
            grid.rank_of(0, -1)

    def test_coords_of_out_of_range(self):
        with pytest.raises(ValueError):
            ProcessGrid(2, 2).coords_of(4)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            ProcessGrid(0, 3)
        with pytest.raises(ValueError):
            ProcessGrid(3, 0)

    def test_ranks_iterator(self):
        assert list(ProcessGrid(2, 3).ranks()) == list(range(6))


class TestBlockCyclicDistribution:
    def test_owner_coords_modular(self):
        dist = BlockCyclicDistribution(ProcessGrid(2, 3), 7)
        assert dist.owner_coords(0, 0) == (0, 0)
        assert dist.owner_coords(1, 2) == (1, 2)
        assert dist.owner_coords(2, 3) == (0, 0)
        assert dist.owner_coords(5, 4) == (1, 1)

    def test_every_tile_has_exactly_one_owner(self):
        dist = BlockCyclicDistribution(ProcessGrid(2, 2), 5)
        owned = {}
        for rank in range(4):
            for tile in dist.local_tiles(rank):
                assert tile not in owned
                owned[tile] = rank
        assert len(owned) == 25

    def test_local_tile_count_matches_local_tiles(self):
        dist = BlockCyclicDistribution(ProcessGrid(3, 2), 8)
        for rank in range(6):
            assert dist.local_tile_count(rank) == len(dist.local_tiles(rank))

    def test_load_balance_when_divisible(self):
        dist = BlockCyclicDistribution(ProcessGrid(2, 2), 8)
        counts = [dist.local_tile_count(r) for r in range(4)]
        assert counts == [16, 16, 16, 16]

    def test_is_local(self):
        dist = BlockCyclicDistribution(ProcessGrid(2, 2), 4)
        owner = dist.owner(3, 2)
        assert dist.is_local(3, 2, owner)
        assert not dist.is_local(3, 2, (owner + 1) % 4)

    def test_panel_rows(self):
        dist = BlockCyclicDistribution(ProcessGrid(2, 2), 6)
        assert dist.panel_rows(0) == [0, 1, 2, 3, 4, 5]
        assert dist.panel_rows(4) == [4, 5]

    def test_diagonal_domain_contains_diagonal(self):
        dist = BlockCyclicDistribution(ProcessGrid(4, 4), 10)
        for k in range(10):
            rows = dist.diagonal_domain_rows(k)
            assert rows[0] == k
            owner = dist.diagonal_owner(k)
            assert all(dist.owner(i, k) == owner for i in rows)

    def test_domains_partition_panel(self):
        dist = BlockCyclicDistribution(ProcessGrid(3, 2), 11)
        for k in (0, 3, 7):
            all_rows = []
            for _, rows in dist.domains(k):
                all_rows.extend(rows)
            assert sorted(all_rows) == dist.panel_rows(k)

    def test_domains_diagonal_first(self):
        dist = BlockCyclicDistribution(ProcessGrid(4, 1), 9)
        for k in range(9):
            first_rank, first_rows = dist.domains(k)[0]
            assert first_rank == dist.diagonal_owner(k)
            assert first_rows[0] == k

    def test_off_diagonal_domain_rows(self):
        dist = BlockCyclicDistribution(ProcessGrid(2, 2), 6)
        k = 1
        diag = set(dist.diagonal_domain_rows(k))
        off = set(dist.off_diagonal_domain_rows(k))
        assert diag & off == set()
        assert diag | off == set(dist.panel_rows(k))

    def test_single_process_domain_covers_panel(self):
        dist = BlockCyclicDistribution(ProcessGrid(1, 1), 7)
        for k in range(7):
            assert dist.diagonal_domain_rows(k) == dist.panel_rows(k)

    def test_panel_owners_sorted_unique(self):
        dist = BlockCyclicDistribution(ProcessGrid(4, 4), 12)
        owners = dist.panel_owners(0)
        assert owners == sorted(set(owners))

    def test_errors(self):
        dist = BlockCyclicDistribution(ProcessGrid(2, 2), 4)
        with pytest.raises(IndexError):
            dist.owner(4, 0)
        with pytest.raises(IndexError):
            dist.panel_rows(4)
        with pytest.raises(ValueError):
            BlockCyclicDistribution(ProcessGrid(2, 2), 0)

    @given(
        p=st.integers(1, 5),
        q=st.integers(1, 5),
        n=st.integers(1, 20),
        k=st.integers(0, 19),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_domain_rows_owned_by_diag_owner(self, p, q, n, k):
        if k >= n:
            return
        if p > n or q > n:
            # A grid larger than the tile matrix leaves ownerless
            # processes; construction rejects it (see __post_init__).
            with pytest.raises(ValueError):
                BlockCyclicDistribution(ProcessGrid(p, q), n)
            return
        dist = BlockCyclicDistribution(ProcessGrid(p, q), n)
        owner = dist.diagonal_owner(k)
        rows = dist.diagonal_domain_rows(k)
        assert rows and rows[0] == k
        assert all(dist.owner(i, k) == owner for i in rows)
        # Rows not in the domain are owned by someone else.
        for i in dist.off_diagonal_domain_rows(k):
            assert dist.owner(i, k) != owner

    @pytest.mark.parametrize("p, q", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (4, 1)])
    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_closed_form_domains_match_owner_loops(self, p, q, n):
        dist = BlockCyclicDistribution(ProcessGrid(p, q), n)
        for k in range(n):
            panel = range(k, n)
            assert dist.panel_owners(k) == sorted({dist.owner(i, k) for i in panel})
            for rank in range(p * q):
                assert dist.domain_rows(k, rank) == [i for i in panel if dist.owner(i, k) == rank]
            diag = dist.owner(k, k)
            assert dist.off_diagonal_domain_rows(k) == [
                i for i in panel if dist.owner(i, k) != diag
            ]
        for bad_rank in (-1, p * q):
            with pytest.raises(ValueError):
                dist.domain_rows(0, bad_rank)
        for bad_step in (-1, n):
            with pytest.raises(IndexError):
                dist.panel_owners(bad_step)
            with pytest.raises(IndexError):
                dist.domain_rows(bad_step, 0)
            with pytest.raises(IndexError):
                dist.off_diagonal_domain_rows(bad_step)
