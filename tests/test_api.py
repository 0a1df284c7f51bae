"""Tests for the public API: spec parser, registries, and the facades."""

import re

import numpy as np
import pytest

import repro
from repro.api import CRITERIA, EXECUTORS, SOLVERS, TREES, SpecError, parse_spec
from repro.api.facade import SolverSpec, make_executor, make_grid, make_solver
from repro.core.solver_base import TiledSolverBase
from repro.criteria.base import RobustnessCriterion
from repro.runtime import SequentialExecutor, ThreadedExecutor
from repro.tiles import BlockCyclicDistribution, ProcessGrid, TileMatrix
from repro.trees.base import ReductionTree


class TestParseSpec:
    def test_bare_name(self):
        assert parse_spec("fibonacci") == ("fibonacci", (), {})

    def test_name_with_kwargs(self):
        assert parse_spec("max(alpha=50)") == ("max", (), {"alpha": 50})

    def test_float_bool_string_values(self):
        name, args, kwargs = parse_spec("random(lu_probability=0.25, seed=3)")
        assert name == "random"
        assert kwargs == {"lu_probability": 0.25, "seed": 3}
        assert parse_spec("x(flag=True)")[2] == {"flag": True}
        assert parse_spec("x(mode='fast')")[2] == {"mode": "fast"}
        # bare identifiers parse as strings so nested names need no quoting
        assert parse_spec("x(tree=fibonacci)")[2] == {"tree": "fibonacci"}

    def test_positional_args(self):
        assert parse_spec("max(50)") == ("max", (50,), {})

    def test_whitespace_tolerant(self):
        assert parse_spec("  threaded( workers = 4 ) ") == (
            "threaded", (), {"workers": 4},
        )

    def test_positional_after_keyword_rejected(self):
        with pytest.raises(SpecError):
            parse_spec("max(alpha=1, 2)")

    def test_malformed_specs_rejected(self):
        for bad in ("", "1max", "max(", "max)"):
            with pytest.raises(SpecError):
                parse_spec(bad)
        with pytest.raises(SpecError):
            parse_spec(None)


class TestRegistries:
    # Superset checks (not equality): the registries are process-global and
    # open to user plugins, so other tests may have extended them.
    def test_every_builtin_criterion_round_trips(self):
        assert {"always_lu", "always_qr", "max", "mumps", "random", "sum"} <= set(
            CRITERIA.names()
        )
        for name in CRITERIA.names():
            crit = CRITERIA.create(name)
            assert isinstance(crit, RobustnessCriterion)

    def test_every_builtin_tree_round_trips(self):
        assert {"binary", "fibonacci", "flat", "greedy"} <= set(TREES.names())
        for name in TREES.names():
            assert isinstance(TREES.create(name), ReductionTree)

    def test_every_builtin_executor_round_trips(self):
        assert {"sequential", "threaded"} <= set(EXECUTORS.names())
        assert isinstance(EXECUTORS.create("sequential"), SequentialExecutor)
        threaded = EXECUTORS.create("threaded(workers=2)")
        assert isinstance(threaded, ThreadedExecutor)
        assert threaded.workers == 2

    def test_every_builtin_solver_round_trips(self):
        assert {"hqr", "hybrid", "lu_incpiv", "lu_nopiv", "lupp"} <= set(
            SOLVERS.names()
        )
        for name in SOLVERS.names():
            solver = make_solver(algorithm=name, tile_size=8)
            assert isinstance(solver, TiledSolverBase)
            assert solver.tile_size == 8

    def test_kwarg_spec_configures_instance(self):
        crit = CRITERIA.create("max(alpha=50)")
        assert crit.alpha == 50.0
        crit = CRITERIA.create("sum(alpha=1e-3)")
        assert crit.alpha == 1e-3

    def test_aliases_resolve_to_same_factory(self):
        assert SOLVERS.get("luqr") is SOLVERS.get("hybrid")
        assert SOLVERS.get("nopiv") is SOLVERS.get("lu_nopiv")
        assert CRITERIA.get("always-lu") is CRITERIA.get("always_lu")

    def test_lookup_is_case_insensitive(self):
        assert CRITERIA.get("MAX") is CRITERIA.get("max")

    def test_unknown_name_error_lists_available(self):
        with pytest.raises(ValueError) as excinfo:
            CRITERIA.get("frobnicate")
        message = str(excinfo.value)
        assert "frobnicate" in message
        for name in CRITERIA.names():
            assert name in message

        with pytest.raises(ValueError, match="hqr, hybrid, lu_incpiv, lu_nopiv, lupp"):
            SOLVERS.get("gauss")
        with pytest.raises(ValueError, match="binary, fibonacci, flat, greedy"):
            TREES.get("bushy")
        with pytest.raises(ValueError, match="sequential, threaded"):
            EXECUTORS.get("gpu")

    def test_instance_passes_through(self):
        crit = repro.MaxCriterion(alpha=7.0)
        assert CRITERIA.create(crit) is crit

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            @repro.register_criterion("max")
            class Impostor:
                pass

    def test_registration_under_taken_alias_rejected(self):
        # "seq" is an alias of "sequential": a plugin must not shadow it,
        # in either direction (canonical-over-alias or alias-over-canonical).
        with pytest.raises(ValueError, match="already registered"):
            @repro.register_executor("seq")
            class AliasImpostor:
                pass
        with pytest.raises(ValueError, match="already registered"):
            @repro.register_executor("myexec", aliases=("threaded",))
            class CanonicalShadow:
                pass
        assert "myexec" not in EXECUTORS.names()

    def test_unregister_removes_name_and_aliases(self):
        @repro.register_criterion("ephemeral_test_only", aliases=("eto",))
        class Ephemeral(repro.MaxCriterion):
            pass

        assert CRITERIA.get("eto") is Ephemeral
        CRITERIA.unregister("eto")  # alias resolves to the canonical name
        assert "ephemeral_test_only" not in CRITERIA.names()
        with pytest.raises(ValueError):
            CRITERIA.get("eto")
        with pytest.raises(ValueError):
            CRITERIA.unregister("ephemeral_test_only")


class TestMakeSolver:
    def test_defaults_match_hand_constructed(self):
        via_api = make_solver(algorithm="hybrid", tile_size=8)
        by_hand = repro.HybridLUQRSolver(tile_size=8)
        assert type(via_api) is type(by_hand)
        assert via_api.criterion.alpha == by_hand.criterion.alpha
        assert type(via_api.intra_tree) is type(by_hand.intra_tree)
        assert type(via_api.inter_tree) is type(by_hand.inter_tree)
        assert via_api.grid == by_hand.grid

    def test_accepts_spec_dataclass_dict_and_name(self):
        spec = SolverSpec(algorithm="hqr", tile_size=8, inter_tree="binary")
        for built in (
            make_solver(spec),
            make_solver({"algorithm": "hqr", "tile_size": 8, "inter_tree": "binary"}),
            make_solver("hqr", tile_size=8, inter_tree="binary"),
        ):
            assert built.algorithm == "HQR"
            assert type(built.inter_tree).__name__ == "BinaryTree"

    def test_grid_specs(self):
        assert make_grid((2, 3)) == ProcessGrid(2, 3)
        assert make_grid("4x1") == ProcessGrid(4, 1)
        g = ProcessGrid(2, 2)
        assert make_grid(g) is g
        assert make_grid(None) is None
        with pytest.raises(ValueError):
            make_grid("hexagonal")

    def test_executor_specs(self):
        assert make_executor(None) is None
        assert make_executor("none") is None
        assert make_executor("inline") is None
        assert isinstance(make_executor("sequential"), SequentialExecutor)
        ex = ThreadedExecutor(workers=3)
        assert make_executor(ex) is ex

    def test_algorithm_specific_options_pass_through(self):
        solver = make_solver(
            algorithm="hybrid", tile_size=8, domain_pivoting=False,
        )
        assert solver.domain_pivoting is False
        # options may also ride on the algorithm spec itself
        solver = make_solver(algorithm="hybrid(domain_pivoting=False)", tile_size=8)
        assert solver.domain_pivoting is False

    def test_removed_panel_flags_fail_loudly(self):
        """``recursive_panel``/``recursive`` selected nothing and are gone."""
        import repro.linalg
        from repro.core.panel_analysis import analyze_panel
        from repro.kernels import factor_panel_lu, factor_tile_lu

        with pytest.raises(ValueError, match="does not accept option 'recursive_panel'"):
            make_solver(algorithm="hybrid(recursive_panel=False)", tile_size=8)
        tiles = TileMatrix.from_dense(np.eye(16), 8)
        dist = BlockCyclicDistribution(ProcessGrid(1, 1), tiles.n)
        with pytest.raises(TypeError, match="recursive_panel"):
            analyze_panel(tiles, dist, 0, recursive_panel=True)
        with pytest.raises(TypeError, match="recursive"):
            factor_panel_lu(np.eye(8), 8, recursive=True)
        # The alias of getrf and the copying triangle properties are gone too.
        assert not hasattr(repro.linalg, "recursive_getrf")
        with pytest.raises(ImportError):
            from repro.linalg.pivoting import recursive_getrf  # noqa: F401
        factor = factor_tile_lu(np.eye(8))
        for attribute in ("u", "l_top"):
            with pytest.raises(AttributeError):
                getattr(factor, attribute)

    @pytest.mark.parametrize(
        "removed",
        [
            {"tile_size": "auto"},
            {"executor": "auto"},
            {"kernel_backend": "auto"},
            {"size_hint": 96},
        ],
        ids=["tile_size", "executor", "kernel_backend", "size_hint"],
    )
    def test_removed_autotune_knobs_fail_loudly(self, removed):
        """The autotuner is gone: its spellings raise instead of tuning."""
        kwargs = {"algorithm": "lupp", "tile_size": 8, **removed}
        with pytest.raises(ValueError):
            make_solver(**kwargs)
        a = np.eye(16) * 4.0
        with pytest.raises(ValueError):
            repro.solve(a, np.ones(16), **kwargs)

    @pytest.mark.parametrize("bad", [True, "8", 8.0, 0, -1])
    def test_tile_size_must_be_a_positive_integer(self, bad):
        message = f"tile_size must be an integer >= 1, got {re.escape(repr(bad))}"
        with pytest.raises(ValueError, match=message):
            make_solver(algorithm="lupp", tile_size=bad)
        with pytest.raises(ValueError, match=message):
            repro.LUPPSolver(bad)

    def test_tile_size_accepts_numpy_integers(self):
        for nb in (np.int64(8), np.int32(8)):
            solver = make_solver(algorithm="lupp", tile_size=nb)
            assert solver.tile_size == 8 and type(solver.tile_size) is int

    def test_criterion_on_baseline_rejected(self):
        with pytest.raises(ValueError, match="does not accept a criterion"):
            make_solver(algorithm="lupp", tile_size=8, criterion="max")

    def test_unknown_option_rejected_with_accepted_list(self):
        with pytest.raises(ValueError, match="accepted:"):
            make_solver(algorithm="hybrid", tile_size=8, warp_speed=9)

    def test_tile_size_none_uses_facade_default(self):
        """Regression: ``tile_size=None`` used to crash with ``int(None)``."""
        from repro.api.facade import DEFAULT_TILE_SIZE

        solver = make_solver("lupp", tile_size=None)
        assert solver.tile_size == DEFAULT_TILE_SIZE
        # also through the spec-dataclass path
        assert make_solver(SolverSpec(algorithm="hybrid", tile_size=None)
                           ).tile_size == DEFAULT_TILE_SIZE

    def test_tile_size_none_keeps_plugin_constructor_default(self):
        """``None`` means the *algorithm's* default when one is declared."""
        @repro.register_solver("defaulted_tile_test_only")
        class DefaultedSolver:
            algorithm = "defaulted"

            def __init__(self, tile_size=17):
                self.tile_size = tile_size

        try:
            assert make_solver("defaulted_tile_test_only",
                               tile_size=None).tile_size == 17
            assert make_solver("defaulted_tile_test_only",
                               tile_size=8).tile_size == 8
        finally:
            SOLVERS.unregister("defaulted_tile_test_only")

    def test_plugin_solver_with_narrow_signature(self):
        @repro.register_solver("narrow_test_only")
        class NarrowSolver:
            algorithm = "narrow"

            def __init__(self, tile_size):
                self.tile_size = tile_size

        try:
            built = make_solver(algorithm="narrow_test_only", tile_size=8)
            assert built.tile_size == 8
            # configuring a base argument the plugin lacks is a spec error,
            # not a TypeError from the constructor
            with pytest.raises(ValueError, match="does not accept 'executor'"):
                make_solver(algorithm="narrow_test_only", tile_size=8,
                            executor="sequential")
        finally:
            SOLVERS.unregister("narrow_test_only")


class TestFacades:
    ALGORITHMS = {
        "hybrid": lambda: repro.HybridLUQRSolver(
            tile_size=8, criterion=repro.MaxCriterion(alpha=50)
        ),
        "lu_nopiv": lambda: repro.LUNoPivSolver(tile_size=8),
        "lu_incpiv": lambda: repro.LUIncPivSolver(tile_size=8),
        "lupp": lambda: repro.LUPPSolver(tile_size=8),
        "hqr": lambda: repro.HQRSolver(tile_size=8),
    }

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_solve_bit_identical_to_hand_constructed(self, rng, name):
        n = 48
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        b = rng.standard_normal(n)
        kwargs = {"criterion": "max(alpha=50)"} if name == "hybrid" else {}
        via_api = repro.solve(a, b, algorithm=name, tile_size=8, **kwargs)
        by_hand = self.ALGORITHMS[name]().solve(a, b)
        np.testing.assert_array_equal(via_api.x, by_hand.x)
        assert via_api.hpl3 == by_hand.hpl3
        assert via_api.factorization.step_kinds == by_hand.factorization.step_kinds

    def test_factor_facade(self, small_system):
        a, b, _ = small_system
        fact = repro.factor(a, b, algorithm="hybrid", tile_size=8,
                            criterion="max(alpha=50)")
        assert fact.succeeded
        assert fact.padding == 0
        x = fact.solve()
        assert x.shape == (a.shape[0],)

    def test_padding_is_a_real_field(self, rng):
        n = 13
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        fact = repro.factor(a, algorithm="lupp", tile_size=4)
        assert fact.padding == 3

    def test_solve_with_random_criterion_seeded(self, small_system):
        a, b, _ = small_system
        r1 = repro.solve(a, b, algorithm="hybrid", tile_size=8,
                         criterion="random(lu_probability=0.5, seed=11)")
        r2 = repro.solve(a, b, algorithm="hybrid", tile_size=8,
                         criterion="random(lu_probability=0.5, seed=11)")
        np.testing.assert_array_equal(r1.x, r2.x)

    def test_solve_through_threaded_executor_matches_inline(self, small_system):
        a, b, _ = small_system
        inline = repro.solve(a, b, algorithm="hybrid", tile_size=8,
                             criterion="max(alpha=50)")
        threaded = repro.solve(a, b, algorithm="hybrid", tile_size=8,
                               criterion="max(alpha=50)",
                               executor="threaded(workers=2)")
        np.testing.assert_array_equal(inline.x, threaded.x)

    def test_user_plugin_registers_and_resolves(self, small_system):
        @repro.register_criterion("paranoid_test_only")
        class ParanoidCriterion(repro.MaxCriterion):
            pass

        try:
            a, b, _ = small_system
            result = repro.solve(a, b, algorithm="hybrid", tile_size=8,
                                 criterion="paranoid_test_only(alpha=0.0)")
            # alpha = 0 forces QR at every step with off-diagonal mass present
            assert result.factorization.qr_steps > 0
        finally:
            CRITERIA.unregister("paranoid_test_only")
