"""Spec expansion: grids, variants, horizons, placements, hashing, and
the resolution of a cell's scheduler."""

import pytest

from repro.campaigns.presets import get_spec, load_spec
from repro.campaigns.spec import (
    CampaignSpec,
    CellConfig,
    resolve_horizon,
    resolve_positions,
)
from repro.core.errors import ConfigurationError
from repro.theory.bounds import no_chirality_timeout


def cell(**overrides) -> CellConfig:
    fields = dict(algorithm="unconscious", ring_size=8, max_rounds=100)
    fields.update(overrides)
    return CellConfig(**fields)


class TestCellConfig:
    def test_key_is_stable_across_instances(self):
        assert cell().key() == cell().key()

    def test_key_changes_with_any_simulation_field(self):
        base = cell().key()
        assert cell(seed=1).key() != base
        assert cell(ring_size=9).key() != base
        assert cell(max_rounds=101).key() != base

    def test_key_ignores_cosmetic_label(self):
        # renaming a variant must not invalidate its cached results
        assert cell(label="renamed").key() == cell().key()

    def test_dict_round_trip(self):
        original = cell(flipped=(1,), positions=(0, 4), placement="explicit")
        assert CellConfig.from_dict(original.to_dict()) == original

    def test_round_trip_preserves_key_through_json_types(self):
        original = cell(flipped=(1, 2))
        rebuilt = CellConfig.from_dict(original.to_dict())
        assert rebuilt.key() == original.key()

    def test_from_dict_accepts_null_flipped(self):
        # spec files may say "flipped": null; that means "no flips"
        rebuilt = CellConfig.from_dict({**cell().to_dict(), "flipped": None})
        assert rebuilt.flipped == ()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown cell fields"):
            CellConfig.from_dict({**cell().to_dict(), "typo": 1})

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            cell(ring_size=2)
        with pytest.raises(ConfigurationError):
            cell(agents=0)
        with pytest.raises(ConfigurationError):
            cell(max_rounds=0)


class TestPlacements:
    def test_spread(self):
        assert resolve_positions("spread", ring_size=8, agents=2) == (0, 4)

    def test_offset_spread_matches_table2_positions(self):
        assert resolve_positions("offset-spread", ring_size=8, agents=2) == (1, 5)

    def test_thirds_matches_table4_positions(self):
        assert resolve_positions("thirds", ring_size=9, agents=3) == (1, 4, 7)
        assert resolve_positions("thirds", ring_size=9, agents=2) == (1, 4)

    def test_origin(self):
        assert resolve_positions("origin", ring_size=8, agents=3) == (0, 0, 0)

    def test_explicit_requires_positions(self):
        with pytest.raises(ConfigurationError):
            resolve_positions("explicit", ring_size=8, agents=2)

    def test_unknown_placement(self):
        with pytest.raises(ConfigurationError, match="unknown placement"):
            resolve_positions("diagonal", ring_size=8, agents=2)


class TestHorizon:
    def test_integer_passthrough(self):
        assert resolve_horizon(42, n=8, bound=None, agents=2) == 42

    def test_expression_over_n(self):
        assert resolve_horizon("100 * n", n=8, bound=None, agents=2) == 800

    def test_bound_defaults_to_n(self):
        assert resolve_horizon("3 * N - 6", n=8, bound=None, agents=2) == 18
        assert resolve_horizon("3 * N - 6", n=8, bound=10, agents=2) == 24

    def test_paper_bound_helpers_available(self):
        assert resolve_horizon(
            "no_chirality_timeout(n) + 10", n=8, bound=None, agents=2
        ) == no_chirality_timeout(8) + 10

    def test_bad_expression(self):
        with pytest.raises(ConfigurationError, match="bad horizon"):
            resolve_horizon("import os", n=8, bound=None, agents=2)

    def test_nonpositive_result(self):
        with pytest.raises(ConfigurationError):
            resolve_horizon("n - 100", n=8, bound=None, agents=2)

    def test_bool_is_refused_after_the_equal_int_resolved(self):
        """``True == 1``: the memo must not hand back the int's answer."""
        assert resolve_horizon(1, n=8, bound=None, agents=2) == 1
        with pytest.raises(ConfigurationError, match="int or str"):
            resolve_horizon(True, n=8, bound=None, agents=2)
        assert resolve_horizon("k", n=8, bound=None, agents=1) == 1
        with pytest.raises(ConfigurationError, match="int or str"):
            resolve_horizon(True, n=8, bound=None, agents=1)

    def test_typed_memo_keeps_bool_and_int_variables_apart(self):
        assert resolve_horizon("n * k", n=8, bound=None, agents=1) == 8
        # ``k`` = True evaluates as 1 either way; the memo keys them apart.
        assert resolve_horizon("n * k", n=8, bound=None, agents=True) == 8
        from repro.campaigns.spec import _expression_rounds

        _expression_rounds.cache_clear()
        resolve_horizon("n * k", n=8, bound=None, agents=1)
        resolve_horizon("n * k", n=8, bound=None, agents=True)
        assert _expression_rounds.cache_info().misses == 2

    @pytest.mark.parametrize("expression", ["import os", "n +", "x * n",
                                            "n - 100", "n / 0", "open(n)"])
    def test_refusals_raise_on_every_call(self, expression):
        for _ in range(3):
            with pytest.raises(ConfigurationError):
                resolve_horizon(expression, n=8, bound=None, agents=2)


class TestCampaignSpec:
    def spec(self) -> CampaignSpec:
        return CampaignSpec(
            name="t",
            base={"algorithm": "unconscious", "max_rounds": 100},
            grid={"ring_size": [6, 8], "seed": [0, 1, 2]},
        )

    def test_grid_product(self):
        cells = self.spec().cell_list()
        assert len(cells) == 6
        assert {(c.ring_size, c.seed) for c in cells} == {
            (n, s) for n in (6, 8) for s in (0, 1, 2)
        }

    def test_expansion_is_deterministic(self):
        spec = self.spec()
        assert [c.key() for c in spec.cells()] == [c.key() for c in spec.cells()]

    def test_variant_scalar_pins_grid_dimension(self):
        spec = self.spec()
        spec.variants = [{"label": "pinned", "ring_size": 6}]
        cells = spec.cell_list()
        assert len(cells) == 3
        assert {c.ring_size for c in cells} == {6}
        assert {c.label for c in cells} == {"pinned"}

    def test_variant_grid_overrides_dimension(self):
        spec = self.spec()
        spec.variants = [{"grid": {"ring_size": [12]}}]
        assert {c.ring_size for c in spec.cell_list()} == {12}

    def test_agents_default_comes_from_registry(self):
        # et-exact is a 3-agent protocol; a spec that omits agents must
        # not silently run it with CellConfig's generic default of 2
        spec = CampaignSpec(
            name="t",
            base={"algorithm": "et-exact", "transport": "et", "max_rounds": 100},
            grid={"ring_size": [6]},
        )
        assert [c.agents for c in spec.cells()] == [3]

    def test_explicit_agents_overrides_registry_default(self):
        spec = CampaignSpec(
            name="t",
            base={"algorithm": "et-exact", "transport": "et",
                  "agents": 2, "max_rounds": 100},
            grid={"ring_size": [6]},
        )
        assert [c.agents for c in spec.cells()] == [2]

    def test_variant_horizon_resolved_per_cell(self):
        spec = CampaignSpec(
            name="t",
            base={"algorithm": "unconscious"},
            grid={"ring_size": [6, 8]},
            variants=[{"horizon": "10 * n"}],
        )
        assert {c.max_rounds for c in spec.cells()} == {60, 80}

    def test_merged_spec_covers_both_parts(self):
        merged = CampaignSpec.merged(
            "both", [get_spec("table2-fsync"), get_spec("table4-ssync")]
        )
        t2 = get_spec("table2-fsync").cell_list()
        t4 = get_spec("table4-ssync").cell_list()
        assert [c.key() for c in merged.cells()] == [
            c.key() for c in t2 + t4
        ]

    def test_spec_dict_round_trip(self):
        spec = get_spec("table2-fsync")
        rebuilt = CampaignSpec.from_dict(spec.to_dict())
        assert [c.key() for c in rebuilt.cells()] == [c.key() for c in spec.cells()]

    @pytest.mark.parametrize("where", ["base", "variant", "grid"])
    def test_batch_key_is_refused(self, where):
        """Routing is a run setting; a spec's ``batch`` would be dropped
        without a word (stored records still drop it silently)."""
        spec = self.spec()
        if where == "base":
            spec.base["batch"] = "off"
        elif where == "variant":
            spec.variants = [{"batch": "on"}]
        else:
            spec.grid["batch"] = ["on", "off"]
        with pytest.raises(ConfigurationError, match="'batch'.*--batch"):
            spec.cell_list()

    @pytest.mark.parametrize("where, key, hint", [
        ("base", "ring_sise", "ring_size"),
        ("variant", "horizn", "horizon"),
        ("grid", "seeds", "seed"),
        ("variant", "optimized", None),
    ])
    def test_unknown_key_is_refused_by_name(self, where, key, hint):
        """A misspelled key names the spec, the variant and the key,
        before any cell is built."""
        spec = self.spec()
        spec.variants = [{"label": "fine"}, {"label": "typo"}]
        if where == "base":
            spec.base[key] = 6
        elif where == "variant":
            spec.variants[1][key] = 6
        else:
            spec.variants[1]["grid"] = {key: [0, 1]}
        cells = spec.cells()
        label = "fine" if where == "base" else "typo"
        with pytest.raises(ConfigurationError) as info:
            next(cells)
        message = str(info.value)
        assert f"spec 't', variant {label!r}: unknown key {key!r}" in message
        if hint is not None:
            assert f"did you mean {hint!r}?" in message
        else:
            assert "did you mean" not in message

    def test_unknown_keys_are_listed_together(self):
        spec = CampaignSpec(name="t", base={
            "algorithm": "known-bound", "ring_size": 6, "max_rounds": 9,
            "zz": 1, "agnets": 2})
        with pytest.raises(ConfigurationError,
                           match="unknown keys 'agnets' .*'agents'.*, 'zz'"):
            spec.cell_list()

    def test_stored_records_keep_from_dicts_check(self):
        with pytest.raises(ConfigurationError, match="unknown cell fields"):
            CellConfig.from_dict({**cell().to_dict(), "ring_sise": 6})
        assert CellConfig.from_dict({**cell().to_dict(), "batch": "on"}) == cell()

    @pytest.mark.parametrize("field", ["algorithm", "ring_size", "max_rounds"])
    def test_missing_required_field_is_named(self, field):
        base = {"algorithm": "known-bound", "ring_size": 6, "max_rounds": 50}
        del base[field]
        spec = CampaignSpec(name="t", base=base, grid={"seed": [0, 1]})
        with pytest.raises(ConfigurationError, match=repr(field)):
            spec.cell_list()

    def test_horizon_stands_in_for_max_rounds(self):
        spec = CampaignSpec(name="t", base={
            "algorithm": "known-bound", "ring_size": 6, "horizon": "3 * n"})
        assert [c.max_rounds for c in spec.cells()] == [18]

    def test_restricted_limits_cells(self):
        spec = self.spec()
        limited = spec.restricted(2)
        assert [c.key() for c in limited.cells()] == [
            c.key() for c in spec.cell_list()[:2]
        ]


class TestPresets:
    def test_known_sizes(self):
        assert get_spec("table2-fsync").size() == 90
        assert get_spec("table4-ssync").size() == 108
        assert get_spec("paper-tables").size() == 198
        assert get_spec("smoke").size() == 24

    def test_paper_tables_is_at_least_100_cells(self):
        assert get_spec("paper-tables").size() >= 100

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown campaign spec"):
            get_spec("no-such-spec")

    def test_table2_matches_bench_configuration(self):
        cells = get_spec("table2-fsync").cell_list()
        theorem3 = [c for c in cells if c.label == "t2.1-theorem3-known-bound"]
        assert {c.ring_size for c in theorem3} == {8, 16, 32, 64}
        assert {c.seed for c in theorem3} == set(range(5))
        assert all(c.resolved_positions() == (1, 1 + c.ring_size // 2)
                   for c in theorem3)
        assert all(c.max_rounds == 3 * c.ring_size - 6 + 5 for c in theorem3)

    def test_load_spec_json(self, tmp_path):
        spec = get_spec("smoke")
        path = tmp_path / "spec.json"
        import json
        path.write_text(json.dumps(spec.to_dict()))
        loaded = load_spec(path)
        assert [c.key() for c in loaded.cells()] == [c.key() for c in spec.cells()]

    def test_load_spec_yaml(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        spec = get_spec("smoke")
        path = tmp_path / "spec.yaml"
        path.write_text(yaml.safe_dump(spec.to_dict()))
        loaded = load_spec(path)
        assert [c.key() for c in loaded.cells()] == [c.key() for c in spec.cells()]


class TestCellScheduler:
    """``cell_scheduler``: the one place a cell's scheduler is resolved."""

    def test_auto_follows_the_transport_model(self):
        from repro.adversary import NoRemoval
        from repro.campaigns.registry import cell_scheduler
        from repro.schedulers import (
            ETFairScheduler, FsyncScheduler, RandomFairScheduler)

        for transport, kind in (("ns", FsyncScheduler),
                                ("pt", RandomFairScheduler),
                                ("et", ETFairScheduler)):
            scheduler = cell_scheduler(cell(transport=transport), NoRemoval())
            assert type(scheduler) is kind, transport

    def test_auto_hands_activation_to_a_combined_adversary(self):
        from repro.campaigns.registry import ADVERSARIES, cell_scheduler

        c = cell(adversary="ns-starvation")
        adversary = ADVERSARIES[c.adversary](c)
        assert cell_scheduler(c, adversary) is adversary

    def test_named_scheduler_wins_over_a_combined_adversary(self):
        from repro.campaigns.registry import ADVERSARIES, cell_scheduler
        from repro.schedulers import RoundRobinScheduler

        c = cell(adversary="ns-starvation", scheduler="round-robin")
        scheduler = cell_scheduler(c, ADVERSARIES[c.adversary](c))
        assert type(scheduler) is RoundRobinScheduler
