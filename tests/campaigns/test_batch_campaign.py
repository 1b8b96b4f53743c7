"""Batch routing through the campaign layer: chunks, stores, fleets.

The contract under test: routing eligible cells through
:class:`~repro.core.batch.BatchCore` is *invisible* in every persisted
artifact — store keys, record shapes, reports and resume behaviour are
byte-identical to the scalar path — while the queue's telemetry (and
only the telemetry) says which chunks vectorized and how fast.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from itertools import groupby, zip_longest
from pathlib import Path

import pytest

from repro.campaigns import (
    CampaignSpec,
    CellConfig,
    JsonlStore,
    SqliteStore,
    render_rows,
    run_cells,
)
from repro.campaigns.distributed import (
    WorkQueue,
    enqueue_campaign,
    fleet_status,
    render_status,
    run_distributed,
    run_worker,
)
from repro.campaigns.executor import (
    MIN_BATCH_LANES,
    CampaignRun,
    batch_reject_counts,
    chunk_cells,
    default_chunk_size,
    even_chunks,
    plan_chunks,
    run_chunk,
)
from repro.core import batch_rules
from repro.core.batch_rules import BATCH_WIDTH, batch_shape
from repro.core.errors import ConfigurationError
from repro.obs import metrics as obs_metrics

FIXTURES = Path(__file__).parent / "fixtures"

needs_numpy = pytest.mark.skipif(
    not batch_rules.numpy_available(), reason="batch path needs numpy")


def eligible_spec(name="batch-test", seeds=(0, 1, 2), sizes=(6, 8)) -> CampaignSpec:
    """Every cell of this spec qualifies for the batch path.  Two agents
    per cell, so ``len(seeds) * len(sizes) * 2`` lanes: the default is a
    narrow group, which ``auto`` runs scalar."""
    return CampaignSpec(
        name=name,
        base={"algorithm": "unconscious", "horizon": "100 * n",
              "stop_on_exploration": True, "placement": "offset-spread"},
        grid={"ring_size": list(sizes), "seed": list(seeds)},
    )


def scalar_only_cell(seed=0) -> CellConfig:
    """Zigzag peeks at agent state, so this cell is always routed scalar
    (PT transport itself vectorizes since the frontier widened)."""
    return CellConfig(algorithm="pt-bound", ring_size=8, agents=2,
                      max_rounds=400, transport="pt", adversary="zigzag",
                      adversary_arg=3, seed=seed)


def metrics_by_key(records):
    return {r["key"]: r["metrics"] for r in records if "error" not in r}


def report_text(store, name):
    return render_rows(store.query().table(), title=f"campaign {name}")


@needs_numpy
class TestRunChunkRouting:
    def test_mixed_chunk_splits_and_keeps_input_order(self):
        """A planned chunk still checks each cell before vectorizing it."""
        eligible = eligible_spec().cell_list()
        mixed = [eligible[0], scalar_only_cell(0), eligible[1],
                 scalar_only_cell(1), eligible[2]]
        records, batched = run_chunk(mixed, planned=True)
        assert batched == 3
        assert [r["key"] for r in records] == [c.key() for c in mixed]
        assert all("metrics" in r for r in records)

    def test_unplanned_chunk_routes_nothing_through_batch(self):
        records, batched = run_chunk(eligible_spec().cell_list())
        assert batched == 0 and len(records) == 6

    @pytest.mark.parametrize("seeds, planned", [
        (3, True),                  # a planned batch chunk: any width
        # an unplanned chunk is never re-routed, however wide (the
        # width rule is the planner's: TestPlannerRouting)
        (MIN_BATCH_LANES // 4, False),
    ])
    def test_record_shape_identical_across_routing(self, seeds, planned):
        cells = eligible_spec(seeds=range(seeds)).cell_list()
        obs_metrics.configure(enabled=True)
        obs_metrics.reset()
        try:
            auto, n_auto = run_chunk(cells, planned=planned)
            rejects = batch_reject_counts(obs_metrics.snapshot())
        finally:
            obs_metrics.configure(enabled=None)
            obs_metrics.reset()
        off, n_off = run_chunk(cells)
        assert n_auto == (len(cells) if planned else 0) and n_off == 0
        assert rejects == {}        # the planner counts, not the chunk
        for a, o in zip(auto, off):
            assert a["key"] == o["key"]
            assert a["config"] == o["config"]
            assert a["metrics"] == o["metrics"]
            assert set(a) == set(o)  # same fields, incl. elapsed_s

    def test_abort_stops_scalar_remainder(self):
        calls = []

        def abort():
            calls.append(None)
            return len(calls) > 1  # allow one scalar cell, then abort

        cells = [scalar_only_cell(s) for s in range(4)]
        records, batched = run_chunk(cells, abort=abort)
        assert batched == 0
        assert len(records) == 1


@needs_numpy
class TestPlannerRouting:
    """:func:`plan_chunks` alone decides a chunk's route, and
    :func:`run_chunk` follows the label."""

    @staticmethod
    def run_plan(cells, batch):
        """Plan and run ``cells`` with metrics on: ``(chunks, records,
        batched, rejects)``."""
        obs_metrics.configure(enabled=True)
        obs_metrics.reset()
        try:
            chunks = plan_chunks(cells, 1, batch=batch)
            runs = [run_chunk(chunk, planned=planned)
                    for planned, chunk in chunks]
            rejects = batch_reject_counts(obs_metrics.snapshot())
        finally:
            obs_metrics.configure(enabled=None)
            obs_metrics.reset()
        records = [r for chunk_records, _ in runs for r in chunk_records]
        return chunks, records, sum(n for _, n in runs), rejects

    @pytest.mark.parametrize("seeds, wide", [
        # cells x agents = 4 * seeds: one seed short of the minimum
        (MIN_BATCH_LANES // 4 - 1, False),
        (MIN_BATCH_LANES // 4, True),   # at the minimum
    ])
    def test_width_rule_routes_whole_chunks(self, seeds, wide):
        cells = eligible_spec(seeds=range(seeds)).cell_list()
        chunks, auto, n_auto, rejects = self.run_plan(cells, "auto")
        assert {planned for planned, _ in chunks} == {wide}
        assert n_auto == (len(cells) if wide else 0)
        assert rejects == ({} if wide else {"narrow": len(cells)})
        off, n_off = run_chunk(cells)
        assert n_off == 0 and len(auto) == len(off)
        for a, o in zip(auto, off):
            assert a["key"] == o["key"]
            assert a["config"] == o["config"]
            assert a["metrics"] == o["metrics"]
            assert set(a) == set(o)  # same fields, incl. elapsed_s

    def test_no_numpy_plans_scalar_chunks(self, monkeypatch):
        monkeypatch.setattr(batch_rules, "HAVE_NUMPY", False)
        cells = eligible_spec(seeds=range(MIN_BATCH_LANES)).cell_list()
        chunks, _, _, rejects = self.run_plan(cells, "auto")
        assert {p for p, _ in chunks} == {False}
        assert rejects == {"no_numpy": len(cells)}

    @pytest.mark.parametrize("batch, expected", [
        # the 6-cell unconscious group is narrow; zigzag peeks
        ("auto", {"narrow": 6, "adversary": 2}),
        ("off", {}),                # off decides nothing, so counts nothing
        ("on", {}),                 # every cell batches
    ])
    def test_planner_counts_each_scalar_cell_once(self, batch, expected):
        cells = eligible_spec().cell_list()
        if batch != "on":           # on refuses the peeking cells
            cells += [scalar_only_cell(0), scalar_only_cell(1)]
        _, records, batched, rejects = self.run_plan(cells, batch)
        assert len(records) == len(cells)
        assert batched == (len(cells) if batch == "on" else 0)
        assert rejects == expected


@needs_numpy
class TestStoreEquivalence:
    def test_batched_report_byte_identical_to_serial_scalar(self, tmp_path):
        spec = eligible_spec()
        batched = JsonlStore(tmp_path / "batched.jsonl")
        scalar = JsonlStore(tmp_path / "scalar.jsonl")
        run_b = run_cells(spec.cells(), batched, workers=1, batch="on")
        run_s = run_cells(spec.cells(), scalar, workers=1, batch="off")
        assert run_b.batched == 6 and run_s.batched == 0
        assert "batched=6" in run_b.summary()
        assert metrics_by_key(batched.records()) == metrics_by_key(scalar.records())
        assert report_text(batched, spec.name) == report_text(scalar, spec.name)

    def test_resume_over_batched_store_recomputes_nothing(self, tmp_path):
        spec = eligible_spec()
        store = JsonlStore(tmp_path / "r.jsonl")
        first = run_cells(spec.cells(), store, workers=1, batch="on")
        assert first.executed == 6
        resumed = run_cells(spec.cells(), JsonlStore(store.path), workers=1)
        assert resumed.executed == 0 and resumed.skipped == 6
        # ...and a scalar resume over the batched store agrees too
        rerun = run_cells(spec.cells(), JsonlStore(store.path), workers=1,
                          batch="off")
        assert rerun.executed == 0 and rerun.skipped == 6

    def test_parallel_batched_equals_serial_scalar(self, tmp_path):
        spec = eligible_spec()
        pool = JsonlStore(tmp_path / "pool.jsonl")
        serial = JsonlStore(tmp_path / "serial.jsonl")
        run_p = run_cells(spec.cells(), pool, workers=3, batch="on")
        run_cells(spec.cells(), serial, workers=1, batch="off")
        assert run_p.batched == 6
        assert metrics_by_key(pool.records()) == metrics_by_key(serial.records())


class TestKeyRegression:
    """``--batch off`` reproduces the PR-5-era store keys exactly.

    ``fixtures/pr5_store.jsonl`` is a result store in the pre-batch
    record shape: its configs have no ``batch`` field at all.  Both
    resuming over it and re-running its spec must line up key-for-key —
    the ``batch`` knob is execution routing, never identity.
    """

    FIXTURE_SPEC = CampaignSpec(
        name="pr5-fixture",
        base={"algorithm": "unconscious", "horizon": "100 * n",
              "stop_on_exploration": True, "placement": "offset-spread"},
        grid={"ring_size": [6, 8], "seed": [0, 1, 2]},
    )

    def fixture_records(self):
        lines = (FIXTURES / "pr5_store.jsonl").read_text().splitlines()
        return [json.loads(line) for line in lines]

    def test_fixture_predates_the_batch_field(self):
        for record in self.fixture_records():
            assert "batch" not in record["config"]

    def test_scalar_rerun_reproduces_every_fixture_key(self, tmp_path):
        store = JsonlStore(tmp_path / "r.jsonl")
        run_cells(self.FIXTURE_SPEC.cells(), store, workers=1, batch="off")
        assert ({r["key"] for r in store.records()}
                == {r["key"] for r in self.fixture_records()})
        assert (metrics_by_key(store.records())
                == metrics_by_key(self.fixture_records()))

    @needs_numpy
    def test_batched_rerun_reproduces_every_fixture_key(self, tmp_path):
        store = JsonlStore(tmp_path / "r.jsonl")
        run = run_cells(self.FIXTURE_SPEC.cells(), store, workers=1,
                        batch="on")
        assert run.batched == 6
        assert (metrics_by_key(store.records())
                == metrics_by_key(self.fixture_records()))

    def test_resume_over_pr5_store_skips_everything(self, tmp_path):
        path = tmp_path / "pr5.jsonl"
        path.write_text((FIXTURES / "pr5_store.jsonl").read_text())
        resumed = run_cells(self.FIXTURE_SPEC.cells(), JsonlStore(path),
                            workers=1)
        assert resumed.executed == 0 and resumed.skipped == 6


class TestLegacyBatchField:
    """Cells once carried a ``batch`` routing field, and every record and
    queued chunk written then holds ``"batch": "auto"``.
    ``fixtures/batch_field_store.jsonl`` is such a store, written for
    :attr:`TestKeyRegression.FIXTURE_SPEC`; both kinds still load."""

    SPEC = TestKeyRegression.FIXTURE_SPEC

    def test_records_load_and_keep_their_keys(self):
        lines = (FIXTURES / "batch_field_store.jsonl").read_text()
        records = [json.loads(line) for line in lines.splitlines()]
        assert {r["config"]["batch"] for r in records} == {"auto"}
        for record in records:
            cell = CellConfig.from_dict(record["config"])
            assert cell.key() == record["key"]
            assert cell.to_dict() == {k: v for k, v in
                                      record["config"].items()
                                      if k != "batch"}

    def test_resume_over_batch_field_store_skips_everything(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        path.write_text((FIXTURES / "batch_field_store.jsonl").read_text())
        resumed = run_cells(self.SPEC.cells(), JsonlStore(path), workers=1)
        assert resumed.executed == 0 and resumed.skipped == 6

    def test_queued_chunk_with_batch_field_runs(self, tmp_path):
        store = SqliteStore(tmp_path / "q.db", campaign=self.SPEC.name)
        enqueue_campaign(self.SPEC, store)
        conn = store.connection()
        for chunk_id, payload in conn.execute(
                "SELECT id, cells FROM chunks").fetchall():
            legacy = [dict(cell, batch="auto") for cell in json.loads(payload)]
            conn.execute("UPDATE chunks SET cells = ? WHERE id = ?",
                         (json.dumps(legacy), chunk_id))
        conn.commit()
        report = run_worker(store, campaign=self.SPEC.name, worker_id="w0",
                            poll_s=0.01)
        assert report.cells_done == 6 and report.cells_failed == 0
        serial = JsonlStore(tmp_path / "serial.jsonl")
        run_cells(self.SPEC.cells(), serial, workers=1, batch="off")
        assert (metrics_by_key(store.records())
                == metrics_by_key(serial.records()))


class TestStrictMode:
    @needs_numpy
    def test_on_rejects_ineligible_cells_up_front(self, tmp_path):
        cells = [eligible_spec().cell_list()[0], scalar_only_cell()]
        with pytest.raises(ConfigurationError, match="not batch-eligible"):
            run_cells(cells, JsonlStore(tmp_path / "r.jsonl"), batch="on")

    @needs_numpy
    def test_on_refuses_distributed_runs_before_enqueue(self, tmp_path):
        """The refusal sits where serial, pool and distributed runs all
        pass: a --distributed run must not enqueue (let alone run
        scalar) the cells --batch on cannot vectorize."""
        spec = eligible_spec()
        cells = spec.cell_list() + [scalar_only_cell()]
        store = SqliteStore(tmp_path / "r.db", campaign=spec.name)
        with pytest.raises(ConfigurationError, match="not batch-eligible"):
            run_distributed(spec, store, cells=cells, workers=1,
                            lease_ttl_s=10, batch="on")
        assert not WorkQueue(store).ever_enqueued()
        assert len(store) == 0

    @needs_numpy
    @pytest.mark.parametrize("mode", [[], ["--distributed"]])
    def test_cli_on_refusal_is_the_same_in_every_mode(self, tmp_path, mode,
                                                      capsys):
        from repro.cli import main

        # impossibility mixes 2 batchable cells with 10 whose
        # constructions peek (or schedule) and so stay scalar.
        code = main(["campaign", "run", "--spec", "impossibility",
                     "--batch", "on", "--workers", "1", "--no-report",
                     "--store", f"sqlite:{tmp_path}/imp.db", *mode])
        assert code == 2
        assert "10 cell(s) are not batch-eligible" in capsys.readouterr().err

    def test_on_without_numpy_is_an_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(batch_rules, "HAVE_NUMPY", False)
        with pytest.raises(ConfigurationError, match="NumPy"):
            run_cells(eligible_spec().cell_list(),
                      JsonlStore(tmp_path / "r.jsonl"), batch="on")

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="batch"):
            run_cells(eligible_spec().cell_list(),
                      JsonlStore(tmp_path / "r.jsonl"), batch="sideways")

    def test_enqueue_rejects_unknown_mode_before_writing_a_chunk(
            self, tmp_path):
        spec = eligible_spec(name="bad-mode", seeds=range(32))  # 64 cells
        store = SqliteStore(tmp_path / "q.db", campaign=spec.name)
        with pytest.raises(ConfigurationError, match="batch"):
            enqueue_campaign(spec, store, batch="sideways")
        assert not WorkQueue(store).ever_enqueued()
        assert store.connection().execute(
            "SELECT COUNT(*) FROM chunks").fetchone() == (0,)

    def test_worker_verb_has_no_batch_flag(self, capsys):
        """Workers follow the planner's labels; there is nothing for a
        worker-side override to decide."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["campaign", "worker", "--campaign", "x", "--batch", "on"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --batch" in capsys.readouterr().err


#: Modules a scalar run never calls into, so it must not import them.
NOT_IMPORTED = frozenset({
    "repro.core.batch", "repro.core.batch_kernels",
    "repro.campaigns.distributed", "repro.obs.analyze",
    "repro.campaigns.stores.export", "repro.resilience.fsck",
    "repro.resilience.chaos", "repro.theory.tables", "repro.analysis.render",
    "repro.analysis.checker", "repro.analysis.catch_log",
    "repro.analysis.catch_tree", "repro.analysis.model_check",
    "repro.adversary.blocking", "repro.adversary.impossibility",
    "repro.adversary.restricted", "repro.adversary.worst_case"})
NOT_IMPORTED_PREFIXES = ("repro.campaigns.distributed.",)

#: Most ``repro`` modules ``import repro.cli`` may load.
IMPORT_BUDGET = 64


class TestNumpyFallback:
    """No NumPy: everything runs scalar, nothing else changes."""

    @pytest.mark.parametrize("argv", [
        None,                                     # import repro.cli alone
        ["--spec", "smoke", "--batch", "off"],
        ["--spec", "smoke"],                      # auto: narrow groups only
        ["--spec", "smoke", "--store", "sqlite:smoke.db"],  # retry, no chaos
    ])
    def test_scalar_runs_never_import_numpy(self, tmp_path, argv):
        """Only a process that builds a BatchCore loads NumPy, and a
        scalar run loads none of the modules it never calls into (the
        import budget: ARCHITECTURE.md, "What a run imports")."""
        script = "import json, sys\nfrom repro.cli import main\n"
        if argv is not None:
            script += (f"assert main(['campaign', 'run', *{argv!r}, "
                       "'--workers', '1', '--no-report']) == 0\n")
        script += "print(json.dumps(sorted(sys.modules)))\n"
        src = Path(batch_rules.__file__).resolve().parents[2]
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(src)
        out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                             env=env, capture_output=True, text=True,
                             check=True).stdout
        loaded = json.loads(out.splitlines()[-1])
        assert "numpy" not in loaded
        repro = [m for m in loaded if m.split(".")[0] == "repro"]
        assert not [m for m in repro if m.startswith(NOT_IMPORTED_PREFIXES)
                    or m in NOT_IMPORTED]
        if argv is None:
            assert len(repro) <= IMPORT_BUDGET

    def test_auto_degrades_to_scalar(self, tmp_path, monkeypatch):
        monkeypatch.setattr(batch_rules, "HAVE_NUMPY", False)
        assert not batch_rules.numpy_available()
        spec = eligible_spec()
        store = JsonlStore(tmp_path / "r.jsonl")
        run = run_cells(spec.cells(), store, workers=1, batch="auto")
        assert run.executed == 6 and run.batched == 0
        assert store.completed_keys() == {c.key() for c in spec.cells()}

    @needs_numpy
    def test_scalar_records_match_batched_records(self, tmp_path, monkeypatch):
        spec = eligible_spec()
        batched = JsonlStore(tmp_path / "b.jsonl")
        run_cells(spec.cells(), batched, workers=1, batch="on")
        monkeypatch.setattr(batch_rules, "HAVE_NUMPY", False)
        scalar = JsonlStore(tmp_path / "s.jsonl")
        run_cells(spec.cells(), scalar, workers=1, batch="auto")
        assert metrics_by_key(batched.records()) == metrics_by_key(scalar.records())


def mixed_plan_cells() -> list[CellConfig]:
    """Batchable cells of two wide shapes (64 and 80 two-agent cells),
    interleaved with scalar-only cells."""
    unconscious = eligible_spec(seeds=range(32)).cell_list()
    known_bound = [replace(c, algorithm="known-bound", label="kb")
                   for c in eligible_spec(seeds=range(32, 72)).cell_list()]
    scalar = [scalar_only_cell(seed) for seed in range(7)]
    assert 2 * len(unconscious) >= MIN_BATCH_LANES
    rows = zip_longest(unconscious, known_bound, scalar)
    return [c for row in rows for c in row if c is not None]


class TestChunkSizing:
    def test_scalar_sizing_unchanged(self):
        assert default_chunk_size(1000, 8) == 25
        assert default_chunk_size(40, 8) == 2
        assert default_chunk_size(1, 8) == 1

    def test_batch_sizing_targets_one_chunk_per_worker(self):
        assert default_chunk_size(1000, 8, batch=True) == 125
        assert default_chunk_size(8 * BATCH_WIDTH + 1, 8, batch=True) == BATCH_WIDTH
        assert default_chunk_size(1, 8, batch=True) == 1

    def test_batch_cap_is_the_vector_width(self):
        assert default_chunk_size(10 ** 6, 1, batch=True) == BATCH_WIDTH

    @needs_numpy
    def test_enqueue_sizes_chunks_for_the_batch_path(self, tmp_path):
        spec = eligible_spec(seeds=range(22), sizes=(6, 7, 8))  # 66 cells
        store = SqliteStore(tmp_path / "q.db", campaign=spec.name)
        queue, report = enqueue_campaign(spec, store)
        # all 66 cells (132 lanes) batch -> one wide chunk per local
        # worker, not the scalar 25-cell slivers
        expected = default_chunk_size(66, batch=True)
        sizes = [n for n, in store.connection().execute(
            "SELECT n_cells FROM chunks ORDER BY id")]
        assert max(sizes) == expected
        assert sum(sizes) == 66

    @needs_numpy
    def test_enqueue_sizes_mixed_cells_by_route(self, tmp_path):
        """A wide group of 64 batchable cells fills its chunks at the
        batch size; the scalar cell gets a chunk of its own."""
        lone = scalar_only_cell()
        cells = eligible_spec(seeds=range(32)).cell_list() + [lone]
        spec = eligible_spec()
        store = SqliteStore(tmp_path / "q.db", campaign=spec.name)
        WorkQueue(store).enqueue(cells)
        rows = [(n, json.loads(keys)) for n, keys in store.connection().execute(
            "SELECT n_cells, cell_keys FROM chunks ORDER BY id")]
        batch_size = default_chunk_size(64, batch=True)
        assert [n for n, _ in rows] == [
            len(c) for c in even_chunks(range(64), batch_size)] + [1]
        assert rows[-1][1] == [lone.key()]

    @needs_numpy
    def test_every_cell_lands_in_exactly_one_chunk(self):
        cells = mixed_plan_cells()
        chunks = plan_chunks(cells, 2, batch=None)
        assert sorted(id(c) for _, chunk in chunks for c in chunk) == sorted(
            map(id, cells))

    @needs_numpy
    def test_no_chunk_mixes_batchable_and_scalar_cells(self):
        chunks = plan_chunks(mixed_plan_cells(), 2, batch=None)
        routes = [{batch_rules.batch_eligible(c) for c in chunk}
                  for _, chunk in chunks]
        assert all(len(r) == 1 for r in routes)
        assert {True} in routes and {False} in routes
        assert [wide for wide, _ in chunks] == [r == {True} for r in routes]

    @needs_numpy
    def test_cells_of_one_shape_keep_their_spec_order(self):
        cells = mixed_plan_cells()
        planned = [c for _, chunk in plan_chunks(cells, 2, batch=None)
                   for c in chunk]
        for shape in {(c.algorithm, c.agents, batch_rules.batch_eligible(c))
                      for c in cells}:
            def of_shape(seq):
                return [c for c in seq if (
                    c.algorithm, c.agents, batch_rules.batch_eligible(c)) == shape]
            assert of_shape(planned) == of_shape(cells), shape

    @needs_numpy
    def test_batchable_cells_are_grouped_by_shape(self):
        """One run per shape, the shapes in order of first appearance."""
        cells = mixed_plan_cells()
        planned = [c for _, chunk in plan_chunks(cells, 2, batch=None)
                   for c in chunk if batch_rules.batch_eligible(c)]
        runs = [shape for shape, _ in groupby(map(batch_shape, planned))]
        first_seen = list(dict.fromkeys(
            batch_shape(c) for c in cells if batch_rules.batch_eligible(c)))
        assert len(first_seen) == 2
        assert runs == first_seen

    @needs_numpy
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_uniform_runs_keep_the_default_sizes(self, workers):
        batchable = eligible_spec(seeds=range(40)).cell_list()
        scalar = [scalar_only_cell(seed) for seed in range(90)]
        for cells, batch, wide in ((batchable, None, True),
                                   (scalar, None, False),
                                   (batchable, "off", False)):
            size = default_chunk_size(len(cells), workers, batch=wide)
            chunks = plan_chunks(cells, workers, batch=batch)
            assert chunks == [(wide, chunk) for chunk
                              in chunk_cells(cells, size)], (batch, wide)

    @needs_numpy
    def test_explicit_chunk_size_caps_both_runs(self):
        cells = mixed_plan_cells()
        chunks = plan_chunks(cells, 2, batch=None, chunk_size=4)
        n_batch = sum(map(batch_rules.batch_eligible, cells))
        n_scalar = len(cells) - n_batch
        assert [len(c) for _, c in chunks] == [
            len(c) for c in chunk_cells(range(n_batch), 4)
            + chunk_cells(range(n_scalar), 4)]
        assert all(len({batch_rules.batch_eligible(c) for c in chunk}) == 1
                   for _, chunk in chunks)

    def test_rejects_a_non_positive_chunk_size(self):
        with pytest.raises(ConfigurationError, match="chunk_size"):
            plan_chunks(mixed_plan_cells(), 2, batch=None, chunk_size=0)

    @needs_numpy
    def test_plans_over_items_carrying_their_cell(self):
        cells = mixed_plan_cells()
        pairs = [(c.key(), c) for c in cells]
        keyed = plan_chunks(pairs, 2, batch=None, cell=lambda p: p[1])
        bare = plan_chunks(cells, 2, batch=None)
        assert [(wide, [c for _, c in chunk])
                for wide, chunk in keyed] == bare


@needs_numpy
class TestFleetTelemetry:
    def test_worker_marks_batched_chunks(self, tmp_path):
        spec = eligible_spec()
        store = SqliteStore(tmp_path / "q.db", campaign=spec.name)
        queue, _ = enqueue_campaign(spec, store, batch="on")
        report = run_worker(store, campaign=spec.name, worker_id="w0",
                            poll_s=0.01)
        assert report.cells_done == 6
        assert report.cells_batched == 6
        assert "batched=6" in report.summary()
        counts = queue.counts()
        assert counts.batched_done == counts.done > 0
        assert counts.cells_batched == 6
        for chunk in queue.recent_chunks():
            assert chunk.batched
            assert chunk.cells_per_s is None or chunk.cells_per_s > 0

    def test_scalar_labels_leave_chunks_unmarked(self, tmp_path):
        spec = eligible_spec(name="scalar-fleet")
        store = SqliteStore(tmp_path / "q.db", campaign=spec.name)
        queue, _ = enqueue_campaign(spec, store, batch="off")
        report = run_worker(store, campaign=spec.name, worker_id="w0",
                            poll_s=0.01)
        assert report.cells_batched == 0
        counts = queue.counts()
        assert counts.batched_done == 0 and counts.cells_batched == 0

    def test_numpy_less_worker_runs_batch_labels_scalar(self, tmp_path,
                                                        monkeypatch):
        """A mixed fleet: chunks labelled batch on a host with NumPy run
        scalar on a worker without it, counted under ``no_numpy``, and
        the store ends up as a ``--batch off`` run's."""
        wide = eligible_spec(seeds=range(MIN_BATCH_LANES // 4)).cell_list()
        spec = eligible_spec(name="numpy-less-fleet")
        store = SqliteStore(tmp_path / "q.db", campaign=spec.name)
        queue = WorkQueue(store)
        queue.enqueue(wide, chunk_size=32)
        assert list(store.connection().execute(
            "SELECT n_cells, batched FROM chunks ORDER BY id")) == [
            (32, 1), (32, 1)]
        monkeypatch.setattr(batch_rules, "HAVE_NUMPY", False)
        obs_metrics.configure(enabled=True)
        obs_metrics.reset()
        try:
            report = run_worker(store, campaign=spec.name,
                                worker_id="no-numpy", poll_s=0.01)
        finally:
            obs_metrics.configure(enabled=None)
            obs_metrics.reset()
        assert (report.cells_done, report.cells_batched) == (64, 0)
        assert batch_reject_counts(report.metrics) == {"no_numpy": 64}
        assert queue.finished() and queue.counts().batched_done == 0
        serial = JsonlStore(tmp_path / "serial.jsonl")
        run_cells(wide, serial, workers=1, batch="off")
        assert (metrics_by_key(store.records())
                == metrics_by_key(serial.records()))
        assert report_text(store, spec.name) == report_text(serial, spec.name)

    def test_status_counts_each_reject_reason_once(self, tmp_path):
        """The enqueue records the planner's reject counts, the worker
        its own work: status merges both and shows each reason once."""
        cells = eligible_spec().cell_list() + [scalar_only_cell(0),
                                               scalar_only_cell(1)]
        spec = eligible_spec(name="rejects")
        store = SqliteStore(tmp_path / "q.db", campaign=spec.name)
        obs_metrics.configure(enabled=True)
        obs_metrics.reset()
        try:
            enqueue_campaign(spec, store, cells=cells)
            run_worker(store, campaign=spec.name, worker_id="w0",
                       poll_s=0.01)
        finally:
            obs_metrics.configure(enabled=None)
            obs_metrics.reset()
        status = fleet_status(store, campaign=spec.name)
        assert status.batch_rejects == {"narrow": 6, "adversary": 2}
        assert "  narrow     x6" in render_status(status)

    def test_status_renders_batch_telemetry(self, tmp_path):
        spec = eligible_spec()
        store = SqliteStore(tmp_path / "q.db", campaign=spec.name)
        enqueue_campaign(spec, store, batch="on")
        run_worker(store, campaign=spec.name, worker_id="w0", poll_s=0.01)
        status = fleet_status(store, campaign=spec.name)
        assert status.recent_chunks
        text = render_status(status)
        assert "batch   :" in text
        assert "batched=true" in text
        assert "cells/s" in text

    def test_mixed_fleet_report_identical_to_serial(self, tmp_path):
        """A batched fleet and a scalar serial run: same report bytes."""
        spec = eligible_spec(name="mixed-fleet")
        store = SqliteStore(tmp_path / "q.db", campaign=spec.name)
        enqueue_campaign(spec, store, batch="on")
        run_worker(store, campaign=spec.name, worker_id="w0", poll_s=0.01)
        serial = JsonlStore(tmp_path / "serial.jsonl")
        run_cells(spec.cells(), serial, workers=1, batch="off")
        assert report_text(store, spec.name) == report_text(serial, spec.name)

    def test_old_store_schema_migrates_in_place(self, tmp_path):
        """A PR-5-era queue db (no telemetry columns) opens and works."""
        import sqlite3

        path = tmp_path / "old.db"
        conn = sqlite3.connect(path)
        # the chunks table as PR 5 created it, without batched/cells_per_s
        conn.executescript("""
            CREATE TABLE chunks (
                id           INTEGER PRIMARY KEY,
                campaign_key TEXT NOT NULL DEFAULT '',
                state        TEXT NOT NULL DEFAULT 'pending',
                cells        TEXT NOT NULL,
                cell_keys    TEXT NOT NULL,
                n_cells      INTEGER NOT NULL,
                created_at   REAL NOT NULL,
                done_at      REAL
            );
        """)
        conn.commit()
        conn.close()
        spec = eligible_spec(name="migrated")
        store = SqliteStore(path, campaign=spec.name)
        cols = {row[1] for row in store.connection().execute(
            "PRAGMA table_info(chunks)")}
        assert {"batched", "cells_per_s"} <= cols
        enqueue_campaign(spec, store)
        report = run_worker(store, campaign=spec.name, worker_id="w0",
                            poll_s=0.01)
        assert report.cells_done == 6


class TestCampaignRunSummary:
    def test_summary_omits_batched_when_zero(self):
        run = CampaignRun(total=5, skipped=0, executed=5, failed=0,
                          workers=1, elapsed_s=1.0)
        assert "batched" not in run.summary()


class TestPresetBatchIntent:
    """Preset drift must not silently shrink batch coverage.

    ``batch-smoke`` and ``batch-wide`` exist to exercise the vector
    path in CI: every cell must stay batch-eligible.  ``faults-smoke``
    pairs fault-free twins with faulted cells; since BatchCore runs
    fault plans, both halves batch, and a plan that fell back to the
    scalar path would silently take the faulted half out of the CI
    byte diff.
    """

    @pytest.mark.parametrize(
        "preset", ["batch-smoke", "batch-wide", "faults-smoke"])
    def test_all_cells_of_batch_presets_are_eligible(self, preset):
        from repro.campaigns.presets import get_spec
        from repro.core.batch_rules import batch_ineligible_reason

        for cell in get_spec(preset).cell_list():
            reason = batch_ineligible_reason(cell)
            assert reason is None, f"{cell.key()}: {reason}"

    def test_batch_wide_crosses_the_seeded_and_periodic_adversaries(self):
        """The CI byte diff covers each ``edge_for`` adversary that
        draws or cycles, not only the fixed edge."""
        from repro.campaigns.presets import get_spec

        cells = get_spec("batch-wide").cell_list()
        assert len(cells) == 72
        assert {"fixed", "periodic", "random"} <= {c.adversary for c in cells}

    def test_faults_smoke_faulted_cells_batch(self):
        """The preset's faulted half (27 of 45 cells) takes the vector
        path, so the all-eligible check above is not vacuous for it."""
        from repro.campaigns.presets import get_spec
        from repro.core.batch_rules import batch_ineligible_key

        faulted = [c for c in get_spec("faults-smoke").cell_list() if c.faults]
        assert len(faulted) == 27
        for cell in faulted:
            key = batch_ineligible_key(cell)
            assert key is None, f"{cell.key()}: {key}"
