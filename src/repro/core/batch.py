"""Lockstep batch execution: many ring cells as one NumPy program.

``BENCH_engine.json`` shows the scalar round loop is bound by the
per-agent Python work itself once the occupancy index made each step
O(1): throughput per *cell* falls roughly linearly with agent count.
Campaign chunks, however, are hundreds of cells that differ only along
the seed / adversary-arg / ring-size axes — same algorithm, same agent
count, same round structure.  :class:`BatchCore` exploits that shape by
executing a whole chunk in lockstep: agent positions, ports, phases and
counters become ``(cells, agents)`` integer/bool arrays, the adversary's
edge removals a per-cell vector, and every round a fixed sequence of
whole-array Look/Compute/Move operations.  Cells that halt simply leave
the active mask; the survivors keep stepping.

The frontier spans the paper's oblivious matrix and two extensions:

* **every registry algorithm** — Compute is one driver for all of them:
  :mod:`repro.core.batch_kernels` runs each algorithm's
  :class:`~repro.core.batch_kernels.VectorProgram`, a masked columnar
  twin of its ``StateMachineAlgorithm``;
* **PT and ET transports** — a PT agent left on a port by the scheduler
  *rides* the edge when it is present (one extra masked traverse per
  round); ET differs from NS only through its scheduler;
* **SSYNC schedulers and the oblivious adversaries** — each cell's
  adversary and scheduler are the objects the registry builds for the
  scalar engine, and those objects own every parameter and seed.
  BatchCore reads the parameters off their read-only attributes into
  columns (the edge windows of ``none``/``fixed``/``periodic``,
  round-robin's window, random-fair's ``p`` and cap, et-fair's
  patience beside a ``debt[C, K]`` column).  The seeded ones
  (``random``, ``random-fair``) hand over their generator's raw 32-bit
  words in blocks (:class:`_WordBlocks`), and BatchCore replays
  ``random()``, ``randrange`` and ``choice`` on those words with one
  cursor per row, so every draw is the scalar engine's, word for word.
  A factory class with no array form raises :class:`ConfigurationError`
  (the executor then runs the chunk scalar);
* **landmark cells** — the landmark is one more per-cell column
  (``lm``/``lm_seen``/``lm_first_net``/``size``/``Ntime``), maintained
  for every cell so LExplore observations match the scalar engine even
  for algorithms that ignore them;
* **fault plans** — every plan the scalar path accepts (``crash:A@R``,
  ``lost:A``/``lost:*``, ``rate:p``): a ``crashed[C, K]`` column, the
  round's crashes (each faulty cell's injector asked through
  ``crashes_at_round``) applied before the adversary;
* **the block-agent adversary** (Observation 1) — the target's intended
  move comes from one side-effect-free pass of the vector program
  against the round-start Look, its columns saved and restored around
  the pass.

Eligibility — the single predicate shared by the executor, the
distributed worker and the test suite
(:func:`~repro.core.batch_rules.batch_eligible`, kept in
:mod:`repro.core.batch_rules` so that routing never loads this module) —
still excludes what genuinely has no array form:

* the other *peeking* adversaries (``prevent-meetings``,
  ``ns-starvation``, ``figure2``, ``theorem19``, ``zigzag``): they peek
  every agent, and several also drive the activation schedule;
* non-ring topologies, invalid configurations the scalar path rejects
  (a fault plan that fails to parse or names a missing agent among
  them, so the fallback reproduces the identical error record), and the
  per-round invariant audit.

Equivalence with :class:`~repro.core.sim.SimulationCore` is not argued,
it is tested: ``tests/core/test_batch_equivalence.py`` drives both paths
over a differential grid plus Hypothesis-generated batches and asserts
cell-by-cell result *and* per-round state equality, and the golden ring
traces replay through this core too.

Width: a lockstep round costs a fixed Python dispatch whatever the
batch holds, so a batch pays off only once it is wide.  Under ``auto``
the campaign router (:mod:`repro.campaigns.executor`) therefore batches
a shape group only when its cells × agents reach
:data:`~repro.campaigns.executor.MIN_BATCH_LANES`; narrower groups run
on the scalar engine.  One batch holds at most
:data:`~repro.core.batch_rules.BATCH_WIDTH` cells.

Scale: the visited bitmap is bit-packed (``n_max / 8`` bytes per cell)
and the split caps count packed bytes — a 10^5-node ring batches a
thousand cells wide within the default cap.

NumPy is a declared dependency but its absence only disables batching:
:data:`~repro.core.batch_rules.HAVE_NUMPY` gates the routing
(``REPRO_NO_NUMPY=1`` forces the scalar path, which is also how CI
tests the fallback).  It is found, not imported: the first :class:`BatchCore` a process builds imports NumPy
and binds it to this module's and the kernels' ``_np``, so a run that
batches nothing (``--batch off``, or only groups the router finds too
narrow) never loads it.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

from ..obs import metrics as obs_metrics
from .batch_kernels import (
    K_ENTER, K_MOVE, K_TERM, Look, build_program, load_numpy)
from .batch_rules import (  # noqa: F401  (batch_ineligible_key: re-exported)
    BATCH_WIDTH,
    batch_ineligible_key,
    batch_ineligible_reason,
    batch_shape,
    numpy_available,
)
from .errors import ConfigurationError
from .results import AgentStats, RunResult

if TYPE_CHECKING:  # pragma: no cover
    from ..campaigns.spec import CellConfig

#: NumPy once the first :class:`BatchCore` is built (``None`` before).
_np = None

#: Cap on the pairwise occupancy tensor (cells * agents^2 bools) and the
#: *packed* visited bitmap (cells * ring-size/8 bytes) per batch; bigger
#: groups are split by :func:`run_batch_cells`.
_MAX_PAIRWISE = 1 << 22
_MAX_VISITED_BYTES = 1 << 26


#: Words one refill draws per row of a seeded policy's block: 256 cells
#: hold a few tens of KB of words.
_BLOCK_WORDS = 64

#: Words :meth:`_WordBlocks.below` examines per row at once.  A word
#: passes with probability >= 1/2, so 16 leave a row unsettled with
#: probability <= 2**-16.
_LOOKAHEAD = 16

#: Rows one refill pass handles: a bound on its temporaries.
_REFILL_ROWS = 64


def _randbelow_bounds(n):
    """``(limit, shift)`` per ``n >= 1``: ``Random._randbelow(n)`` keeps
    the first word below ``limit`` and returns it ``>> shift``, where
    ``shift = 32 - n.bit_length()`` and ``limit = n << shift`` (a word's
    top ``bit_length`` bits are below ``n`` iff the word is below
    ``limit``)."""
    np = _np
    shift = (32 - np.frexp(n.astype(np.float64))[1]).astype(np.uint32)
    return n.astype(np.uint32) << shift, shift


class _WordBlocks:
    """The raw 32-bit words of seeded policy objects, read in blocks.

    Row ``j`` owns ``width`` slots of one flat ``uint32`` array and holds
    a contiguous stretch of ``sources[j]``'s stream there: its unread
    words sit at flat positions ``cur[j] .. end[j] - 1``.  The draws
    decode words the way :class:`random.Random` does, so reading a row
    from its cursor replays the object's own ``random()``/``randrange``/
    ``choice`` calls word for word.  No generator state is copied: the
    words come from the object's ``words(count)``.

    With ``below`` (one ``n`` per row) a row's stream is nothing but
    ``randrange(n)`` draws, so each block is decoded as it arrives and
    the row holds draws, one per :meth:`pop`, instead of words.
    """

    def __init__(self, sources, reach: int, below=None) -> None:
        """``reach``: the most words one draw reads past the cursor."""
        np = _np
        self._sources = sources
        self._reach = max(reach, _LOOKAHEAD)
        width = _BLOCK_WORDS + self._reach
        self._words = np.zeros(len(sources) * width, dtype=np.uint32)
        self._base = np.arange(len(sources)) * width
        self._tail = np.arange(self._reach)
        self._block = np.arange(_BLOCK_WORDS)
        self._ahead = np.arange(_LOOKAHEAD)
        self._decode = None if below is None else _randbelow_bounds(below)
        self.cur = self._base.copy()
        self.end = self._base.copy()

    def ensure(self, rows, need) -> None:
        """Give every row of ``rows`` at least ``need`` (<= the reach)
        unread words, refilling the short ones."""
        short = rows[self.end[rows] - self.cur[rows] < need]
        while short.size:
            # A few rows per pass keep the temporaries small.
            for lo in range(0, short.size, _REFILL_ROWS):
                self._refill(short[lo:lo + _REFILL_ROWS])
            # A decoded block may keep too few draws (each word passes
            # with probability >= 1/2); those rows draw another.
            short = short[self.end[short] - self.cur[short] < need]

    def _refill(self, rows) -> None:
        """Move each row's unread tail to the front of its slots and
        append the whole next block of its stream (decoded: the block's
        kept draws)."""
        np = _np
        words = self._words
        fresh = np.frombuffer(
            b"".join([self._sources[j].words(_BLOCK_WORDS)
                      for j in rows.tolist()]),
            dtype="<u4").reshape(rows.size, _BLOCK_WORDS)
        base, cur = self._base[rows], self.cur[rows]
        tail = self.end[rows] - cur
        keep = self._tail < tail[:, None]
        moved = words.take(cur[:, None] + self._tail, mode="clip")
        words[(base[:, None] + self._tail)[keep]] = moved[keep]
        start = base + tail
        self.cur[rows] = base
        if self._decode is None:
            words[start[:, None] + self._block] = fresh
            self.end[rows] = start + _BLOCK_WORDS
            return
        limit, shift = self._decode
        kept = fresh < limit[rows, None]
        at = np.cumsum(kept, axis=1)
        at += (start - 1)[:, None]
        words[at[kept]] = (fresh >> shift[rows, None])[kept]
        self.end[rows] = start + kept.sum(axis=1)

    def pop(self, rows):
        """The next draw of each decoded row, consumed."""
        cur = self.cur[rows]
        self.cur[rows] = cur + 1
        return self._words.take(cur)

    def peek(self, rows, offsets):
        """The words ``offsets[i, :]`` past row ``rows[i]``'s cursor (not
        consumed; they must be among its unread words)."""
        return self._words.take(self.cur[rows, None] + offsets)

    def random(self, rows, offsets):
        """``Random.random()`` from the two words at each offset (not
        consumed): ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``."""
        np = _np
        a = (self.peek(rows, offsets) >> 5).astype(np.int64)
        b = self.peek(rows, offsets + 1) >> 6
        return (a * 67108864 + b) * (1.0 / 9007199254740992.0)

    def below(self, rows, n):
        """``Random._randbelow(n)`` per row (each ``n >= 1``), consuming
        the word it returns and the words it rejects.  At least half of
        all words pass, so one look at the next :data:`_LOOKAHEAD` words
        settles nearly every row; the rest look again."""
        np = _np
        limit, shift = _randbelow_bounds(n)
        out = np.empty(rows.size, dtype=np.int64)
        todo = np.arange(rows.size)
        while todo.size:
            now = rows[todo]
            self.ensure(now, _LOOKAHEAD)
            word = self.peek(now, self._ahead)
            ok = word < limit[todo, None]
            first = ok.argmax(axis=1)
            hit = ok.any(axis=1)
            self.cur[now] += np.where(hit, first + 1, _LOOKAHEAD)
            done = todo[hit]
            out[done] = word[hit, first[hit]] >> shift[done]
            todo = todo[~hit]
        return out


class BatchCore:
    """Lockstep execution of same-shape eligible cells.

    Array layout (``C`` cells x ``K`` agents, all int64/bool):

    ======================  =====================================================
    ``pos[C,K]``            agent node
    ``on_port``/``port``    standing on a port / its global sign (+1 toward
                            ``v+1``); ``port`` is meaningful only under
                            ``on_port``
    ``left[C,K]``           the global sign each agent labels *left*
                            (-1 canonical, +1 mirrored)
    ``term``/``term_round`` terminated flag / round of termination (-1 = never)
    ``crashed[C,K]``        crashed by the cell's fault plan (disjoint from
                            ``term``); ``lossy[C,K]`` marks lost-on-removal
                            agents, ``has_plan[C]`` the cells with a plan
    counters                ``Ttime Tsteps Etime Esteps Btime net min_net
                            max_net Ntime`` plus ``moved``/``failed`` —
                            exactly :class:`~repro.core.memory.AgentMemory`'s
                            slots
    landmark                ``lm[C]`` (node or -1), ``lm_seen``/
                            ``lm_first_net``/``size[C,K]`` (-1 = unknown)
    ``state[C,K]``          the state-machine state, plus ``entered``/
                            ``last_dir`` for the program driver
    program columns         ``v_*[C,K]`` variables and ``pbound[C]``,
                            allocated by the program's ``setup``
    scheduling              ``rsa[C,K]`` rounds since active; round-robin
                            rows' windows and offsets, random-fair rows'
                            ``p``/cap and word blocks, et-fair rows'
                            patience and ``debt[C,K]``
    adversary               oblivious rows' edge windows, random rows'
                            ``p`` and word blocks, block-agent targets
    ``visited_bits``        packed bitmap ``[C, ceil(n_max/8)]`` +
                            ``visited_count``/``explo_round``
    ``running[C]``          cells still stepping; halted cells freeze
    ======================  =====================================================

    Each :meth:`advance` replays one scalar round exactly — the fault
    plans' crashes, Look (pairwise same-node occupancy tensors),
    adversary choice (block-agent rows peek through the vector program),
    scheduler activation (FSYNC constant, round-robin rotation,
    random-fair coins and et-fair debts), the
    algorithm's vector program (state transitions with the driver's
    entered-state timing), port mutual exclusion (denial = port held at
    round start, winner = lowest index, ``Btime`` reset for every
    requester), the Move phase (with PT port rides, lost-on-removal
    crashes and landmark observation) and the end-of-round tick —
    preceded by the scalar ``run()`` stop-condition check in its exact
    priority order (no survivor left > explored > horizon).
    """

    def __init__(self, cells: Sequence["CellConfig"]) -> None:
        """Lay out ``cells``, which must be batch-eligible and share one
        :func:`batch_shape`.  Eligibility is not re-checked here:
        :func:`run_batch_cells` checks it, and the executor routes by it."""
        global _np
        if not numpy_available():
            raise ConfigurationError("BatchCore requires numpy (HAVE_NUMPY is false)")
        if not cells:
            raise ConfigurationError("BatchCore needs at least one cell")
        if _np is None:
            _np = load_numpy()
        algorithms = {c.algorithm for c in cells}
        agent_counts = {c.agents for c in cells}
        if len(algorithms) != 1 or len(agent_counts) != 1:
            raise ConfigurationError(
                "a BatchCore batch must share one algorithm and agent count "
                f"(got {sorted(algorithms)} x {sorted(agent_counts)}); "
                "run_batch_cells groups heterogeneous batches")
        # Late imports: spec is import-light; the registry is the single
        # source of truth for auto-scheduler / landmark / placement
        # resolution and is loaded by every campaign caller anyway.
        from ..campaigns.registry import (
            ADVERSARIES, ALGORITHMS, cell_scheduler, fault_injector)
        from ..campaigns.spec import resolve_positions

        np = _np
        self.cells = list(cells)
        C = len(cells)
        K = cells[0].agents
        self._C, self._K = C, K
        if obs_metrics.enabled():
            reg = obs_metrics.registry()
            reg.counter("batch.cores").inc()
            reg.histogram("batch.width").observe(C)
            reg.histogram("batch.agents").observe(K)
        self.algorithm = cells[0].algorithm
        entry = ALGORITHMS[self.algorithm]

        self.n = np.array([c.ring_size for c in cells], dtype=np.int64)
        self.max_rounds = np.array([c.max_rounds for c in cells], dtype=np.int64)
        self.stop_expl = np.array(
            [c.stop_on_exploration for c in cells], dtype=bool)

        placement = entry.placement_override
        pos = np.empty((C, K), dtype=np.int64)
        left = np.empty((C, K), dtype=np.int64)
        for ci, cell in enumerate(cells):
            effective = placement or cell.placement
            placed = resolve_positions(
                effective,
                ring_size=cell.ring_size,
                agents=K,
                positions=cell.positions if effective == "explicit" else None,
            )
            pos[ci] = [p % cell.ring_size for p in placed]
            if cell.chirality:
                left[ci] = -1
            else:
                flipped = set(cell.flipped)
                left[ci] = [1 if i in flipped else -1 for i in range(K)]
        self.pos = pos
        self.left = left

        def zeros(dtype):
            return np.zeros((C, K), dtype=dtype)

        self.on_port = zeros(bool)
        self.port = zeros(np.int64)
        self.term = zeros(bool)
        self.term_round = np.full((C, K), -1, dtype=np.int64)
        self.crashed = zeros(bool)
        self.Ttime = zeros(np.int64)
        self.Tsteps = zeros(np.int64)
        self.Etime = zeros(np.int64)
        self.Esteps = zeros(np.int64)
        self.Btime = zeros(np.int64)
        self.net = zeros(np.int64)
        self.min_net = zeros(np.int64)
        self.max_net = zeros(np.int64)
        self.moved = zeros(bool)
        self.failed = zeros(bool)

        # -- landmark tracking (maintained for every cell; lm = -1 means
        # the cell has no landmark and none of it ever fires) ----------
        self.lm = np.array(
            [c.landmark if c.landmark is not None
             else (0 if entry.needs_landmark else -1) for c in cells],
            dtype=np.int64)
        self.lm_seen = pos == self.lm[:, None]
        self.lm_first_net = zeros(np.int64)
        self.size = np.full((C, K), -1, dtype=np.int64)
        self.Ntime = zeros(np.int64)
        self._any_lm = bool((self.lm >= 0).any())

        # -- the cells' own round policies, built by the registry --------
        adversaries = [ADVERSARIES[c.adversary](c) for c in cells]
        self._adversary_columns(adversaries)
        self._scheduler_columns(
            [cell_scheduler(c, adv) for c, adv in zip(cells, adversaries)])
        self.is_pt = np.array([c.transport == "pt" for c in cells], dtype=bool)
        self._any_pt = bool(self.is_pt.any())
        self.rsa = zeros(np.int64)          # rounds_since_active

        # -- fault plans: one FaultInjector per faulty cell ---------------
        self._injectors = [fault_injector(c) for c in cells]
        self.has_plan = np.array(
            [inj is not None for inj in self._injectors], dtype=bool)
        self._any_faults = bool(self.has_plan.any())
        self.lossy = np.array(
            [[inj is not None and inj.lost_on_removal(i) for i in range(K)]
             for inj in self._injectors], dtype=bool)
        plans = [inj.plan for inj in self._injectors if inj is not None]
        # Rounds on which some injector can crash anyone (every round
        # once a plan has a ``rate:`` clause); the others skip the calls.
        self._any_rate = any(plan.rate for plan in plans)
        self._crash_rounds = {r for plan in plans for r, _ in plan.crash_at}

        # -- Compute kernel ---------------------------------------------
        self._program = build_program(self.algorithm)
        self.state = np.full(
            (C, K), self._program.initial_code, dtype=np.int64)
        self.entered = zeros(bool)
        self.last_dir = np.full((C, K), -1, dtype=np.int64)
        self._program.setup(self)
        # Every column a program may write: the block-agent peek runs the
        # program against copies of these and puts the originals back.
        self._program_columns = ("state", "entered", "last_dir", "Etime",
                                 "Esteps") + tuple(
            sorted(name for name in vars(self) if name.startswith("v_")))

        self._n_max = int(self.n.max())
        self._n_bytes = (self._n_max + 7) >> 3
        self.visited_bits = np.zeros((C, self._n_bytes), dtype=np.uint8)
        cells_i = np.repeat(np.arange(C), K)
        nodes_i = pos.ravel()
        np.bitwise_or.at(
            self.visited_bits, (cells_i, nodes_i >> 3),
            (1 << (nodes_i & 7)).astype(np.uint8))
        start_flat = np.unique(cells_i * self._n_max + nodes_i)
        self.visited_count = np.bincount(
            start_flat // self._n_max, minlength=C).astype(np.int64)
        self.explo_round = np.where(
            self.visited_count >= self.n, 0, -1).astype(np.int64)

        self.round_no = np.zeros(C, dtype=np.int64)
        #: This round's missing edge per cell (-1 = none, or the cell did
        #: not step), the twin of the scalar engine's ``missing_edge``.
        self.missing = np.full(C, -1, dtype=np.int64)
        self.running = np.ones(C, dtype=bool)
        self.halted: list[str | None] = [None] * C
        self._t = 0
        self._tril = np.tril(np.ones((K, K), dtype=bool), -1)  # [i,j]: j < i
        self._eye = np.eye(K, dtype=bool)

    # ------------------------------------------------------------------
    # the lockstep loop
    # ------------------------------------------------------------------

    def advance(self) -> bool:
        """Halt-check every running cell, then execute one lockstep round.

        Returns ``False`` once every cell has halted.  The halt check
        mirrors ``SimulationCore.run`` exactly: conditions are evaluated
        *before* each step, in the order no-survivor-left > explored >
        horizon, so round counts and halt reasons match the scalar path.
        A cell whose fault plan crashes its last live agent at the top of
        a round does not step that round, nor count it (the scalar
        ``step`` returns ``False`` before ``round_no += 1``); the next
        halt check retires it.
        """
        np = _np
        running = self.running
        if not running.any():
            return False
        dead = self.term | self.crashed if self._any_faults else self.term
        all_dead = dead.all(axis=1)
        explored_stop = self.stop_expl & (self.visited_count >= self.n)
        halt_dead = running & all_dead
        halt_expl = running & ~all_dead & explored_stop
        halt_hor = (running & ~all_dead & ~explored_stop
                    & (self.round_no >= self.max_rounds))
        for ci in np.nonzero(halt_dead)[0]:
            # Survivor census: the whole team crashed, or every survivor
            # terminated (SimulationCore._halt_reason).
            self.halted[ci] = ("all-crashed" if self.crashed[ci].all()
                               else "all-terminated")
        for ci in np.nonzero(halt_expl)[0]:
            self.halted[ci] = "explored"
        for ci in np.nonzero(halt_hor)[0]:
            self.halted[ci] = "horizon"
        running &= ~(halt_dead | halt_expl | halt_hor)
        if not running.any():
            return False
        stepping = running
        if self._any_faults:
            self._apply_round_faults(running)
            stepping = running & ~(self.term | self.crashed).all(axis=1)
        self._step(stepping)
        self.round_no[stepping] += 1
        self._t += 1
        return True

    def run(self) -> list[RunResult]:
        """Drive every cell to its halt condition; return per-cell results."""
        while self.advance():
            pass
        return self.results()

    # ------------------------------------------------------------------
    # round policies: the registry's objects as columns
    # ------------------------------------------------------------------

    def _adversary_columns(self, adversaries) -> None:
        """Lay out each cell's edge adversary as columns.

        ``none``, ``fixed`` and ``periodic`` share one rule: edge
        ``_adv_edge`` (-1 = none) is missing in rounds ``from <= t <
        until`` with ``t % period < duty``.  ``random`` rows keep their
        object's ``p`` and read its words; block-agent rows peek at
        their ``target``.
        """
        np = _np
        from ..adversary.simple import (
            FixedMissingEdge, NoRemoval, PeriodicMissingEdge, RandomMissingEdge)

        C = self._C
        self._adv_edge = np.full(C, -1, dtype=np.int64)
        self._adv_from = np.zeros(C, dtype=np.int64)
        self._adv_until = np.full(C, np.iinfo(np.int64).max, dtype=np.int64)
        self._adv_period = np.ones(C, dtype=np.int64)
        self._adv_duty = np.ones(C, dtype=np.int64)
        self._block = np.zeros(C, dtype=bool)
        self._block_target = np.zeros(C, dtype=np.int64)
        randoms = []
        for ci, adv in enumerate(adversaries):
            kind = type(adv)
            if kind is NoRemoval:
                continue
            if kind is FixedMissingEdge:
                self._adv_edge[ci] = adv.edge
                self._adv_from[ci] = adv.from_round
                if adv.until_round is not None:
                    self._adv_until[ci] = adv.until_round
            elif kind is PeriodicMissingEdge:
                self._adv_edge[ci] = adv.edge
                self._adv_period[ci] = adv.period
                self._adv_duty[ci] = adv.duty
            elif kind is RandomMissingEdge:
                randoms.append(ci)
            else:
                from ..adversary.blocking import BlockAgentAdversary

                if kind is not BlockAgentAdversary:
                    raise ConfigurationError(
                        f"adversary class {kind.__name__} has no array form")
                self._block[ci] = True
                self._block_target[ci] = adv.target
        self._any_block = bool(self._block.any())
        # At p = 1 a random row's stream is one ``randrange(n)`` per
        # round, decoded a block at a time; below 1 a ``random()`` coin
        # (two words) comes first.
        sure = [ci for ci in randoms if adversaries[ci].p >= 1.0]
        tossed = [ci for ci in randoms if adversaries[ci].p < 1.0]
        self._sure_cells = np.array(sure, dtype=np.int64)
        self._sure_edges = (_WordBlocks(
            [adversaries[ci] for ci in sure], 1,
            below=self.n[self._sure_cells]) if sure else None)
        self._toss_cells = np.array(tossed, dtype=np.int64)
        self._toss_p = np.array(
            [adversaries[ci].p for ci in tossed], dtype=np.float64)
        self._toss_words = (_WordBlocks([adversaries[ci] for ci in tossed], 2)
                            if tossed else None)

    def _scheduler_columns(self, schedulers) -> None:
        """Lay out each cell's scheduler as columns.

        FSYNC rows need nothing; round-robin rows keep a window and a
        rotating offset; random-fair rows keep ``p``, the starvation cap
        and their object's words.  An et-fair row is its base's row plus
        a patience and a ``debt[C, K]`` column.
        """
        np = _np
        from ..schedulers import (
            ETFairScheduler, FsyncScheduler, RandomFairScheduler,
            RoundRobinScheduler)

        C = self._C
        self._rr = np.zeros(C, dtype=bool)
        self._rr_window = np.ones(C, dtype=np.int64)
        self._rr_offset = np.zeros(C, dtype=np.int64)
        self._patience = np.zeros(C, dtype=np.int64)
        fair = []
        for ci, scheduler in enumerate(schedulers):
            if type(scheduler) is ETFairScheduler:
                self._patience[ci] = scheduler.patience
                scheduler = scheduler.base
            kind = type(scheduler)
            if kind is RoundRobinScheduler:
                self._rr[ci] = True
                self._rr_window[ci] = scheduler.window
            elif kind is RandomFairScheduler:
                fair.append((ci, scheduler))
            elif kind is not FsyncScheduler:
                raise ConfigurationError(
                    f"scheduler class {kind.__name__} has no array form")
        self._any_et = bool(self._patience.any())
        self._debt = np.zeros((C, self._K), dtype=np.int64)
        self._fair_cells = np.array([ci for ci, _ in fair], dtype=np.int64)
        self._fair_p = np.array([f.p for _, f in fair], dtype=np.float64)
        self._fair_cap = np.array(
            [f.starvation_cap for _, f in fair], dtype=np.int64)
        # One round reads two words per live agent past the cursor.
        self._fair_words = (_WordBlocks([f for _, f in fair], 2 * self._K)
                            if fair else None)
        self._all_fsync = not (fair or self._rr.any() or self._any_et)

    def _missing_edges(self, run, dead, look):
        """This round's missing edge per cell (-1 = none, or not stepping).

        Running cells all sit at round ``t``.  Random rows draw as
        ``RandomMissingEdge.edge_for``: with ``p < 1`` one ``random()``
        decides whether an edge goes, then ``randrange(n)`` picks it (at
        ``p = 1``, the next decoded draw).  Block-agent rows remove the
        edge their target is about to try.
        """
        np = _np
        t = self._t
        missing = np.where(
            run & (self._adv_from <= t) & (t < self._adv_until)
            & (t % self._adv_period < self._adv_duty), self._adv_edge, -1)
        edges = self._sure_edges
        if edges is not None:
            rows = np.nonzero(run[self._sure_cells])[0]
            edges.ensure(rows, 1)
            missing[self._sure_cells[rows]] = edges.pop(rows)
        words = self._toss_words
        if words is not None:
            rows = np.nonzero(run[self._toss_cells])[0]
            words.ensure(rows, 2)
            spared = words.random(rows, 0)[:, 0] >= self._toss_p[rows]
            words.cur[rows] += 2
            rows = rows[~spared]
            cells = self._toss_cells[rows]
            missing[cells] = words.below(rows, self.n[cells])
        if self._any_block:
            mask = run & self._block
            if mask.any():
                missing[mask] = self._intended_edge(mask, dead, look)[mask]
        return missing

    def _activation(self, run, missing, dead):
        """This round's activation mask, replayed from the cells' schedulers.

        Live means neither terminated nor crashed (``dead`` is the
        complement).  FSYNC rows activate every live agent; round-robin
        rows the scheduler's window of live agents at its rotating
        offset; random-fair rows their coins, the starvation cap and the
        empty-set fallback (:meth:`_random_fair`); et-fair rows then
        settle their debts (:meth:`_enforce_et`).
        """
        np = _np
        live = ~dead
        act = run[:, None] & live
        if self._all_fsync:
            return act
        rr = run & self._rr
        if rr.any():
            # The live agent of rank r is in the window iff
            # (r - offset) mod live-count < window.
            live_rr = live[rr]
            count = live_rr.sum(axis=1, keepdims=True)
            start = self._rr_offset[rr, None] % count
            rank = np.cumsum(live_rr, axis=1) - 1
            act[rr] = live_rr & ((rank - start) % count
                                 < np.minimum(self._rr_window[rr, None], count))
            self._rr_offset[rr] += 1
        if self._fair_words is not None:
            rows = np.nonzero(run[self._fair_cells])[0]
            if rows.size:
                cells = self._fair_cells[rows]
                act[cells] = self._random_fair(rows, live[cells],
                                               self.rsa[cells])
        if self._any_et:
            self._enforce_et(run & (self._patience > 0), act, missing)
        return act

    def _random_fair(self, rows, live, idle):
        """``RandomFairScheduler.choose`` for the random-fair ``rows``.

        One ``random()`` per live agent in index order (two words each,
        so agent of live rank ``r`` reads the words at ``cursor + 2r``)
        decides the coins; live agents idle for the cap are forced; a
        row left empty falls back to ``choice(live)``, whose word count
        depends on the data, so :meth:`_WordBlocks.below` advances each
        row's cursor on its own.
        """
        np = _np
        words = self._fair_words
        words.ensure(rows, 2 * self._K)
        rank = np.cumsum(live, axis=1) - 1
        count = rank[:, -1] + 1
        chosen = live & (words.random(rows, 2 * np.maximum(rank, 0))
                         < self._fair_p[rows, None])
        words.cur[rows] += 2 * count
        chosen |= live & (idle >= self._fair_cap[rows, None])
        empty = np.nonzero(~chosen.any(axis=1) & (count > 0))[0]
        if empty.size:
            pick = words.below(rows[empty], count[empty])
            chosen[empty] = live[empty] & (rank[empty] == pick[:, None])
        return chosen

    def _enforce_et(self, rows, act, missing) -> None:
        """``ETFairScheduler._enforce`` for the et-fair ``rows``, in place.

        A live agent on a port whose edge is present accrues one unit of
        debt per round it is not chosen, and is forced (debt back to 0)
        once the debt reaches the patience; a chosen one's debt clears
        while its edge is present; an agent off a port owes nothing.
        """
        np = _np
        edge = np.where(self.port == 1, self.pos, (self.pos - 1) % self.n[:, None])
        waiting = rows[:, None] & self.on_port & ~self.term
        present = waiting & (edge != missing[:, None])
        debt = np.where(waiting, self._debt, 0)
        debt[present & act] = 0
        grow = present & ~act
        debt += grow
        force = grow & (debt >= self._patience[:, None])
        act |= force
        debt[force] = 0
        self._debt = np.where(rows[:, None], debt, self._debt)

    def _step(self, run) -> None:
        np = _np
        t = self._t
        dead = self.term | self.crashed if self._any_faults else self.term

        # 1. Look (simultaneous, against round-start state).  Pairwise
        # same-node tensors answer every occupancy question the ring
        # snapshot asks; terminated agents stay visible, crashed ones
        # left the configuration, the observer excludes itself.  Nothing
        # below reads state the adversary or the scheduler changes, so
        # the Look is built first and the block-agent peek shares it.
        pos = self.pos
        same = pos[:, :, None] == pos[:, None, :]
        others = same & ~self._eye
        if self._any_faults:
            others &= ~self.crashed[:, None, :]
        on_port = self.on_port
        others_interior = (others & ~on_port[:, None, :]).sum(axis=2)
        holds_plus = on_port & (self.port == 1)
        holds_minus = on_port & (self.port == -1)
        other_plus = (others & holds_plus[:, None, :]).any(axis=2)
        other_minus = (others & holds_minus[:, None, :]).any(axis=2)
        look = Look(self.moved.copy(), self.failed.copy(), others_interior,
                    other_plus, other_minus,
                    is_lm=(pos == self.lm[:, None]))

        # 2. adversary: the missing edge per cell (-1 = none).
        missing = self._missing_edges(run, dead, look)
        self.missing = missing

        # 3. activation (FSYNC: every live agent; SSYNC: replayed draws).
        act = self._activation(run, missing, dead)
        self.failed[act] = False

        # 4. Compute (the algorithm's vector program).
        kind, local_dir = self._program.run(self, act, look)
        g = -local_dir * self.left
        term_now = act & (kind == K_TERM)
        wants_move = act & (kind == K_MOVE)
        enter = act & (kind == K_ENTER) & self.on_port

        # 5. Resolve: terminations, port releases, then port mutual
        # exclusion.  A port held at the *start* of the round (by anyone,
        # terminated agents included — and still by agents who stepped
        # off it this round, the scalar ``_released`` rule) is denied to
        # requesters all round; unheld ports go to the lowest-index
        # requester; every requester's Btime restarts.
        self.term |= term_now
        self.term_round[term_now] = t
        if enter.any():
            self.on_port[enter] = False
            self.Btime[enter] = 0
        direct = wants_move & on_port & (self.port == g)
        request = wants_move & ~direct
        occupied = np.where(g == 1, other_plus, other_minus)
        beaten = (same & request[:, None, :]
                  & (g[:, :, None] == g[:, None, :])
                  & self._tril[None, :, :]).any(axis=2)
        winner = request & ~occupied & ~beaten
        denied = request & ~winner
        self.Btime[request] = 0
        self.on_port[winner] = True
        self.port[winner] = g[winner]
        self.failed[denied] = True
        self.moved[denied] = False
        movers = direct | winner

        # 6. Move: PLUS ports cross edge v, MINUS ports edge v-1; a
        # missing edge blocks (Btime accumulates), otherwise traverse.
        # Under PT, a non-activated agent standing on a present edge's
        # port rides it (a passive traverse, no clocks).
        n_col = self.n[:, None]
        edge = np.where(self.port == 1, self.pos, (self.pos - 1) % n_col)
        blocked = movers & (edge == missing[:, None])
        traverse = movers & ~blocked
        if self._any_faults:
            # Lost-on-removal: a lossy agent waiting on the removed edge
            # crashes instead of blocking.
            lost = blocked & self.lossy
            if lost.any():
                self._crash(lost)
                blocked &= ~lost
        self.moved[blocked] = False
        self.Btime[blocked] += 1
        if self._any_pt:
            ride = (run[:, None] & self.is_pt[:, None] & ~self.term & ~act
                    & self.on_port & (edge != missing[:, None]))
            traverse = traverse | ride
        dest = (self.pos + self.port) % n_col
        local = np.where(self.port == self.left, -1, 1)  # -1 LEFT, +1 RIGHT
        self.Tsteps[traverse] += 1
        self.Esteps[traverse] += 1
        self.net[traverse] += local[traverse]
        np.maximum(self.max_net, self.net, out=self.max_net, where=traverse)
        np.minimum(self.min_net, self.net, out=self.min_net, where=traverse)
        self.moved[traverse] = True
        self.Btime[traverse] = 0
        self.on_port[traverse] = False
        self.pos[traverse] = dest[traverse]

        # Landmark observation happens on arrival, after the net update
        # (the scalar ``_traverse`` order): the first stand records the
        # displacement, a later stand at a different displacement pins
        # the ring size.
        if self._any_lm:
            arrived = traverse & (dest == self.lm[:, None])
            if arrived.any():
                learn = (arrived & self.lm_seen & (self.size < 0)
                         & (self.net != self.lm_first_net))
                first = arrived & ~self.lm_seen
                self.size[learn] = np.abs(
                    self.net[learn] - self.lm_first_net[learn])
                self.lm_seen[first] = True
                self.lm_first_net[first] = self.net[first]

        tc, tk = np.nonzero(traverse)
        if tc.size:
            flat = np.unique(tc * self._n_max + dest[tc, tk])
            cells_f = flat // self._n_max
            nodes_f = flat % self._n_max
            byte = nodes_f >> 3
            bit = (1 << (nodes_f & 7)).astype(np.uint8)
            fresh = (self.visited_bits[cells_f, byte] & bit) == 0
            if fresh.any():
                np.bitwise_or.at(
                    self.visited_bits,
                    (cells_f[fresh], byte[fresh]), bit[fresh])
                np.add.at(self.visited_count, cells_f[fresh], 1)
                done = (run & (self.explo_round < 0)
                        & (self.visited_count >= self.n))
                # Exploration completing during round t is "time t + 1"
                # (the scalar engine's accounting).
                self.explo_round[done] = t + 1

        # 7. End of round: clocks tick for active agents that did not
        # terminate or crash this round; idle live agents age toward the
        # starvation cap.
        alive = run[:, None] & ~self.term
        if self._any_faults:
            alive &= ~self.crashed
        tick = alive & act
        self.Ttime[tick] += 1
        self.Etime[tick] += 1
        self.Ntime[tick & (self.size >= 0)] += 1
        if not self._all_fsync:
            self.rsa[tick] = 0
            self.rsa[alive & ~act] += 1

    # ------------------------------------------------------------------
    # fault plans and the block-agent peek
    # ------------------------------------------------------------------

    def _apply_round_faults(self, run) -> None:
        """Crash the agents the cells' plans doom at this round's start.

        Each running faulty cell asks its own injector's
        ``crashes_at_round`` with its sorted live agents, before the
        adversary and the scheduler, as
        ``SimulationCore._apply_round_faults`` does.  Rounds with no
        scheduled crash skip the calls unless a plan has a ``rate:``
        clause (whose stream draws every round).
        """
        t = self._t
        if not (self._any_rate or t in self._crash_rounds):
            return
        live = run[:, None] & ~self.term & ~self.crashed
        doomed = _np.zeros_like(live)
        rows = _np.nonzero(run & self.has_plan)[0].tolist()
        for ci, alive in zip(rows, live[rows].tolist()):
            hit = self._injectors[ci].crashes_at_round(
                t, [i for i, a in enumerate(alive) if a])
            doomed[ci, hit] = True
        if doomed.any():
            self._crash(doomed)

    def _crash(self, mask) -> None:
        """Remove the masked agents from the configuration for good.

        A crashed agent releases its port and from then on is absent
        from every Look, activation, clock tick and PT ride
        (``SimulationCore._crash``); its position stays as its final node.
        """
        self.crashed |= mask
        self.on_port[mask] = False

    def _intended_edge(self, rows, dead, look):
        """Per row, the edge its target agent is about to try (-1 = none).

        ``BlockAgentAdversary.choose_missing_edge``, column-wise: the
        edge a MOVE from the target's side-effect-free Compute targets,
        else the edge of the port the target holds, else none — and
        always none when the target has terminated or crashed.
        """
        np = _np
        at = (np.arange(self._C), self._block_target)
        peek = np.zeros(self.pos.shape, dtype=bool)
        peek[at] = rows & ~dead[at]
        kind, local = self._intend(peek, look)
        moves = kind[at] == K_MOVE
        sign = np.where(moves, -local[at] * self.left[at], self.port[at])
        node = self.pos[at]
        edge = np.where(sign == 1, node, (node - 1) % self.n)
        aim = peek[at] & (moves | self.on_port[at])
        return np.where(aim, edge, -1)

    def _intend(self, mask, look):
        """One side-effect-free Compute for ``mask``: ``(kind, local)``.

        The scalar peek Computes against a cloned memory; here every
        column a program writes is swapped for a copy around the pass
        and the originals put back, so the round's real Compute starts
        from exactly the state the peek saw.
        """
        saved = {name: getattr(self, name) for name in self._program_columns}
        for name, column in saved.items():
            setattr(self, name, column.copy())
        schedules = getattr(self, "_schedules", None)
        if schedules is not None:
            self._schedules = [row[:] for row in schedules]
        try:
            return self._program.run(self, mask, look)
        finally:
            for name, column in saved.items():
                setattr(self, name, column)
            if schedules is not None:
                self._schedules = schedules

    # ------------------------------------------------------------------
    # results + introspection
    # ------------------------------------------------------------------

    def results(self) -> list[RunResult]:
        """Per-cell :class:`RunResult`s, identical to the scalar engine's.

        Each column converts once (``tolist``); the visited sets come
        from one ``unpackbits`` of the whole bitmap, whose set bits are
        exactly the visited nodes, cell by cell.
        """
        np = _np
        bits = np.unpackbits(self.visited_bits, axis=1, bitorder="little")
        owner, nodes = np.nonzero(bits)
        ends = np.cumsum(np.bincount(owner, minlength=self._C)).tolist()
        nodes = nodes.tolist()
        # Only cells with a plan report a census, as on the scalar path:
        # fault-free records keep their shape.
        census = np.where(self.has_plan, self.crashed.sum(axis=1), -1).tolist()
        index = range(self._K)
        out = []
        start = 0
        for (n, rounds, count, explo, halted, crashed_count, end, moves, term,
             term_round, final, waiting, crashed) in zip(
                self.n.tolist(), self.round_no.tolist(),
                self.visited_count.tolist(), self.explo_round.tolist(),
                self.halted, census, ends, self.Tsteps.tolist(),
                self.term.tolist(), self.term_round.tolist(),
                self.pos.tolist(), self.on_port.tolist(),
                self.crashed.tolist()):
            out.append(RunResult(
                ring_size=n,
                rounds=rounds,
                explored=count >= n,
                exploration_round=explo if explo >= 0 else None,
                visited=set(nodes[start:end]),
                agents=[
                    AgentStats(i, m, t, r if r >= 0 else None, f, w, c)
                    for i, m, t, r, f, w, c in zip(
                        index, moves, term, term_round, final, waiting,
                        crashed)],
                halted_reason=halted or "horizon",
                crashed_count=crashed_count if crashed_count >= 0 else None,
            ))
            start = end
        return out

    def debug_state(self, ci: int) -> dict:
        """Observable per-agent state of one cell (for lockstep tests).

        Mirrors what the scalar engine exposes through ``AgentState`` +
        ``AgentMemory`` so the differential suite can compare the two
        cores round by round, not only at the end.
        """
        agents = []
        for i in range(self._K):
            agents.append({
                "node": int(self.pos[ci, i]),
                "port": int(self.port[ci, i]) if self.on_port[ci, i] else None,
                "terminated": bool(self.term[ci, i]),
                "crashed": bool(self.crashed[ci, i]),
                "Ttime": int(self.Ttime[ci, i]),
                "Tsteps": int(self.Tsteps[ci, i]),
                "Etime": int(self.Etime[ci, i]),
                "Esteps": int(self.Esteps[ci, i]),
                "Btime": int(self.Btime[ci, i]),
                "moved": bool(self.moved[ci, i]),
                "failed": bool(self.failed[ci, i]),
                "net": int(self.net[ci, i]),
                "min_net": int(self.min_net[ci, i]),
                "max_net": int(self.max_net[ci, i]),
                "size": (int(self.size[ci, i])
                         if self.size[ci, i] >= 0 else None),
                "Ntime": int(self.Ntime[ci, i]),
            })
        return {
            "round": int(self.round_no[ci]),
            "running": bool(self.running[ci]),
            "visited_count": int(self.visited_count[ci]),
            "agents": agents,
        }


def _split_batches(indexed_cells):
    """Split one (algorithm, agents) group so no batch's tensors blow up.

    The visited cap counts *packed* bytes (``ceil(n/8)`` per cell), so a
    10^5-node ring still batches a thousand cells wide; the pairwise cap
    is unchanged (bools don't pack — the tensor is transient anyway).
    """
    batches = []
    current: list = []
    k = indexed_cells[0][1].agents
    n_max = 0
    for idx, cell in indexed_cells:
        n_next = max(n_max, cell.ring_size)
        count = len(current) + 1
        if current and (count * k * k > _MAX_PAIRWISE
                        or count * ((n_next + 7) // 8) > _MAX_VISITED_BYTES
                        or count > BATCH_WIDTH):
            batches.append(current)
            current = []
            n_next = cell.ring_size
        current.append((idx, cell))
        n_max = n_next
    if current:
        batches.append(current)
    return batches


def run_batch_cells(cells: Sequence["CellConfig"]) -> list[RunResult]:
    """Run eligible cells in lockstep; results align with the input order.

    Raises :class:`ConfigurationError` if NumPy is unavailable or any
    cell is ineligible, before any batch runs; then
    :func:`run_routed_cells` runs them.
    """
    if not numpy_available():
        raise ConfigurationError("run_batch_cells requires numpy")
    for idx, cell in enumerate(cells):
        reason = batch_ineligible_reason(cell)
        if reason is not None:
            raise ConfigurationError(f"cell {idx} is not batch-eligible: {reason}")
    return run_routed_cells(cells)


def run_routed_cells(cells: Sequence["CellConfig"]) -> list[RunResult]:
    """Run cells already found batch-eligible; results align with the input.

    The executor's chunk runner evaluates each cell's eligibility once,
    to route it, and hands the eligible cells here unchecked.
    Heterogeneous inputs are grouped by :func:`batch_shape` — the two
    axes :class:`BatchCore` requires to be uniform; transport,
    scheduler, adversary and landmark mix freely within a batch — and
    each group is split so the pairwise occupancy tensor and the packed
    visited bitmap stay modest.
    """
    results: list[RunResult | None] = [None] * len(cells)
    groups: dict[tuple[str, int], list] = {}
    for idx, cell in enumerate(cells):
        groups.setdefault(batch_shape(cell), []).append((idx, cell))
    for group in groups.values():
        for batch in _split_batches(group):
            core = BatchCore([cell for _, cell in batch])
            core_t0 = time.perf_counter()
            batch_results = core.run()
            if obs_metrics.enabled():
                obs_metrics.registry().histogram("batch.core_s").observe(
                    time.perf_counter() - core_t0)
            for (idx, _), result in zip(batch, batch_results):
                results[idx] = result
    return results  # type: ignore[return-value]


__all__ = ["BatchCore", "run_batch_cells", "run_routed_cells"]
