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
  adversary, scheduler and fault injector are the objects the registry
  builds for the scalar engine, asked per running cell through their
  engine-free entry points (``edge_for``, ``choose``,
  ``crashes_at_round``), so every parameter and seeded stream has one
  owner; the answers fill the per-round missing-edge vector and
  ``act[C, K]`` mask, and everything downstream stays lockstep.  FSYNC
  rows, round-robin's rotation and the block-agent peek keep array
  forms;
* **landmark cells** — the landmark is one more per-cell column
  (``lm``/``lm_seen``/``lm_first_net``/``size``/``Ntime``), maintained
  for every cell so LExplore observations match the scalar engine even
  for algorithms that ignore them;
* **fault plans** — every plan the scalar path accepts (``crash:A@R``,
  ``lost:A``/``lost:*``, ``rate:p``): a ``crashed[C, K]`` column, the
  round's crashes (each cell's injector asked) applied before the
  adversary;
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
    scheduling              ``rsa[C,K]`` rounds since active, the FSYNC /
                            round-robin row masks with RR offsets and
                            windows; other rows' state lives in their
                            scheduler objects
    ``visited_bits``        packed bitmap ``[C, ceil(n_max/8)]`` +
                            ``visited_count``/``explo_round``
    ``running[C]``          cells still stepping; halted cells freeze
    ======================  =====================================================

    Each :meth:`advance` replays one scalar round exactly — the fault
    plans' crashes, Look (pairwise same-node occupancy tensors),
    adversary choice (block-agent rows peek through the vector program),
    scheduler activation (FSYNC constant, round-robin rotation or the
    cell's scheduler object), the
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
        from ..schedulers import FsyncScheduler, RoundRobinScheduler

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
        self._schedulers = [
            cell_scheduler(c, adv) for c, adv in zip(cells, adversaries)]
        self.is_pt = np.array([c.transport == "pt" for c in cells], dtype=bool)
        self._any_pt = bool(self.is_pt.any())
        # FSYNC rows and round-robin's rotation are array forms; every
        # other scheduler is asked per running cell (:meth:`_activation`).
        self._fsync = np.array(
            [isinstance(s, FsyncScheduler) for s in self._schedulers])
        self._rr = np.array(
            [isinstance(s, RoundRobinScheduler) for s in self._schedulers])
        self._ask = ~(self._fsync | self._rr)
        self._all_fsync = bool(self._fsync.all())
        self._rr_window = np.array(
            [getattr(s, "window", 1) for s in self._schedulers], dtype=np.int64)
        self._rr_offset = np.zeros(C, dtype=np.int64)
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

        # The oblivious adversaries answer ``edge_for``; the one without
        # it, block-agent, peeks through the vector program at its target.
        self._edge_for = [getattr(adv, "edge_for", None) for adv in adversaries]
        self._sizes = self.n.tolist()
        self._block = np.array([f is None for f in self._edge_for])
        self._any_block = bool(self._block.any())
        self._block_target = np.array(
            [getattr(adv, "target", 0) for adv in adversaries], dtype=np.int64)

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

    def _activation(self, run, missing, dead):
        """This round's activation mask, from each cell's own scheduler.

        Live means neither terminated nor crashed (``dead`` is the
        complement).  FSYNC rows activate every live agent; round-robin
        rows, computed for all cells at once, the scheduler's window of
        live agents at its rotating offset.  Every other row asks its
        scheduler object's ``choose`` with the inputs its ``select``
        would read off the scalar engine, so the activation sets are the
        ones the scalar engine sees round by round.
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
        rows = np.nonzero(run & self._ask)[0]
        if rows.size:
            pos, port = self.pos[rows], self.port[rows]
            edge = np.where(port == 1, pos, (pos - 1) % self.n[rows, None])
            present = (edge != missing[rows, None]).tolist()
            waits = (self.on_port & ~self.term)[rows].tolist()
            # Rounds since active per non-terminated agent (-1 = terminated).
            idle = np.where(self.term, -1, self.rsa)[rows].tolist()
            picks = [
                self._schedulers[ci].choose(
                    [i for i, a in enumerate(alive) if a],
                    {i: r for i, r in enumerate(rsa) if r >= 0},
                    {i: p for i, (w, p) in enumerate(zip(wait, pres)) if w})
                for ci, alive, rsa, wait, pres in zip(
                    rows.tolist(), live[rows].tolist(), idle, waits, present)
            ]
            chosen = np.zeros((rows.size, self._K), dtype=bool)
            chosen[[j for j, pick in enumerate(picks) for _ in pick],
                   [i for pick in picks for i in pick]] = True
            act[rows] = chosen & live[rows]
        return act

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

        # 2. adversary: the missing edge per cell (-1 = none).  Running
        # cells all sit at round t; each oblivious row asks its own
        # adversary's ``edge_for`` (a seeded one draws exactly as on the
        # scalar engine), block-agent rows remove the edge their target
        # is about to try.
        missing = np.full(self._C, -1, dtype=np.int64)
        rows = np.nonzero(run & ~self._block)[0].tolist()
        if rows:
            edges = [self._edge_for[ci](t, self._sizes[ci]) for ci in rows]
            missing[rows] = [-1 if e is None else e for e in edges]
        if self._any_block:
            mask = run & self._block
            if mask.any():
                missing[mask] = self._intended_edge(mask, dead, look)[mask]
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

    def _visited_nodes(self, ci: int) -> set[int]:
        np = _np
        n = int(self.n[ci])
        row = np.unpackbits(self.visited_bits[ci], bitorder="little")[:n]
        return {int(v) for v in np.nonzero(row)[0]}

    def results(self) -> list[RunResult]:
        """Per-cell :class:`RunResult`s, identical to the scalar engine's."""
        out = []
        for ci, _cell in enumerate(self.cells):
            n = int(self.n[ci])
            explo = int(self.explo_round[ci])
            stats = [
                AgentStats(
                    index=i,
                    moves=int(self.Tsteps[ci, i]),
                    terminated=bool(self.term[ci, i]),
                    termination_round=(int(self.term_round[ci, i])
                                       if self.term_round[ci, i] >= 0 else None),
                    final_node=int(self.pos[ci, i]),
                    waiting_on_port=bool(self.on_port[ci, i]),
                    crashed=bool(self.crashed[ci, i]),
                )
                for i in range(self._K)
            ]
            out.append(RunResult(
                ring_size=n,
                rounds=int(self.round_no[ci]),
                explored=int(self.visited_count[ci]) >= n,
                exploration_round=explo if explo >= 0 else None,
                visited=self._visited_nodes(ci),
                agents=stats,
                halted_reason=self.halted[ci] or "horizon",
                # Only cells with a plan report a census, as on the scalar
                # path: fault-free records keep their shape.
                crashed_count=(int(self.crashed[ci].sum())
                               if self.has_plan[ci] else None),
            ))
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
