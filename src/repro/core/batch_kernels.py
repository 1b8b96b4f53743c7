"""Vectorized state-machine kernels for :mod:`repro.core.batch`.

Every batchable algorithm is a :class:`VectorProgram` — a small masked
*state-machine driver* that mirrors ``StateMachineAlgorithm.compute``
exactly, column-wise.  :data:`PROGRAMS` lists them all (registry name ->
factory); adding an algorithm means one program here beside its scalar
``build_states``, plus its name in
:data:`~repro.core.batch_rules.BATCH_ALGORITHMS`:

* per-agent columns ``state`` (int code), ``entered`` (has the current
  state's on-enter/reset already run) and ``last_dir`` (the last direction
  handed to ``move``) replace the scalar ``vars`` dict; a program's own
  variables are ``v_*`` columns its ``setup`` allocates;
* each :class:`VState` is the columnar twin of a ``StateSpec``: a
  direction (constant or column function), ordered transition rules,
  an optional vector ``on_enter`` preamble and an optional vector
  ``custom`` body;
* :meth:`VectorProgram.run` repeats masked passes over the states until
  every activated agent has produced an action, which reproduces the
  scalar driver's transition *chaining* (an agent can cross several
  states in one activation) without data-dependent Python loops on the
  hot path.

The per-round action is returned as two arrays: ``kind`` (one of
``K_STAY``/``K_MOVE``/``K_TERM``/``K_ENTER``) and ``local`` (the local
direction for ``K_MOVE`` rows).  ``BatchCore`` owns the Look/resolve/move
phases; this module owns only Compute.

Scalar equivalence notes (pinned by ``tests/core/test_batch_equivalence``
and ``analysis/differential.py``):

* an ``on_enter`` that *redirects* does not reset ``Etime``/``Esteps`` and
  leaves ``entered`` False — exactly like the scalar driver, the reset
  belongs to the state finally entered;
* ``last_dir`` is recorded before rules are evaluated, so a state entered
  later in the same round sees the direction of the state that chained
  into it (``remember_forward`` depends on this);
* a state entered this round moves straight away (rules skipped) — the
  ``entered_this_round`` fast path.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Sequence, Tuple

from .errors import ConfigurationError, ProtocolViolation

#: NumPy, bound by :func:`load_numpy` when the first batch is built: a
#: process that runs no batch never imports it.
_np = None

# Action kinds emitted by a kernel, one int8 per agent.
K_STAY = 0
K_MOVE = 1
K_TERM = 2
K_ENTER = 3

#: State code of the scalar driver's "Terminate" pseudo-state.
TERMINAL_CODE = 127

#: Mirror of ``StateMachineAlgorithm.MAX_CHAIN``: an agent still pending
#: after this many passes is looping through transitions.
MAX_PASSES = 32

_LEFT = -1
_RIGHT = 1


class Look:
    """Round-start observation tensors shared by every kernel.

    All arrays are ``[C, K]`` and frozen for the round: positions only
    change in the move phase, so Compute for every agent sees the same
    snapshot — the same guarantee the scalar engine's Look phase gives.
    """

    __slots__ = (
        "snap_moved",
        "snap_failed",
        "others_interior",
        "other_plus",
        "other_minus",
        "is_lm",
    )

    def __init__(self, snap_moved, snap_failed, others_interior,
                 other_plus, other_minus, is_lm=None):
        self.snap_moved = snap_moved
        self.snap_failed = snap_failed
        self.others_interior = others_interior
        self.other_plus = other_plus
        self.other_minus = other_minus
        self.is_lm = is_lm


def load_numpy():
    """Import NumPy and bind it to this module's ``_np``; returns it.

    A plain module global, not a lazy proxy, so the kernels' per-round
    ``_np.*`` lookups cost what a top-level import would.
    """
    global _np
    if _np is None:
        import numpy

        _np = numpy
    return _np


# ---------------------------------------------------------------------------
# Predicate library (ctx.* in the scalar world).  Signature:
# pred(core, u, look, d) -> bool[C, K]; ``u`` is the still-undecided mask
# (vector predicates may ignore it), ``d`` the current state's direction.
# ---------------------------------------------------------------------------

def p_catches(core, u, look, d):
    """ctx.catches(direction): interior, other agent holds the port ahead."""
    g = -d * core.left
    ahead = _np.where(g == 1, look.other_plus, look.other_minus)
    return ~core.on_port & ahead


def p_caught(core, u, look, d):
    """ctx.caught: on a port, did not move, company arrived."""
    return core.on_port & ~look.snap_moved & (look.others_interior > 0)


def p_meeting(core, u, look, d):
    """ctx.meeting: interior and sharing the node with another agent."""
    return ~core.on_port & (look.others_interior > 0)


def p_blocked(core, u, look, d):
    """ctx.Btime > 0 (the scalar ctx clamps Btime to Etime)."""
    return _np.minimum(core.Btime, core.Etime) > 0


def p_size_known(core, u, look, d):
    return core.size >= 0


def p_is_lm(core, u, look, d):
    return look.is_lm


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

class VState:
    """Columnar twin of ``StateSpec``."""

    __slots__ = ("code", "direction", "dir_fn", "rules", "on_enter",
                 "custom", "keep_esteps")

    def __init__(self, code, *, direction=None, dir_fn=None, rules=(),
                 on_enter=None, custom=None, keep_esteps=False):
        self.code = code
        self.direction = direction
        self.dir_fn = dir_fn
        self.rules = tuple(rules)
        self.on_enter = on_enter
        self.custom = custom
        self.keep_esteps = keep_esteps


class VectorProgram:
    """An ordered set of :class:`VState` plus per-batch column setup.

    ``setup(core)`` allocates the program's private columns on ``core``.
    """

    __slots__ = ("states", "initial_code", "setup")

    def __init__(self, states: Sequence[VState], initial_code: int,
                 setup: Callable):
        self.states = tuple(states)
        self.initial_code = initial_code
        self.setup = setup

    def run(self, core, act, look) -> Tuple["_np.ndarray", "_np.ndarray"]:
        """Compute for every agent in ``act``; returns ``(kind, local)``."""
        np = _np
        shape = core.pos.shape
        kind = np.zeros(shape, dtype=np.int8)
        local = np.full(shape, _LEFT, dtype=np.int64)
        pending = act.copy()
        etr = np.zeros(shape, dtype=bool)  # entered_this_round

        for _ in range(MAX_PASSES):
            if not pending.any():
                return kind, local
            terminal = pending & (core.state == TERMINAL_CODE)
            if terminal.any():
                kind[terminal] = K_TERM
                pending &= ~terminal
            for st in self.states:
                m = pending & (core.state == st.code)
                if not m.any():
                    continue

                # -- on_enter preamble + reset_explore -----------------
                ne = m & ~core.entered
                if ne.any():
                    if st.on_enter is not None:
                        redirect, term_mask = st.on_enter(core, ne, look)
                        if term_mask is not None:
                            tm = ne & term_mask
                            if tm.any():
                                kind[tm] = K_TERM
                                core.state[tm] = TERMINAL_CODE
                                pending &= ~tm
                                m &= ~tm
                                ne &= ~tm
                        if redirect is not None:
                            rm = ne & (redirect >= 0)
                            if rm.any():
                                core.state[rm] = redirect[rm]
                                etr |= rm
                                m &= ~rm
                                ne &= ~rm
                    if ne.any():
                        core.Etime[ne] = 0
                        if not st.keep_esteps:
                            core.Esteps[ne] = 0
                        core.entered |= ne

                if not m.any():
                    continue

                # -- custom body ---------------------------------------
                if st.custom is not None:
                    ck, cd, credir = st.custom(core, m, look)
                    rm = m & (credir >= 0)
                    if rm.any():
                        core.state[rm] = credir[rm]
                        core.entered[rm] = False
                        etr |= rm
                        m &= ~rm
                    if m.any():
                        kind[m] = ck[m]
                        mv = m & (ck == K_MOVE)
                        local[mv] = cd[mv]
                        tm = m & (ck == K_TERM)
                        core.state[tm] = TERMINAL_CODE
                        pending &= ~m
                    continue

                # -- normal state: direction, fast path, rules ---------
                if st.dir_fn is not None:
                    d = st.dir_fn(core, look)
                else:
                    d = np.full(shape, st.direction, dtype=np.int64)
                core.last_dir[m] = d[m]

                fast = m & etr
                if fast.any():
                    kind[fast] = K_MOVE
                    local[fast] = d[fast]
                    pending &= ~fast
                    m &= ~fast

                u = m
                for pred, target in st.rules:
                    if not u.any():
                        break
                    fired = u & pred(core, u, look, d)
                    if fired.any():
                        core.state[fired] = target
                        core.entered[fired] = False
                        etr |= fired
                        u &= ~fired
                if u.any():
                    kind[u] = K_MOVE
                    local[u] = d[u]
                    pending &= ~u

        raise ProtocolViolation(
            "vector kernel: agents still chaining transitions after "
            f"{MAX_PASSES} passes (states {sorted(set(core.state[pending].tolist()))})")


# ---------------------------------------------------------------------------
# Shared on_enter helpers
# ---------------------------------------------------------------------------

def _oe_remember_forward(core, ne, look):
    """vars.setdefault('fwd', vars.get('last_dir', LEFT)) — columnar."""
    upd = ne & ~core.v_fwd_set
    core.v_fwd[upd] = core.last_dir[upd]
    core.v_fwd_set[upd] = True
    return None, None


def _d_var(core, look):
    return core.v_dir


def _d_fwd(core, look):
    return core.v_fwd


def _d_against_fwd(core, look):
    return -core.v_fwd


def _setup_bound(core, bound_minus: Optional[int]) -> None:
    """Pin ``core.pbound[C]``: each cell's bound (default: its ring size)
    minus ``bound_minus``; ``None`` means the program takes no bound."""
    if bound_minus is not None:
        core.pbound = _np.array(
            [(c.bound if c.bound is not None else c.ring_size) - bound_minus
             for c in core.cells], dtype=_np.int64)


def _p_done_span(core, u, look, d):
    """ctx.Tnodes >= bound (bound pinned per cell in ``core.pbound``)."""
    return (core.max_net - core.min_net) >= core.pbound[:, None]


# ---------------------------------------------------------------------------
# known-bound (Figure 1): Init / Bounce / Forward, stops at 3N - 6
# ---------------------------------------------------------------------------

def _make_known_bound() -> VectorProgram:
    # States: 0 Init(LEFT) / 1 Bounce(RIGHT) / 2 Forward(LEFT).
    def p_warmup_over(core, u, look, d):
        return core.Ttime >= 2 * core.pbound[:, None] - 4

    def p_bounce_now(core, u, look, d):
        bound = core.pbound[:, None]
        long_block = _np.minimum(core.Btime, core.Etime) >= bound - 1
        return (p_warmup_over(core, u, look, d) & long_block) | look.snap_failed

    def p_deadline(core, u, look, d):
        return core.Ttime >= 3 * core.pbound[:, None] - 6

    return VectorProgram(
        [
            VState(0, direction=_LEFT,
                   rules=((p_bounce_now, 1), (p_catches, 1), (p_caught, 2),
                          (p_warmup_over, 2))),
            VState(1, direction=_RIGHT, rules=((p_deadline, TERMINAL_CODE),)),
            VState(2, direction=_LEFT, rules=((p_deadline, TERMINAL_CODE),)),
        ],
        initial_code=0, setup=lambda core: _setup_bound(core, 0))


# ---------------------------------------------------------------------------
# unconscious (Figure 3): guess-doubling phases, never terminates
# ---------------------------------------------------------------------------

def _make_unconscious() -> VectorProgram:
    # States: 0 Init / 1 Reverse / 2 Keep (phase states, move along
    # ``v_dir`` for 2G rounds) / 3 Bounce (against fwd) / 4 Forward (fwd).
    def p_over(core, u, look, d):
        return core.Etime >= 2 * core.v_G

    def p_over_blocked(core, u, look, d):
        blocked = _np.minimum(core.Btime, core.Etime) > core.v_G
        return p_over(core, u, look, d) & blocked

    def oe_reverse(core, ne, look):
        core.v_dir[ne] = -core.v_dir[ne]
        return None, None

    def oe_keep(core, ne, look):
        core.v_G[ne] *= 2
        return None, None

    def setup(core):
        np = _np
        shape = core.pos.shape
        core.v_G = np.full(shape, 2, dtype=np.int64)
        core.v_dir = np.full(shape, _LEFT, dtype=np.int64)
        core.v_fwd = np.full(shape, _LEFT, dtype=np.int64)
        core.v_fwd_set = np.zeros(shape, dtype=bool)

    phase_rules = ((p_over_blocked, 1), (p_over, 2), (p_catches, 3),
                   (p_caught, 4))
    return VectorProgram(
        [
            VState(0, dir_fn=_d_var, rules=phase_rules),
            VState(1, dir_fn=_d_var, on_enter=oe_reverse, rules=phase_rules),
            VState(2, dir_fn=_d_var, on_enter=oe_keep, rules=phase_rules),
            VState(3, dir_fn=_d_against_fwd, on_enter=_oe_remember_forward),
            VState(4, dir_fn=_d_fwd, on_enter=_oe_remember_forward),
        ],
        initial_code=0, setup=setup)


# ---------------------------------------------------------------------------
# PT family: 2-agent chirality protocols (pt-bound / pt-landmark)
# ---------------------------------------------------------------------------

def _make_pt2(*, bound_minus: Optional[int]) -> VectorProgram:
    # States: 0 Init(LEFT) / 1 Bounce(RIGHT) / 2 Reverse(LEFT).
    done_pred = p_size_known if bound_minus is None else _p_done_span

    def oe_bounce(core, ne, look):
        core.v_left_steps[ne] = core.Esteps[ne]
        term = ne & (core.v_right_steps >= 0) & \
            (core.v_right_steps >= core.Esteps)
        return None, term

    def oe_reverse(core, ne, look):
        core.v_right_steps[ne] = core.Esteps[ne]
        return None, None

    def setup(core):
        np = _np
        shape = core.pos.shape
        core.v_left_steps = np.full(shape, -1, dtype=np.int64)
        core.v_right_steps = np.full(shape, -1, dtype=np.int64)
        _setup_bound(core, bound_minus)

    return VectorProgram(
        [
            VState(0, direction=_LEFT,
                   rules=((done_pred, TERMINAL_CODE), (p_catches, 1))),
            VState(1, direction=_RIGHT, on_enter=oe_bounce,
                   rules=((done_pred, TERMINAL_CODE), (p_blocked, 2))),
            VState(2, direction=_LEFT, on_enter=oe_reverse,
                   rules=((done_pred, TERMINAL_CODE), (p_catches, 1))),
        ],
        initial_code=0, setup=setup)




# ---------------------------------------------------------------------------
# PT family: 3-agent no-chirality protocols (pt-bound-3 / pt-landmark-3 /
# et-exact — the latter with strict distance checks)
# ---------------------------------------------------------------------------

def _make_pt3(*, bound_minus: Optional[int], strict: bool) -> VectorProgram:
    # States: 0 Init(L) / 1 Bounce(R) / 2 Reverse(L) /
    #         3 MeetingR(L, keep_esteps) / 4 MeetingB(R, keep_esteps).
    done_pred = p_size_known if bound_minus is None else _p_done_span

    def _stopped(core):
        if strict:
            return core.Esteps < core.v_d
        return core.Esteps <= core.v_d

    def oe_check_d(core, ne, look):
        # CheckD: a leg that stopped growing terminates; a longer leg
        # becomes the new ``d``; an unset ``d`` stays unset here.
        has = core.v_d > 0
        stopped = _stopped(core)
        term = ne & has & stopped
        grew = ne & has & ~stopped
        core.v_d[grew] = core.Esteps[grew]
        return None, term

    def oe_enter_reverse(core, ne, look):
        # The first Bounce -> Reverse change seeds ``d``; after that it
        # is CheckD.
        first = ne & (core.v_d == 0)
        core.v_d[first] = core.Esteps[first]
        return oe_check_d(core, ne & ~first, look)

    def oe_meeting(core, ne, look):
        term = ne & (core.v_d > 0) & _stopped(core)
        return None, term

    def setup(core):
        core.v_d = _np.zeros(core.pos.shape, dtype=_np.int64)
        _setup_bound(core, bound_minus)

    return VectorProgram(
        [
            VState(0, direction=_LEFT,
                   rules=((done_pred, TERMINAL_CODE), (p_catches, 1))),
            VState(1, direction=_RIGHT, on_enter=oe_check_d,
                   rules=((done_pred, TERMINAL_CODE), (p_meeting, 4),
                          (p_catches, 2))),
            VState(2, direction=_LEFT, on_enter=oe_enter_reverse,
                   rules=((done_pred, TERMINAL_CODE), (p_meeting, 3),
                          (p_catches, 1))),
            VState(3, direction=_LEFT, on_enter=oe_meeting, keep_esteps=True,
                   rules=((done_pred, TERMINAL_CODE), (p_catches, 1))),
            VState(4, direction=_RIGHT, on_enter=oe_meeting, keep_esteps=True,
                   rules=((done_pred, TERMINAL_CODE), (p_catches, 2))),
        ],
        initial_code=0, setup=setup)


# ---------------------------------------------------------------------------
# ET unconscious: Init / Flip / Cruise, never terminates
# ---------------------------------------------------------------------------

def _make_etu() -> VectorProgram:
    def c_flip(core, m, look):
        np = _np
        core.v_dir[m] = -core.v_dir[m]
        redirect = np.where(m, 2, -1).astype(np.int64)
        zeros8 = np.zeros(core.pos.shape, dtype=np.int8)
        zeros64 = np.zeros(core.pos.shape, dtype=np.int64)
        return zeros8, zeros64, redirect

    def setup(core):
        core.v_dir = _np.full(core.pos.shape, _LEFT, dtype=_np.int64)

    return VectorProgram(
        [
            VState(0, dir_fn=_d_var, rules=((p_catches, 1),)),
            VState(1, custom=c_flip),
            VState(2, dir_fn=_d_var, rules=((p_catches, 1),)),
        ],
        initial_code=0, setup=setup)


# ---------------------------------------------------------------------------
# Landmark family shared machinery (Section 3.2 Bounce/Return/Forward +
# the BComm/FComm communication dances)
# ---------------------------------------------------------------------------

def _p_bounce_over(core, u, look, d):
    return (core.Etime > 2 * core.Esteps) | (core.Ntime > 0)


def _p_return_timeout_or_caught(core, u, look, d):
    timeout = (core.size >= 0) & (core.Ntime > 3 * core.size)
    return timeout | p_caught(core, u, look, d)


def _p_forward_done(core, u, look, d):
    timeout = (core.size >= 0) & (core.Ntime >= 7 * core.size)
    return timeout | p_meeting(core, u, look, d) | p_catches(core, u, look, d)


def _oe_enter_return(core, ne, look):
    core.v_bounce_steps[ne] = core.Esteps[ne]
    return None, None


def _oe_enter_bcomm(core, ne, look):
    steps = core.Esteps
    signal = ne & (((core.v_bounce_steps >= 0) &
                    (steps <= 2 * core.v_bounce_steps)) | (core.size >= 0))
    core.v_comm[ne] = False
    core.v_comm[signal] = True
    core.v_comm_step[ne] = 0
    return None, None


def _oe_enter_fcomm(core, ne, look):
    signal = ne & (core.size >= 0)
    core.v_comm[ne] = False
    core.v_comm[signal] = True
    core.v_comm_step[ne] = 0
    return None, None


def _c_bcomm(core, m, look):
    np = _np
    shape = core.pos.shape
    kind = np.zeros(shape, dtype=np.int8)
    dloc = np.zeros(shape, dtype=np.int64)
    redirect = np.full(shape, -1, dtype=np.int64)
    step0 = m & (core.v_comm_step == 0)
    core.v_comm_step[m] += 1
    company = look.others_interior > 0
    ms = m & core.v_comm              # "signal": step back, then stop
    mv = ms & step0
    kind[mv] = K_MOVE
    dloc[mv] = -core.v_fwd[mv]
    kind[ms & ~step0] = K_TERM
    mw = m & ~core.v_comm             # "wait": stay, listen, resume or stop
    later = mw & ~step0
    redirect[later & company] = 1     # -> Bounce
    kind[later & ~company] = K_TERM
    return kind, dloc, redirect


def _c_fcomm(core, m, look):
    np = _np
    shape = core.pos.shape
    kind = np.zeros(shape, dtype=np.int8)
    dloc = np.zeros(shape, dtype=np.int64)
    redirect = np.full(shape, -1, dtype=np.int64)
    step0 = m & (core.v_comm_step == 0)
    core.v_comm_step[m] += 1
    company = look.others_interior > 0
    ms = m & core.v_comm
    mv = ms & step0
    kind[mv] = K_MOVE
    dloc[mv] = core.v_fwd[mv]
    kind[ms & ~step0] = K_TERM
    mw = m & ~core.v_comm
    kind[mw & step0] = K_ENTER        # step off the port, then listen
    later = mw & ~step0
    redirect[later & company] = 3     # -> Forward
    kind[later & ~company] = K_TERM
    return kind, dloc, redirect


def _landmark_shared_states():
    """Bounce(1) / Return(2) / Forward(3) / BComm(4) / FComm(5)."""
    return [
        VState(1, dir_fn=_d_against_fwd, on_enter=_oe_remember_forward,
               rules=((p_meeting, TERMINAL_CODE), (_p_bounce_over, 2),
                      (p_catches, 4))),
        VState(2, dir_fn=_d_fwd, on_enter=_oe_enter_return,
               rules=((_p_return_timeout_or_caught, TERMINAL_CODE),
                      (p_catches, 4))),
        VState(3, dir_fn=_d_fwd, on_enter=_oe_remember_forward,
               rules=((_p_forward_done, TERMINAL_CODE), (p_caught, 5))),
        VState(4, custom=_c_bcomm, on_enter=_oe_enter_bcomm),
        VState(5, custom=_c_fcomm, on_enter=_oe_enter_fcomm),
    ]


def _landmark_columns(core):
    np = _np
    shape = core.pos.shape
    core.v_dir = np.full(shape, _LEFT, dtype=np.int64)
    core.v_fwd = np.full(shape, _LEFT, dtype=np.int64)
    core.v_fwd_set = np.zeros(shape, dtype=bool)
    core.v_bounce_steps = np.full(shape, -1, dtype=np.int64)
    core.v_comm = np.zeros(shape, dtype=bool)
    core.v_comm_step = np.zeros(shape, dtype=np.int64)


# ---------------------------------------------------------------------------
# landmark-chirality
# ---------------------------------------------------------------------------

def _make_lmc() -> VectorProgram:
    def p_init_timeout(core, u, look, d):
        return (core.size >= 0) & (core.Ntime > 2 * core.size)

    states = [
        VState(0, dir_fn=_d_var,
               rules=((p_init_timeout, TERMINAL_CODE), (p_catches, 1),
                      (p_caught, 3))),
    ] + _landmark_shared_states()

    return VectorProgram(states, initial_code=0, setup=_landmark_columns)


# ---------------------------------------------------------------------------
# landmark-no-chirality / start-from-landmark (the ID-schedule protocol)
# ---------------------------------------------------------------------------

def _make_lmnc(*, arbitrary_start: bool) -> VectorProgram:
    # Codes: shared 1-5; 6 InitL / 7 FirstBlockL / 8 AtLandmarkL /
    # 9 AtLandmarkCruiseL / 10 Happy / 11 Ready / 12 Reverse /
    # 13 ReverseTimeout; arbitrary-start quartet 14 Init / 15 FirstBlock /
    # 16 AtLandmark / 17 AtLandmarkCruise.
    from ..algorithms.fsync.ids import DirectionSchedule, interleave_id
    from .directions import LocalDirection

    def oe_init_l(core, ne, look):
        core.v_dir[ne] = _LEFT
        core.v_k1[ne] = 0
        core.v_k2[ne] = 0
        core.v_k3[ne] = 0
        return None, None

    def oe_first_block_l(core, ne, look):
        core.v_dir[ne] = _RIGHT
        core.v_k1[ne] = _np.maximum(core.Ttime[ne] - 1, 0)
        return None, None

    def oe_first_block_arb(core, ne, look):
        core.v_dir[ne] = _RIGHT
        core.v_k1[ne] = core.Ttime[ne]
        return None, None

    def oe_at_landmark(core, ne, look):
        core.v_k3[ne] = core.Etime[ne]
        core.v_dance[ne] = 0
        return None, None

    def oe_ready(core, ne, look):
        np = _np
        core.v_k2[ne] = core.Etime[ne]
        for ci, ai in zip(*np.nonzero(ne)):
            ident = interleave_id(int(core.v_k1[ci, ai]),
                                  int(core.v_k2[ci, ai]),
                                  int(core.v_k3[ci, ai]))
            core._schedules[ci][ai] = DirectionSchedule(ident)
        redirect = np.where(ne, 12, -1).astype(np.int64)
        return redirect, None

    def oe_reverse(core, ne, look):
        np = _np
        for ci, ai in zip(*np.nonzero(ne)):
            sched = core._schedules[ci][ai]
            want = sched.direction(int(core.Ttime[ci, ai]))
            core.v_dir[ci, ai] = \
                _LEFT if want is LocalDirection.LEFT else _RIGHT
        redirect = np.where(ne & (core.size >= 0), 13, -1).astype(np.int64)
        return redirect, None

    def p_happy_timeout(core, u, look, d):
        return (core.size >= 0) & \
            (core.Ttime >= core._lm_timeout[:, None] + 1)

    def p_reverse_timeout(core, u, look, d):
        return (core.size >= 0) & (core.Ttime >= core._lm_timeout[:, None])

    def p_switches(core, u, look, d):
        np = _np
        out = np.zeros(u.shape, dtype=bool)
        for ci, ai in zip(*np.nonzero(u)):
            sched = core._schedules[ci][ai]
            if sched is not None:
                out[ci, ai] = sched.switches(int(core.Ttime[ci, ai]))
        return out

    def make_dance(cruise_code, success_code):
        # success_code None => TERMINATE (the landmark-start quartet);
        # otherwise redirect (the arbitrary-start quartet restarts).
        def c_dance(core, m, look):
            np = _np
            shape = core.pos.shape
            kind = np.zeros(shape, dtype=np.int8)
            dloc = np.zeros(shape, dtype=np.int64)
            redirect = np.full(shape, -1, dtype=np.int64)
            step0 = m & (core.v_dance == 0)
            core.v_dance[m] += 1
            company = look.others_interior > 0
            redirect[m & ~company] = cruise_code
            success = m & ~step0 & company
            if success_code is None:
                kind[success] = K_TERM
            else:
                redirect[success] = success_code
            return kind, dloc, redirect
        return c_dance

    def quartet(init_code, first_code, at_code, cruise_code, *,
                oe_first, dance_success):
        init_rules = ((p_size_known, 10), (p_catches, 1), (p_caught, 3),
                      (p_blocked, first_code))
        first_rules = ((p_size_known, 10), (p_catches, 1), (p_caught, 3),
                       (p_is_lm, at_code), (p_blocked, 11))
        cruise_rules = ((p_size_known, 10), (p_catches, 1), (p_caught, 3),
                        (p_blocked, 11))
        return [
            VState(init_code, dir_fn=_d_var, on_enter=oe_init_l,
                   rules=init_rules),
            VState(first_code, dir_fn=_d_var, on_enter=oe_first,
                   rules=first_rules),
            VState(at_code, custom=make_dance(cruise_code, dance_success),
                   on_enter=oe_at_landmark),
            VState(cruise_code, dir_fn=_d_var, rules=cruise_rules),
        ]

    states = _landmark_shared_states()
    states += quartet(6, 7, 8, 9, oe_first=oe_first_block_l,
                      dance_success=None)
    states += [
        VState(10, dir_fn=_d_var,
               rules=((p_happy_timeout, TERMINAL_CODE), (p_catches, 1),
                      (p_caught, 3))),
        VState(11, dir_fn=_d_var, on_enter=oe_ready),
        VState(12, dir_fn=_d_var, on_enter=oe_reverse,
               rules=((p_catches, 1), (p_caught, 3), (p_switches, 12))),
        VState(13, dir_fn=_d_var,
               rules=((p_reverse_timeout, TERMINAL_CODE), (p_catches, 1),
                      (p_caught, 3))),
    ]
    if arbitrary_start:
        states += quartet(14, 15, 16, 17, oe_first=oe_first_block_arb,
                          dance_success=6)

    def setup(core):
        from ..algorithms.fsync.landmark_no_chirality import \
            no_chirality_timeout
        np = _np
        shape = core.pos.shape
        _landmark_columns(core)
        core.v_k1 = np.zeros(shape, dtype=np.int64)
        core.v_k2 = np.zeros(shape, dtype=np.int64)
        core.v_k3 = np.zeros(shape, dtype=np.int64)
        core.v_dance = np.zeros(shape, dtype=np.int64)
        core._schedules = [[None] * shape[1] for _ in range(shape[0])]
        # An agent only ever *learns* size == n (consecutive landmark
        # stands differ in net by a multiple of n, and the first
        # differing stand is exactly +-n away), so the no-chirality
        # timeout is a per-cell constant.
        core._lm_timeout = np.array(
            [no_chirality_timeout(int(n)) for n in core.n], dtype=np.int64)

    return VectorProgram(states, initial_code=14 if arbitrary_start else 6,
                         setup=setup)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

#: Every vectorised algorithm: registry name -> program factory.  Its keys
#: are :data:`repro.core.batch_rules.BATCH_ALGORITHMS` (a test pins it).
PROGRAMS: dict[str, Callable[[], VectorProgram]] = {
    "known-bound": _make_known_bound,
    "unconscious": _make_unconscious,
    "landmark-chirality": _make_lmc,
    "landmark-no-chirality": partial(_make_lmnc, arbitrary_start=True),
    "start-from-landmark": partial(_make_lmnc, arbitrary_start=False),
    "pt-bound": partial(_make_pt2, bound_minus=0),
    "pt-landmark": partial(_make_pt2, bound_minus=None),
    "pt-bound-3": partial(_make_pt3, bound_minus=0, strict=False),
    "pt-landmark-3": partial(_make_pt3, bound_minus=None, strict=False),
    "et-unconscious": _make_etu,
    "et-exact": partial(_make_pt3, bound_minus=1, strict=True),
}


def build_program(algorithm: str) -> VectorProgram:
    """A fresh :class:`VectorProgram` for ``algorithm``.

    Raises :class:`ConfigurationError` for an algorithm without one.
    """
    factory = PROGRAMS.get(algorithm)
    if factory is None:
        raise ConfigurationError(
            f"algorithm {algorithm!r} has no vector program")
    return factory()


__all__ = [
    "K_ENTER",
    "K_MOVE",
    "K_STAY",
    "K_TERM",
    "Look",
    "MAX_PASSES",
    "PROGRAMS",
    "TERMINAL_CODE",
    "VState",
    "VectorProgram",
    "build_program",
    "load_numpy",
]
