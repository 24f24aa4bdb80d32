"""Closest-source shortest paths in the sleeping model.

Same threshold-halving recursion as the congestion-metered version, with the
energy bookkeeping made real: nodes are awake only for the frame work they
actually do and sleep otherwise. `CsspProgram` declares each listening window
where it plans the work (`api.awake_span`, or `api.awake_window` where the
node may stop listening early; both are no-ops on a congest node's
always-awake schedule); this flavor starts asleep, wakes the round before each
planned action, and waits in pipelines instead of awake. The windows:

  - spanning forest: the Boruvka phases run in the same deterministic
    windows, and tree sweeps are depth-slotted (`_sweep`: two awake rounds per
    sweep) under the phase's cap on tree depth (`_cap`): phase 0 sweeps its
    singletons at cap 0, or in a near child at the parent tree's hop
    height, so its merge round comes early. The adoption sub-window (N + 2
    rounds) is listened through only until the wave has passed the node: it
    ends once the node has been adopted (or started the merge as the core)
    and every node it adopted has acknowledged (`_adoption_settled`). The
    phase that finds no outgoing edge carries the census on its sweep, skips
    the adoption sub-window and starts the cutter in its merge round, so no
    census sweep runs and the component wakes for no later phase. In a near
    child's phase 0, the reuse vote runs over the parent frame's tree: a
    node wakes for its slot of the convergecast and listens in the sweep
    span at its depth there for the broadcast, which reaches only nodes of
    a component that is whole (silence means build).
  - distance cutter: an edge of rounded weight a*tau acts as a chain of a
    unit hops that the receiving endpoint advances arithmetically
    (`_tick_weight`), so only one channel per edge is charged. A node
    listens from the start of the tick window (`_start_cutter`) until its
    own tick is final (`_cut_finalize`); a node the wave does not reach
    listens throughout. The wake-up at each candidate tick falls in that
    window and declares no listening of its own, so a superseded one is
    withdrawn whole.
  - completion detection: instead of staying awake, waiting nodes join a
    convergecast/broadcast pipeline on the component tree whose period is
    the component size rounded up to a power of two (`_period`), spending
    O(1) awake rounds per cycle while the recursion works elsewhere. Every
    pipe runs on one grid anchored at round 0, and a depth's residues mod
    2P reduce to its residues mod P, so of two pipes a node holds at one
    depth, the longer-period one listens only in rounds the other does: the
    waiting of nested frames is counted once even where their component
    sizes differ. The slot rule is
    `engine.PlannedProgram`'s (`_join_pipe`, `_pipe_slot`). A frame's
    completion messages join `CsspProgram`'s one send queue, held to the
    pipe's up or down slots (`_slots`), and go critical.

Frame messages go only to peers (see `congest_cssp`), and every peer listens
when one is due, so a sleeping run loses no message and puts the same
messages on every edge as a congest run. A completed frame is released in
the step it completes, as in the congest flavor: its queued messages do not
need it.

Everything else, the step loop and the entry points included, is shared with
the congest implementation: pass `program=EnergyCsspProgram` to
`congest_cssp.run_thresholded_cssp`, `cssp` or `boruvka_forest`, which
`netdecomp.build_decomposition` does for its spanning forest.
"""

from __future__ import annotations

from .congest_cssp import (
    T_DONE1, T_DONE2, T_FDONE, T_START2, CsspProgram, cssp, pow2_at_least,
)

UP_TAGS = frozenset({T_DONE1, T_DONE2})
DOWN_TAGS = frozenset({T_START2, T_FDONE})


class EnergyCsspProgram(CsspProgram):
    """Threshold-halving recursion under sleeping semantics."""

    # The step is CsspProgram's; naming it in this class as well lets a
    # profile or the benchmark's traced run tell sleeping steps apart.
    on_round = CsspProgram.on_round

    # -- awake bookkeeping ------------------------------------------------------

    def _awake_from_start(self, api):
        # later steps fall on rounds already awake: a planned wake-up or the
        # schedule's next awake round after a delivery
        api.awake_span(api.round, api.round)

    # a planned action reads what arrives in the round before it
    _listen_before = True

    def _cutter_done(self, api, f):
        # a node with nothing to wait for reports up in this round, before
        # it joins the pipe
        super()._cutter_done(api, f)
        if f.size > 1:
            # join the component-tree pipeline that detects recursion
            # progress
            f.pipe = self._join_pipe(api, 0, self._period(f), f.depth,
                                     f.t_child1, 1 << 62)

    def _period(self, f):
        """A frame's pipe period: its component size rounded up to a power
        of two, so that a node's nested pipes share their awake rounds
        (`CsspProgram._check_done` sizes the start-time lead from it)."""
        return pow2_at_least(f.size)

    def _slots(self, msg):
        # a frame's completion messages go in its pipe's up or down slots,
        # where the receiver listens; from anchor 0, the first is the residue
        f = self.frames[msg.ctx]
        up = msg.tag in UP_TAGS
        if f.pipe is None or not (up or msg.tag in DOWN_TAGS):
            return super()._slots(msg)
        period = self._period(f)
        return period, self._pipe_slot(0, period, f.depth, up, 0)

    def _frame_complete(self, api, f):
        super()._frame_complete(api, f)
        if f.pipe is not None:
            api.stop_awake(f.pipe, api.round)


def cssp_energy(graph, sources, *, round_limit=None, trace=True):
    """Exact dist(S, v) for every node in the sleeping model."""
    return cssp(graph, sources, program=EnergyCsspProgram,
                round_limit=round_limit, trace=trace)
