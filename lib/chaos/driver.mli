(** Chaos-schedule interpreter: build a fresh KV deployment, run the
    schedule's client workload while injecting its fault events at
    their virtual times, then judge the run.

    A run fails when the system breaks one of its promises:

    - {b Stalled} — the clients' operations did not all complete within
      a generous virtual-time horizon (generated schedules stay inside
      a liveness envelope, so progress is owed);
    - {b Diverged} — after the run settles, two live replicas of one
      partition disagree on an object's latest version;
    - {b Invariant} — a live replica fails
      {!Heron_core.Replica.check_invariants};
    - {b Not_linearizable} — the recorded client history admits no
      linearization ({!Heron_lincheck.Lincheck}); the detail carries
      the shortest failing prefix.
    - {b Unbounded} — longhaul runs only (DESIGN.md §13): the run
      linearized but the durability layer failed its point — no
      checkpoint or truncation ever happened, a retained log (update or
      multicast) exceeded a few checkpoint intervals' worth of entries,
      or rejoins replayed more than O(delta). Bounds are derived from
      the schedule's own rate (ops, think time, horizon), so they are
      length-independent: a linearly-growing log fails on any
      sufficiently long schedule.
    - {b Crashed} — an exception escaped the simulated system (an
      assertion or array bound inside protocol code, not the harness);
      the detail carries the exception text.

    Runs are deterministic: same schedule, same outcome, every time —
    which is what makes shrinking and corpus replay possible.

    Injection is defensive so that {e any} event subset (a shrinking
    candidate) stays inside the liveness envelope: a crash is skipped
    if the target is index 0, already dead, or another replica of the
    partition is down or still synchronising state
    ({!Heron_core.Replica.in_recovery}); a restart is skipped if the
    target is alive.
    Metrics: [chaos.schedules_run], [chaos.failures],
    [chaos.injections_skipped]. *)

type failure =
  | Stalled of { completed : int; expected : int }
  | Diverged of { detail : string }
  | Invariant of { part : int; idx : int; detail : string }
  | Not_linearizable of { detail : string }
  | Unbounded of { detail : string }
  | Crashed of { detail : string }

type outcome = Completed of { completed : int } | Failed of failure

val failure_kind : failure -> string
(** Stable one-word tag ([stalled], [diverged], [invariant],
    [not_linearizable], [unbounded], [crashed]) — the shrinker's notion
    of "the same bug". *)

val run :
  ?pipeline:bool ->
  ?durability:bool ->
  ?longhaul:bool ->
  ?fast_reads:bool ->
  ?inspect:((Heron_kv.Kv_app.req, Heron_kv.Kv_app.resp) Heron_core.System.t -> unit) ->
  Schedule.t ->
  outcome
(** [run sc] interprets the schedule against a fresh deployment.
    [pipeline] (default false) enables the compartmentalized replica
    pipeline ({!Heron_core.Config.pipeline}, DESIGN.md §12) for the
    run; schedules themselves are config-agnostic, so the same pinned
    corpus replays under both configurations.

    [durability] (default false) switches on checkpointing and
    update-log compaction ({!Heron_core.Config.durability}, DESIGN.md
    §13), with the checkpoint interval scaled so every run sees a few
    hundred rounds regardless of its horizon. Off, the run is
    byte-identical to the pre-durability driver — the refinement suite
    relies on that.

    [longhaul] (default false) marks a long-horizon run: metrics are
    collected in a private registry, the multicast leader liveness
    poll is relaxed in proportion to the horizon (index 0 never
    crashes in generated schedules), and a completed run additionally
    gets the {!Unbounded} flat-memory / O(delta)-rejoin verdict.

    [fast_reads] (default false) enables lease-based local reads
    ({!Heron_core.Config.fast_reads}, DESIGN.md §14): single-partition
    read-only requests are served from a lease-holding replica's local
    store with no multicast round, falling back to the ordered path on
    a lease miss. Like [pipeline], this is a deployment flag rather
    than a schedule field — the same pinned corpus replays under it.
    The linearizability verdict covers the fast path: locally-served
    reads enter the recorded history like any other operation. The
    lease and renewal cadence scale with the schedule horizon (like
    the checkpoint cadence under [durability]) so minutes-long
    longhaul pins replay without a grant multicast every 800us.

    [inspect] runs against the live system after the run settled and
    every other verdict passed — the refinement suite uses it to
    digest final replica state. *)

val divergence : ('req, 'resp) Heron_core.System.t -> string option
(** The {!Diverged} check: [Some detail] naming the first object on
    which two live replicas of a partition disagree — by value, or
    because one holds it and the other does not — or a partition with
    no live replica; [None] when every partition agrees. *)

val pp_failure : Format.formatter -> failure -> unit
val pp_outcome : Format.formatter -> outcome -> unit
