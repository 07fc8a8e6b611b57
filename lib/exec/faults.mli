(** Deterministic fault injection for the cluster simulator.

    The simulator imitates a Spark substrate, and Spark substrates
    misbehave: executors die, tasks fail, shuffle fetches time out,
    stragglers stall stages, memory budgets shrink under co-tenancy. This
    module turns those misbehaviours into a {e seed-driven schedule of
    injectable events} that {!Executor} consults once per accounted stage,
    and {!Executor} answers with Spark's recovery semantics (bounded
    per-task retry, lineage re-execution of a lost worker's partitions —
    truncated at the nearest {!Checkpoint} — speculative duplicates with
    first-wins dedup).

    A {!schedule} holds any number of specs, so a run can face a {e fault
    storm}: repeated crashes, a crash firing while the recovery of an
    earlier crash is still being paid for, or mixed
    crash+fetch+squeeze sequences. Everything stays deterministic: the
    victim partition / worker is a pure hash of [(seed, stage index, spec
    index)], so the same seed yields the same span tree, the same attempt
    counts and the same recomputed bytes — which is what lets the
    differential test suite assert recovery behaviour exactly. *)

(** The injectable misbehaviours. *)
type kind =
  | Worker_crash
      (** a worker dies at the stage: its resident partitions are lost and
          re-executed from lineage on the survivors *)
  | Task_failure
      (** one partition task fails [fails] consecutive times before
          (possibly) succeeding; Spark's per-task retry with a bounded
          attempt budget ({!Config.t.max_task_attempts}) *)
  | Fetch_failure
      (** a transient shuffle-fetch failure: one destination partition must
          re-fetch its inputs [fails] times *)
  | Straggler
      (** one task runs [multiplier] times slower; with
          {!Config.t.speculation} a duplicate launches and the first copy
          to finish wins *)
  | Mem_squeeze
      (** from the stage onward every worker's memory budget is multiplied
          by [factor]; with {!Config.t.spill} [= On] the squeezed stages
          spill to disk and finish slowly, with [Off] they fail typed — the
          paper's FAIL outcomes *)

type spec = {
  kind : kind;
  stage : int;  (** 0-based accounted-stage index at which the fault fires *)
  fails : int;  (** consecutive failures for task / fetch faults *)
  multiplier : float;  (** straggler slowdown *)
  factor : float;  (** memory-budget squeeze factor *)
}

type schedule = spec list
(** The faults one run will face, in declaration order. [[]] is a clean
    run. Specs fire independently (at most one per accounted stage, in
    declaration order among the eligible); two active {!Mem_squeeze} specs
    compound multiplicatively. *)

val default_spec : kind -> spec
(** [stage = 0], [fails = 1], [multiplier = 8.], [factor = 0.5]. *)

val spec_of_string : string -> (spec, string) result
(** Parse CLI syntax: [crash:stage=2], [task:stage=1,fails=2],
    [fetch:stage=3], [straggler:stage=1,mult=8],
    [memsqueeze:stage=0,factor=0.25]. Parameters may be omitted
    ([default_spec] fills them) and combined freely. *)

val spec_to_string : spec -> string
(** Canonical round-trippable form of {!spec_of_string}. *)

val schedule_of_string : string -> (schedule, string) result
(** ['+']-separated specs: ["crash:stage=2+task:stage=4,fails=2"]. Rejects
    the empty string — an absent schedule is [[]], not [""]. *)

val schedule_to_string : schedule -> string
(** Canonical round-trippable form of {!schedule_of_string}. *)

val storm :
  ?seed:int ->
  ?kinds:kind list ->
  ?first_stage:int ->
  ?span:int ->
  int ->
  schedule
(** [storm n] generates a deterministic [n]-fault schedule: kinds cycled
    from [kinds] (default: crashes only), stages hashed from [seed] into
    [\[first_stage; first_stage + span)], sorted chronologically. The same
    arguments always yield the same storm. *)

(** {2 Runtime injector} *)

type t
(** One run's injector: the schedule plus a stage counter and per-spec
    fired / squeeze state. Create a fresh one per run. *)

val make : ?seed:int -> schedule -> t

val schedule : t -> schedule

(** Where a stage is accounted: fetch failures only make sense where data
    is fetched. *)
type site = Compute | Shuffle_fetch

(** What the injector decided for one stage. *)
type event =
  | Fail_task of { partition : int; fails : int }
  | Lose_worker of { worker : int }
  | Fail_fetch of { partition : int; fails : int }
  | Straggle of { partition : int; multiplier : float }

val on_stage :
  t option -> site:site -> partitions:int -> workers:int -> event option
(** Advance the stage counter and return the event injected at this stage,
    if any. Each spec fires exactly once, at the first {e eligible} stage
    whose index reaches [spec.stage] (a fetch failure waits for a shuffle;
    the others wait for a compute stage); at most one spec fires per stage,
    so a two-crash storm pays for the second crash while the first one's
    recovery is still in the books. [None] injector is a no-op returning
    [None]. *)

val effective_mem : t option -> int -> int
(** The worker memory budget after the active {!Mem_squeeze} specs
    (identity before any squeeze stage and for every other fault kind);
    concurrent squeezes compound multiplicatively. Safe for budgets near
    [max_int] ({!Config.unbounded}): the result is always in
    [\[1; budget\]], never a float-overflow artefact. *)
