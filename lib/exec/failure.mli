(** The one failure channel of a run.

    Every typed way a run can end without an answer is a {!t}, and the
    executor raises all of them through the single exception {!Failed}.
    Drivers catch that one exception: {!Trance.Api} prefixes the stage
    with the source step ({!with_stage}) and reports the run as failed —
    the paper's FAIL bars, never an uncaught exception. *)

type t =
  | Out_of_memory of { stage : string; worker_bytes : int; budget : int }
      (** a worker exceeded its (possibly squeezed) budget at [stage] and
          could not spill — the paper's FAIL *)
  | Task_failed of { stage : string; partition : int; attempts : int }
      (** an injected task failure exhausted
          {!Config.t.max_task_attempts}: the run fails typed rather than
          returning a wrong answer *)
  | Deadline_missed of { stage : string; sim_seconds : float; deadline : float }
      (** the run blew {!Config.t.deadline} at [stage], typically while
          paying for storm recovery: typed, never a silent hang *)
  | Error of string  (** anything else, e.g. an invalid {!Config.t} *)

exception Failed of t

val with_stage : string -> t -> t
(** [with_stage step f] prefixes [f]'s stage with ["step/"], e.g.
    ["Step2/unnest"]. [Error] carries no stage and is returned as is. *)

val message : t -> string
(** One-line description, e.g. ["Step2/unnest: 5.0MB > 4.0MB"]. *)
