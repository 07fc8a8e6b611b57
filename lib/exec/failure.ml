(** The one failure channel of a run; see failure.mli. *)

type t =
  | Out_of_memory of { stage : string; worker_bytes : int; budget : int }
  | Task_failed of { stage : string; partition : int; attempts : int }
  | Deadline_missed of { stage : string; sim_seconds : float; deadline : float }
  | Error of string

exception Failed of t

let with_stage step f =
  let pre stage = step ^ "/" ^ stage in
  match f with
  | Out_of_memory o -> Out_of_memory { o with stage = pre o.stage }
  | Task_failed t -> Task_failed { t with stage = pre t.stage }
  | Deadline_missed d -> Deadline_missed { d with stage = pre d.stage }
  | Error _ -> f

let pp_bytes b =
  if b >= 1048576 then Printf.sprintf "%.1fMB" (float_of_int b /. 1048576.)
  else Printf.sprintf "%.1fKB" (float_of_int b /. 1024.)

let message = function
  | Out_of_memory { stage; worker_bytes; budget } ->
    Printf.sprintf "%s: %s > %s" stage (pp_bytes worker_bytes) (pp_bytes budget)
  | Task_failed { stage; partition; attempts } ->
    Printf.sprintf "%s: task on partition %d abandoned after %d attempts"
      stage partition attempts
  | Deadline_missed { stage; sim_seconds; deadline } ->
    Printf.sprintf "%s: deadline %.3fs exceeded (%.3fs simulated)" stage
      deadline sim_seconds
  | Error msg -> msg
