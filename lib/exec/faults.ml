(** Deterministic, seed-driven fault schedules; see faults.mli. *)

type kind =
  | Worker_crash
  | Task_failure
  | Fetch_failure
  | Straggler
  | Mem_squeeze

type spec = {
  kind : kind;
  stage : int;
  fails : int;
  multiplier : float;
  factor : float;
}

type schedule = spec list

let default_spec kind =
  { kind; stage = 0; fails = 1; multiplier = 8.; factor = 0.5 }

let kind_name = function
  | Worker_crash -> "crash"
  | Task_failure -> "task"
  | Fetch_failure -> "fetch"
  | Straggler -> "straggler"
  | Mem_squeeze -> "memsqueeze"

let kind_of_string = function
  | "crash" | "worker-crash" -> Ok Worker_crash
  | "task" | "task-failure" -> Ok Task_failure
  | "fetch" | "fetch-failure" -> Ok Fetch_failure
  | "straggler" | "slow" -> Ok Straggler
  | "memsqueeze" | "mem" -> Ok Mem_squeeze
  | s ->
    Error
      (Printf.sprintf
         "unknown fault kind %S (expected crash, task, fetch, straggler, \
          memsqueeze)"
         s)

let spec_to_string sp =
  let base = Printf.sprintf "%s:stage=%d" (kind_name sp.kind) sp.stage in
  match sp.kind with
  | Worker_crash -> base
  | Task_failure | Fetch_failure -> Printf.sprintf "%s,fails=%d" base sp.fails
  | Straggler -> Printf.sprintf "%s,mult=%g" base sp.multiplier
  | Mem_squeeze -> Printf.sprintf "%s,factor=%g" base sp.factor

(* The bounds of every spec, parsed or built in code: a negative stage,
   a fault that never fails, a straggler that speeds up or never ends,
   or a squeeze to no budget at all would charge nonsense. *)
let check sch =
  let problem sp =
    if sp.stage < 0 then Some (Printf.sprintf "stage must be >= 0 (got %d)" sp.stage)
    else if sp.fails < 1 then Some (Printf.sprintf "fails must be >= 1 (got %d)" sp.fails)
    else if not (Float.is_finite sp.multiplier && sp.multiplier >= 1.) then
      Some (Printf.sprintf "mult must be finite and >= 1 (got %g)" sp.multiplier)
    else if not (sp.factor > 0. && sp.factor <= 1.) then
      Some (Printf.sprintf "factor must be in (0, 1] (got %g)" sp.factor)
    else None
  in
  match List.find_map (fun sp -> Option.map (fun m -> (sp, m)) (problem sp)) sch with
  | None -> Ok sch
  | Some (sp, m) ->
    Error (Printf.sprintf "invalid fault schedule: %s: %s" (spec_to_string sp) m)

(* The syntax first, then {!check}: the defaults are in bounds, so a
   rejected spec names the parameter just set. *)
let spec_of_string s =
  let kind_s, params =
    match String.index_opt s ':' with
    | None -> (s, "")
    | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  Result.bind (kind_of_string kind_s) (fun kind ->
      let apply acc kv =
        Result.bind acc (fun sp ->
            if kv = "" then Ok sp
            else
              let set key v parse update =
                match Option.map update (parse v) with
                | Some sp when Result.is_ok (check [ sp ]) -> Ok sp
                | _ -> Error (Printf.sprintf "bad %s %S" key v)
              in
              match String.split_on_char '=' kv with
              | [ "stage"; v ] ->
                set "stage" v int_of_string_opt (fun n -> { sp with stage = n })
              | [ "fails"; v ] ->
                set "fails" v int_of_string_opt (fun n -> { sp with fails = n })
              | [ "mult"; v ] ->
                set "mult" v float_of_string_opt (fun f -> { sp with multiplier = f })
              | [ "factor"; v ] ->
                set "factor" v float_of_string_opt (fun f -> { sp with factor = f })
              | _ -> Error (Printf.sprintf "bad fault parameter %S" kv))
      in
      List.fold_left apply
        (Ok (default_spec kind))
        (String.split_on_char ',' params))

(* A schedule is '+'-separated specs: "crash:stage=2+task:stage=4,fails=2".
   The empty string is rejected — an absent schedule is [], not "". *)
let schedule_of_string s =
  if String.trim s = "" then Error "empty fault schedule"
  else
    List.fold_left
      (fun acc part ->
        Result.bind acc (fun specs ->
            Result.map (fun sp -> sp :: specs) (spec_of_string part)))
      (Ok [])
      (String.split_on_char '+' s)
    |> Result.map List.rev

let schedule_to_string sch = String.concat "+" (List.map spec_to_string sch)

(* murmur-style avalanche shared by the victim pick and the storm
   generator: a pure function of its inputs *)
let avalanche a b =
  let z = (a * 0x9E3779B1) + ((b + 1) * 0x85EBCA6B) in
  let z = z lxor (z lsr 15) in
  let z = z * 0xC2B2AE35 in
  let z = z lxor (z lsr 13) in
  abs z

(* Seed-driven storm generator: [n] faults of the cycled [kinds] at
   pseudo-random stages in [first_stage, first_stage + span), sorted so the
   printed schedule reads chronologically. Repeated crashes at nearby
   stages are exactly the "crash during recovery of a prior crash" case:
   the second one fires while the lineage replay of the first is still
   being paid for. *)
let storm ?(seed = 42) ?(kinds = [ Worker_crash ]) ?(first_stage = 1)
    ?(span = 8) n : schedule =
  let kinds = if kinds = [] then [ Worker_crash ] else kinds in
  let karr = Array.of_list kinds in
  List.init n (fun i ->
      let kind = karr.(i mod Array.length karr) in
      let stage = first_stage + (avalanche seed (i * 7919) mod max 1 span) in
      (* [fails] only exists in the canonical syntax of task / fetch
         faults; setting it elsewhere would break the round-trip *)
      let fails =
        match kind with Task_failure | Fetch_failure -> 2 | _ -> 1
      in
      { (default_spec kind) with stage; fails })
  |> List.sort (fun a b -> compare (a.stage, a.kind) (b.stage, b.kind))

(* ------------------------------------------------------------------ *)
(* Runtime *)

type t = {
  schedule : spec array;
  fired : bool array;
  squeezing : bool array;
  seed : int;
  mutable stage_counter : int;
}

type site = Compute | Shuffle_fetch

type event =
  | Fail_task of { partition : int; fails : int }
  | Lose_worker of { worker : int }
  | Fail_fetch of { partition : int; fails : int }
  | Straggle of { partition : int; multiplier : float }

let make ?(seed = 42) (sch : schedule) =
  let schedule = Array.of_list sch in
  {
    schedule;
    fired = Array.map (fun _ -> false) schedule;
    squeezing = Array.map (fun _ -> false) schedule;
    seed;
    stage_counter = 0;
  }

let schedule t = Array.to_list t.schedule

(* victim choice: a pure hash of (seed, stage index, spec index), so two
   faults of the same storm pick independent victims *)
let pick t ~salt bound =
  if bound <= 0 then 0
  else avalanche (t.seed + (salt * 0x27D4EB2F)) t.stage_counter mod bound

let eligible kind site =
  match kind, site with
  | Fetch_failure, Shuffle_fetch -> true
  | Fetch_failure, Compute -> false
  | (Worker_crash | Task_failure | Straggler), Compute -> true
  | (Worker_crash | Task_failure | Straggler), Shuffle_fetch -> false
  | Mem_squeeze, _ -> false (* acts through effective_mem, not an event *)

(* At most one event fires per accounted stage: the first not-yet-fired
   spec whose stage index has been reached and whose kind matches the
   site. Later specs of the schedule wait for subsequent stages, which is
   how a storm lands its second crash while the first one's recovery is
   still being paid for. *)
let on_stage (ot : t option) ~site ~partitions ~workers : event option =
  match ot with
  | None -> None
  | Some t ->
    let idx = t.stage_counter in
    t.stage_counter <- idx + 1;
    Array.iteri
      (fun i sp ->
        match sp.kind with
        | Mem_squeeze when (not t.squeezing.(i)) && idx >= sp.stage ->
          t.squeezing.(i) <- true
        | _ -> ())
      t.schedule;
    let rec fire i =
      if i >= Array.length t.schedule then None
      else
        let sp = t.schedule.(i) in
        if t.fired.(i) || idx < sp.stage || not (eligible sp.kind site) then
          fire (i + 1)
        else begin
          t.fired.(i) <- true;
          match sp.kind with
          | Worker_crash ->
            Some (Lose_worker { worker = pick t ~salt:i (max 1 workers) })
          | Task_failure ->
            Some
              (Fail_task
                 { partition = pick t ~salt:i (max 1 partitions);
                   fails = sp.fails })
          | Fetch_failure ->
            Some
              (Fail_fetch
                 { partition = pick t ~salt:i (max 1 partitions);
                   fails = sp.fails })
          | Straggler ->
            Some
              (Straggle
                 { partition = pick t ~salt:i (max 1 partitions);
                   multiplier = sp.multiplier })
          | Mem_squeeze -> fire (i + 1)
        end
    in
    fire 0

let effective_mem (ot : t option) budget =
  match ot with
  | None -> budget
  | Some t ->
    let factor = ref 1. in
    Array.iteri
      (fun i sp ->
        match sp.kind with
        | Mem_squeeze when t.squeezing.(i) -> factor := !factor *. sp.factor
        | _ -> ())
      t.schedule;
    if !factor >= 1. then budget
    else begin
      (* [float_of_int max_int] rounds up to 2^62, which is outside the int
         range: for budgets near Config.unbounded the float round-trip would
         produce an unspecified (negative) budget, so clamp instead. *)
      let f = float_of_int budget *. !factor in
      if f >= float_of_int max_int then budget else max 1 (int_of_float f)
    end
