(** A reusable domain pool for partition-wise execution; see pool.mli.

    One pool is spawned per run and reused by every stage, so the domain
    spawn cost is paid once, not per operator. The implementation is a
    plain shared work queue: a job is an [int -> unit] body over task
    indices [0..limit-1]; indices are claimed with a single atomic
    fetch-and-add, every lane (the spawned domains plus the calling
    domain) drains the queue, and the caller waits on a condition until
    all worker lanes have retired from the current epoch.

    Determinism does not depend on which lane runs which index: tasks
    must not touch shared mutable state and results land in per-index
    slots — so any interleaving produces bit-identical outputs. *)

type t = {
  size : int; (* lanes, including the calling domain *)
  mutable workers : unit Domain.t array; (* size - 1 spawned domains *)
  m : Mutex.t;
  work : Condition.t; (* a new epoch was posted, or stop *)
  idle : Condition.t; (* the last worker retired from the epoch *)
  next : int Atomic.t; (* next unclaimed task index *)
  mutable job : int -> unit; (* never raises: bodies capture exceptions *)
  mutable limit : int;
  mutable epoch : int;
  mutable active : int; (* workers still draining the current epoch *)
  mutable stop : bool;
}

let size t = t.size

let no_job (_ : int) = ()

(* claim-and-run until the queue is empty; shared by workers and caller *)
let drain t job limit =
  let rec go () =
    let i = Atomic.fetch_and_add t.next 1 in
    if i < limit then begin
      job i;
      go ()
    end
  in
  go ()

let rec worker_loop t seen =
  Mutex.lock t.m;
  while (not t.stop) && t.epoch = seen do
    Condition.wait t.work t.m
  done;
  if t.stop then Mutex.unlock t.m
  else begin
    let epoch = t.epoch in
    let job = t.job and limit = t.limit in
    Mutex.unlock t.m;
    drain t job limit;
    Mutex.lock t.m;
    t.active <- t.active - 1;
    if t.active = 0 then Condition.signal t.idle;
    Mutex.unlock t.m;
    worker_loop t epoch
  end

let shutdown t =
  Mutex.lock t.m;
  let already = t.stop in
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  if not already then Array.iter Domain.join t.workers

let create ~domains =
  let size = max 1 domains in
  let t =
    {
      size;
      workers = [||];
      m = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      next = Atomic.make 0;
      job = no_job;
      limit = 0;
      epoch = 0;
      active = 0;
      stop = false;
    }
  in
  let spawned = ref [] in
  (try
     for _ = 2 to size do
       spawned := Domain.spawn (fun () -> worker_loop t 0) :: !spawned
     done
   with exn ->
     (* the runtime caps live domains: join the lanes already spawned *)
     t.workers <- Array.of_list !spawned;
     shutdown t;
     let reason = match exn with Failure m -> m | e -> Printexc.to_string e in
     failwith (Printf.sprintf "cannot start %d domains: %s" size reason));
  t.workers <- Array.of_list !spawned;
  t

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Post [body] over [0..limit-1], participate, and wait for the barrier.
   [body] must not raise ([map] captures exceptions per index). *)
let run_job t limit body =
  Mutex.lock t.m;
  t.job <- body;
  t.limit <- limit;
  Atomic.set t.next 0;
  t.active <- Array.length t.workers;
  t.epoch <- t.epoch + 1;
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  drain t body limit;
  Mutex.lock t.m;
  while t.active > 0 do
    Condition.wait t.idle t.m
  done;
  t.job <- no_job;
  Mutex.unlock t.m

(* First exception in task-index order wins, matching what the sequential
   path would have raised; later tasks may already have run, which is
   unobservable because tasks own no shared state. *)
let reraise_first errors =
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    errors

let map t f arr =
  let n = Array.length arr in
  if t.size = 1 || n <= 1 then
    (* sequential fast path: exceptions propagate at the raising index and
       later tasks never start *)
    Array.mapi f arr
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    run_job t n (fun i ->
        match f i arr.(i) with
        | r -> results.(i) <- Some r
        | exception e ->
          errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
    reraise_first errors;
    Array.map (function Some r -> r | None -> assert false) results
  end
