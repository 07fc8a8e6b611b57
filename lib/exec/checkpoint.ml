(** Stage-boundary checkpointing; see checkpoint.mli. *)

type t = {
  cfg : Config.t;
  mutable since_bytes : int;
  mutable since_stages : int;
}

type write = {
  ckpt_bytes : int;
  io_seconds : float;
  truncated : int;
}

let make (cfg : Config.t) = { cfg; since_bytes = 0; since_stages = 0 }

let observe t ~bytes = t.since_bytes <- t.since_bytes + max 0 bytes

let write_cost (cfg : Config.t) out_bytes =
  float_of_int out_bytes *. cfg.Config.disk_weight
  *. float_of_int cfg.Config.checkpoint_replication

(* Break-even test for Auto placement: checkpoint when the expected
   recompute cost of the lineage accumulated since the last checkpoint —
   [fault_rate] faults per stage, each replaying the accumulated lineage at
   cpu speed — has caught up with the one-off cost of writing this stage's
   output to replicated storage. The test uses the same run-wide
   lineage-bytes quantity that recovery replays, so the policy and the
   recovery charge can never disagree about what a checkpoint saves. *)
let should_write t ~out_bytes =
  match t.cfg.Config.checkpoint with
  | Config.No_checkpoints -> false
  | Config.Every k -> t.since_stages >= k
  | Config.Auto ->
    let expected_recompute =
      t.cfg.Config.fault_rate
      *. float_of_int t.since_bytes
      *. t.cfg.Config.cpu_weight
    in
    expected_recompute >= write_cost t.cfg out_bytes

let on_stage t ~out_bytes : write option =
  t.since_stages <- t.since_stages + 1;
  t.since_bytes <- t.since_bytes + max 0 out_bytes;
  if out_bytes > 0 && should_write t ~out_bytes then begin
    let truncated = t.since_bytes in
    t.since_bytes <- 0;
    t.since_stages <- 0;
    Some
      { ckpt_bytes = out_bytes;
        io_seconds = write_cost t.cfg out_bytes;
        truncated }
  end
  else None

(* The lineage a crash at the *current* stage forces the survivors to
   replay for [lost] of [parts] partitions: everything accrued since the
   last checkpoint (the whole run when there is none), apportioned to the
   lost share of the key space. The executor calls this before
   [on_stage], so the crashed stage's own output — recomputed anyway and
   charged separately — is not double-counted here. *)
let replay_bytes t ~lost ~parts = t.since_bytes * max 0 lost / max 1 parts
