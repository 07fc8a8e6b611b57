(** Skew-resilient processing (Section 5): generates increasingly skewed
    TPC-H data (a few customers own most orders; a few parts dominate the
    lineitems) and shows how the skew-aware operators keep the load balanced
    where the standard plans overload single workers.

    Run with: [dune exec examples/skew_handling.exe] *)

let mb b = float_of_int b /. 1048576.

let () =
  let family = Tpch.Queries.Nested_to_nested and level = 2 in
  let prog = Tpch.Queries.program ~family ~level () in
  let cluster =
    { Exec.Config.default with
      workers = 10;
      partitions = 50;
      worker_mem = 2 * 1048576;
      broadcast_limit = 2 * 1024 }
  in
  Fmt.pr
    "nested-to-nested query, 2 levels; worker budget %.1f MB, %d workers@.@."
    (mb cluster.Exec.Config.worker_mem)
    cluster.Exec.Config.workers;
  Fmt.pr "%-6s %-14s %9s %10s %9s  %s@." "skew" "strategy" "sim(s)" "shuffleMB"
    "peakMB" "status";
  List.iter
    (fun skew ->
      let db =
        Tpch.Generator.generate
          { Tpch.Generator.default_scale with customers = 300; parts = 500; skew }
      in
      let inputs = Tpch.Queries.input_values ~family ~level db in
      List.iter
        (fun (skew_aware, strategy) ->
          let config =
            { Trance.Api.default_config with
              cluster;
              collect = false;
              skew_aware;
              optimizer =
                { Plan.Optimize.default with
                  unique_keys = [ ("Part", [ "pkey" ]) ];
                  (* skew-aware plans benefit from keeping heavy keys
                     distributed rather than pre-aggregating (Section 6) *)
                  push_aggs = not skew_aware } }
          in
          let r = Trance.Api.run ~config ~strategy prog inputs in
          let s = Exec.Stats.snapshot r.Trance.Api.stats in
          Fmt.pr "%-6d %-14s %9.3f %10.2f %9.2f  %s@." skew
            (r.Trance.Api.strategy ^ if skew_aware then "+skew" else "")
            s.Exec.Stats.sim_seconds
            (mb s.Exec.Stats.shuffled_bytes)
            (mb s.Exec.Stats.peak_worker_bytes)
            (match r.Trance.Api.failure with
            | None -> "ok"
            | Some f -> "FAIL (" ^ Trance.Api.failure_message f ^ ")"))
        [
          (false, Trance.Api.Standard);
          (true, Trance.Api.Standard);
          (false, Trance.Api.Shredded { unshred = false });
          (true, Trance.Api.Shredded { unshred = false });
        ];
      Fmt.pr "@.")
    [ 0; 2; 4 ]
