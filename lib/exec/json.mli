(** JSON values and their one printer.

    Every JSON text the system writes — [Trance.Api.run_json], span trees,
    [bench --json], [BENCH_parallel.json] — is built as a {!t} by the module
    that owns the data ({!Stats.json}, {!Trace.json}, {!Config.json_fields},
    [Trance.Api.run_report]) and printed here, so commas, quoting, escaping
    and nulls are decided in one place. The toolchain image has no JSON
    library; this is the whole of the format the repository needs. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** printed as [%.6g]; nan and infinities as [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list  (** fields print in list order *)

val to_string : t -> string
(** Compact JSON: no whitespace, fields in list order. A string (and an
    object key) is quoted, with double quotes, backslashes and control
    characters escaped.
    A non-finite float prints as [null]: JSON has no such numbers, and a
    plausible stand-in would hide the error. *)
