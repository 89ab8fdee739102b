(** The results of one measuring run of [repro], kept once and shown two
    ways.

    A report holds the inputs that shaped the run ([params]), named
    tables of scalar cells, and the torture audit when the run made one.
    {!render} prints every table through {!Util.Tables}; {!to_json}
    writes the one schema every BENCH file shares:

    {v
{"command": ..., "params": {...},
 "tables": {"<name>": [{"<column>": <cell>, ...}, ...], ...},
 "audit": {...}}
    v}

    with ["audit"] present only when the run audited.  Both views read
    the same rows, so a printed table and its BENCH file cannot
    disagree. *)

type table = private {
  name : string;
  columns : string list;
  rows : Util.Json.t list list;
}

val table : string -> string list -> Util.Json.t list list -> table
(** [table name columns rows].  Raises [Invalid_argument] when a row's
    width differs from the column count or a cell is a list or object. *)

type t = {
  command : string;
  params : (string * Util.Json.t) list;  (** scalars *)
  tables : table list;
  audit : Torture.outcome option;
}

val failed : t -> bool
(** The audit ran and found a problem. *)

val render : t -> string
(** One line of params, then each table under its name (strings
    left-aligned, numbers right-aligned), then the audit as
    {!Torture.pp} prints it. *)

val to_json : t -> Util.Json.t
