(** A small JSON value type and writer.

    Every BENCH file and every audit object is written through this
    module, so all of them share one layout and one string escaping. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of int * float
      (** [Float (decimals, x)]: written with exactly [decimals] digits
          after the point; a non-finite [x] is written as [null]. *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val escape : string -> string
(** The body of a JSON string literal, per RFC 8259: quote, backslash
    and control bytes are escaped; valid UTF-8 passes through; a byte
    that is not part of a valid UTF-8 sequence is written as the
    [\u00XX] escape of its Latin-1 code point, so the output is always
    valid JSON. *)

val scalar : t -> string
(** A scalar's text as a table cell: a string unquoted, [Null] as
    ["-"], a non-finite float as ["inf"] or ["nan"], anything else
    exactly as {!to_string} writes it.  Raises [Invalid_argument] on a
    list or object. *)

val to_string : t -> string
(** Two-space indented layout.  A list or object whose members are all
    scalars is written on one line (so a table row is one line); an
    empty list is [[]] and an empty object is [{}]. *)
