(** The stack's one JSON module: a value type, a writer and a reader,
    with no external dependency. Trace exporters, the metrics dump, the
    CLI envelope ({!Output}), diagnostics, fuzz reports, machine
    description files and the bench harness all build and read
    documents as [t].

    Writing is deterministic: object members print in the order given,
    floats use a shortest-faithful rendering (integral values below
    1e15 without a fraction), non-finite floats become [null] (JSON has
    no representation for them), and control characters in strings are
    written as [\n], [\t], [\r] or [\u00XX].

    Reading accepts standard JSON, including every string escape
    ([\uXXXX] decodes to UTF-8; a surrogate pair is one code point).
    An integer literal that fits [int] reads as [Int]; any other number
    reads as [Float]. So [parse (to_string v)] gives back [v], except
    that an integral float below 1e15 reads back as [Int] and a
    non-finite float as [Null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** [to_string ?pretty v] serializes [v]; [pretty] (default false)
    pretty-prints with 2-space indentation, otherwise the output is
    compact single-line JSON. *)
val to_string : ?pretty:bool -> t -> string

exception Parse_error of string * int
(** [Parse_error (message, byte offset)] *)

(** [parse s] reads one JSON document (surrounding whitespace allowed). *)
val parse : string -> t

(** Accessors: raise [Invalid_argument] naming the member or the
    expected type on a mismatch. [to_float] accepts [Int]; [to_int]
    accepts an integral [Float] inside the [int] range. *)

val member : string -> t -> t
val member_opt : string -> t -> t option
val to_float : t -> float
val to_int : t -> int
val to_bool : t -> bool
val to_str : t -> string
val to_list : t -> t list
