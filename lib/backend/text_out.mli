(** The output buffer the three emitters write into.

    Every piece goes straight into one pre-sized [Buffer]: literal
    strings, non-negative integers as digits, and angles as [%.17g]
    (17 significant digits, enough for every float to read back
    exactly). An executable repeats a handful of distinct angles
    thousands of times, so each buffer memoizes an angle's text by its
    bits. The memo lives as long as the buffer, i.e. one emit call:
    emitters run inside pool workers, so nothing is shared between
    calls. *)

type t

(** [create ~gates] is an empty buffer sized for about [gates] gates. *)
val create : gates:int -> t

val string : t -> string -> unit
val char : t -> char -> unit

(** [int t i] writes [i] in decimal, as [string_of_int] does. *)
val int : t -> int -> unit

(** [angle t a] writes [a] exactly as [Printf.sprintf "%.17g" a]. *)
val angle : t -> float -> unit

(** [target t compiled] writes the executable header's text,
    ["target: <machine>, compiler: <name>, calibration day <day>"]. *)
val target : t -> Triq.Compiled.t -> unit

val contents : t -> string
