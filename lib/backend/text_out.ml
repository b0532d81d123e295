(* The C primitive behind Printf's %g conversions. *)
external format_float : string -> float -> string = "caml_format_float"

(* Keys compare by bits, so 0. and -0. stay apart. *)
module Memo = Hashtbl.Make (struct
  type t = float

  let equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  let hash = Hashtbl.hash
end)

type t = { buf : Buffer.t; memo : string Memo.t }

(* Executables take 24-33 bytes per gate (Quil, OpenQASM, TI assembly). *)
let create ~gates = { buf = Buffer.create (128 + (32 * gates)); memo = Memo.create 16 }

let string t s = Buffer.add_string t.buf s
let char t c = Buffer.add_char t.buf c

let rec digits buf n =
  if n >= 10 then digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let int t i = if i >= 0 then digits t.buf i else Buffer.add_string t.buf (string_of_int i)

let angle t a =
  let text =
    match Memo.find t.memo a with
    | text -> text
    | exception Not_found ->
      let text = format_float "%.17g" a in
      Memo.add t.memo a text;
      text
  in
  Buffer.add_string t.buf text

let target t (compiled : Triq.Compiled.t) =
  string t "target: ";
  string t compiled.Triq.Compiled.machine.Device.Machine.name;
  string t ", compiler: ";
  string t compiled.Triq.Compiled.compiler;
  string t ", calibration day ";
  int t compiled.Triq.Compiled.day

let contents t = Buffer.contents t.buf
