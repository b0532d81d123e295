type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string * int

(* ---------- writer ---------- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 32 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Shortest rendering that parses back to the same float; integral values
   print without an exponent or trailing dot so they stay valid JSON. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let short = Printf.sprintf "%.12g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f

let to_string ?(pretty = false) v =
  let b = Buffer.create 256 in
  let pad depth = if pretty then Buffer.add_string b (String.make (2 * depth) ' ') in
  let nl () = if pretty then Buffer.add_char b '\n' in
  let rec go depth v =
    match v with
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_repr f)
    | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
    | List [] -> Buffer.add_string b "[]"
    | List xs ->
      Buffer.add_char b '[';
      nl ();
      List.iteri
        (fun i x ->
          if i > 0 then begin
            Buffer.add_char b ',';
            nl ()
          end;
          pad (depth + 1);
          go (depth + 1) x)
        xs;
      nl ();
      pad depth;
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj members ->
      Buffer.add_char b '{';
      nl ();
      List.iteri
        (fun i (k, x) ->
          if i > 0 then begin
            Buffer.add_char b ',';
            nl ()
          end;
          pad (depth + 1);
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b (if pretty then "\": " else "\":");
          go (depth + 1) x)
        members;
      nl ();
      pad depth;
      Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.contents b

(* ---------- reader ---------- *)

type state = { src : string; mutable pos : int }

let error st msg = raise (Parse_error (msg, st.pos))
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None
let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect_char st c =
  match peek st with
  | Some x when x = c -> advance st
  | Some x -> error st (Printf.sprintf "expected %C, found %C" c x)
  | None -> error st (Printf.sprintf "expected %C, found end of input" c)

let parse_literal st word value =
  let len = String.length word in
  if st.pos + len <= String.length st.src && String.sub st.src st.pos len = word then begin
    st.pos <- st.pos + len;
    value
  end
  else error st (Printf.sprintf "bad literal (expected %s)" word)

(* Four hex digits after [\u]. *)
let hex4 st =
  if st.pos + 4 > String.length st.src then error st "truncated \\u escape";
  let digit = function
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
    | _ -> error st "bad \\u escape (expected 4 hex digits)"
  in
  let u = ref 0 in
  for i = 0 to 3 do
    u := (!u lsl 4) lor digit st.src.[st.pos + i]
  done;
  st.pos <- st.pos + 4;
  !u

(* [\uXXXX], with a UTF-16 surrogate pair read as one code point, appended
   as UTF-8. A lone surrogate names no character and is rejected. *)
let add_unicode_escape st buf =
  let unpaired () = error st "unpaired surrogate in \\u escape" in
  let u = hex4 st in
  let cp =
    if u >= 0xDC00 && u <= 0xDFFF then unpaired ()
    else if u < 0xD800 || u > 0xDBFF then u
    else if
      st.pos + 1 < String.length st.src && st.src.[st.pos] = '\\' && st.src.[st.pos + 1] = 'u'
    then begin
      st.pos <- st.pos + 2;
      let lo = hex4 st in
      if lo < 0xDC00 || lo > 0xDFFF then unpaired ();
      0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
    end
    else unpaired ()
  in
  Buffer.add_utf_8_uchar buf (Uchar.of_int cp)

let parse_string_body st =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' ->
      advance st;
      Buffer.contents buf
    | Some '\\' ->
      advance st;
      (match peek st with
      | None -> error st "unterminated escape"
      | Some c -> (
        advance st;
        match c with
        | '"' | '\\' | '/' -> Buffer.add_char buf c
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' -> add_unicode_escape st buf
        | c ->
          st.pos <- st.pos - 1;
          error st (Printf.sprintf "unsupported escape \\%c" c)));
      go ()
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ()

let is_number_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

(* An integer literal ([-]digits) that fits [int] is an [Int]; every other
   number, including an integer too wide for [int], is a [Float]. *)
let parse_number st =
  let start = st.pos in
  while match peek st with Some c -> is_number_char c | None -> false do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  let digits = if String.starts_with ~prefix:"-" text then 1 else 0 in
  let integral =
    String.length text > digits
    && String.for_all (function '0' .. '9' -> true | _ -> false)
         (String.sub text digits (String.length text - digits))
  in
  match (if integral then int_of_string_opt text else None) with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> error st (Printf.sprintf "bad number %S" text))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some 'n' -> parse_literal st "null" Null
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some '"' ->
    advance st;
    Str (parse_string_body st)
  | Some '[' ->
    advance st;
    List (parse_seq st ']' parse_value)
  | Some '{' ->
    advance st;
    let field st =
      skip_ws st;
      expect_char st '"';
      let key = parse_string_body st in
      skip_ws st;
      expect_char st ':';
      (key, parse_value st)
    in
    Obj (parse_seq st '}' field)
  | Some c when is_number_char c -> parse_number st
  | Some c -> error st (Printf.sprintf "unexpected character %C" c)

(* Comma-separated [item]s up to and including [close]. *)
and parse_seq : 'a. state -> char -> (state -> 'a) -> 'a list =
 fun st close item ->
  skip_ws st;
  if peek st = Some close then begin
    advance st;
    []
  end
  else
    let rec loop acc =
      let x = item st in
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        loop (x :: acc)
      | Some c when c = close ->
        advance st;
        List.rev (x :: acc)
      | _ -> error st (Printf.sprintf "expected ',' or %C" close)
    in
    loop []

let parse src =
  let st = { src; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  (match peek st with
  | None -> ()
  | Some c -> error st (Printf.sprintf "trailing input starting with %C" c));
  v

(* ---------- accessors ---------- *)

let member name = function
  | Obj fields -> (
    match List.assoc_opt name fields with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Json.member: missing %S" name))
  | _ -> invalid_arg (Printf.sprintf "Json.member: %S on a non-object" name)

let member_opt name = function Obj fields -> List.assoc_opt name fields | _ -> None

let to_float = function
  | Int i -> Float.of_int i
  | Float f -> f
  | _ -> invalid_arg "Json.to_float: not a number"

(* [Float.of_int min_int] is -2^62 exactly; 2^62 is the first float above
   [max_int]. *)
let to_int = function
  | Int i -> i
  | Float f when Float.is_integer f ->
    if f >= Float.of_int min_int && f < -.Float.of_int min_int then Float.to_int f
    else invalid_arg "Json.to_int: out of range"
  | Float _ -> invalid_arg "Json.to_int: not an integer"
  | _ -> invalid_arg "Json.to_int: not a number"

let to_bool = function Bool b -> b | _ -> invalid_arg "Json.to_bool: not a boolean"
let to_str = function Str s -> s | _ -> invalid_arg "Json.to_str: not a string"
let to_list = function List l -> l | _ -> invalid_arg "Json.to_list: not an array"
