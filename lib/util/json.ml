type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of int * float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i < String.length s do
    let c = s.[!i] in
    let width = ref 1 in
    (match c with
    | '"' -> Buffer.add_string b "\\\""
    | '\\' -> Buffer.add_string b "\\\\"
    | '\n' -> Buffer.add_string b "\\n"
    | '\r' -> Buffer.add_string b "\\r"
    | '\t' -> Buffer.add_string b "\\t"
    | '\x00' .. '\x1f' -> Printf.bprintf b "\\u%04x" (Char.code c)
    | '\x20' .. '\x7f' -> Buffer.add_char b c
    | _ ->
      let d = String.get_utf_8_uchar s !i in
      if Uchar.utf_decode_is_valid d then begin
        width := Uchar.utf_decode_length d;
        Buffer.add_string b (String.sub s !i !width)
      end
      else Printf.bprintf b "\\u%04x" (Char.code c));
    i := !i + !width
  done;
  Buffer.contents b

let scalar = function
  | Null -> "-"
  | Bool v -> string_of_bool v
  | Int n -> string_of_int n
  | Float (decimals, x) -> Printf.sprintf "%.*f" decimals x
  | String s -> s
  | List _ | Obj _ -> invalid_arg "Json.scalar: not a scalar"

let is_scalar = function List _ | Obj _ -> false | _ -> true

let to_string v =
  let b = Buffer.create 1024 in
  let rec value indent = function
    | Null -> Buffer.add_string b "null"
    | Float (_, x) when not (Float.is_finite x) -> Buffer.add_string b "null"
    | String s -> Printf.bprintf b "\"%s\"" (escape s)
    | (Bool _ | Int _ | Float _) as v -> Buffer.add_string b (scalar v)
    | List [] -> Buffer.add_string b "[]"
    | Obj [] -> Buffer.add_string b "{}"
    | List vs -> members indent ('[', ']') (List.map (fun v -> (None, v)) vs)
    | Obj kvs -> members indent ('{', '}') (List.map (fun (k, v) -> (Some k, v)) kvs)
  and members indent (opening, closing) ms =
    let inline = List.for_all (fun (_, v) -> is_scalar v) ms in
    let inner = indent ^ "  " in
    Buffer.add_char b opening;
    List.iteri
      (fun i (key, v) ->
        if i > 0 then Buffer.add_char b ',';
        if not inline then Printf.bprintf b "\n%s" inner else if i > 0 then Buffer.add_char b ' ';
        Option.iter (fun k -> Printf.bprintf b "\"%s\": " (escape k)) key;
        value inner v)
      ms;
    if not inline then Printf.bprintf b "\n%s" indent;
    Buffer.add_char b closing
  in
  value "" v;
  Buffer.contents b
