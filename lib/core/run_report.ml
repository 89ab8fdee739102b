type table = { name : string; columns : string list; rows : Util.Json.t list list }

let table name columns rows =
  List.iter
    (fun row ->
      if List.length row <> List.length columns then
        invalid_arg ("Run_report.table: row width differs from columns in " ^ name);
      List.iter (fun cell -> ignore (Util.Json.scalar cell)) row)
    rows;
  { name; columns; rows }

type t = {
  command : string;
  params : (string * Util.Json.t) list;
  tables : table list;
  audit : Torture.outcome option;
}

let failed r = match r.audit with Some o -> not (Torture.ok o) | None -> false

let render_table t =
  let align = function Util.Json.String _ -> Util.Tables.Left | _ -> Util.Tables.Right in
  let aligns =
    match t.rows with
    | first :: _ -> List.map align first
    | [] -> List.map (fun _ -> Util.Tables.Left) t.columns
  in
  let out = Util.Tables.create ~columns:(List.combine t.columns aligns) in
  List.iter (fun row -> Util.Tables.add_row out (List.map Util.Json.scalar row)) t.rows;
  Util.Tables.render out

let render r =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%s: %s\n" r.command
    (String.concat ", " (List.map (fun (k, v) -> k ^ " " ^ Util.Json.scalar v) r.params));
  List.iter (fun t -> Printf.bprintf b "\n%s\n%s" t.name (render_table t)) r.tables;
  Option.iter (fun o -> Printf.bprintf b "\n%s\n" (Format.asprintf "%a" Torture.pp o)) r.audit;
  Buffer.contents b

let to_json r =
  let open Util.Json in
  let rows t = List (List.map (fun cells -> Obj (List.combine t.columns cells)) t.rows) in
  Obj
    ([
       ("command", String r.command);
       ("params", Obj r.params);
       ("tables", Obj (List.map (fun t -> (t.name, rows t)) r.tables));
     ]
    @ match r.audit with Some o -> [ ("audit", Torture.to_json o) ] | None -> [])
