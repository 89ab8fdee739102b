(* The JSON writer every BENCH file goes through, and the run report
   whose printed tables and JSON share one set of rows. *)

module J = Util.Json

let check_json name expected v = Alcotest.(check string) name expected (J.to_string v)

let test_empty_containers () =
  check_json "empty list" "[]" (J.List []);
  check_json "empty object" "{}" (J.Obj []);
  check_json "empty list as a member" "{\n  \"problems\": []\n}" (J.Obj [ ("problems", J.List []) ])

let test_escaping () =
  Alcotest.(check string) "quote and backslash" {|a\"b\\c|} (J.escape {|a"b\c|});
  Alcotest.(check string) "newline, tab, return" {|x\ny\tz\r|} (J.escape "x\ny\tz\r");
  Alcotest.(check string) "control byte" {|\u0001\u001f|} (J.escape "\x01\x1f");
  Alcotest.(check string) "valid UTF-8 passes through" "caf\xc3\xa9" (J.escape "caf\xc3\xa9");
  Alcotest.(check string) "a lone non-ASCII byte is escaped" {|\u00c3x|} (J.escape "\xc3x");
  check_json "string value" {|"say \"hi\"\n"|} (J.String "say \"hi\"\n");
  check_json "key" {|{"a\"b": 1}|} (J.Obj [ ("a\"b", J.Int 1) ])

let test_fixed_floats () =
  check_json "decimals" "3.142" (J.Float (3, 3.14159));
  check_json "padded" "1.000" (J.Float (3, 1.0));
  check_json "no decimals" "3" (J.Float (0, 2.6));
  check_json "negative" "-0.50" (J.Float (2, -0.5));
  check_json "infinity is null" "null" (J.Float (2, infinity));
  check_json "nan is null" "null" (J.Float (2, nan));
  Alcotest.(check string) "table cell keeps the decimals" "0.250" (J.scalar (J.Float (3, 0.25)))

let test_layout () =
  check_json "flat row on one line" {|{"n": 1, "ok": true, "x": null, "s": "v"}|}
    (J.Obj [ ("n", J.Int 1); ("ok", J.Bool true); ("x", J.Null); ("s", J.String "v") ]);
  check_json "nested, one member per line"
    "{\n  \"rows\": [\n    {\"a\": 1},\n    {\"a\": 2}\n  ],\n  \"names\": [\"x\", \"y\"]\n}"
    (J.Obj
       [
         ("rows", J.List [ J.Obj [ ("a", J.Int 1) ]; J.Obj [ ("a", J.Int 2) ] ]);
         ("names", J.List [ J.String "x"; J.String "y" ]);
       ])

let report ?audit () =
  {
    Core.Run_report.command = "demo";
    params = [ ("scale", J.Float (3, 0.05)); ("query_limit", J.Null) ];
    tables =
      [
        Core.Run_report.table "work" [ "collection"; "decoded"; "ratio" ]
          [
            [ J.String "cacm"; J.Int 1200; J.Float (2, 1.5) ];
            [ J.String "legal"; J.Int 7; J.Float (2, 2.0) ];
          ];
      ];
    audit;
  }

let test_report_views () =
  let r = report () in
  Alcotest.(check string) "printed tables"
    "demo: scale 0.050, query_limit -\n\nwork\ncollection  decoded  ratio\n--------------------------\ncacm           1200   1.50\nlegal             7   2.00\n"
    (Core.Run_report.render r);
  Alcotest.(check string) "json from the same rows"
    "{\n  \"command\": \"demo\",\n  \"params\": {\"scale\": 0.050, \"query_limit\": null},\n  \"tables\": {\n    \"work\": [\n      {\"collection\": \"cacm\", \"decoded\": 1200, \"ratio\": 1.50},\n      {\"collection\": \"legal\", \"decoded\": 7, \"ratio\": 2.00}\n    ]\n  }\n}"
    (J.to_string (Core.Run_report.to_json r));
  Alcotest.(check bool) "no audit, not failed" false (Core.Run_report.failed r)

let test_report_audit () =
  let o = { Core.Torture.family = "demo"; tallies = [ ("points", 3) ]; problems = [] } in
  let clean = report ~audit:o () in
  Alcotest.(check bool) "clean audit" false (Core.Run_report.failed clean);
  (match Core.Run_report.to_json clean with
  | J.Obj members ->
    Alcotest.(check (list string)) "top-level keys" [ "command"; "params"; "tables"; "audit" ]
      (List.map fst members)
  | _ -> Alcotest.fail "report is not an object");
  let bad = report ~audit:{ o with Core.Torture.problems = [ (1, "torn root") ] } () in
  Alcotest.(check bool) "audit problem fails the report" true (Core.Run_report.failed bad);
  Alcotest.(check bool) "audit printed last" true
    (Str_find.find (Core.Run_report.render bad) "demo: points 3" > 0)

let test_table_checks () =
  Alcotest.check_raises "row width"
    (Invalid_argument "Run_report.table: row width differs from columns in t")
    (fun () -> ignore (Core.Run_report.table "t" [ "a"; "b" ] [ [ J.Int 1 ] ]));
  Alcotest.check_raises "nested cell" (Invalid_argument "Json.scalar: not a scalar") (fun () ->
      ignore (Core.Run_report.table "t" [ "a" ] [ [ J.List [] ] ]))

let suite =
  [
    Alcotest.test_case "empty containers" `Quick test_empty_containers;
    Alcotest.test_case "escaping" `Quick test_escaping;
    Alcotest.test_case "fixed-decimal floats" `Quick test_fixed_floats;
    Alcotest.test_case "layout" `Quick test_layout;
    Alcotest.test_case "report views share rows" `Quick test_report_views;
    Alcotest.test_case "report audit" `Quick test_report_audit;
    Alcotest.test_case "report table checks" `Quick test_table_checks;
  ]
