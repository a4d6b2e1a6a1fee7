open Nfsg_disk

let bytes_of s = Bytes.of_string s

let read_back m ~off ~len =
  let buf = Bytes.make len '.' in
  Extent_map.apply m ~off buf;
  Bytes.to_string buf

let test_insert_and_apply () =
  let m = Extent_map.create () in
  Extent_map.insert m ~off:10 (bytes_of "hello");
  Alcotest.(check int) "total" 5 (Extent_map.total_bytes m);
  Alcotest.(check string) "overlay" "..hello..." (read_back m ~off:8 ~len:10)

let test_adjacent_coalesce () =
  let m = Extent_map.create () in
  Extent_map.insert m ~off:0 (bytes_of "aaaa");
  Extent_map.insert m ~off:4 (bytes_of "bbbb");
  Extent_map.insert m ~off:8 (bytes_of "cccc");
  Alcotest.(check int) "one extent" 1 (Extent_map.extent_count m);
  Alcotest.(check string) "contents" "aaaabbbbcccc" (read_back m ~off:0 ~len:12)

let test_overwrite_wins () =
  let m = Extent_map.create () in
  Extent_map.insert m ~off:0 (bytes_of "xxxxxxxx");
  Extent_map.insert m ~off:2 (bytes_of "NEW");
  Alcotest.(check string) "new over old" "xxNEWxxx" (read_back m ~off:0 ~len:8);
  Alcotest.(check int) "still one extent" 1 (Extent_map.extent_count m)

let test_gap_keeps_separate () =
  let m = Extent_map.create () in
  Extent_map.insert m ~off:0 (bytes_of "aa");
  Extent_map.insert m ~off:10 (bytes_of "bb");
  Alcotest.(check int) "two extents" 2 (Extent_map.extent_count m);
  Alcotest.(check int) "4 bytes" 4 (Extent_map.total_bytes m)

let test_bridge_merges () =
  let m = Extent_map.create () in
  Extent_map.insert m ~off:0 (bytes_of "aa");
  Extent_map.insert m ~off:4 (bytes_of "bb");
  Extent_map.insert m ~off:2 (bytes_of "XX");
  Alcotest.(check int) "bridged" 1 (Extent_map.extent_count m);
  Alcotest.(check string) "contents" "aaXXbb" (read_back m ~off:0 ~len:6)

let test_covers () =
  let m = Extent_map.create () in
  Extent_map.insert m ~off:100 (bytes_of (String.make 50 'z'));
  Alcotest.(check bool) "inner" true (Extent_map.covers m ~off:110 ~len:20);
  Alcotest.(check bool) "exact" true (Extent_map.covers m ~off:100 ~len:50);
  Alcotest.(check bool) "past end" false (Extent_map.covers m ~off:120 ~len:40);
  Alcotest.(check bool) "before" false (Extent_map.covers m ~off:90 ~len:20);
  Alcotest.(check bool) "empty range" true (Extent_map.covers m ~off:0 ~len:0)

let test_take_first () =
  let m = Extent_map.create () in
  Extent_map.insert m ~off:20 (bytes_of "bbbb");
  Extent_map.insert m ~off:5 (bytes_of "aaaa");
  (match Extent_map.take_first m ~max:100 with
  | Some (5, d) -> Alcotest.(check string) "lowest first" "aaaa" (Bytes.to_string d)
  | _ -> Alcotest.fail "expected extent at 5");
  match Extent_map.take_first m ~max:2 with
  | Some (20, d) ->
      Alcotest.(check string) "clipped to max" "bb" (Bytes.to_string d);
      Alcotest.(check int) "remainder stays" 2 (Extent_map.total_bytes m);
      (match Extent_map.take_first m ~max:100 with
      | Some (22, d2) -> Alcotest.(check string) "tail" "bb" (Bytes.to_string d2)
      | _ -> Alcotest.fail "expected tail at 22")
  | _ -> Alcotest.fail "expected clipped extent at 20"

let test_remove_range_trims () =
  let m = Extent_map.create () in
  Extent_map.insert m ~off:0 (bytes_of "abcdefgh");
  Extent_map.remove_range m ~off:2 ~len:4;
  Alcotest.(check int) "two pieces" 2 (Extent_map.extent_count m);
  Alcotest.(check string) "prefix+suffix" "ab....gh" (read_back m ~off:0 ~len:8)

let test_sequential_8k_stream_coalesces () =
  (* The NVRAM flusher depends on this: 16 x 8K sequential writes must
     form one 128K extent. *)
  let m = Extent_map.create () in
  for i = 0 to 15 do
    Extent_map.insert m ~off:(i * 8192) (Bytes.make 8192 (Char.chr (65 + i)))
  done;
  Alcotest.(check int) "single extent" 1 (Extent_map.extent_count m);
  Alcotest.(check int) "128K" (128 * 1024) (Extent_map.total_bytes m)

(* Model-based property test: after every step of a random sequence,
   the map must agree with a flat byte array holding [Some c] where a
   byte is stored — on the stored bytes, on [total_bytes], on
   [extent_count] (extents are the array's maximal runs, so this checks
   coalescing), and on the exact [(off, bytes)] each take returns.
   Inserted bytes are never NUL, so [apply] over a NUL buffer shows
   which bytes are present. *)
let model_size = 256

(* Maximal runs of stored bytes, in offset order: the extents the map
   must hold. *)
let model_runs model =
  let runs = ref [] and start = ref (-1) in
  for i = 0 to model_size do
    let present = i < model_size && model.(i) <> None in
    if present && !start < 0 then start := i
    else if (not present) && !start >= 0 then begin
      runs := (!start, i) :: !runs;
      start := -1
    end
  done;
  List.rev !runs

let model_string model ~off ~len =
  String.init len (fun i -> match model.(off + i) with Some c -> c | None -> '\000')

(* Take [max] bytes from the run starting at [s]. *)
let model_take model (s, e) ~max =
  let n = Stdlib.min max (e - s) in
  let taken = model_string model ~off:s ~len:n in
  Array.fill model s n None;
  Some (s, taken)

let prop_model =
  let open QCheck.Gen in
  let range = pair (int_bound 200) (int_range 1 40) in
  let op_gen =
    oneof
      [
        map (fun r -> `Insert r) range;
        map (fun r -> `Remove r) range;
        map (fun m -> `Take_first m) (int_range 1 48);
        map2 (fun off m -> `Take_after (off, m)) (int_bound 240) (int_range 1 48);
        map (fun r -> `Apply r) range;
        map (fun r -> `Covers r) range;
      ]
  in
  let print_op = function
    | `Insert (o, l) -> Printf.sprintf "insert %d+%d" o l
    | `Remove (o, l) -> Printf.sprintf "remove %d+%d" o l
    | `Take_first m -> Printf.sprintf "take_first %d" m
    | `Take_after (o, m) -> Printf.sprintf "take_after %d %d" o m
    | `Apply (o, l) -> Printf.sprintf "apply %d+%d" o l
    | `Covers (o, l) -> Printf.sprintf "covers %d+%d" o l
  in
  let ops_arb =
    QCheck.make ~print:(fun l -> String.concat "; " (List.map print_op l)) (list_size (1 -- 60) op_gen)
  in
  QCheck.Test.make ~name:"extent map matches sparse-array model" ~count:300 ops_arb (fun ops ->
      let m = Extent_map.create () in
      let model = Array.make model_size None in
      let fail step fmt = QCheck.Test.fail_reportf ("step %d: " ^^ fmt) step in
      let check_take step what got want =
        let show = function
          | None -> "none"
          | Some (off, b) -> Printf.sprintf "%d:%S" off b
        in
        let got = Option.map (fun (off, d) -> (off, Bytes.to_string d)) got in
        if got <> want then fail step "%s returned %s, model %s" what (show got) (show want)
      in
      List.iteri
        (fun step op ->
          (match op with
          | `Insert (off, len) ->
              (* Position-dependent bytes, so a misplaced slice shows. *)
              let data = Bytes.init len (fun i -> Char.chr (33 + ((step * 7) + i) mod 90)) in
              Extent_map.insert m ~off data;
              (* The map copied: scribbling on the caller's buffer must
                 not reach it. *)
              Bytes.fill data 0 len '!';
              for i = 0 to len - 1 do
                model.(off + i) <- Some (Char.chr (33 + ((step * 7) + i) mod 90))
              done
          | `Remove (off, len) ->
              Extent_map.remove_range m ~off ~len;
              Array.fill model off len None
          | `Take_first max ->
              let want =
                match model_runs model with [] -> None | run :: _ -> model_take model run ~max
              in
              check_take step "take_first" (Extent_map.take_first m ~max) want
          | `Take_after (off, max) ->
              let want =
                match List.find_opt (fun (s, _) -> s >= off) (model_runs model) with
                | Some run -> model_take model run ~max
                | None -> (
                    match model_runs model with [] -> None | run :: _ -> model_take model run ~max)
              in
              check_take step "take_after" (Extent_map.take_after m ~off ~max) want
          | `Apply (off, len) ->
              let buf = Bytes.make len '\000' in
              Extent_map.apply m ~off buf;
              if Bytes.to_string buf <> model_string model ~off ~len then
                fail step "apply %d+%d disagrees with the model" off len
          | `Covers (off, len) ->
              let want = List.exists (fun (s, e) -> s <= off && off + len <= e) (model_runs model) in
              if Extent_map.covers m ~off ~len <> want then
                fail step "covers %d+%d: model says %b" off len want);
          let buf = Bytes.make model_size '\000' in
          Extent_map.apply m ~off:0 buf;
          if Bytes.to_string buf <> model_string model ~off:0 ~len:model_size then
            fail step "stored bytes disagree with the model";
          let runs = model_runs model in
          let stored = List.fold_left (fun n (s, e) -> n + e - s) 0 runs in
          if Extent_map.total_bytes m <> stored then
            fail step "total_bytes %d, model %d" (Extent_map.total_bytes m) stored;
          if Extent_map.extent_count m <> List.length runs then
            fail step "extent_count %d, model runs %d" (Extent_map.extent_count m) (List.length runs);
          let extents = ref [] in
          Extent_map.iter (fun off d -> extents := (off, off + Bytes.length d) :: !extents) m;
          if List.rev !extents <> runs then fail step "iter disagrees with the model's runs")
        ops;
      true)

let suite =
  [
    Alcotest.test_case "insert and apply" `Quick test_insert_and_apply;
    Alcotest.test_case "adjacent extents coalesce" `Quick test_adjacent_coalesce;
    Alcotest.test_case "overwrite keeps newest bytes" `Quick test_overwrite_wins;
    Alcotest.test_case "gaps keep extents separate" `Quick test_gap_keeps_separate;
    Alcotest.test_case "bridging write merges neighbours" `Quick test_bridge_merges;
    Alcotest.test_case "covers" `Quick test_covers;
    Alcotest.test_case "take_first clips at max" `Quick test_take_first;
    Alcotest.test_case "remove_range trims overlaps" `Quick test_remove_range_trims;
    Alcotest.test_case "sequential 8K stream coalesces" `Quick test_sequential_8k_stream_coalesces;
    QCheck_alcotest.to_alcotest prop_model;
  ]
