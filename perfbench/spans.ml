(* Benchmark-side spans: one record around each call the benchmark
   makes into a layer's public function, kept in memory and written out
   when the traced run ends. Spans carry both clocks: host seconds
   (what the simulator cost) and simulated nanoseconds (what the
   modelled client saw). With tracing off [with_span] only runs [f]. *)

type span = {
  id : int;
  parent : int;  (** 0 = none *)
  layer : string;
  name : string;
  host0 : float;
  host1 : float;
  sim0 : int;
  sim1 : int;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0

(* Simulated processes interleave on the host stack, so the parent of
   a span is passed explicitly rather than inferred from nesting: the
   driver calls made during the run all hang off the run's span. [f]
   receives the new span's id. *)
let with_span ?(parent = 0) ?(now = fun () -> 0) ~layer name f =
  if not !enabled then f 0
  else begin
    incr next_id;
    let id = !next_id in
    let host0 = Unix.gettimeofday () and sim0 = now () in
    let close () =
      recorded :=
        { id; parent; layer; name; host0; host1 = Unix.gettimeofday (); sim0; sim1 = now () }
        :: !recorded
    in
    match f id with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let host_seconds name =
  List.fold_left (fun a s -> if s.name = name then a +. (s.host1 -. s.host0) else a) 0.0 !recorded

let count () = List.length !recorded

let write path =
  let oc = open_out path in
  output_string oc "id\tparent\tlayer\tname\thost_s\tsim_start_ns\tsim_ns\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%s\t%s\t%.9f\t%d\t%d\n" s.id s.parent s.layer s.name
        (s.host1 -. s.host0) s.sim0 (s.sim1 - s.sim0))
    (List.rev !recorded);
  close_out oc
