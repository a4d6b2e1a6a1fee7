open Nfsg_sim
open Nfsg_rpc
module Segment = Nfsg_net.Segment
module Socket = Nfsg_net.Socket

let test_call_roundtrip () =
  let args = Bytes.of_string "args" in
  let decoded =
    Rpc.decode_call
      (Rpc.frame_call (Testbed.raw_call "args") ~xid:42 ~prog:Rpc.nfs_program ~vers:2 ~proc:8)
  in
  Alcotest.(check bool) "roundtrip" true
    (decoded.Rpc.xid = 42 && decoded.Rpc.prog = Rpc.nfs_program && decoded.Rpc.vers = 2
    && decoded.Rpc.proc = 8
    && Xdr.view_equal decoded.Rpc.body (Xdr.view_of_bytes args))

let reply_eq a b =
  a.Rpc.rxid = b.Rpc.rxid && a.Rpc.stat = b.Rpc.stat && Xdr.view_equal a.Rpc.rbody b.Rpc.rbody

let frame_reply (r : Rpc.reply) =
  Rpc.frame_reply (Testbed.raw_reply (Xdr.view_copy r.Rpc.rbody)) ~xid:r.Rpc.rxid r.Rpc.stat

let test_reply_roundtrip () =
  let reply = { Rpc.rxid = 42; stat = Rpc.Success; rbody = Xdr.view_of_bytes (Bytes.of_string "result") } in
  Alcotest.(check bool) "roundtrip" true (reply_eq (Rpc.decode_reply (frame_reply reply)) reply);
  let err = { Rpc.rxid = 1; stat = Rpc.Garbage_args; rbody = Xdr.empty_view } in
  Alcotest.(check bool) "error roundtrip" true (reply_eq (Rpc.decode_reply (frame_reply err)) err)

let test_is_call_classifier () =
  let call = Rpc.frame_call (Rpc.call_body ()) ~xid:1 ~prog:1 ~vers:1 ~proc:1 in
  let reply = Rpc.frame_reply (Rpc.reply_body ()) ~xid:1 Rpc.Success in
  Alcotest.(check bool) "call" true (Rpc.is_call call);
  Alcotest.(check bool) "reply" false (Rpc.is_call reply);
  Alcotest.(check bool) "short garbage" false (Rpc.is_call (Bytes.make 3 'x'))

(* {1 Duplicate cache} *)

let test_dupcache_lifecycle () =
  let eng = Engine.create () in
  let dc = Dupcache.create eng () in
  Alcotest.(check bool) "first is new" true (Dupcache.admit dc ~client:"c" ~xid:1 = Dupcache.New);
  Alcotest.(check bool) "repeat in flight dropped" true
    (Dupcache.admit dc ~client:"c" ~xid:1 = Dupcache.In_progress);
  Alcotest.(check int) "drop counted" 1 (Dupcache.drops dc);
  Dupcache.complete dc ~client:"c" ~xid:1 (Bytes.of_string "reply!");
  (match Dupcache.admit dc ~client:"c" ~xid:1 with
  | Dupcache.Replay b -> Alcotest.(check string) "replayed" "reply!" (Bytes.to_string b)
  | _ -> Alcotest.fail "expected replay");
  Alcotest.(check int) "replay counted" 1 (Dupcache.replays dc);
  (* Same xid from a different client is distinct. *)
  Alcotest.(check bool) "other client is new" true (Dupcache.admit dc ~client:"d" ~xid:1 = Dupcache.New)

let test_dupcache_ttl_expiry () =
  let eng = Engine.create () in
  let dc = Dupcache.create eng ~ttl:(Time.sec 2) () in
  ignore (Dupcache.admit dc ~client:"c" ~xid:9);
  Dupcache.complete dc ~client:"c" ~xid:9 (Bytes.of_string "r");
  Engine.schedule eng ~after:(Time.sec 5) (fun () ->
      Alcotest.(check bool) "expired entry re-executes" true
        (Dupcache.admit dc ~client:"c" ~xid:9 = Dupcache.New));
  Engine.run eng

let test_dupcache_eviction () =
  let eng = Engine.create () in
  let dc = Dupcache.create eng ~capacity:4 () in
  for xid = 1 to 10 do
    ignore (Dupcache.admit dc ~client:"c" ~xid);
    Dupcache.complete dc ~client:"c" ~xid (Bytes.create 0)
  done;
  Alcotest.(check int) "never above capacity" 4 (Dupcache.entries dc);
  Alcotest.(check int) "evictions counted" 6 (Dupcache.evictions dc)

let test_dupcache_evicts_least_recently_touched () =
  let eng = Engine.create () in
  let dc = Dupcache.create eng ~capacity:3 ~ttl:(Time.sec 60) () in
  Engine.spawn eng (fun () ->
      for xid = 1 to 3 do
        ignore (Dupcache.admit dc ~client:"c" ~xid);
        Dupcache.complete dc ~client:"c" ~xid (Bytes.of_string (string_of_int xid));
        Engine.delay (Time.ms 1)
      done;
      (* Touch xid 1 so xid 2 becomes the coldest completed entry. *)
      (match Dupcache.admit dc ~client:"c" ~xid:1 with
      | Dupcache.Replay _ -> ()
      | _ -> Alcotest.fail "warm entry should replay");
      ignore (Dupcache.admit dc ~client:"c" ~xid:4);
      Alcotest.(check int) "still at capacity" 3 (Dupcache.entries dc);
      Alcotest.(check int) "one eviction" 1 (Dupcache.evictions dc);
      (* The victim was xid 2 (least recently touched); 1 and 3 still
         replay (found-path admits never evict). *)
      (match Dupcache.admit dc ~client:"c" ~xid:3 with
      | Dupcache.Replay b -> Alcotest.(check string) "survivor replays" "3" (Bytes.to_string b)
      | _ -> Alcotest.fail "xid 3 should have survived");
      (match Dupcache.admit dc ~client:"c" ~xid:1 with
      | Dupcache.Replay _ -> ()
      | _ -> Alcotest.fail "xid 1 should have survived");
      (* The evicted key re-executes (costing one more eviction to make
         room for its new in-flight entry). *)
      Alcotest.(check bool) "coldest evicted" true (Dupcache.admit dc ~client:"c" ~xid:2 = Dupcache.New);
      Alcotest.(check int) "bounded throughout" 3 (Dupcache.entries dc);
      Alcotest.(check int) "second eviction" 2 (Dupcache.evictions dc));
  Engine.run eng

let test_dupcache_ttl_eager_drop () =
  (* Expired completed entries are dropped before any eviction is
     considered, and counted separately from evictions. *)
  let eng = Engine.create () in
  let m = Nfsg_stats.Metrics.create () in
  let dc = Dupcache.create eng ~capacity:8 ~ttl:(Time.ms 5) ~metrics:m () in
  ignore (Dupcache.admit dc ~client:"c" ~xid:1);
  Dupcache.complete dc ~client:"c" ~xid:1 (Bytes.of_string "r");
  Engine.schedule eng ~after:(Time.ms 20) (fun () ->
      ignore (Dupcache.admit dc ~client:"c" ~xid:2);
      Alcotest.(check int) "stale entry dropped on admit" 1 (Dupcache.entries dc);
      Alcotest.(check (option int)) "expiration counted" (Some 1)
        (Nfsg_stats.Metrics.find_counter m ~ns:"rpc.dupcache" "expirations");
      Alcotest.(check int) "not an eviction" 0 (Dupcache.evictions dc));
  Engine.run eng

let test_dupcache_overflow_all_in_flight () =
  let eng = Engine.create () in
  let dc = Dupcache.create eng ~capacity:2 () in
  Alcotest.(check bool) "first" true (Dupcache.admit dc ~client:"a" ~xid:1 = Dupcache.New);
  Alcotest.(check bool) "second" true (Dupcache.admit dc ~client:"a" ~xid:2 = Dupcache.New);
  (* Every slot pinned by an in-flight request: the third executes
     uncached instead of growing the table or evicting pinned work. *)
  Alcotest.(check bool) "third still executes" true (Dupcache.admit dc ~client:"a" ~xid:3 = Dupcache.New);
  Alcotest.(check int) "table did not grow" 2 (Dupcache.entries dc);
  Alcotest.(check int) "overflow counted" 1 (Dupcache.overflows dc);
  Alcotest.(check int) "nothing evicted" 0 (Dupcache.evictions dc);
  (* Its completion is a no-op (never inserted) — a retransmission of
     the overflowed request re-executes. *)
  Dupcache.complete dc ~client:"a" ~xid:3 (Bytes.of_string "r3");
  Alcotest.(check bool) "overflowed request uncached" true
    (Dupcache.admit dc ~client:"a" ~xid:3 = Dupcache.New);
  Alcotest.(check int) "second overflow" 2 (Dupcache.overflows dc);
  (* Once a slot completes it becomes evictable and admission resumes. *)
  Dupcache.complete dc ~client:"a" ~xid:1 (Bytes.of_string "r1");
  Alcotest.(check bool) "admits again" true (Dupcache.admit dc ~client:"a" ~xid:4 = Dupcache.New);
  Alcotest.(check int) "completed slot evicted" 1 (Dupcache.evictions dc);
  Alcotest.(check int) "still bounded" 2 (Dupcache.entries dc)

(* The cache as it was before its indexes: every new request folds
   the whole table for TTL expiries, then at capacity folds it again
   and sorts [(last_touch, key)] to find one victim. Its code is kept
   unchanged as the reference the indexed cache must agree with step
   for step. *)
module Ref_dupcache = struct
  module Metrics = Nfsg_stats.Metrics
  module Names = Nfsg_stats.Names

  type state = In_flight | Done of Bytes.t * Time.t

  type entry = { mutable state : state; mutable last_touch : Time.t }

  type verdict = New | In_progress | Replay of Bytes.t

  type t = {
    eng : Engine.t;
    capacity : int;
    ttl : Time.t;
    table : (string * int, entry) Hashtbl.t;
    m_drops : Metrics.counter;
    m_replays : Metrics.counter;
    m_evictions : Metrics.counter;
    m_expirations : Metrics.counter;
    m_overflows : Metrics.counter;
  }

  let ns = Names.Ns.rpc_dupcache

  let create eng ?(capacity = 512) ?(ttl = Time.sec 6) ?metrics () =
    let m = match metrics with Some m -> m | None -> Metrics.create () in
    {
      eng;
      capacity;
      ttl;
      table = Hashtbl.create 256;
      m_drops = Metrics.counter m ~ns Names.drops;
      m_replays = Metrics.counter m ~ns Names.replays;
      m_evictions = Metrics.counter m ~ns Names.evictions;
      m_expirations = Metrics.counter m ~ns Names.expirations;
      m_overflows = Metrics.counter m ~ns Names.overflows;
    }

  let make_room t =
    let now = Engine.now t.eng in
    let expired =
      Hashtbl.fold
        (fun k e acc ->
          match e.state with
          | Done (_, at) when now - at > t.ttl -> k :: acc
          | Done _ | In_flight -> acc)
        t.table []
    in
    List.iter (Hashtbl.remove t.table) expired;
    Metrics.add t.m_expirations (List.length expired);
    if Hashtbl.length t.table < t.capacity then true
    else begin
      let victims =
        Hashtbl.fold
          (fun k e acc -> match e.state with Done _ -> (e.last_touch, k) :: acc | In_flight -> acc)
          t.table []
        |> List.sort compare
      in
      let excess = Hashtbl.length t.table - t.capacity + 1 in
      let evicted = ref 0 in
      List.iteri
        (fun i (_, k) ->
          if i < excess then begin
            Hashtbl.remove t.table k;
            incr evicted
          end)
        victims;
      Metrics.add t.m_evictions !evicted;
      Hashtbl.length t.table < t.capacity
    end

  let admit t ~client ~xid =
    let key = (client, xid) in
    let now = Engine.now t.eng in
    match Hashtbl.find_opt t.table key with
    | Some e -> (
        e.last_touch <- now;
        match e.state with
        | In_flight ->
            Metrics.incr t.m_drops;
            In_progress
        | Done (reply, at) ->
            if now - at <= t.ttl then begin
              Metrics.incr t.m_replays;
              Replay reply
            end
            else begin
              e.state <- In_flight;
              New
            end)
    | None ->
        if make_room t then
          Hashtbl.replace t.table key { state = In_flight; last_touch = now }
        else
          Metrics.incr t.m_overflows;
        New

  let complete t ~client ~xid reply =
    match Hashtbl.find_opt t.table (client, xid) with
    | Some e ->
        e.state <- Done (reply, Engine.now t.eng);
        e.last_touch <- Engine.now t.eng
    | None -> ()

  let forget t ~client ~xid = Hashtbl.remove t.table (client, xid)
end

let prop_dupcache_matches_reference =
  let open QCheck.Gen in
  (* Client names not listed in string order, few xids so keys
     collide, and zero-length steps so entries tie at one instant:
     eviction then falls to the key order, not to arrival order. *)
  let clients = [| "mallory"; "bob"; "zed"; "alice" |] in
  let key = pair (int_bound (Array.length clients - 1)) (int_bound 3) in
  let op_gen =
    frequency
      [
        (4, map (fun k -> `Admit k) key);
        (3, map (fun k -> `Complete k) key);
        (1, map (fun k -> `Forget k) key);
        (3, map (fun ms -> `Step ms) (frequencyl [ (2, 0); (1, 1); (1, 2); (1, 3) ]));
      ]
  in
  let print_op = function
    | `Admit (c, x) -> Printf.sprintf "admit %s/%d" clients.(c) x
    | `Complete (c, x) -> Printf.sprintf "complete %s/%d" clients.(c) x
    | `Forget (c, x) -> Printf.sprintf "forget %s/%d" clients.(c) x
    | `Step ms -> Printf.sprintf "step %dms" ms
  in
  let arb =
    QCheck.make
      ~print:(fun (cap, ops) -> Printf.sprintf "capacity %d: %s" cap (String.concat "; " (List.map print_op ops)))
      (pair (int_range 1 8) (list_size (1 -- 80) op_gen))
  in
  QCheck.Test.make ~name:"indexed dupcache matches the fold+sort reference" ~count:1000 arb
    (fun (capacity, ops) ->
      let eng = Engine.create () in
      let ttl = Time.ms 4 in
      let m = Nfsg_stats.Metrics.create () in
      let dc = Dupcache.create eng ~capacity ~ttl ~metrics:m () in
      let r = Ref_dupcache.create eng ~capacity ~ttl () in
      let fail step fmt = QCheck.Test.fail_reportf ("step %d: " ^^ fmt) step in
      let show = function
        | Dupcache.New -> "New"
        | Dupcache.In_progress -> "In_progress"
        | Dupcache.Replay b -> "Replay " ^ Bytes.to_string b
      in
      let show_ref = function
        | Ref_dupcache.New -> "New"
        | Ref_dupcache.In_progress -> "In_progress"
        | Ref_dupcache.Replay b -> "Replay " ^ Bytes.to_string b
      in
      let check step what got want = if got <> want then fail step "%s %d, reference %d" what got want in
      List.iteri
        (fun step op ->
          (match op with
          | `Admit (c, xid) ->
              let client = clients.(c) in
              let got = show (Dupcache.admit dc ~client ~xid) in
              let want = show_ref (Ref_dupcache.admit r ~client ~xid) in
              if got <> want then fail step "admit verdict %s, reference %s" got want
          | `Complete (c, xid) ->
              let client = clients.(c) in
              let reply () = Bytes.of_string (Printf.sprintf "reply-%d" step) in
              Dupcache.complete dc ~client ~xid (reply ());
              Ref_dupcache.complete r ~client ~xid (reply ())
          | `Forget (c, xid) ->
              Dupcache.forget dc ~client:clients.(c) ~xid;
              Ref_dupcache.forget r ~client:clients.(c) ~xid
          | `Step ms -> Engine.run ~until:(Engine.now eng + Time.ms ms) eng);
          let value = Nfsg_stats.Metrics.value in
          check step "entries" (Dupcache.entries dc) (Hashtbl.length r.Ref_dupcache.table);
          check step "drops" (Dupcache.drops dc) (value r.Ref_dupcache.m_drops);
          check step "replays" (Dupcache.replays dc) (value r.Ref_dupcache.m_replays);
          check step "evictions" (Dupcache.evictions dc) (value r.Ref_dupcache.m_evictions);
          check step "expirations"
            (Option.value ~default:0 (Nfsg_stats.Metrics.find_counter m ~ns:"rpc.dupcache" "expirations"))
            (value r.Ref_dupcache.m_expirations);
          check step "overflows" (Dupcache.overflows dc) (value r.Ref_dupcache.m_overflows))
        ops;
      true)

let test_dupcache_admit_allocation () =
  (* At capacity every new request evicts one entry. Sorting the whole
     table for it cost ~18,600 words a request at 512 entries; the
     indexes cost a few hundred. *)
  let eng = Engine.create () in
  let dc = Dupcache.create eng ~capacity:512 () in
  let reply = Bytes.of_string "reply" in
  let pair xid =
    ignore (Dupcache.admit dc ~client:"c" ~xid);
    Dupcache.complete dc ~client:"c" ~xid reply
  in
  for xid = 1 to 512 do
    pair xid
  done;
  let pairs = 10_000 in
  let (), bytes =
    Testbed.allocated_bytes (fun () ->
        for xid = 513 to 512 + pairs do
          pair xid
        done)
  in
  Alcotest.(check int) "steady state evicts one per request" pairs (Dupcache.evictions dc);
  let words = bytes /. float_of_int (Sys.word_size / 8) /. float_of_int pairs in
  if words > 1000. then Alcotest.failf "%.0f words per admit+complete at capacity 512" words

(* {1 svc + rpc_client end to end (echo server)} *)

let echo_rig ?(loss = 0.0) ?(with_dupcache = false) () =
  let eng = Engine.create () in
  let segment = Segment.create eng { Segment.fddi with Segment.loss_prob = loss } in
  let ssock = Socket.create segment ~addr:"server" () in
  let svc_calls = ref 0 in
  let dupcache = if with_dupcache then Some (Dupcache.create eng ()) else None in
  let svc =
    Svc.create eng ~sock:ssock ?dupcache ~nfsds:2
      ~dispatch:(fun _tr call ->
        incr svc_calls;
        Svc.Reply (Rpc.Success, Testbed.raw_reply (Xdr.view_copy call.Rpc.body)))
      ()
  in
  let csock = Socket.create segment ~addr:"client" () in
  let params =
    {
      Rpc_client.default_params with
      Rpc_client.initial_rto = Time.ms 50;
      min_rto = Time.ms 50;
      max_attempts = 40;
    }
  in
  let rpc = Rpc_client.create eng ~sock:csock ~server:"server" ~params () in
  (eng, svc, rpc, svc_calls)

let run_driver eng f =
  let r = ref None in
  Engine.spawn eng ~name:"driver" (fun () -> r := Some (f ()));
  Engine.run eng;
  match !r with Some v -> v | None -> Alcotest.fail "driver blocked"

let test_echo_roundtrip () =
  let eng, _svc, rpc, _ = echo_rig () in
  run_driver eng (fun () ->
      let stat, body = Rpc_client.call rpc ~proc:1 (Testbed.raw_call "ping") in
      Alcotest.(check bool) "success" true (stat = Rpc.Success);
      Alcotest.(check string) "echoed" "ping" (Xdr.view_to_string body));
  Alcotest.(check int) "one send, no retries" 0 (Rpc_client.retransmissions rpc)

let test_retransmission_on_loss () =
  (* 35% datagram loss: the call must still eventually succeed. *)
  let eng, _svc, rpc, _ = echo_rig ~loss:0.35 () in
  run_driver eng (fun () ->
      for i = 1 to 10 do
        let stat, body = Rpc_client.call rpc ~proc:1 (Testbed.raw_call (string_of_int i)) in
        Alcotest.(check bool) "success" true (stat = Rpc.Success);
        Alcotest.(check string) "echoed" (string_of_int i) (Xdr.view_to_string body)
      done);
  Alcotest.(check bool) "retransmissions happened" true (Rpc_client.retransmissions rpc > 0)

let test_dupcache_suppresses_reexecution () =
  (* Heavy loss plus a dup cache: the number of *executions* must equal
     the number of distinct calls even though retransmissions occur. *)
  let eng, _svc, rpc, svc_calls = echo_rig ~loss:0.35 ~with_dupcache:true () in
  run_driver eng (fun () ->
      for i = 1 to 20 do
        ignore (Rpc_client.call rpc ~proc:1 (Testbed.raw_call (string_of_int i)))
      done);
  Alcotest.(check bool) "retransmissions happened" true (Rpc_client.retransmissions rpc > 0);
  Alcotest.(check int) "each call executed exactly once" 20 !svc_calls

let test_rtt_adaptation () =
  let eng, _svc, rpc, _ = echo_rig () in
  run_driver eng (fun () ->
      Alcotest.(check bool) "no estimate yet" true (Rpc_client.rtt_estimate rpc Rpc_client.Heavy = None);
      for _ = 1 to 5 do
        ignore (Rpc_client.call rpc ~klass:Rpc_client.Heavy ~proc:1 (Testbed.raw_call (String.make 8192 'x')))
      done;
      match Rpc_client.rtt_estimate rpc Rpc_client.Heavy with
      | None -> Alcotest.fail "no RTT estimate after calls"
      | Some srtt -> if srtt <= 0 then Alcotest.fail "non-positive srtt")

let test_delayed_reply_architecture () =
  (* A dispatch that returns Reply_pending and completes the reply from
     a different process 30ms later: the paper's one-nfsd-answers-for-
     another architecture. *)
  let eng = Engine.create () in
  let segment = Segment.create eng Segment.fddi in
  let ssock = Socket.create segment ~addr:"server" () in
  let pending = ref [] in
  let svc_box = ref None in
  let svc =
    Svc.create eng ~sock:ssock ~nfsds:1
      ~dispatch:(fun tr call ->
        (* the datagram's bytes must outlive the dispatch: copy out *)
        pending := (tr, Xdr.view_copy call.Rpc.body) :: !pending;
        Svc.Reply_pending)
      ()
  in
  svc_box := Some svc;
  Engine.spawn eng ~name:"metadata-writer" (fun () ->
      Engine.delay (Time.ms 30);
      List.iter (fun (tr, body) -> Svc.send_reply svc tr Rpc.Success (Testbed.raw_reply body)) (List.rev !pending));
  let csock = Socket.create segment ~addr:"client" () in
  let rpc = Rpc_client.create eng ~sock:csock ~server:"server" () in
  let got = ref "" in
  let t_done = ref 0 in
  Engine.spawn eng ~name:"caller" (fun () ->
      let _, body = Rpc_client.call rpc ~proc:8 (Testbed.raw_call "deferred") in
      got := Xdr.view_to_string body;
      t_done := Engine.now eng);
  Engine.run eng;
  Alcotest.(check string) "reply delivered" "deferred" !got;
  Alcotest.(check bool) "after the 30ms defer" true (!t_done >= Time.ms 30);
  Alcotest.(check int) "handle recycled" 0 (Svc.handles_outstanding svc);
  Alcotest.(check bool) "handle back in cache" true (Svc.handle_cache_size svc >= 1)

let test_double_reply_rejected () =
  let eng = Engine.create () in
  let segment = Segment.create eng Segment.fddi in
  let ssock = Socket.create segment ~addr:"server" () in
  let failed = ref false in
  let svc_ref = ref None in
  let svc =
    Svc.create eng ~sock:ssock ~nfsds:1
      ~dispatch:(fun tr _call ->
        let svc = Option.get !svc_ref in
        Svc.send_reply svc tr Rpc.Success (Rpc.reply_body ());
        (try Svc.send_reply svc tr Rpc.Success (Rpc.reply_body ())
         with Invalid_argument _ -> failed := true);
        Svc.Reply_pending)
      ()
  in
  svc_ref := Some svc;
  let csock = Socket.create segment ~addr:"client" () in
  let rpc = Rpc_client.create eng ~sock:csock ~server:"server" () in
  run_driver eng (fun () -> ignore (Rpc_client.call rpc ~proc:0 (Rpc.call_body ())));
  Alcotest.(check bool) "second reply rejected" true !failed

let test_garbage_counted () =
  let eng = Engine.create () in
  let segment = Segment.create eng Segment.fddi in
  let ssock = Socket.create segment ~addr:"server" () in
  let svc =
    Svc.create eng ~sock:ssock ~nfsds:1
      ~dispatch:(fun _ _ -> Svc.Reply (Rpc.Success, Rpc.reply_body ()))
      ()
  in
  let junk_sock = Socket.create segment ~addr:"junk" () in
  Socket.send junk_sock ~dst:"server" (Bytes.of_string "not rpc at all");
  Engine.run eng;
  Alcotest.(check int) "garbage dropped" 1 (Svc.garbage_dropped svc)

let test_truncated_write_garbage_args () =
  let eng = Engine.create () in
  let segment = Segment.create eng Segment.fddi in
  let ssock = Socket.create segment ~addr:"server" () in
  let svc =
    Svc.create eng ~sock:ssock ~nfsds:1
      ~dispatch:(fun _ call ->
        (* Decode the arguments the way the NFS server does: the typed
           Xdr.Decode_error escapes the dispatch and Svc must map it to
           GARBAGE_ARGS rather than SYSTEM_ERR. *)
        match Nfsg_nfs.Proto.decode_args ~proc:call.Rpc.proc call.Rpc.body with
        | _ -> Svc.Reply (Rpc.Success, Rpc.reply_body ()))
      ()
  in
  let csock = Socket.create segment ~addr:"client" () in
  let rpc = Rpc_client.create eng ~sock:csock ~server:"server" () in
  let full =
    Testbed.args_view
      (Nfsg_nfs.Proto.Write
         {
           fh = { Nfsg_nfs.Proto.fsid = 1; vgen = 1; inum = 2; gen = 1 };
           offset = 0;
           data = Xdr.view_of_bytes (Bytes.make 8192 'w');
         })
  in
  (* Cut the opaque payload short: still well-framed RPC, but the WRITE
     data's declared length now runs past the end of the body. *)
  let truncated = Testbed.raw_call (String.sub (Xdr.view_to_string full) 0 (Xdr.view_length full - 4000)) in
  let stat, _ =
    run_driver eng (fun () ->
        Rpc_client.call rpc ~proc:Nfsg_nfs.Proto.proc_write truncated)
  in
  Alcotest.(check bool) "GARBAGE_ARGS reply" true (stat = Rpc.Garbage_args);
  Alcotest.(check int) "counted as garbage" 1 (Svc.garbage_dropped svc);
  Alcotest.(check int) "not a dispatch error" 0 (Svc.dispatch_errors svc)

let suite =
  [
    Alcotest.test_case "call encode/decode" `Quick test_call_roundtrip;
    Alcotest.test_case "reply encode/decode" `Quick test_reply_roundtrip;
    Alcotest.test_case "is_call classifier" `Quick test_is_call_classifier;
    Alcotest.test_case "dupcache lifecycle" `Quick test_dupcache_lifecycle;
    Alcotest.test_case "dupcache TTL expiry" `Quick test_dupcache_ttl_expiry;
    Alcotest.test_case "dupcache LRU eviction" `Quick test_dupcache_eviction;
    Alcotest.test_case "dupcache evicts the coldest entry" `Quick test_dupcache_evicts_least_recently_touched;
    Alcotest.test_case "dupcache drops expired before evicting" `Quick test_dupcache_ttl_eager_drop;
    Alcotest.test_case "dupcache overflow with all slots in flight" `Quick test_dupcache_overflow_all_in_flight;
    QCheck_alcotest.to_alcotest prop_dupcache_matches_reference;
    Alcotest.test_case "dupcache admit allocates O(log n)" `Quick test_dupcache_admit_allocation;
    Alcotest.test_case "echo roundtrip" `Quick test_echo_roundtrip;
    Alcotest.test_case "retransmission survives loss" `Quick test_retransmission_on_loss;
    Alcotest.test_case "dupcache stops re-execution" `Quick test_dupcache_suppresses_reexecution;
    Alcotest.test_case "RTT estimator adapts" `Quick test_rtt_adaptation;
    Alcotest.test_case "delayed replies via handle cache" `Quick test_delayed_reply_architecture;
    Alcotest.test_case "double reply rejected" `Quick test_double_reply_rejected;
    Alcotest.test_case "garbage datagrams dropped" `Quick test_garbage_counted;
    Alcotest.test_case "truncated WRITE args get GARBAGE_ARGS" `Quick
      test_truncated_write_garbage_args;
  ]
