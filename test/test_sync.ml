open Nfsg_sim

(* Run [body] inside a fresh engine and drain it. *)
let sim body =
  let eng = Engine.create () in
  body eng;
  Engine.run eng;
  eng

let test_ivar_rendezvous () =
  let got = ref 0 in
  ignore
    (sim (fun eng ->
         let iv = Ivar.create () in
         Engine.spawn eng (fun () -> got := Ivar.read iv);
         Engine.spawn eng (fun () ->
             Engine.delay (Time.ms 1);
             Ivar.fill iv 7)));
  Alcotest.(check int) "value" 7 !got

let test_ivar_already_filled () =
  let got = ref 0 in
  ignore
    (sim (fun eng ->
         let iv = Ivar.create () in
         Ivar.fill iv 9;
         Engine.spawn eng (fun () -> got := Ivar.read iv)));
  Alcotest.(check int) "immediate" 9 !got

let test_ivar_multi_reader () =
  let total = ref 0 in
  ignore
    (sim (fun eng ->
         let iv = Ivar.create () in
         for _ = 1 to 5 do
           Engine.spawn eng (fun () -> total := !total + Ivar.read iv)
         done;
         Engine.spawn eng (fun () -> Ivar.fill iv 3)));
  Alcotest.(check int) "all readers woken" 15 !total

let test_ivar_double_fill () =
  let iv = Ivar.create () in
  Ivar.fill iv ();
  Alcotest.check_raises "double fill" (Invalid_argument "Ivar.fill: already filled") (fun () ->
      Ivar.fill iv ())

let test_condition_signal_fifo () =
  let order = ref [] in
  ignore
    (sim (fun eng ->
         let c = Condition.create () in
         for i = 1 to 3 do
           Engine.spawn eng (fun () ->
               Condition.wait c;
               order := i :: !order)
         done;
         Engine.spawn eng (fun () ->
             Engine.delay (Time.ms 1);
             Condition.signal c;
             Condition.signal c;
             Condition.signal c)));
  Alcotest.(check (list int)) "FIFO wakeups" [ 1; 2; 3 ] (List.rev !order)

let test_condition_broadcast () =
  let woke = ref 0 in
  ignore
    (sim (fun eng ->
         let c = Condition.create () in
         for _ = 1 to 4 do
           Engine.spawn eng (fun () ->
               Condition.wait c;
               incr woke)
         done;
         Engine.spawn eng (fun () ->
             Engine.delay (Time.ms 1);
             Condition.broadcast c)));
  Alcotest.(check int) "all four" 4 !woke

let test_condition_timeout () =
  let results = ref [] in
  ignore
    (sim (fun eng ->
         let c = Condition.create () in
         Engine.spawn eng (fun () ->
             let r = Condition.wait_timeout eng c (Time.ms 5) in
             results := ("timeout", r, Engine.now eng) :: !results);
         Engine.spawn eng (fun () ->
             let r = Condition.wait_timeout eng c (Time.ms 20) in
             results := ("signalled", r, Engine.now eng) :: !results);
         Engine.spawn eng (fun () ->
             Engine.delay (Time.ms 10);
             Condition.signal c)));
  (* First waiter timed out at 5ms; at 10ms the signal must skip the
     dead waiter and wake the second. *)
  let find tag = List.find (fun (t, _, _) -> t = tag) !results in
  let _, r1, t1 = find "timeout" in
  Alcotest.(check bool) "timed out" false r1;
  Alcotest.(check int) "at 5ms" (Time.ms 5) t1;
  let _, r2, t2 = find "signalled" in
  Alcotest.(check bool) "signalled" true r2;
  Alcotest.(check int) "at 10ms" (Time.ms 10) t2

let test_condition_signal_cancels_timer () =
  ignore
    (sim (fun eng ->
         let c = Condition.create () in
         Engine.spawn eng (fun () ->
             let r = Condition.wait_timeout eng c (Time.ms 50) in
             Alcotest.(check bool) "signal wins" true r);
         Engine.spawn eng (fun () ->
             Engine.delay (Time.ms 1);
             Condition.signal c)))

let test_mutex_exclusion () =
  let inside = ref 0 and max_inside = ref 0 in
  ignore
    (sim (fun eng ->
         let m = Mutex.create eng () in
         for _ = 1 to 5 do
           Engine.spawn eng (fun () ->
               Mutex.with_lock m (fun () ->
                   incr inside;
                   max_inside := Stdlib.max !max_inside !inside;
                   Engine.delay (Time.ms 1);
                   decr inside))
         done));
  Alcotest.(check int) "never two holders" 1 !max_inside

let test_mutex_fifo () =
  let order = ref [] in
  ignore
    (sim (fun eng ->
         let m = Mutex.create eng () in
         Engine.spawn eng (fun () ->
             Mutex.with_lock m (fun () -> Engine.delay (Time.ms 5)));
         for i = 1 to 3 do
           Engine.spawn eng (fun () ->
               Engine.delay (Time.us i);
               (* Arrival order 1,2,3 *)
               Mutex.with_lock m (fun () -> order := i :: !order))
         done));
  Alcotest.(check (list int)) "granted in arrival order" [ 1; 2; 3 ] (List.rev !order)

(* Regression for the lock leak nfsrace's Y003 flagged: an exception
   the critical section did not anticipate must not leave the lock
   held, or the next fiber to take it parks forever. *)
exception Unexpected

let test_with_lock_releases_on_exception () =
  let reacquired = ref false in
  ignore
    (sim (fun eng ->
         let m = Mutex.create eng () in
         Engine.spawn eng (fun () ->
             (match Mutex.with_lock m (fun () -> raise Unexpected) with
             | () -> ()
             | exception Unexpected -> ());
             Alcotest.(check bool) "released after raise" false (Mutex.locked m);
             Mutex.with_lock m (fun () -> reacquired := true))));
  Alcotest.(check bool) "lock usable again" true !reacquired

let test_locked_run_releases_on_exception () =
  let order = ref [] in
  let note tag = order := tag :: !order in
  (match
     Locked.run
       ~acquire:(fun () -> note "acquire")
       ~release:(fun () -> note "release")
       (fun () -> note "body"; raise Unexpected)
   with
  | () -> ()
  | exception Unexpected -> note "escaped");
  Alcotest.(check (list string))
    "release runs exactly once, before the exception escapes"
    [ "acquire"; "body"; "release"; "escaped" ]
    (List.rev !order)

let test_mutex_unlock_by_stranger () =
  let failed = ref false in
  ignore
    (sim (fun eng ->
         let m = Mutex.create eng ~name:"vnode" () in
         Engine.spawn eng ~name:"owner" (fun () ->
             Mutex.lock m;
             Engine.delay (Time.ms 10);
             Mutex.unlock m);
         Engine.spawn eng ~name:"stranger" (fun () ->
             Engine.delay (Time.ms 1);
             try Mutex.unlock m with Invalid_argument _ -> failed := true)));
  Alcotest.(check bool) "stranger rejected" true !failed

let test_try_lock () =
  ignore
    (sim (fun eng ->
         let m = Mutex.create eng () in
         Engine.spawn eng (fun () ->
             Alcotest.(check bool) "first try succeeds" true (Mutex.try_lock m);
             Alcotest.(check bool) "second try fails" false (Mutex.try_lock m);
             Mutex.unlock m;
             Alcotest.(check bool) "after unlock succeeds" true (Mutex.try_lock m);
             Mutex.unlock m)))

let test_semaphore_limits () =
  let inside = ref 0 and max_inside = ref 0 in
  ignore
    (sim (fun eng ->
         let s = Semaphore.create 2 in
         for _ = 1 to 6 do
           Engine.spawn eng (fun () ->
               Semaphore.acquire s;
               incr inside;
               max_inside := Stdlib.max !max_inside !inside;
               Engine.delay (Time.ms 1);
               decr inside;
               Semaphore.release s)
         done));
  Alcotest.(check int) "at most 2" 2 !max_inside

let test_squeue_blocking_get () =
  let got = ref [] in
  ignore
    (sim (fun eng ->
         let q = Squeue.create () in
         Engine.spawn eng (fun () ->
             got := Squeue.get q :: !got;
             got := Squeue.get q :: !got);
         Engine.spawn eng (fun () ->
             Engine.delay (Time.ms 1);
             Squeue.put q "x";
             Squeue.put q "y")));
  Alcotest.(check (list string)) "in order" [ "x"; "y" ] (List.rev !got)

let test_squeue_competing_getters_fifo () =
  let order = ref [] in
  ignore
    (sim (fun eng ->
         let q = Squeue.create () in
         for i = 1 to 3 do
           Engine.spawn eng (fun () ->
               Engine.delay (Time.us i);
               let v = Squeue.get q in
               order := (i, v) :: !order)
         done;
         Engine.spawn eng (fun () ->
             Engine.delay (Time.ms 1);
             List.iter (Squeue.put q) [ "a"; "b"; "c" ])));
  Alcotest.(check (list (pair int string)))
    "oldest getter first"
    [ (1, "a"); (2, "b"); (3, "c") ]
    (List.rev !order)

let test_resource_utilization () =
  let eng = Engine.create () in
  let r = Resource.create eng "disk" in
  Engine.spawn eng (fun () ->
      Resource.use r (Time.ms 30);
      Engine.delay (Time.ms 10);
      Resource.use r (Time.ms 20));
  Engine.run eng;
  (* 50ms busy over 60ms elapsed. *)
  Alcotest.(check int) "elapsed 60ms" (Time.ms 60) (Engine.now eng);
  Alcotest.(check int) "busy 50ms" (Time.ms 50) (Resource.busy_time r);
  let u = Resource.utilization r ~busy0:Time.zero ~t0:Time.zero in
  Alcotest.(check (float 0.001)) "5/6 utilised" (5.0 /. 6.0) u;
  Alcotest.(check int) "2 jobs" 2 (Resource.jobs r)

let test_resource_queueing () =
  let eng = Engine.create () in
  let r = Resource.create eng ~capacity:2 "cpu" in
  let done_at = ref [] in
  for _ = 1 to 4 do
    Engine.spawn eng (fun () ->
        Resource.use r (Time.ms 10);
        done_at := Engine.now eng :: !done_at)
  done;
  Engine.run eng;
  (* Two slots: finish at 10,10,20,20. *)
  Alcotest.(check (list int))
    "pairs" [ Time.ms 10; Time.ms 10; Time.ms 20; Time.ms 20 ]
    (List.sort compare !done_at)

let suite =
  [
    Alcotest.test_case "ivar rendezvous" `Quick test_ivar_rendezvous;
    Alcotest.test_case "ivar read after fill" `Quick test_ivar_already_filled;
    Alcotest.test_case "ivar wakes all readers" `Quick test_ivar_multi_reader;
    Alcotest.test_case "ivar rejects double fill" `Quick test_ivar_double_fill;
    Alcotest.test_case "condition signal is FIFO" `Quick test_condition_signal_fifo;
    Alcotest.test_case "condition broadcast" `Quick test_condition_broadcast;
    Alcotest.test_case "condition timeout vs signal" `Quick test_condition_timeout;
    Alcotest.test_case "signal cancels pending timeout" `Quick test_condition_signal_cancels_timer;
    Alcotest.test_case "mutex mutual exclusion" `Quick test_mutex_exclusion;
    Alcotest.test_case "mutex FIFO hand-off" `Quick test_mutex_fifo;
    Alcotest.test_case "mutex rejects foreign unlock" `Quick test_mutex_unlock_by_stranger;
    Alcotest.test_case "with_lock releases on exception" `Quick test_with_lock_releases_on_exception;
    Alcotest.test_case "Locked.run releases on exception" `Quick test_locked_run_releases_on_exception;
    Alcotest.test_case "try_lock" `Quick test_try_lock;
    Alcotest.test_case "semaphore bounds concurrency" `Quick test_semaphore_limits;
    Alcotest.test_case "squeue blocking get" `Quick test_squeue_blocking_get;
    Alcotest.test_case "squeue getters served FIFO" `Quick test_squeue_competing_getters_fifo;
    Alcotest.test_case "resource busy-time accounting" `Quick test_resource_utilization;
    Alcotest.test_case "resource queues beyond capacity" `Quick test_resource_queueing;
  ]
