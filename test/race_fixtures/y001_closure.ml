(* A named local closure that blocks, passed by name twice while the
   vnode lock is held: one diagnostic, on the blocking call inside the
   closure where a suppression would sit, not one per line that passes
   the closure along. *)

let await_disk () = Engine.suspend ()

let handle_read v ~primary ~mirrors =
  Vfs.with_lock v (fun () ->
      let fetch i = ignore i; await_disk () in
      Option.iter fetch primary;
      List.iter fetch mirrors)
