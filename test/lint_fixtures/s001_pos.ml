(* S001 positive: top-level mutable state with no suppression. *)
let cache : (int, string) Hashtbl.t = Hashtbl.create 16

(* Nesting in a submodule does not hide it. *)
module Counter = struct
  let next = ref 0
end
