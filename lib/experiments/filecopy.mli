(** The Results-section experiment: one 10 MB sequential file copy per
    cell, swept over client biod counts, with and without write
    gathering — the generator behind Tables 1 through 6. *)

type cell = {
  client_kb_s : float;
  cpu_pct : float;
  disk_kb_s : float;
  disk_trans_s : float;
  mean_batch : float;  (** gathered writes per metadata update *)
}

val run_cell : spec:Rig.spec -> biods:int -> ?total:int -> unit -> cell
(** A fresh world, one client with [biods] biods, one 10 MB (default)
    file copy, measured around the copy. Verifies byte fidelity and
    raises [Failure] if the file reads back wrong. *)

val table :
  title:string ->
  net:Calib.net ->
  accel:bool ->
  spindles:int ->
  biods:int list ->
  ?total:int ->
  ?adjust:(Rig.spec -> Rig.spec) ->
  unit ->
  Nfsg_stats.Report.t
(** The paper's table shape: a "Without Write Gathering" section and a
    "With Write Gathering" section, each with client speed, server CPU
    utilisation, disk KB/sec and disk trans/sec rows. [adjust] (default
    identity) is applied to every cell's spec before its world is
    built. *)
