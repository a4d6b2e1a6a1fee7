type t = {
  segment : Segment.t;
  addr : string;
  rcvbuf : int;
  queue : (string * Bytes.t * Nfsg_sim.Time.t) Nfsg_sim.Squeue.t;
  mutable buffered_bytes : int;
  mutable attached : bool;
  mutable received : int;
  mutable dropped : int;
}

let addr s = s.addr
let pending s = Nfsg_sim.Squeue.length s.queue
let received s = s.received
let dropped s = s.dropped

let create segment ~addr ?(rcvbuf = 256 * 1024) ?(on_rx_fragment = fun ~bytes:_ -> ()) () =
  let s =
    {
      segment;
      addr;
      rcvbuf;
      queue = Nfsg_sim.Squeue.create ();
      buffered_bytes = 0;
      attached = true;
      received = 0;
      dropped = 0;
    }
  in
  let deliver ~src payload =
    if s.buffered_bytes + Bytes.length payload > s.rcvbuf then s.dropped <- s.dropped + 1
    else begin
      s.buffered_bytes <- s.buffered_bytes + Bytes.length payload;
      s.received <- s.received + 1;
      (* Arrival stamp: the instant the datagram entered the buffer,
         so a consumer can measure how long it waited for service. *)
      Nfsg_sim.Squeue.put s.queue (src, payload, Nfsg_sim.Engine.now (Segment.engine segment))
    end
  in
  Segment.attach segment
    { Segment.addr; deliver; rx_fragment = on_rx_fragment; buffer_drops = (fun () -> s.dropped) };
  s

let send s ~dst payload = if s.attached then Segment.transmit s.segment ~src:s.addr ~dst payload

(* Off the wire, the host's buffered datagrams go with it: nothing
   queued is ever served, and nothing is sent from the address the
   next incarnation reclaims. *)
let detach s =
  s.attached <- false;
  Segment.detach s.segment s.addr;
  Nfsg_sim.Squeue.clear s.queue;
  s.buffered_bytes <- 0

let recv_stamped s =
  let ((_, payload, _) as msg) = Nfsg_sim.Squeue.get s.queue in
  s.buffered_bytes <- s.buffered_bytes - Bytes.length payload;
  msg

let recv s =
  let src, payload, _ = recv_stamped s in
  (src, payload)

let scan s pred =
  let found = ref false in
  Nfsg_sim.Squeue.iter
    (fun (src, payload, _) -> if (not !found) && pred ~src payload then found := true)
    s.queue;
  !found
