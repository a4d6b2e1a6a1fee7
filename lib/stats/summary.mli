(** Running summary of a stream of observations: count, sum, extrema,
    mean and variance (Welford), without storing samples. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val sum : t -> float
val mean : t -> float
(** 0 when empty. *)

val min : t -> float
(** +inf when empty. *)

val max : t -> float
(** -inf when empty. *)

val variance : t -> float
(** Population variance; 0 for fewer than two samples. *)

val reset : t -> unit
val merge : t -> t -> t
(** [merge a b] is a fresh summary equivalent to observing both
    streams. *)
