type t = {
  mutable n : int;
  mutable total : float;
  mutable mn : float;
  mutable mx : float;
  mutable mean_acc : float;
  mutable m2 : float;
}

let create () =
  { n = 0; total = 0.0; mn = infinity; mx = neg_infinity; mean_acc = 0.0; m2 = 0.0 }

let add s x =
  s.n <- s.n + 1;
  s.total <- s.total +. x;
  if x < s.mn then s.mn <- x;
  if x > s.mx then s.mx <- x;
  let delta = x -. s.mean_acc in
  s.mean_acc <- s.mean_acc +. (delta /. float_of_int s.n);
  s.m2 <- s.m2 +. (delta *. (x -. s.mean_acc))

let count s = s.n
let sum s = s.total
let mean s = if s.n = 0 then 0.0 else s.mean_acc
let min s = s.mn
let max s = s.mx
let variance s = if s.n < 2 then 0.0 else s.m2 /. float_of_int s.n

let reset s =
  s.n <- 0;
  s.total <- 0.0;
  s.mn <- infinity;
  s.mx <- neg_infinity;
  s.mean_acc <- 0.0;
  s.m2 <- 0.0

let merge a b =
  let s = create () in
  if a.n + b.n > 0 then begin
    s.n <- a.n + b.n;
    s.total <- a.total +. b.total;
    s.mn <- Float.min a.mn b.mn;
    s.mx <- Float.max a.mx b.mx;
    let na = float_of_int a.n and nb = float_of_int b.n in
    let n = na +. nb in
    let delta = b.mean_acc -. a.mean_acc in
    s.mean_acc <- ((na *. a.mean_acc) +. (nb *. b.mean_acc)) /. n;
    s.m2 <- a.m2 +. b.m2 +. (delta *. delta *. na *. nb /. n)
  end;
  s
