type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float; mutable g_set : bool }

type histogram = {
  h_name : string;
  bounds : float array;  (* strictly increasing upper bounds *)
  counts : int array;  (* one per bound, plus a final overflow bucket *)
  mutable sum : float;
  mutable count : int;
  mutable min_v : float;  (* observed extrema; meaningless while count = 0 *)
  mutable max_v : float;
}

(* Powers of two: cheap to bucket into and wide enough for step counts,
   message counts and byte sizes alike. *)
let default_buckets =
  Array.init 17 (fun i -> Float.of_int (1 lsl i)) (* 1 .. 65536 *)

let counter name = { c_name = name; c_value = 0 }
let gauge name = { g_name = name; g_value = 0.; g_set = false }

let histogram ?(buckets = default_buckets) name =
  let ok =
    Array.length buckets > 0
    && Array.for_all Float.is_finite buckets
    &&
    let sorted = ref true in
    for i = 1 to Array.length buckets - 1 do
      if buckets.(i) <= buckets.(i - 1) then sorted := false
    done;
    !sorted
  in
  if not ok then invalid_arg "Metric.histogram: buckets must be increasing";
  {
    h_name = name;
    bounds = Array.copy buckets;
    counts = Array.make (Array.length buckets + 1) 0;
    sum = 0.;
    count = 0;
    min_v = 0.;
    max_v = 0.;
  }

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let value c = c.c_value
let set g v =
  g.g_value <- v;
  g.g_set <- true

let gauge_value g = g.g_value

let bucket_index bounds v =
  (* First bucket whose bound is >= v; length bounds = overflow. *)
  let n = Array.length bounds in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if v <= bounds.(mid) then go lo mid else go (mid + 1) hi
  in
  go 0 n

let observe h v =
  let i = bucket_index h.bounds v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.sum <- h.sum +. v;
  if h.count = 0 then begin
    h.min_v <- v;
    h.max_v <- v
  end
  else begin
    if v < h.min_v then h.min_v <- v;
    if v > h.max_v then h.max_v <- v
  end;
  h.count <- h.count + 1

let observe_int h v = observe h (Float.of_int v)

let reset_counter c = c.c_value <- 0
let reset_gauge g =
  g.g_value <- 0.;
  g.g_set <- false

let reset_histogram h =
  Array.fill h.counts 0 (Array.length h.counts) 0;
  h.sum <- 0.;
  h.count <- 0;
  h.min_v <- 0.;
  h.max_v <- 0.

(* ------------------------------------------------------------------ *)
(* Snapshots *)

type histogram_snapshot = {
  hs_bounds : float array;
  hs_counts : int array;
  hs_sum : float;
  hs_count : int;
  hs_min : float;  (* observed extrema; 0 while hs_count = 0 *)
  hs_max : float;
}

let snapshot_histogram h =
  {
    hs_bounds = Array.copy h.bounds;
    hs_counts = Array.copy h.counts;
    hs_sum = h.sum;
    hs_count = h.count;
    hs_min = (if h.count = 0 then 0. else h.min_v);
    hs_max = (if h.count = 0 then 0. else h.max_v);
  }

let merge_histogram_snapshots a b =
  if a.hs_bounds <> b.hs_bounds then
    invalid_arg "Metric.merge_histogram_snapshots: bucket bounds differ";
  {
    hs_bounds = Array.copy a.hs_bounds;
    hs_counts =
      Array.init (Array.length a.hs_counts) (fun i ->
          a.hs_counts.(i) + b.hs_counts.(i));
    hs_sum = a.hs_sum +. b.hs_sum;
    hs_count = a.hs_count + b.hs_count;
    hs_min =
      (if a.hs_count = 0 then b.hs_min
       else if b.hs_count = 0 then a.hs_min
       else Float.min a.hs_min b.hs_min);
    hs_max =
      (if a.hs_count = 0 then b.hs_max
       else if b.hs_count = 0 then a.hs_max
       else Float.max a.hs_max b.hs_max);
  }

let mean hs = if hs.hs_count = 0 then 0. else hs.hs_sum /. Float.of_int hs.hs_count

(* Overflow samples exceed every bound by construction, so the observed
   maximum is the honest report for the unbounded bucket.  Clamping to
   the last bound keeps percentiles monotone even against snapshots
   deserialised from logs that predate max tracking (where [hs_max] is a
   reconstruction that may undershoot). *)
let overflow_report hs =
  let n = Array.length hs.hs_bounds in
  if n = 0 then hs.hs_max else Float.max hs.hs_max hs.hs_bounds.(n - 1)

let percentile hs q =
  if q < 0. || q > 1. then invalid_arg "Metric.percentile: q outside [0,1]";
  if hs.hs_count = 0 then 0.
  else begin
    let rank = Float.of_int hs.hs_count *. q in
    let n = Array.length hs.hs_counts in
    let cum = ref 0 in
    let result = ref None in
    let i = ref 0 in
    while !result = None && !i < n do
      let c = hs.hs_counts.(!i) in
      cum := !cum + c;
      if c > 0 && Float.of_int !cum >= rank then
        result :=
          Some
            (if !i < Array.length hs.hs_bounds then hs.hs_bounds.(!i)
             else overflow_report hs);
      i := !i + 1
    done;
    (* hs_count > 0 guarantees a non-empty bucket reaches [rank]. *)
    Option.value ~default:(overflow_report hs) !result
  end
