(** Metric primitives: counters, gauges and fixed-bucket histograms.

    Instrumented code holds direct references to the cells, so recording is
    a field update — cheap enough to leave permanently enabled on hot paths
    (SLD steps, message deliveries).  {!Registry} names and collects
    them. *)

type counter = { c_name : string; mutable c_value : int }
type gauge = {
  g_name : string;
  mutable g_value : float;
  mutable g_set : bool;  (** set since creation or the last reset *)
}

type histogram = {
  h_name : string;
  bounds : float array;  (** strictly increasing upper bounds *)
  counts : int array;  (** one per bound, plus a final overflow bucket *)
  mutable sum : float;
  mutable count : int;
  mutable min_v : float;  (** observed minimum; meaningless while [count = 0] *)
  mutable max_v : float;  (** observed maximum; meaningless while [count = 0] *)
}

val default_buckets : float array
(** Powers of two, 1 to 65536. *)

val counter : string -> counter
val gauge : string -> gauge

val histogram : ?buckets:float array -> string -> histogram
(** @raise Invalid_argument unless [buckets] is non-empty, finite and
    strictly increasing. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
(** Record one sample: bump the first bucket whose bound is [>=] the value
    (overflow bucket past the last bound). *)

val observe_int : histogram -> int -> unit

val reset_counter : counter -> unit
val reset_gauge : gauge -> unit
val reset_histogram : histogram -> unit

(** {2 Snapshots} *)

type histogram_snapshot = {
  hs_bounds : float array;
  hs_counts : int array;
  hs_sum : float;
  hs_count : int;
  hs_min : float;  (** observed minimum; 0 while [hs_count = 0] *)
  hs_max : float;  (** observed maximum; 0 while [hs_count = 0] *)
}

val snapshot_histogram : histogram -> histogram_snapshot

val merge_histogram_snapshots :
  histogram_snapshot -> histogram_snapshot -> histogram_snapshot
(** Bucket-wise sum.  @raise Invalid_argument when bounds differ. *)

val mean : histogram_snapshot -> float
(** 0 when empty. *)

val percentile : histogram_snapshot -> float -> float
(** [percentile hs q] for [q] in [[0,1]]: the upper bound of the bucket
    where the cumulative count crosses [q * count]; the unbounded
    overflow bucket reports the observed maximum (clamped to at least
    the last bound, so the result is monotone in [q]); 0 when empty.
    @raise Invalid_argument on [q] outside [[0,1]]. *)
