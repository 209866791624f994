(** A named collection of metrics with stable snapshots.

    Cells are created on first use and live for the registry's lifetime;
    {!reset} zeroes them in place so references held by instrumented
    modules stay valid.  Snapshots are pure data — mergeable (e.g. across
    benchmark shards) and exportable as JSON under a stable schema. *)

type t

val create : unit -> t

val counter : t -> string -> Metric.counter
(** Get or create. *)

val gauge : t -> string -> Metric.gauge

val histogram : ?buckets:float array -> t -> string -> Metric.histogram
(** Get or create ({!Metric.default_buckets} unless [buckets] is given).
    @raise Invalid_argument when re-registering a name with different
    buckets. *)

val reset : t -> unit

(** {2 Snapshots} *)

type snapshot = {
  sn_counters : (string * int) list;  (** sorted by name *)
  sn_gauges : (string * float) list;
  sn_histograms : (string * Metric.histogram_snapshot) list;
}

val snapshot : t -> snapshot
(** Every counter and histogram; gauges only once set since the last
    {!reset}, so a gauge no run touched is not reported as a reading of 0. *)

val empty_snapshot : snapshot

val counter_value : snapshot -> string -> int
(** 0 for unknown names. *)

val histogram_snapshot : snapshot -> string -> Metric.histogram_snapshot option

val merge : snapshot -> snapshot -> snapshot
(** Counters and histograms add; for a gauge present on both sides the
    right value wins.  @raise Invalid_argument on histograms whose bucket
    bounds differ. *)

(** {2 JSON export} *)

val schema_version : string
(** ["peertrust.metrics/1"] — the schema tag carried by every exported
    snapshot (and the benchmark [BENCH_*.json] artifacts). *)

val to_json : ?label:string -> snapshot -> Json.t

val of_json : Json.t -> (snapshot, string) result
(** Inverse of {!to_json} (the [label] is not part of the snapshot). *)

val pp : Format.formatter -> snapshot -> unit
