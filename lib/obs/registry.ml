type t = {
  counters : (string, Metric.counter) Hashtbl.t;
  gauges : (string, Metric.gauge) Hashtbl.t;
  histograms : (string, Metric.histogram) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    histograms = Hashtbl.create 16;
  }

let get_or_create tbl name make =
  match Hashtbl.find_opt tbl name with
  | Some m -> m
  | None ->
      let m = make name in
      Hashtbl.add tbl name m;
      m

let counter t name = get_or_create t.counters name Metric.counter
let gauge t name = get_or_create t.gauges name Metric.gauge

let histogram ?buckets t name =
  let h = get_or_create t.histograms name (Metric.histogram ?buckets) in
  (match buckets with
  | Some b when b <> h.Metric.bounds ->
      invalid_arg
        (Printf.sprintf "Registry.histogram: %s re-registered with different buckets"
           name)
  | Some _ | None -> ());
  h

let reset t =
  (* Zero in place: cells already bound by instrumented modules stay
     valid. *)
  Hashtbl.iter (fun _ c -> Metric.reset_counter c) t.counters;
  Hashtbl.iter (fun _ g -> Metric.reset_gauge g) t.gauges;
  Hashtbl.iter (fun _ h -> Metric.reset_histogram h) t.histograms

(* ------------------------------------------------------------------ *)
(* Snapshots *)

type snapshot = {
  sn_counters : (string * int) list;  (* sorted by name *)
  sn_gauges : (string * float) list;
  sn_histograms : (string * Metric.histogram_snapshot) list;
}

let sorted_bindings tbl value =
  Hashtbl.fold (fun name m acc -> (name, value m) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* A gauge nothing set since the last reset is registration noise (every
   linked subsystem registers its instruments at module init), not a
   reading of 0: it is left out. *)
let snapshot t =
  {
    sn_counters = sorted_bindings t.counters Metric.value;
    sn_gauges =
      sorted_bindings t.gauges (fun g -> g)
      |> List.filter_map (fun (name, g) ->
             if g.Metric.g_set then Some (name, Metric.gauge_value g)
             else None);
    sn_histograms = sorted_bindings t.histograms Metric.snapshot_histogram;
  }

let empty_snapshot = { sn_counters = []; sn_gauges = []; sn_histograms = [] }

let counter_value snap name =
  Option.value ~default:0 (List.assoc_opt name snap.sn_counters)

let histogram_snapshot snap name = List.assoc_opt name snap.sn_histograms

(* Merge two sorted association lists with a combining function. *)
let rec merge_assoc combine a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | (ka, va) :: ta, (kb, vb) :: tb ->
      let c = String.compare ka kb in
      if c = 0 then (ka, combine va vb) :: merge_assoc combine ta tb
      else if c < 0 then (ka, va) :: merge_assoc combine ta b
      else (kb, vb) :: merge_assoc combine a tb

let merge a b =
  {
    sn_counters = merge_assoc ( + ) a.sn_counters b.sn_counters;
    sn_gauges = merge_assoc (fun _ v -> v) a.sn_gauges b.sn_gauges;
    sn_histograms =
      merge_assoc Metric.merge_histogram_snapshots a.sn_histograms
        b.sn_histograms;
  }

(* ------------------------------------------------------------------ *)
(* JSON *)

let schema_version = "peertrust.metrics/1"

let histogram_to_json (hs : Metric.histogram_snapshot) =
  let buckets =
    List.init
      (Array.length hs.Metric.hs_counts)
      (fun i ->
        let le =
          if i < Array.length hs.Metric.hs_bounds then
            Json.Float hs.Metric.hs_bounds.(i)
          else Json.Str "+inf"
        in
        Json.Obj [ ("le", le); ("count", Json.Int hs.Metric.hs_counts.(i)) ])
  in
  Json.Obj
    [
      ("buckets", Json.List buckets);
      ("sum", Json.Float hs.Metric.hs_sum);
      ("count", Json.Int hs.Metric.hs_count);
      ("min", Json.Float hs.Metric.hs_min);
      ("max", Json.Float hs.Metric.hs_max);
      ("mean", Json.Float (Metric.mean hs));
      ("p50", Json.Float (Metric.percentile hs 0.5));
      ("p90", Json.Float (Metric.percentile hs 0.9));
      ("p99", Json.Float (Metric.percentile hs 0.99));
    ]

let to_json ?label snap =
  let fields =
    [
      ("schema", Json.Str schema_version);
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) snap.sn_counters) );
      ( "gauges",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) snap.sn_gauges) );
      ( "histograms",
        Json.Obj
          (List.map (fun (k, v) -> (k, histogram_to_json v)) snap.sn_histograms)
      );
    ]
  in
  Json.Obj
    (match label with
    | Some l -> ("label", Json.Str l) :: fields
    | None -> fields)

let histogram_of_json j =
  let open Json in
  match (member "buckets" j, member "sum" j, member "count" j) with
  | Some (List buckets), Some sum, Some count ->
      let parsed =
        List.filter_map
          (fun b ->
            match (member "le" b, member "count" b) with
            | Some le, Some (Int c) ->
                let bound =
                  match le with
                  | Str "+inf" -> None
                  | other -> to_float other
                in
                Some (bound, c)
            | _ -> None)
          buckets
      in
      if List.length parsed <> List.length buckets then None
      else
        let bounds =
          List.filter_map (fun (b, _) -> b) parsed |> Array.of_list
        in
        let counts = List.map snd parsed |> Array.of_list in
        let hs_count = Option.value ~default:0 (to_int count) in
        let hs_sum = Option.value ~default:0. (to_float sum) in
        (* Files written before min/max tracking lack the fields;
           reconstruct conservative stand-ins from the buckets so
           percentiles over re-loaded snapshots stay monotone. *)
        let field name fallback =
          match Option.bind (member name j) to_float with
          | Some v -> v
          | None -> fallback
        in
        let last_nonempty_bound =
          let best = ref 0. in
          Array.iteri
            (fun i c -> if c > 0 && i < Array.length bounds then best := bounds.(i))
            counts;
          !best
        in
        Some
          {
            Metric.hs_bounds = bounds;
            hs_counts = counts;
            hs_sum;
            hs_count;
            hs_min = field "min" 0.;
            hs_max = field "max" last_nonempty_bound;
          }
  | _ -> None

let of_json j =
  let open Json in
  match member "schema" j with
  | Some (Str s) when s = schema_version ->
      let obj_fields key =
        match member key j with Some (Obj fields) -> fields | _ -> []
      in
      let counters =
        List.filter_map
          (fun (k, v) -> Option.map (fun i -> (k, i)) (to_int v))
          (obj_fields "counters")
      in
      let gauges =
        List.filter_map
          (fun (k, v) -> Option.map (fun f -> (k, f)) (to_float v))
          (obj_fields "gauges")
      in
      let histograms =
        List.filter_map
          (fun (k, v) -> Option.map (fun h -> (k, h)) (histogram_of_json v))
          (obj_fields "histograms")
      in
      let sort l = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
      Ok
        {
          sn_counters = sort counters;
          sn_gauges = sort gauges;
          sn_histograms = sort histograms;
        }
  | Some (Str s) -> Error (Printf.sprintf "unknown metrics schema %S" s)
  | Some _ | None -> Error "missing metrics schema field"

let pp fmt snap =
  List.iter
    (fun (name, v) -> Format.fprintf fmt "%s: %d@\n" name v)
    snap.sn_counters;
  List.iter
    (fun (name, v) -> Format.fprintf fmt "%s: %g@\n" name v)
    snap.sn_gauges;
  List.iter
    (fun (name, hs) ->
      Format.fprintf fmt
        "%s: count=%d min=%g max=%g mean=%.2f p50=%g p99=%g@\n" name
        hs.Metric.hs_count hs.Metric.hs_min hs.Metric.hs_max (Metric.mean hs)
        (Metric.percentile hs 0.5)
        (Metric.percentile hs 0.99))
    snap.sn_histograms
