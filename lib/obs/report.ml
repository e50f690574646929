(* Run reports: join a run's trace and metrics JSONL into one summary.

   The checkpoint half of [robustpath report] lives in the CLI (obs
   cannot depend on the archipelago); this module owns everything
   derivable from the observability artifacts alone. *)

type metrics_file = { snapshots : Json.t list; torn : int }

let read_metrics ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop snaps torn =
        match input_line ic with
        | exception End_of_file -> { snapshots = List.rev snaps; torn }
        | "" -> loop snaps torn
        | line -> (
          match Json.parse line with
          | snap -> loop (snap :: snaps) torn
          | exception Json.Parse_error _ ->
            (* A kill mid-write leaves a torn last line; skip, count,
               keep the rest of the stream. *)
            loop snaps (torn + 1))
      in
      loop [] 0)

(* {1 Snapshot accessors} *)

let counter_of snap name =
  match Option.bind (Json.member "counters" snap) (Json.member name) with
  | Some (Json.Int i) -> Some i
  | _ -> None

let gauge_of snap name =
  Option.bind (Json.member "gauges" snap) (fun o -> Option.bind (Json.member name o) Json.number)

let float_array = function
  | Json.List xs ->
    Some (Array.of_list (List.filter_map Json.number xs))
  | _ -> None

let hist_of snap name =
  match Option.bind (Json.member "histograms" snap) (Json.member name) with
  | Some h -> (
    match (Option.bind (Json.member "le" h) float_array,
           Option.bind (Json.member "counts" h) float_array,
           Option.bind (Json.member "sum" h) Json.number) with
    | Some le, Some counts, Some sum ->
      Some (le, Array.map int_of_float counts, sum)
    | _ -> None)
  | None -> None

let label_of snap =
  match Json.member "label" snap with Some (Json.String l) -> l | _ -> ""

(* {1 Sections} *)

let section ppf title = Format.fprintf ppf "@\n== %s ==@\n" title

let pp_self_time ppf events =
  section ppf "self time by (process, span)";
  Span.pp_summary ~top:15 ppf (Span.summarize ~by_process:true events)

let delta_row prev snap name =
  let v s = Option.value ~default:0 (counter_of s name) in
  match prev with Some p -> v snap - v p | None -> v snap

let pp_shard_timeline ppf snapshots =
  let has_shard = List.exists (fun s -> counter_of s "shard.spawns" <> None) snapshots in
  if has_shard then begin
    section ppf "shard restart/kill timeline";
    Format.fprintf ppf "%-16s %7s %8s %5s %4s %7s %12s@\n" "snapshot" "spawns" "restarts"
      "kills" "lost" "active" "backoff ms";
    ignore
      (List.fold_left
         (fun prev snap ->
           let spawns = delta_row prev snap "shard.spawns" in
           let restarts = delta_row prev snap "shard.restarts" in
           let kills = delta_row prev snap "shard.kills" in
           let lost = delta_row prev snap "shard.lost" in
           let backoff =
             let sum s =
               match hist_of s "shard.backoff_ms" with Some (_, _, sum) -> sum | None -> 0.
             in
             sum snap -. (match prev with Some p -> sum p | None -> 0.)
           in
           if spawns + restarts + kills + lost > 0 || backoff > 0. then
             Format.fprintf ppf "%-16s %7d %8d %5d %4d %7.0f %12.2f@\n" (label_of snap)
               spawns restarts kills lost
               (Option.value ~default:Float.nan (gauge_of snap "shard.active"))
               backoff;
           Some snap)
         None snapshots);
    match List.rev snapshots with
    | last :: _ -> (
      match hist_of last "shard.restart_ms" with
      | Some (le, counts, _) when Array.fold_left ( + ) 0 counts > 0 ->
        Format.fprintf ppf "restart latency ms: p50 %.2f  p90 %.2f  p99 %.2f (%d restart(s))@\n"
          (Metrics.quantile_of ~le ~counts 0.50)
          (Metrics.quantile_of ~le ~counts 0.90)
          (Metrics.quantile_of ~le ~counts 0.99)
          (Array.fold_left ( + ) 0 counts)
      | _ -> ())
    | [] -> ()
  end

let rate hits misses =
  let total = hits + misses in
  if total = 0 then Float.nan else 100. *. float_of_int hits /. float_of_int total

let pp_caches ppf last =
  let c name = Option.value ~default:0 (counter_of last name) in
  if c "cache.hits" + c "cache.misses" > 0 then begin
    section ppf "cache hit rates";
    Format.fprintf ppf "memo:  %d/%d hits (%.1f%%), %d evictions, %d dedup hits@\n"
      (c "cache.hits")
      (c "cache.hits" + c "cache.misses")
      (rate (c "cache.hits") (c "cache.misses"))
      (c "cache.evictions") (c "cache.dedup_hits")
  end

let pp_ode ppf last =
  let c name = Option.value ~default:0 (counter_of last name) in
  let integrations = c "ode.integrations" and ptc = c "ode.ptc.calls" in
  if integrations > 0 || ptc > 0 then begin
    section ppf "ODE solver";
    if ptc > 0 then begin
      (* A leaf evaluation runs PTC once, and once more when it restarts. *)
      let restarts = c "photo.ptc_fallbacks" in
      let evaluations = ptc - restarts in
      Format.fprintf ppf "ptc calls %d, iterations %d@\n" ptc (c "ode.ptc.iterations");
      Format.fprintf ppf "restarts %d of %d evaluations (%.1f%%)@\n" restarts evaluations
        (100. *. float_of_int restarts /. float_of_int (max 1 evaluations));
      Format.fprintf ppf "unstable roots %d@\n" (c "ode.ptc.unstable")
    end;
    Format.fprintf ppf "%-16s %8d@\n" "integrations" integrations;
    Format.fprintf ppf "%-16s %8d@\n" "underflows" (c "ode.underflows");
    Format.fprintf ppf "rhs evals %d, steps %d (%d rejected)@\n" (c "ode.rhs_evals")
      (c "ode.steps") (c "ode.rejected");
    if c "ode.jacobians" > 0 then Format.fprintf ppf "jacobians %d@\n" (c "ode.jacobians")
  end

(* Health of the factorized-basis simplex: pivot/refactorization volume
   and the factorizations reused instead of rebuilt, per-solve pivot
   quantiles, warm-start and dual-repair economy, anti-cycling
   activations, eta-file pressure and refactorization latency. *)
let pp_lp ppf last =
  let c name = Option.value ~default:0 (counter_of last name) in
  if c "simplex.solves" > 0 then begin
    section ppf "LP kernel health";
    Format.fprintf ppf
      "%d solve(s): %d pivot(s), %d refactorization(s), %d factor reuse(s), %d Bland \
       activation(s)@\n"
      (c "simplex.solves") (c "simplex.pivots") (c "simplex.refactors")
      (c "simplex.factor_reuses") (c "simplex.bland_activations");
    (match hist_of last "simplex.pivots_per_solve" with
    | Some (le, counts, _) when Array.fold_left ( + ) 0 counts > 0 ->
      Format.fprintf ppf "pivots per solve: p50 %.0f  p90 %.0f@\n"
        (Metrics.quantile_of ~le ~counts 0.50)
        (Metrics.quantile_of ~le ~counts 0.90)
    | _ -> ());
    if c "simplex.dual_solves" > 0 then
      Format.fprintf ppf
        "dual: %d solve(s), %d pivot(s), %d primal fallback(s), %.2f ms in dual iterations@\n"
        (c "simplex.dual_solves") (c "simplex.dual_pivots") (c "simplex.dual_fallbacks")
        (float_of_int (c "simplex.dual_ns") /. 1e6);
    if c "simplex.warm_starts" + c "simplex.warm_rejects" > 0 then begin
      Format.fprintf ppf "warm starts: %d accepted, %d rejected (%.1f%%)@\n"
        (c "simplex.warm_starts") (c "simplex.warm_rejects")
        (rate (c "simplex.warm_starts") (c "simplex.warm_rejects"));
      if c "simplex.warm_rejects" > 0 then
        Format.fprintf ppf
          "  reject reasons: %d shape, %d singular, %d dual-infeasible, %d iteration-limit@\n"
          (c "simplex.warm_rejects_shape")
          (c "simplex.warm_rejects_singular")
          (c "simplex.warm_rejects_dual_infeasible")
          (c "simplex.warm_rejects_limit")
    end;
    (match gauge_of last "simplex.eta_len" with
    | Some eta -> Format.fprintf ppf "basis updates since refactorization: %.0f@\n" eta
    | None -> ());
    match hist_of last "simplex.refactor_ns" with
    | Some (le, counts, sum) when Array.fold_left ( + ) 0 counts > 0 ->
      let n = Array.fold_left ( + ) 0 counts in
      Format.fprintf ppf
        "refactor time µs: p50 %.1f  p90 %.1f  mean %.1f over %d refactorization(s)@\n"
        (Metrics.quantile_of ~le ~counts 0.50 /. 1e3)
        (Metrics.quantile_of ~le ~counts 0.90 /. 1e3)
        (sum /. float_of_int n /. 1e3)
        n
    | _ -> ()
  end

let pp_hypervolume ppf snapshots =
  let rows =
    List.filter_map
      (fun s ->
        match gauge_of s "arch.hypervolume" with
        | Some hv when Float.is_finite hv ->
          Some (label_of s, hv, Option.value ~default:Float.nan (gauge_of s "arch.evaluations"))
        | _ -> None)
      snapshots
  in
  match rows with
  | [] -> ()
  | rows ->
    section ppf "hypervolume trajectory";
    Format.fprintf ppf "%-16s %18s %14s@\n" "snapshot" "hypervolume" "evaluations";
    List.iter
      (fun (label, hv, evals) ->
        Format.fprintf ppf "%-16s %18.8g %14.0f@\n" label hv evals)
      rows

let pp_guard ppf last =
  let c name = Option.value ~default:0 (counter_of last name) in
  if c "guard.evaluations" > 0 then begin
    section ppf "guarded evaluations";
    Format.fprintf ppf "%d evaluation(s): %d exception(s), %d non-finite@\n"
      (c "guard.evaluations") (c "guard.exceptions") (c "guard.non_finite")
  end

let pp ?trace ?metrics ppf () =
  (match trace with
  | Some events when events <> [] -> pp_self_time ppf events
  | _ -> ());
  match metrics with
  | Some { snapshots; torn } ->
    if torn > 0 then
      Format.fprintf ppf "@\nwarning: skipped %d torn/unparseable JSONL line(s)@\n" torn;
    (match List.rev snapshots with
    | [] -> ()
    | last :: _ ->
      pp_shard_timeline ppf snapshots;
      pp_guard ppf last;
      pp_caches ppf last;
      pp_lp ppf last;
      pp_ode ppf last;
      pp_hypervolume ppf snapshots)
  | None -> ()
