type row = { enzyme : string; yield_pct : float }

let compute () =
  let env = Photo.Params.present ~tp_export:Photo.Params.low_export in
  let property = Runs.uptake_property ~env in
  let natural = Array.make Photo.Enzyme.count 1. in
  let profile =
    Robustness.Screen.local_analysis ~seed:17 ~f:property ~trials:200 natural
  in
  List.sort compare
    (List.map
       (fun p ->
         {
           enzyme = Photo.Enzyme.names.(p.Robustness.Screen.index);
           yield_pct = p.Robustness.Screen.yield_pct;
         })
       profile)
  |> List.sort (fun a b -> Float.compare a.yield_pct b.yield_pct)

let print () =
  Printf.printf "== Local robustness analysis (one enzyme at a time, 200 trials) ==\n";
  List.iter
    (fun r ->
      Printf.printf "   %-22s %6.1f%%%s\n" r.enzyme r.yield_pct
        (if r.yield_pct < 99.5 then "  <- uptake-sensitive" else ""))
    (compute ())
