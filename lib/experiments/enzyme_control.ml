let compute () =
  let env = Photo.Params.present ~tp_export:Photo.Params.low_export in
  let coeffs =
    Photo.Control.flux_control ~env ~ratios:(Array.make Photo.Enzyme.count 1.)
  in
  Photo.Control.ranking coeffs

let print () =
  Printf.printf "== Flux-control coefficients of the natural leaf ==\n";
  Printf.printf
    "Paper (Sec. 3.1): Rubisco, SBPase, ADPGPP and FBP aldolase are the most\n\
     influential enzymes of the carbon-metabolism model.\n";
  let ranked = compute () in
  List.iteri
    (fun i c ->
      if i < 10 then
        Printf.printf "   %2d. %-22s C = %+.4f\n" (i + 1) c.Photo.Control.name
          c.Photo.Control.control)
    ranked;
  Printf.printf "   summation Σ C_i = %.3f (flux-control theorem: ≈ 1)\n"
    (Photo.Control.summation (Array.of_list ranked))
