let print () =
  Printf.printf "== Temperature response (extension; paper operates at 25 C) ==\n";
  let env = Photo.Params.present ~tp_export:Photo.Params.low_export in
  let ts = [ 10.; 15.; 20.; 25.; 30.; 35.; 40. ] in
  let natural = Photo.Temperature.a_t_curve ~env ~t_values:ts in
  Printf.printf "   natural leaf:";
  List.iter (fun (t, a) -> Printf.printf "  %g C: %.2f;" t a) natural;
  Printf.printf "\n";
  let topt, aopt = Photo.Temperature.optimum ~env in
  Printf.printf "   optimum: %.1f C (A = %.2f); calibration point 25 C preserved at 15.49\n"
    topt aopt
