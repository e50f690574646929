(* Physiological fingerprints of the reconstructed leaf model: the A/Ci
   curve, the sink (triose-P export) response, the temperature response
   and the photosynthetic induction transient.  None of these were fit
   directly — they emerge from the kinetics calibrated at one operating
   point, so they are good sanity checks of the substrate.

     dune exec examples/physiology.exe *)

let bar width value scale =
  let n = int_of_float (Float.max 0. (Float.min (float_of_int width) (value /. scale))) in
  String.make n '#'

let () =
  let env = Photo.Params.present ~tp_export:Photo.Params.low_export in

  print_endline "A/Ci curve (natural leaf):";
  List.iter
    (fun (ci, a) -> Printf.printf "  Ci %4.0f ppm  A %7.3f %s\n" ci a (bar 40 a 0.6))
    (Photo.Response.a_ci_curve ~tp_export:1.
       ~ci_values:[ 100.; 165.; 220.; 270.; 350.; 490.; 700. ]);

  print_endline "\nSink limitation (uptake vs triose-P export capacity, Ci=270):";
  List.iter
    (fun (e, a) -> Printf.printf "  export %4.2f  A %7.3f %s\n" e a (bar 40 a 0.6))
    (Photo.Response.export_response ~ci:270. ~export_values:[ 0.1; 0.25; 0.5; 1.; 2.; 3. ]);

  print_endline "\nTemperature response (Q10 kinetics + deactivation):";
  List.iter
    (fun (t, a) -> Printf.printf "  %4.0f C  A %7.3f %s\n" t a (bar 40 a 0.6))
    (Photo.Temperature.a_t_curve ~env ~t_values:[ 10.; 15.; 20.; 25.; 30.; 35.; 40. ]);
  let topt, aopt = Photo.Temperature.optimum ~env in
  Printf.printf "  optimum: %.1f C (A = %.2f)\n" topt aopt;

  print_endline "\nPhotosynthetic induction (dark-adapted leaf stepped into light):";
  let samples = Photo.Simulate.induction ~env ~ratios:(Array.make Photo.Enzyme.count 1.) in
  List.iter
    (fun s ->
      if int_of_float s.Photo.Simulate.t mod 30 = 0 then
        Printf.printf "  t=%4.0f s  A %7.3f %s\n" s.Photo.Simulate.t
          s.Photo.Simulate.assimilation
          (bar 40 s.Photo.Simulate.assimilation 0.6))
    samples;
  Printf.printf "  half-rise time: %.0f s\n" (Photo.Simulate.induction_half_time samples)
