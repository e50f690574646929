(* Tests for the second extension batch: time-course simulation. *)

(* {1 Simulation} *)

let env = Photo.Params.present ~tp_export:Photo.Params.low_export
let natural = Array.make Photo.Enzyme.count 1.

let test_time_course_samples () =
  let tc = Photo.Simulate.time_course ~env ~ratios:natural ~t_end:50. ~dt_sample:10. () in
  Alcotest.(check int) "six samples (0..50)" 6 (List.length tc);
  let ts = List.map (fun s -> s.Photo.Simulate.t) tc in
  Alcotest.(check bool) "monotone time" true (List.sort compare ts = ts)

let test_induction_rises () =
  let tc = Photo.Simulate.induction ~env ~ratios:natural () in
  match tc, List.rev tc with
  | first :: _, last :: _ ->
    Alcotest.(check bool)
      (Printf.sprintf "dark %.2f < final %.2f" first.Photo.Simulate.assimilation
         last.Photo.Simulate.assimilation)
      true
      (first.Photo.Simulate.assimilation < last.Photo.Simulate.assimilation);
    (* The induction should approach the steady-state rate. *)
    let ss = (Photo.Steady_state.natural ~env ()).Photo.Steady_state.uptake in
    Alcotest.(check bool)
      (Printf.sprintf "final %.2f near ss %.2f" last.Photo.Simulate.assimilation ss)
      true
      (Float.abs (last.Photo.Simulate.assimilation -. ss) < 0.15 *. ss)
  | _ -> Alcotest.fail "empty induction"

let test_induction_half_time () =
  let tc = Photo.Simulate.induction ~env ~ratios:natural () in
  let t_half = Photo.Simulate.induction_half_time tc in
  Alcotest.(check bool)
    (Printf.sprintf "t_half %.0f in (0, 300)" t_half)
    true
    (t_half > 0. && t_half < 300.)

let () =
  Alcotest.run "extras2"
    [
      ( "simulate",
        [
          Alcotest.test_case "time-course sampling" `Slow test_time_course_samples;
          Alcotest.test_case "induction rises" `Slow test_induction_rises;
          Alcotest.test_case "induction half-time" `Slow test_induction_half_time;
        ] );
    ]
