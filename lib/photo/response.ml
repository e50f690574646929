let a_ci_curve ~tp_export ~ci_values =
  List.map
    (fun ci ->
      if ci <= 0. then invalid_arg "Photo.Response.a_ci_curve: ci values must be positive";
      let env = { Params.label = Printf.sprintf "ci=%g" ci; ci; tp_export } in
      (ci, (Steady_state.natural env).Steady_state.uptake))
    ci_values

let export_response ~ci ~export_values =
  List.map
    (fun tp_export ->
      if tp_export < 0. then
        invalid_arg "Photo.Response.export_response: export values must be non-negative";
      let env = { Params.label = Printf.sprintf "export=%g" tp_export; ci; tp_export } in
      (tp_export, (Steady_state.natural env).Steady_state.uptake))
    export_values
