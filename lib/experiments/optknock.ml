type row = { label : string; coupling : Fba.Knockout.coupling option }

let compute () =
  let m = Fba.Ecoli_core.build () in
  let row label removed =
    {
      label;
      coupling =
        Fba.Knockout.growth_coupled ~t:m.Fba.Ecoli_core.net ~target:m.Fba.Ecoli_core.ex_succinate
          ~biomass:m.Fba.Ecoli_core.biomass ~removed;
    }
  in
  [ row "wild type" []; row "dPFL dLDH" [ m.Fba.Ecoli_core.pfl; m.Fba.Ecoli_core.ldh ] ]

let print () =
  Printf.printf "== OptKnock comparison: growth-coupled succinate (E. coli core) ==\n";
  List.iter
    (fun r ->
      match r.coupling with
      | None -> Printf.printf "   %-12s lethal\n" r.label
      | Some c ->
        let lo, hi = c.Fba.Knockout.target_at_growth in
        Printf.printf "   %-12s growth %.3f, succinate at optimum [%.2f, %.2f]%s\n" r.label
          c.Fba.Knockout.biomass_opt lo hi
          (if lo > 1e-6 then "  <- growth-coupled" else ""))
    (compute ())
