let union_front fronts = Dominance.non_dominated (List.concat fronts)

(* Membership is objective equality within 1e-9, Table 1's Gp/Rp
   tolerance, looser than [Solution.equal_objectives]'s 1e-12 default: a
   point that matches a union member of another front to 1e-9 counts as
   covered. *)
let intersection_size front union =
  List.length
    (List.filter
       (fun s -> List.exists (fun m -> Solution.equal_objectives ~tol:1e-9 m s) union)
       front)

let gp front union =
  if union = [] then 0.
  else float_of_int (intersection_size front union) /. float_of_int (List.length union)

let rp front union =
  if front = [] then 0.
  else float_of_int (intersection_size front union) /. float_of_int (List.length front)
