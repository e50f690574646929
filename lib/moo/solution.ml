type t = { x : float array; f : float array; v : float }

let evaluate p x =
  let x = Problem.clip p x in
  let f = p.Problem.eval x in
  if Array.length f <> p.Problem.n_obj then
    invalid_arg "Solution.evaluate: objective vector has the wrong arity";
  { x; f; v = Problem.violation_of p x }

let equal_objectives ?(tol = 1e-12) a b =
  Array.length a.f = Array.length b.f
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= tol) a.f b.f
