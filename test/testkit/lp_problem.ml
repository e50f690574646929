(* Builder for small linear programs in the tests, on top of
   Lp.Simplex.  Rows may be equalities or inequalities; inequalities get
   slack variables before the problem reaches the simplex core.  The
   objective [solve] reports is in the problem's own sense (default
   Maximize); bounds default to (-inf, +inf). *)

type sense = Maximize | Minimize

type cmp = Eq | Le | Ge

type row = { coeffs : (int * float) list; cmp : cmp; rhs : float }

type t = {
  sense : sense;
  n : int;
  obj : float array;
  lo : float array;
  up : float array;
  mutable rows : row list; (* reverse order *)
  mutable n_rows : int;
}

let make ?(sense = Maximize) ~n_vars () =
  if n_vars <= 0 then invalid_arg "Lp_problem.make: n_vars must be positive";
  {
    sense;
    n = n_vars;
    obj = Array.make n_vars 0.;
    lo = Array.make n_vars neg_infinity;
    up = Array.make n_vars infinity;
    rows = [];
    n_rows = 0;
  }

let set_objective p j c =
  if not (0 <= j && j < p.n) then invalid_arg "Lp_problem.set_objective: variable out of range";
  p.obj.(j) <- c

let set_bounds p j lo up =
  if not (0 <= j && j < p.n) then invalid_arg "Lp_problem.set_bounds: variable out of range";
  if not (lo <= up) then invalid_arg "Lp_problem.set_bounds: empty interval";
  p.lo.(j) <- lo;
  p.up.(j) <- up

let add_row p coeffs cmp rhs =
  List.iter
    (fun (j, _) ->
      if not (0 <= j && j < p.n) then invalid_arg "Lp_problem.add_row: variable out of range")
    coeffs;
  p.rows <- { coeffs; cmp; rhs } :: p.rows;
  p.n_rows <- p.n_rows + 1

type outcome =
  | Optimal of { x : float array; objective : float }
  | Infeasible
  | Unbounded

let solve p =
  let rows = Array.of_list (List.rev p.rows) in
  let m = Array.length rows in
  let n_slack = Array.fold_left (fun acc r -> if r.cmp = Eq then acc else acc + 1) 0 rows in
  let n_total = p.n + n_slack in
  let cols = Array.make n_total [] in
  let rhs = Array.make m 0. in
  (* Structural columns, gathered row by row. *)
  Array.iteri
    (fun i r ->
      rhs.(i) <- r.rhs;
      List.iter (fun (j, v) -> cols.(j) <- (i, v) :: cols.(j)) r.coeffs)
    rows;
  (* Slack columns: x + s = rhs for Le (s >= 0), x - s = rhs for Ge. *)
  let lo = Array.append (Array.copy p.lo) (Array.make n_slack 0.) in
  let up = Array.append (Array.copy p.up) (Array.make n_slack infinity) in
  let next_slack = ref p.n in
  Array.iteri
    (fun i r ->
      match r.cmp with
      | Eq -> ()
      | Le ->
        cols.(!next_slack) <- [ (i, 1.) ];
        incr next_slack
      | Ge ->
        cols.(!next_slack) <- [ (i, -1.) ];
        incr next_slack)
    rows;
  let sign = match p.sense with Maximize -> 1. | Minimize -> -1. in
  let obj =
    Array.init n_total (fun j -> if j < p.n then sign *. p.obj.(j) else 0.)
  in
  let spec = { Lp.Simplex.n_rows = m; cols; rhs; obj; lo; up } in
  match fst (Lp.Simplex.solve spec) with
  | Lp.Simplex.Infeasible -> Infeasible
  | Lp.Simplex.Unbounded -> Unbounded
  | Lp.Simplex.Optimal { x; objective } ->
    Optimal { x = Array.sub x 0 p.n; objective = sign *. objective }
