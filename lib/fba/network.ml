type reaction = {
  name : string;
  stoich : (int * float) list;
  lb : float;
  ub : float;
}

type t = {
  metabolites : string array;
  mutable reactions : reaction array;
  mutable n : int; (* used slots in [reactions] *)
  index : (string, int) Hashtbl.t;
  (* Compressed S, built on first use and dropped by [add_reaction]. *)
  mutable cache : Numerics.Sparse.csc option;
}

let create ~metabolites () =
  if Array.length metabolites = 0 then invalid_arg "Fba.Network.create: no metabolites";
  {
    metabolites;
    reactions = Array.make 16 { name = ""; stoich = []; lb = 0.; ub = 0. };
    n = 0;
    index = Hashtbl.create 64;
    cache = None;
  }

let n_metabolites net = Array.length net.metabolites
let n_reactions net = net.n

let add_reaction net ~name ~stoich ~lb ~ub =
  if not (lb <= ub) then invalid_arg "Fba.Network.add_reaction: lb must not exceed ub";
  if Hashtbl.mem net.index name then
    invalid_arg ("Fba.Network.add_reaction: duplicate reaction " ^ name);
  List.iter
    (fun (i, _) ->
      if not (0 <= i && i < n_metabolites net) then
        invalid_arg "Fba.Network.add_reaction: metabolite index out of range")
    stoich;
  if net.n = Array.length net.reactions then begin
    let bigger = Array.make (2 * net.n) net.reactions.(0) in
    Array.blit net.reactions 0 bigger 0 net.n;
    net.reactions <- bigger
  end;
  net.reactions.(net.n) <- { name; stoich; lb; ub };
  Hashtbl.add net.index name net.n;
  net.cache <- None;
  net.n <- net.n + 1;
  net.n - 1

let reaction net j =
  if not (0 <= j && j < net.n) then invalid_arg "Fba.Network.reaction: index out of range";
  net.reactions.(j)


let bounds net = Array.init net.n (fun j -> (net.reactions.(j).lb, net.reactions.(j).ub))

let set_bounds net j lb ub =
  if not (0 <= j && j < net.n) then invalid_arg "Fba.Network.set_bounds: index out of range";
  if not (lb <= ub) then invalid_arg "Fba.Network.set_bounds: lb must not exceed ub";
  net.reactions.(j) <- { (net.reactions.(j)) with lb; ub }

let matrix net =
  match net.cache with
  | Some s -> s
  | None ->
    let s = Numerics.Sparse.create ~rows:(n_metabolites net) ~cols:net.n in
    for j = 0 to net.n - 1 do
      List.iter (fun (i, v) -> Numerics.Sparse.set s i j v) net.reactions.(j).stoich
    done;
    let s = Numerics.Sparse.compress s in
    net.cache <- Some s;
    s

(* {1 The per-domain workspace}

   [violation] and every projector work in one pair of vectors per
   domain, sized by the largest network seen (grown when a larger one
   arrives), so neither allocates per call.  Neither takes a callback,
   so a domain never runs two of them at once; a projection leaves its
   result in the caller's vector, never in the workspace. *)

type workspace = {
  mutable sv : float array;  (* S·v, then the solve's working vector *)
  mutable y : float array;   (* (S·Sᵀ + λI)⁻¹·S·v *)
}

let workspace_key = Domain.DLS.new_key (fun () -> { sv = [||]; y = [||] })

(* The calling domain's workspace, with room for [m] metabolites. *)
let workspace m =
  let ws = Domain.DLS.get workspace_key in
  if Array.length ws.sv < m then begin
    ws.sv <- Array.make m 0.;
    ws.y <- Array.make m 0.
  end;
  ws

(* ‖S·v‖₂: the squares summed from 0. in ascending row order, the
   order of [Vec]'s dot product. *)
let violation net v =
  let s = matrix net in
  let sv = (workspace s.cs_rows).sv in
  Numerics.Sparse.csc_mv_into s v sv;
  let acc = ref 0. in
  for i = 0 to s.cs_rows - 1 do
    acc := !acc +. (sv.(i) *. sv.(i))
  done;
  sqrt !acc

(* Least-squares projection onto null(S): v' = v − Sᵀ (S Sᵀ + λI)⁻¹ S v.
   The small Tikhonov term λ keeps S Sᵀ invertible, because the decoy
   loops make some rows of S linearly dependent.  S Sᵀ is built sparse
   and factored once. *)
let ridge = 1e-9

let projector net =
  let s = matrix net in
  let lu = Numerics.Sparse_lu.factor (Numerics.Sparse.csc_gram ~ridge s) in
  fun v ->
    let ws = workspace s.cs_rows in
    Numerics.Sparse.csc_mv_into s v ws.sv;
    Numerics.Sparse_lu.solve_into lu ws.sv ws.y;
    Numerics.Sparse.csc_tmv_sub s ws.y v
