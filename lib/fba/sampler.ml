type t = {
  g : Geobacter.model;
  project_dir : float array -> float array;  (* null(S) ∩ {pinned = 0} *)
  pinned : int list;
  bounds : (float * float) array;
  rng : Numerics.Rng.t;
  mutable current : float array;
}

(* The direction projector must respect the steady-state equalities, the
   fixed fluxes (equal bounds, like ATPM), and the bound constraints
   active at the chain's start: LP-derived starts sit on a face of the
   polytope, and hit-and-run within that face needs directions tangent to
   it.  Each pinned coordinate becomes a unit equality row of
   [Network.projector]. *)

let create ?(seed = 7) (g : Geobacter.model) ~start =
  let bounds = Network.bounds g.net in
  (* The start point is repaired with the plain steady-state projector
     (Moo_problem.repair), which preserves the fixed fluxes by clipping. *)
  let v = Moo_problem.repair g (Array.copy start) in
  (* Pin fixed fluxes and the bounds active at the start: the chain
     samples the polytope face containing the start point. *)
  let pinned =
    List.filter
      (fun j ->
        let lo, hi = bounds.(j) in
        hi -. lo < 1e-12
        || (lo > neg_infinity && v.(j) -. lo < 1e-9)
        || (hi < infinity && hi -. v.(j) < 1e-9))
      (List.init (Array.length v) Fun.id)
  in
  let project_dir = Network.projector ~pinned g.net in
  Array.iteri
    (fun j vj ->
      let lo, hi = bounds.(j) in
      if vj < lo -. 1e-6 || vj > hi +. 1e-6 then
        invalid_arg
          (Printf.sprintf "Sampler.create: start violates bounds at %d (%g not in [%g, %g])"
             j vj lo hi))
    v;
  (* Snap marginal numerical violations. *)
  let v =
    Array.mapi
      (fun j vj ->
        let lo, hi = bounds.(j) in
        Float.min hi (Float.max lo vj))
      v
  in
  { g; project_dir; pinned; bounds; rng = Numerics.Rng.create seed; current = v }

let step t =
  let n = Array.length t.current in
  (* Random direction projected into null(S); fixed fluxes get zero
     direction so equality bounds (like ATPM) are preserved. *)
  let dir = t.project_dir (Array.init n (fun _ -> Numerics.Rng.gaussian t.rng)) in
  (* The projection leaves ~1e-8 numerical residue on the pinned
     coordinates; since they sit exactly on their bounds, that residue
     would clamp the feasible segment to zero — remove it. *)
  List.iter (fun j -> dir.(j) <- 0.) t.pinned;
  let norm = Numerics.Vec.norm2 dir in
  if norm < 1e-12 then t.current
  else begin
    let dir = Numerics.Vec.scale (1. /. norm) dir in
    (* Feasible segment [t_min, t_max] against the box. *)
    let t_min = ref neg_infinity and t_max = ref infinity in
    Array.iteri
      (fun j dj ->
        if Float.abs dj > 1e-12 then begin
          let lo, hi = t.bounds.(j) in
          let a = (lo -. t.current.(j)) /. dj in
          let b = (hi -. t.current.(j)) /. dj in
          let lo_t = Float.min a b and hi_t = Float.max a b in
          if lo_t > !t_min then t_min := lo_t;
          if hi_t < !t_max then t_max := hi_t
        end)
      dir;
    if !t_max <= !t_min then t.current
    else begin
      let step_len = Numerics.Rng.uniform t.rng !t_min !t_max in
      let next =
        Array.mapi (fun j vj -> vj +. (step_len *. dir.(j))) t.current
      in
      (* Guard against drift: clip and stay in the null space. *)
      let next =
        Array.mapi
          (fun j vj ->
            let lo, hi = t.bounds.(j) in
            Float.min hi (Float.max lo vj))
          next
      in
      t.current <- next;
      next
    end
  end

let sample t ~n ?(thin = 5) () =
  if not (n > 0 && thin >= 1) then invalid_arg "Fba.Sampler.sample: need n > 0 and thin >= 1";
  List.init n (fun _ ->
      let last = ref t.current in
      for _ = 1 to thin do
        last := step t
      done;
      Array.copy !last)

let mean_flux samples =
  match samples with
  | [] -> invalid_arg "Sampler.mean_flux: no samples"
  | first :: _ ->
    let n = Array.length first in
    let acc = Array.make n 0. in
    List.iter (fun s -> Numerics.Vec.add_inplace s acc) samples;
    Numerics.Vec.scale (1. /. float_of_int (List.length samples)) acc
