type t = { mutable members : Solution.t list }

let create () = { members = [] }

let size a = List.length a.members
let to_list a = a.members

let add a s =
  let dominated_by_member =
    List.exists
      (fun m -> Dominance.dominates m s || Solution.equal_objectives m s)
      a.members
  in
  if dominated_by_member then false
  else begin
    a.members <- s :: List.filter (fun m -> not (Dominance.dominates s m)) a.members;
    true
  end

let add_all a sols = List.iter (fun s -> ignore (add a s)) sols

let restore a sols =
  (* Checkpoint restore: reinstall members wholesale, preserving order, so
     a resumed run's archive is bit-identical to the uninterrupted one
     (add-order affects member order and hence downstream tie-breaks). *)
  a.members <- sols
