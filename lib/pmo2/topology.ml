type t =
  | All_to_all
  | Ring
  | Star
  | Custom of (int * int) list

let edges t ~n =
  if n < 1 then invalid_arg "Pmo2.Topology.edges: need at least one island";
  match t with
  | All_to_all ->
    List.concat
      (List.init n (fun i ->
           List.filter_map (fun j -> if i <> j then Some (i, j) else None) (List.init n Fun.id)))
  | Ring -> if n = 1 then [] else List.init n (fun i -> (i, (i + 1) mod n))
  | Star ->
    List.concat (List.init (n - 1) (fun k -> [ (0, k + 1); (k + 1, 0) ]))
  | Custom es ->
    List.iter
      (fun (a, b) ->
        if not (0 <= a && a < n && 0 <= b && b < n && a <> b) then
          invalid_arg "Pmo2.Topology.edges: custom edge endpoints out of range or self-loop")
      es;
    es
