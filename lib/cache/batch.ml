let m_dedup = Obs.Metrics.counter "cache.dedup_hits"

let evaluate (type a) ?pool ?(memo : a Memo.t option) ~n ~key f : a array =
  if n = 0 then [||]
  else begin
    (* 1. Dedup bit-identical keys, sequentially in index order.  Each
       distinct key gets a representative slot numbered by first
       occurrence; [assign.(i)] maps batch index -> representative. *)
    let table : (int64, (float array * int) list) Hashtbl.t = Hashtbl.create (2 * n) in
    let assign = Array.make n (-1) in
    let rep_index = ref [] in
    let rep_key = ref [] in
    let n_reps = ref 0 in
    for i = 0 to n - 1 do
      let k = key i in
      let h = Fnv.hash k in
      let bucket = Option.value ~default:[] (Hashtbl.find_opt table h) in
      match List.find_opt (fun (k', _) -> Fnv.equal k' k) bucket with
      | Some (_, r) ->
        assign.(i) <- r;
        Obs.Metrics.incr m_dedup
      | None ->
        let r = !n_reps in
        incr n_reps;
        Hashtbl.replace table h ((k, r) :: bucket);
        rep_index := i :: !rep_index;
        rep_key := k :: !rep_key;
        assign.(i) <- r
    done;
    let rep_index = Array.of_list (List.rev !rep_index) in
    let rep_key = Array.of_list (List.rev !rep_key) in
    let n_reps = !n_reps in
    (* 2. Memo lookups, sequentially in representative order (fixed
       recency-update order keeps eviction deterministic). *)
    let values : a option array = Array.make n_reps None in
    (match memo with
    | None -> ()
    | Some memo -> Array.iteri (fun r k -> values.(r) <- Memo.find memo k) rep_key);
    (* 3. Evaluate the misses.  Each is a pure function of its original
       batch index, so the pooled map equals the sequential one. *)
    let miss = ref [] in
    for r = n_reps - 1 downto 0 do
      if Option.is_none values.(r) then miss := r :: !miss
    done;
    let miss = Array.of_list !miss in
    let eval_miss mi = f rep_index.(miss.(mi)) in
    let results =
      match pool with
      | Some pool -> Parallel.Pool.parallel_map pool ~n:(Array.length miss) eval_miss
      | None -> Array.init (Array.length miss) eval_miss
    in
    (* 4. Publish results and fill the memo, sequentially in
       representative order. *)
    Array.iteri
      (fun mi v ->
        let r = miss.(mi) in
        values.(r) <- Some v;
        match memo with None -> () | Some memo -> Memo.add memo rep_key.(r) v)
      results;
    (* 5. Scatter to the full batch. *)
    Array.init n (fun i ->
        match values.(assign.(i)) with
        | Some v -> v
        | None -> invalid_arg "Cache.Batch.evaluate: internal: unevaluated representative")
  end
