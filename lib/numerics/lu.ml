exception Singular

let pivot_tolerance = 1e-13

(* Row-major n×n: entry (i, j) is at i·n + j.  Written with direct
   array accesses so that no call returns a boxed float. *)
let factor_in_place ~n a perm =
  for i = 0 to n - 1 do
    Array.unsafe_set perm i i
  done;
  for k = 0 to n - 1 do
    let rk = k * n in
    (* Partial pivoting: pick the largest magnitude entry in column k. *)
    let piv = ref k in
    let best = ref (Float.abs (Array.unsafe_get a (rk + k))) in
    for i = k + 1 to n - 1 do
      let v = Float.abs (Array.unsafe_get a ((i * n) + k)) in
      if v > !best then begin
        best := v;
        piv := i
      end
    done;
    if !best < pivot_tolerance then raise Singular;
    let p = !piv in
    if p <> k then begin
      let rp = p * n in
      for j = 0 to n - 1 do
        let t = Array.unsafe_get a (rk + j) in
        Array.unsafe_set a (rk + j) (Array.unsafe_get a (rp + j));
        Array.unsafe_set a (rp + j) t
      done;
      let t = Array.unsafe_get perm k in
      Array.unsafe_set perm k (Array.unsafe_get perm p);
      Array.unsafe_set perm p t
    end;
    let pivval = Array.unsafe_get a (rk + k) in
    for i = k + 1 to n - 1 do
      let ri = i * n in
      let m = Array.unsafe_get a (ri + k) /. pivval in
      Array.unsafe_set a (ri + k) m;
      (* robustlint: allow R1 — exact-zero sparsity skip on the multiplier row *)
      if m <> 0. then
        for j = k + 1 to n - 1 do
          Array.unsafe_set a (ri + j) (Array.unsafe_get a (ri + j) -. (m *. Array.unsafe_get a (rk + j)))
        done
    done
  done

let solve_in_place ~n lu perm b x =
  for i = 0 to n - 1 do
    Array.unsafe_set x i (Array.unsafe_get b (Array.unsafe_get perm i))
  done;
  (* Forward substitution with unit lower triangle. *)
  for i = 1 to n - 1 do
    let ri = i * n in
    let acc = ref (Array.unsafe_get x i) in
    for j = 0 to i - 1 do
      acc := !acc -. (Array.unsafe_get lu (ri + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i !acc
  done;
  (* Back substitution. *)
  for i = n - 1 downto 0 do
    let ri = i * n in
    let acc = ref (Array.unsafe_get x i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Array.unsafe_get lu (ri + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i (!acc /. Array.unsafe_get lu (ri + i))
  done
