(* Eigenvalues of a dense real matrix, in place: Parlett–Reinsch
   balancing, reduction to upper Hessenberg form by stabilized elementary
   similarity transforms, then Francis double-shift QR on the Hessenberg
   matrix (the EISPACK balanc / elmhes / hqr sequence).  Eigenvalues
   only: no transform is accumulated, so the QR sweeps touch only the
   active block.  Row-major n×n storage in the first n² entries of the
   buffer, entry (i, j) at i·n + j. *)

let max_sweeps = 30

(* Unchecked access to entry (i, j): every index below stays within the
   n×n bounds checked on entry.  The annotations make the accesses flat
   float loads and stores, so no entry is boxed. *)
let[@inline] get (a : float array) n i j = Array.unsafe_get a ((i * n) + j)
let[@inline] set (a : float array) n i j (x : float) = Array.unsafe_set a ((i * n) + j) x

(* |a| with the sign of b, counting −0. as positive. *)
let[@inline] sign a b = if b >= 0. then Float.abs a else -.Float.abs a

(* Scale row i by 1/f and column i by f, with f a power of two (so the
   scaling is exact), until each row's off-diagonal 1-norm is within a
   factor of two of its column's.  The eigenvalues are unchanged and the
   norm the QR deflation test is relative to shrinks. *)
let balance ~n a =
  let settled = ref false in
  while not !settled do
    settled := true;
    for i = 0 to n - 1 do
      let c = ref 0. and r = ref 0. in
      for j = 0 to n - 1 do
        if j <> i then begin
          c := !c +. Float.abs (get a n j i);
          r := !r +. Float.abs (get a n i j)
        end
      done;
      if !c > 0. && !r > 0. then begin
        let s = !c +. !r and f = ref 1. in
        let lo = !r /. 2. and hi = !r *. 2. in
        while !c < lo do
          f := !f *. 2.;
          c := !c *. 4.
        done;
        while !c > hi do
          f := !f /. 2.;
          c := !c /. 4.
        done;
        if (!c +. !r) /. !f < 0.95 *. s then begin
          settled := false;
          let g = 1. /. !f in
          for j = 0 to n - 1 do
            set a n i j (get a n i j *. g)
          done;
          for j = 0 to n - 1 do
            set a n j i (get a n j i *. !f)
          done
        end
      end
    done
  done

(* Gaussian elimination with pivoting, applied as a similarity: column
   m − 1 below the subdiagonal is zeroed by row operations whose inverse
   is applied to the columns.  The eliminated entries are stored as 0. *)
let hessenberg ~n a =
  for m = 1 to n - 2 do
    let x = ref 0. and piv = ref m in
    for j = m to n - 1 do
      if Float.abs (get a n j (m - 1)) > Float.abs !x then begin
        x := get a n j (m - 1);
        piv := j
      end
    done;
    let p = !piv in
    if p <> m then begin
      for j = m - 1 to n - 1 do
        let t = get a n p j in
        set a n p j (get a n m j);
        set a n m j t
      done;
      for j = 0 to n - 1 do
        let t = get a n j p in
        set a n j p (get a n j m);
        set a n j m t
      done
    end;
    let x = !x in
    if not (Float.equal x 0.) then
      for i = m + 1 to n - 1 do
        let y = get a n i (m - 1) in
        if not (Float.equal y 0.) then begin
          let y = y /. x in
          set a n i (m - 1) 0.;
          for j = m to n - 1 do
            set a n i j (get a n i j -. (y *. get a n m j))
          done;
          for j = 0 to n - 1 do
            set a n j m (get a n j m +. (y *. get a n j i))
          done
        end
      done
  done

(* Francis double-shift QR on the upper Hessenberg [a], deflating one
   real root or one pair at a time from the bottom.  A subdiagonal entry
   is negligible when adding it to the sum of its two diagonal
   neighbours does not change that sum: an exact test by design.
   Exceptional shifts after 10 and 20 sweeps on one eigenvalue; false
   after [max_sweeps]. *)
let hqr ~n a (wr : Vec.t) (wi : Vec.t) =
  let anorm = ref 0. in
  for i = 0 to n - 1 do
    for j = (if i > 0 then i - 1 else 0) to n - 1 do
      anorm := !anorm +. Float.abs (get a n i j)
    done
  done;
  let hi = ref (n - 1) and shift = ref 0. and sweeps = ref 0 and capped = ref false in
  while !hi >= 0 && not !capped do
    let nn = !hi in
    (* The lowest l such that the block l..nn has no negligible
       subdiagonal entry. *)
    let l = ref nn and split = ref false in
    while (not !split) && !l >= 1 do
      let s = Float.abs (get a n (!l - 1) (!l - 1)) +. Float.abs (get a n !l !l) in
      let s = if Float.equal s 0. then !anorm else s in
      if Float.equal (Float.abs (get a n !l (!l - 1)) +. s) s then begin
        set a n !l (!l - 1) 0.;
        split := true
      end
      else decr l
    done;
    let l = !l in
    let x = get a n nn nn in
    if l = nn then begin
      Array.unsafe_set wr nn (x +. !shift);
      Array.unsafe_set wi nn 0.;
      hi := nn - 1;
      sweeps := 0
    end
    else begin
      let y = get a n (nn - 1) (nn - 1) and w = get a n nn (nn - 1) *. get a n (nn - 1) nn in
      if l = nn - 1 then begin
        (* The trailing 2×2 block's roots. *)
        let p = 0.5 *. (y -. x) in
        let q = (p *. p) +. w in
        let z = sqrt (Float.abs q) in
        let x = x +. !shift in
        if q >= 0. then begin
          let z = p +. sign z p in
          Array.unsafe_set wr (nn - 1) (x +. z);
          Array.unsafe_set wr nn (if Float.equal z 0. then x +. z else x -. (w /. z));
          Array.unsafe_set wi (nn - 1) 0.;
          Array.unsafe_set wi nn 0.
        end
        else begin
          Array.unsafe_set wr (nn - 1) (x +. p);
          Array.unsafe_set wr nn (x +. p);
          Array.unsafe_set wi (nn - 1) (-.z);
          Array.unsafe_set wi nn z
        end;
        hi := nn - 2;
        sweeps := 0
      end
      else if !sweeps = max_sweeps then capped := true
      else begin
        let x = ref x and y = ref y and w = ref w in
        if !sweeps = 10 || !sweeps = 20 then begin
          shift := !shift +. !x;
          for i = 0 to nn do
            set a n i i (get a n i i -. !x)
          done;
          let s = Float.abs (get a n nn (nn - 1)) +. Float.abs (get a n (nn - 1) (nn - 2)) in
          x := 0.75 *. s;
          y := !x;
          w := -0.4375 *. s *. s
        end;
        incr sweeps;
        (* Start the sweep at the largest m ≥ l where two consecutive
           subdiagonal entries are small enough to decouple, else at l. *)
        let m = ref (nn - 2) and p = ref 0. and q = ref 0. and r = ref 0. and z = ref 0. in
        let found = ref false in
        while not !found do
          let mm = !m in
          z := get a n mm mm;
          let rr = !x -. !z and ss = !y -. !z in
          p := (((rr *. ss) -. !w) /. get a n (mm + 1) mm) +. get a n mm (mm + 1);
          q := get a n (mm + 1) (mm + 1) -. !z -. rr -. ss;
          r := get a n (mm + 2) (mm + 1);
          let s = Float.abs !p +. Float.abs !q +. Float.abs !r in
          p := !p /. s;
          q := !q /. s;
          r := !r /. s;
          if mm = l then found := true
          else begin
            let u = Float.abs (get a n mm (mm - 1)) *. (Float.abs !q +. Float.abs !r) in
            let v =
              Float.abs !p *. (Float.abs (get a n (mm - 1) (mm - 1)) +. Float.abs !z
                               +. Float.abs (get a n (mm + 1) (mm + 1)))
            in
            if Float.equal (u +. v) v then found := true else decr m
          end
        done;
        let m = !m in
        for i = m + 2 to nn do
          set a n i (i - 2) 0.;
          if i <> m + 2 then set a n i (i - 3) 0.
        done;
        (* Chase the bulge down with 3×3 Householder reflections. *)
        for k = m to nn - 1 do
          let last = k = nn - 1 in
          if k <> m then begin
            p := get a n k (k - 1);
            q := get a n (k + 1) (k - 1);
            r := if last then 0. else get a n (k + 2) (k - 1);
            x := Float.abs !p +. Float.abs !q +. Float.abs !r;
            if not (Float.equal !x 0.) then begin
              p := !p /. !x;
              q := !q /. !x;
              r := !r /. !x
            end
          end;
          let s = sign (sqrt ((!p *. !p) +. (!q *. !q) +. (!r *. !r))) !p in
          if not (Float.equal s 0.) then begin
            if k = m then begin
              if l <> m then set a n k (k - 1) (-.get a n k (k - 1))
            end
            else set a n k (k - 1) (-.s *. !x);
            p := !p +. s;
            x := !p /. s;
            y := !q /. s;
            z := !r /. s;
            q := !q /. !p;
            r := !r /. !p;
            for j = k to nn do
              let pj = ref (get a n k j +. (!q *. get a n (k + 1) j)) in
              if not last then begin
                pj := !pj +. (!r *. get a n (k + 2) j);
                set a n (k + 2) j (get a n (k + 2) j -. (!pj *. !z))
              end;
              set a n (k + 1) j (get a n (k + 1) j -. (!pj *. !y));
              set a n k j (get a n k j -. (!pj *. !x))
            done;
            for i = l to (if k + 3 < nn then k + 3 else nn) do
              let pi = ref ((!x *. get a n i k) +. (!y *. get a n i (k + 1))) in
              if not last then begin
                pi := !pi +. (!z *. get a n i (k + 2));
                set a n i (k + 2) (get a n i (k + 2) -. (!pi *. !r))
              end;
              set a n i (k + 1) (get a n i (k + 1) -. (!pi *. !q));
              set a n i k (get a n i k -. !pi)
            done
          end
        done
      end
    end
  done;
  not !capped

let eigenvalues_in_place ~n a wr wi =
  if Array.length a < n * n || Array.length wr < n || Array.length wi < n then
    invalid_arg "Eigen.eigenvalues_in_place: buffer sizes";
  let finite = ref true in
  for k = 0 to (n * n) - 1 do
    if not (Float.is_finite (Array.unsafe_get a k)) then finite := false
  done;
  !finite
  && begin
    balance ~n a;
    hessenberg ~n a;
    hqr ~n a wr wi
  end
