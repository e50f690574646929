(* Process faults exercise the shard supervisor: a worker that dies
   outright (Kill) or stops making progress without dying (Wedge — the
   case cooperative deadlines cannot cover, forcing SIGKILL
   preemption). *)

type process_mode = Kill | Wedge

type process_fault = {
  pf_shard : int;
  pf_epoch : int;
  pf_mode : process_mode;
  pf_times : int;
}

let validate_process_fault pf =
  if pf.pf_shard < 0 then invalid_arg "Fault: shard must be >= 0";
  if pf.pf_epoch < 1 then invalid_arg "Fault: epoch must be >= 1";
  if pf.pf_times < 1 then invalid_arg "Fault: times must be >= 1"

let should_fault pf ~shard ~epoch ~incarnation =
  match pf with
  | None -> None
  | Some pf ->
    validate_process_fault pf;
    (* Bounded by [pf_times] so a supervised restart eventually gets a
       clean run: incarnation k of the target shard faults only while
       k < pf_times. *)
    if shard = pf.pf_shard && epoch = pf.pf_epoch && incarnation < pf.pf_times then
      Some pf.pf_mode
    else None

let parse_kill_spec spec =
  let bad () =
    invalid_arg
      (Printf.sprintf
         "Fault: bad shard-fault spec %S (expected SHARD:EPOCH[:TIMES][:kill|wedge])" spec)
  in
  let int_field s = match int_of_string_opt s with Some n -> n | None -> bad () in
  let shard, epoch, rest =
    match String.split_on_char ':' spec with
    | s :: e :: rest -> (int_field s, int_field e, rest)
    | _ -> bad ()
  in
  let times, mode =
    match rest with
    | [] -> (1, Kill)
    | [ "kill" ] -> (1, Kill)
    | [ "wedge" ] -> (1, Wedge)
    | [ t ] -> (int_field t, Kill)
    | [ t; "kill" ] -> (int_field t, Kill)
    | [ t; "wedge" ] -> (int_field t, Wedge)
    | _ -> bad ()
  in
  let pf = { pf_shard = shard; pf_epoch = epoch; pf_mode = mode; pf_times = times } in
  validate_process_fault pf;
  pf
