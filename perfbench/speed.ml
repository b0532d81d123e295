(* The benchmark's clock, and a reference computation that tells how
   fast the host is running this process at the moment.

   Times are process CPU seconds, user and system, which Linux reports
   to the microsecond; time that other processes of the same machine
   hold the core is not counted. On a virtual machine whose cores the
   host shares with other guests, the CPU time of one fixed computation
   still moves by up to 2x over a few seconds and by 10-30% between
   runs. So the benchmark times [reference ()] after every program and
   divides each program's time by the median reference time around it.
   It reports the quotient in reference seconds: multiplied by
   [nominal_s], so that the figures stay close to CPU seconds. *)

let now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let since t0 = now () -. t0

module Int_map = Map.Make (Int)

(* Balanced-tree inserts, a fold and a list sort: allocation and pointer
   chasing, as in the compiler. A non-allocating loop over a table that
   fits the cache did not slow down with the host as the compiler
   did. *)
let kernel () =
  let acc = ref 0 in
  for round = 1 to 3 do
    let m = ref Int_map.empty in
    for i = 0 to 255 do
      m := Int_map.add (((i * 7919) + round) land 1023) i !m
    done;
    let l = Int_map.fold (fun k v acc -> (k lxor v) :: acc) !m [] in
    acc := !acc + List.length (List.sort compare l)
  done;
  !acc

(* One timed run of [kernel]. The garbage left by the program before it
   is collected first, untimed, so the kernel never pays for another
   computation's allocation. *)
let reference () =
  Gc.minor ();
  let t0 = now () in
  ignore (Sys.opaque_identity (kernel ()));
  since t0

(* The median time of [reference ()] on the 2-vCPU Intel Xeon virtual
   machine the benchmark was tuned on. *)
let nominal_s = 150e-6

let median_of a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Seconds to reference seconds for a stretch of the run whose reference
   times are [refs]. *)
let factor refs = nominal_s /. median_of refs

(* How many reference times on each side of a program run count towards
   its own: 2, 5 and 10 gave IQR/median of 2-6% over five seeds; 2 did
   best on the wider workloads. *)
let window = 2

(* [normalize times refs]: each time, in run order, in reference
   seconds, against the median of the reference times up to [window]
   places before or after it. *)
let normalize times refs =
  let n = Array.length refs in
  Array.mapi
    (fun j t ->
      let lo = max 0 (j - window) and hi = min (n - 1) (j + window) in
      t *. factor (Array.sub refs lo (hi - lo + 1)))
    times
