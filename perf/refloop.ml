(* The reference loop: a fixed piece of integer arithmetic, timed beside
   the workloads as a gauge of how fast the host runs at that moment.

   On a shared virtual machine the speed of a vCPU changes by up to 1.7x
   from one stretch of seconds to the next, as neighbours come and go.
   Host time divided by the loop's time next to it is host time at a
   fixed reference speed: a "reference second" is the time the host
   takes for [loops_per_ref_s] runs of the loop, about one second on an
   uncontended 2-vCPU Xeon. The loop allocates nothing and calls nothing
   in the simulator, so a change to the simulator, its heap or its GC
   settings cannot change the loop's time, only the workloads'. *)

let iterations = 2_000_000
let loops_per_ref_s = 400.0

(* Four chained updates per iteration, with enough independent work
   between iterations to keep several ALUs busy: code with that much
   instruction-level parallelism slows down the way the simulator does
   when a neighbour takes the other half of the core. *)
let run () =
  let a = ref 1 and b = ref 2 and c = ref 3 and d = ref 4 in
  for i = 1 to iterations do
    a := !a + i;
    b := !b lxor (!a lsl 1);
    c := !c + (!b lsr 3);
    d := !d lxor !c
  done;
  !a + !b + !c + !d

(* every sample taken so far, newest first *)
let taken = ref []

(* one run of the loop, in host nanoseconds *)
let sample () =
  let t0 = Spans.now_ns () in
  ignore (Sys.opaque_identity (run ()));
  let ns = Spans.now_ns () - t0 in
  taken := ns :: !taken;
  ns

let samples () = !taken

(* the host time all samples so far took, for the caller to leave out of
   what it times *)
let spent_ns () = List.fold_left ( + ) 0 !taken

(* [ns] host nanoseconds in reference seconds, at a loop time of
   [loop_ns] *)
let ref_s ~loop_ns ns = float_of_int ns /. (loops_per_ref_s *. float_of_int loop_ns)
