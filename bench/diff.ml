(* `bench diff OLD NEW`: compare two bench JSON artifacts and exit
   nonzero on regression.

   Simulated metrics must be byte-identical (the simulator is
   deterministic); wall-clock fields only warn when they drift beyond a
   25% relative band. `dune runtest` runs it on all six bench areas
   against the committed BENCH_*.json baselines (test/baselines/dune). *)

open Cmdliner
module J = Flicker_obs.Json
module Bench_diff = Flicker_obs.Bench_diff

let read_json path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | exception Sys_error msg -> Error msg
  | raw -> Result.map_error (fun e -> path ^ ": " ^ e) (J.of_string raw)

let run old_path new_path =
  match (read_json old_path, read_json new_path) with
  | Error msg, _ | _, Error msg ->
      prerr_endline ("bench diff: " ^ msg);
      2
  | Ok baseline, Ok current -> (
      match Bench_diff.compare ~baseline ~current with
      | Error msg ->
          prerr_endline ("bench diff: " ^ msg);
          2
      | Ok report ->
          Printf.printf "bench diff %s %s\n" old_path new_path;
          print_string (Bench_diff.render report);
          if Bench_diff.clean report then 0 else 1)

let cmd =
  let artifact n docv = Arg.(required & pos n (some string) None & info [] ~docv) in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Compare two bench JSON artifacts; exit nonzero on regression")
    Term.(const run $ artifact 0 "OLD.json" $ artifact 1 "NEW.json")
