(* `bench diff OLD NEW [--threshold PCT]`: compare two bench JSON
   artifacts and exit nonzero on regression.

   Simulated metrics must be byte-identical (the simulator is
   deterministic); wall-clock fields get a relative tolerance band and
   only warn unless --threshold is given, which makes drift beyond PCT
   percent fail too. `dune runtest` runs it on all six bench areas
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

let run old_path new_path threshold =
  match (read_json old_path, read_json new_path) with
  | Error msg, _ | _, Error msg ->
      prerr_endline ("bench diff: " ^ msg);
      2
  | Ok baseline, Ok current -> (
      let strict_wall = threshold <> None in
      match
        Bench_diff.compare ?wall_tolerance_pct:threshold ~baseline ~current ()
      with
      | Error msg ->
          prerr_endline ("bench diff: " ^ msg);
          2
      | Ok report ->
          Printf.printf "bench diff %s %s\n" old_path new_path;
          print_string (Bench_diff.render ~strict_wall report);
          if Bench_diff.clean ~strict_wall report then 0 else 1)

let cmd =
  let artifact n docv = Arg.(required & pos n (some string) None & info [] ~docv) in
  let percentage =
    let parse s =
      match float_of_string_opt s with
      | Some v when v >= 0.0 -> Ok v
      | _ -> Error (Printf.sprintf "bad percentage %S" s)
    in
    Arg.conv' (parse, Format.pp_print_float)
  in
  let threshold =
    Arg.(value & opt (some percentage) None
         & info [ "threshold" ] ~docv:"PCT"
             ~doc:"Fail, not just warn, on wall-clock drift beyond $(docv) \
                   percent.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Compare two bench JSON artifacts; exit nonzero on regression")
    Term.(const run $ artifact 0 "OLD.json" $ artifact 1 "NEW.json" $ threshold)
