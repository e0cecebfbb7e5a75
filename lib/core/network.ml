module Machine = Flicker_hw.Machine
module Timing = Flicker_hw.Timing

let timing (p : Platform.t) = p.Platform.machine.Machine.timing

let send p ~bytes =
  Machine.charge p.Platform.machine (Timing.network_ms (timing p) ~bytes)

let round_trip p ~request_bytes ~response_bytes =
  send p ~bytes:request_bytes;
  send p ~bytes:response_bytes
