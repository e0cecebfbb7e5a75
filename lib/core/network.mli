(** Simulated network between the challenged platform and remote parties.

    The paper's remote verifier sits 12 hops away with a 9.45 ms average
    ping (Section 7.1); message latency is charged against the platform's
    clock so end-to-end latencies (e.g., the 1.02 s rootkit query) include
    transit time. *)

val send : Platform.t -> bytes:int -> unit
(** One-way message: half an RTT plus serialization at the modelled
    bandwidth. *)

val round_trip : Platform.t -> request_bytes:int -> response_bytes:int -> unit
