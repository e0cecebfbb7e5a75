module Platform = Flicker_core.Platform
module Timing = Flicker_hw.Timing
module Clock = Flicker_hw.Clock
module Machine = Flicker_hw.Machine
module Injector = Flicker_fault.Injector
module Metrics = Flicker_obs.Metrics

type params = {
  queue_depth : int;
  batch_size : int;
  policy : Dispatch.policy;
  timing : Timing.t;
  retry_budget : int;
  breaker_failures : int;
  breaker_cooldown_ms : float;
  gtotal : int;
  n_shards : int;
}

(* one bounded admission queue per tier; the shared [queue_depth] bound
   applies to their sum, and dispatch drains Interactive before Batch *)
let tier_index = function Request.Interactive -> 0 | Request.Batch -> 1
let n_tiers = List.length Request.all_tiers

type pstate = {
  platform : Platform.t;
  index : int;  (* global platform index *)
  queues : Request.t Queue.t array;  (* indexed by [tier_index] *)
  mutable busy : bool;
  mutable completed : int;
  mutable up : bool;  (* false while crashed and rebooting *)
  mutable down_until : float;
  mutable breaker_until : float;  (* shedding load until this instant *)
  mutable consecutive_failures : int;  (* all-failed batches in a row *)
}

type event = Arrival of Request.t | Wake of int | Recover of int

type t = {
  params : params;
  sid : int;
  gstart : int;
  workload : Workload.t;
  members : pstate array;  (* global platforms [gstart, gstart + length) *)
  events : event Event_queue.t;
  metrics : Metrics.t;
  rr_cursor : int ref;  (* shard-local round-robin rotation *)
  (* id -> finalized (request, disposition); ids are fleet-unique, so
     the coordinator can merge shard tables without collisions *)
  finalized : (int, Request.t * Request.disposition) Hashtbl.t;
  mutable now : float;
  (* shared with the fleet so [Fleet.set_interceptor] after creation is
     seen here; the fleet only installs either on a one-shard fleet *)
  interceptor : (Request.t -> string option) option ref;
  crash_hooks : (int -> unit) list ref;
  mutable outbox : (float * Request.t) list;  (* reversed accumulation *)
}

let create ~params ~sid ~gstart ~workload ~interceptor ~crash_hooks ~now
    platforms =
  {
    params;
    sid;
    gstart;
    workload;
    members =
      Array.mapi
        (fun i platform ->
          {
            platform;
            index = gstart + i;
            queues = Array.init n_tiers (fun _ -> Queue.create ());
            busy = false;
            completed = 0;
            up = true;
            down_until = 0.0;
            breaker_until = 0.0;
            consecutive_failures = 0;
          })
        platforms;
    events = Event_queue.create ();
    metrics = Metrics.create ();
    rr_cursor = ref 0;
    finalized = Hashtbl.create 64;
    now;
    interceptor;
    crash_hooks;
    outbox = [];
  }

let sid t = t.sid
let now t = t.now
let metrics t = t.metrics
let finalized t = t.finalized
let member t g = t.members.(g - t.gstart)
let platform t g = (member t g).platform
let next_event_ms t = Event_queue.peek_ms t.events
let push_arrival t ~at_ms req = Event_queue.push t.events ~at_ms (Arrival req)

let take_outbox t =
  let o = List.rev t.outbox in
  t.outbox <- [];
  o

let completed_counts t = Array.map (fun (m : pstate) -> m.completed) t.members

let sessions t =
  Array.fold_left
    (fun acc (m : pstate) -> acc + m.platform.Platform.sessions_run)
    0 t.members

let machine_counter t name =
  Array.fold_left
    (fun acc (m : pstate) ->
      acc + Metrics.counter m.platform.Platform.machine.Machine.metrics name)
    0 t.members

let queued_depth (m : pstate) =
  Array.fold_left (fun acc q -> acc + Queue.length q) 0 m.queues

let finalize t req disposition =
  Hashtbl.replace t.finalized req.Request.id (req, disposition)

let transit_ms t ~bytes = Timing.network_ms t.params.timing ~bytes

(* One boundary convention for every deadline comparison, queued or
   completed: an instant exactly at the deadline is still on time. *)
let past_deadline ~deadline_ms ~at_ms =
  match deadline_ms with Some d -> at_ms > d | None -> false

let is_available t (m : pstate) = m.up && m.breaker_until <= t.now
let platform_up t g = is_available t (member t g)

let loads t =
  Array.map
    (fun m ->
      {
        Dispatch.queued = queued_depth m;
        busy = m.busy;
        available = is_available t m;
      })
    t.members

(* crash estimate: how long the dying batch would have run, so the crash
   point lands mid-session rather than at a phase boundary *)
let service_estimate t =
  match Metrics.histogram t.metrics "fleet.service_ms" with
  | Some h when h.Metrics.count > 0 -> h.Metrics.mean
  | _ -> 200.0

(* dispatch up to a batch on global platform [g] if it is up, idle, and
   has work; [admit]/[requeue] and [pump] are mutually recursive because
   a crash inside a dispatch re-admits the victims elsewhere *)
let rec pump t g =
  let m = member t g in
  if is_available t m && not m.busy then begin
    (* requests whose deadline passed while queued never reach a session *)
    let rec drop_expired q =
      match Queue.peek_opt q with
      | Some r
        when past_deadline ~deadline_ms:r.Request.deadline_ms ~at_ms:t.now ->
          ignore (Queue.pop q);
          Metrics.incr t.metrics "fleet.expired";
          finalize t r (Request.Expired { at_ms = t.now });
          drop_expired q
      | _ -> ()
    in
    Array.iter drop_expired m.queues;
    (* tiers drain strictly in priority order — Interactive ahead of any
       queued Batch work — but may share one session batch *)
    let rec take qi n acc =
      if n = 0 || qi >= n_tiers then List.rev acc
      else
        match Queue.take_opt m.queues.(qi) with
        | None -> take (qi + 1) n acc
        | Some r -> take qi (n - 1) (r :: acc)
    in
    match take 0 t.params.batch_size [] with
    | [] -> ()
    | batch -> (
        let k = List.length batch in
        (* clock coherence: bring this platform's idle clock up to the
           shard's virtual time before it serves anything *)
        let pnow = Platform.now_ms m.platform in
        if pnow < t.now then
          Clock.advance m.platform.Platform.machine.Machine.clock (t.now -. pnow);
        let crash_now =
          match Machine.injector m.platform.Platform.machine with
          | None -> None
          | Some inj -> Injector.session_crash inj ~now_ms:t.now
        in
        match crash_now with
        | Some frac ->
            (* the machine dies mid-session: the partially served batch
               is lost in flight, volatile state with it *)
            Machine.charge m.platform.Platform.machine
              (frac *. service_estimate t);
            crash t g ~victims:batch
        | None ->
            let dispatched = Platform.now_ms m.platform in
            m.busy <- true;
            Metrics.incr t.metrics "fleet.batches";
            Metrics.observe t.metrics "fleet.batch_fill" (float_of_int k);
            let results = t.workload.Workload.run_batch m.platform batch in
            let finished = Platform.now_ms m.platform in
            Metrics.observe t.metrics "fleet.service_ms" (finished -. dispatched);
            let results =
              if List.length results = k then results
              else
                List.map
                  (fun _ -> Error "workload returned wrong number of results")
                  batch
            in
            List.iter2
              (fun r result ->
                match result with
                | Ok output ->
                    let delivered =
                      finished +. transit_ms t ~bytes:(String.length output)
                    in
                    let latency = delivered -. r.Request.sent_ms in
                    (* the client's deadline is about when the response
                       reaches it, so the return transit counts *)
                    let missed =
                      past_deadline ~deadline_ms:r.Request.deadline_ms
                        ~at_ms:delivered
                    in
                    Metrics.incr t.metrics "fleet.completed";
                    if missed then Metrics.incr t.metrics "fleet.deadline_misses";
                    Metrics.observe t.metrics "fleet.latency_ms" latency;
                    m.completed <- m.completed + 1;
                    finalize t r
                      (Request.Completed
                         {
                           output;
                           platform = g;
                           batch = k;
                           dispatched_ms = dispatched;
                           finished_ms = finished;
                           latency_ms = latency;
                           missed_deadline = missed;
                         })
                | Error reason ->
                    Metrics.incr t.metrics "fleet.failed_executions";
                    requeue t r ~at_ms:finished ~reason)
              batch results;
            (* circuit breaker: a run of batches where nothing succeeded
               marks the member sick; shed its load instead of queueing
               more onto it *)
            if t.params.breaker_failures > 0 then begin
              let all_failed =
                List.for_all (fun r -> Result.is_error r) results
              in
              if not all_failed then m.consecutive_failures <- 0
              else begin
                m.consecutive_failures <- m.consecutive_failures + 1;
                if m.consecutive_failures >= t.params.breaker_failures then begin
                  m.consecutive_failures <- 0;
                  m.breaker_until <- finished +. t.params.breaker_cooldown_ms;
                  Metrics.incr t.metrics "fleet.breaker_opens";
                  Machine.fault_event m.platform.Platform.machine
                    "fleet.breaker_open"
                    ~args:[ ("platform", Flicker_obs.Tracer.Count g) ];
                  Event_queue.push t.events ~at_ms:m.breaker_until (Recover g);
                  shed_queue t g ~reason:"circuit breaker open"
                end
              end
            end;
            (* the machine is monopolized until [finished]; the Wake
               frees it and pulls the next batch *)
            Event_queue.push t.events ~at_ms:finished (Wake g))
  end

(* a request bounced off platform [g] (crash, shed, or failed execution):
   send it back through the dispatcher if its budget allows, else fail it
   explicitly *)
and requeue t r ~at_ms ~reason =
  if r.Request.attempts >= t.params.retry_budget then begin
    Metrics.incr t.metrics "fleet.failed";
    finalize t r (Request.Failed { at_ms; reason })
  end
  else begin
    Metrics.incr t.metrics "fleet.redispatched";
    admit t { r with Request.attempts = r.Request.attempts + 1 }
  end

(* re-dispatch everything queued on [g]: crash victims and breaker sheds
   both land here. Requests homed to [g] go back through [admit], which
   fails them explicitly while the member is unavailable. *)
and shed_queue t g ~reason =
  let m = member t g in
  let queued =
    List.concat_map
      (fun q ->
        let rs = List.of_seq (Queue.to_seq q) in
        Queue.clear q;
        rs)
      (Array.to_list m.queues)
  in
  List.iter
    (fun r ->
      requeue t r ~at_ms:t.now ~reason:(Printf.sprintf "platform %d: %s" g reason))
    queued

and crash t g ~victims =
  let m = member t g in
  let reboot_ms =
    match Machine.injector m.platform.Platform.machine with
    | Some inj -> (Injector.config inj).Injector.reboot_ms
    | None -> Injector.disabled.Injector.reboot_ms
  in
  Metrics.incr t.metrics "fleet.crashes";
  Machine.fault_event m.platform.Platform.machine "fleet.crash"
    ~args:[ ("platform", Flicker_obs.Tracer.Count g) ];
  (* volatile state is gone; TPM NV/keys survive (Platform.power_cycle) *)
  Platform.power_cycle m.platform;
  (* crash observers run before victims re-enter [admit], so a result
     cache invalidates this platform's entries ahead of any re-dispatch *)
  List.iter (fun hook -> hook g) !(t.crash_hooks);
  m.up <- false;
  m.busy <- false;
  m.down_until <- t.now +. reboot_ms;
  m.consecutive_failures <- 0;
  Event_queue.push t.events ~at_ms:m.down_until (Recover g);
  List.iter
    (fun r ->
      requeue t r ~at_ms:t.now
        ~reason:(Printf.sprintf "platform %d crashed mid-session" g))
    victims;
  shed_queue t g ~reason:"crashed mid-session"

and admit t req =
  let cached =
    match !(t.interceptor) with None -> None | Some f -> f req
  in
  match cached with
  | Some output ->
      (* served from the front end: the client still pays the return
         transit, but no platform queue or session is involved *)
      let delivered = t.now +. transit_ms t ~bytes:(String.length output) in
      let latency = delivered -. req.Request.sent_ms in
      let missed =
        past_deadline ~deadline_ms:req.Request.deadline_ms ~at_ms:delivered
      in
      Metrics.incr t.metrics "fleet.completed";
      Metrics.incr t.metrics "fleet.cache_served";
      if missed then Metrics.incr t.metrics "fleet.deadline_misses";
      Metrics.observe t.metrics "fleet.latency_ms" latency;
      finalize t req
        (Request.Completed
           {
             output;
             platform = -1;
             batch = 0;
             dispatched_ms = t.now;
             finished_ms = t.now;
             latency_ms = latency;
             missed_deadline = missed;
           })
  | None -> dispatch t req

and dispatch t req =
  match
    Dispatch.select ~gstart:t.gstart ~gtotal:t.params.gtotal t.params.policy
      ~cursor:t.rr_cursor ~request:req (loads t)
  with
  | None -> (
      (* no available platform on this shard can take it *)
      match req.Request.home with
      | Some h ->
          (* a homed request must fail loudly — rerouting it would
             silently serve without its sealed state *)
          Metrics.incr t.metrics "fleet.home_unavailable";
          finalize t req
            (Request.Failed
               {
                 at_ms = t.now;
                 reason =
                   Printf.sprintf
                     "home platform %d unavailable: sealed state cannot be \
                      served elsewhere"
                     h;
               })
      | None ->
          if req.Request.forwards < t.params.n_shards - 1 then begin
            (* another shard may still have capacity: hand the request to
               the next shard around the ring at the epoch barrier. The
               hop budget (none with one shard) guarantees a full circuit
               before giving up, so a request is only rejected once every
               shard has seen it — the sharded analogue of scanning the
               whole fleet. *)
            Metrics.incr t.metrics "fleet.forwarded";
            t.outbox <-
              (t.now, { req with Request.forwards = req.Request.forwards + 1 })
              :: t.outbox
          end
          else begin
            Metrics.incr t.metrics "fleet.rejected";
            finalize t req
              (Request.Rejected { at_ms = t.now; platform = -1; queue_depth = 0 })
          end)
  | Some local ->
      let m = t.members.(local) in
      let depth = queued_depth m in
      if depth >= t.params.queue_depth then begin
        Metrics.incr t.metrics "fleet.rejected";
        finalize t req
          (Request.Rejected
             { at_ms = t.now; platform = m.index; queue_depth = depth })
      end
      else begin
        Metrics.incr t.metrics "fleet.admitted";
        Queue.add req m.queues.(tier_index req.Request.tier);
        Metrics.observe t.metrics "fleet.queue_depth" (float_of_int (depth + 1));
        pump t m.index
      end

let crash_platform t g =
  let m = member t g in
  if m.up then crash t g ~victims:[]

let drain ?until_ms ~stop_before t =
  let within at =
    at < stop_before
    && match until_ms with None -> true | Some limit -> at <= limit
  in
  let rec loop () =
    match Event_queue.peek_ms t.events with
    | None -> ()
    | Some at when not (within at) -> ()
    | Some _ ->
        (match Event_queue.pop t.events with
        | None -> ()
        | Some (at, ev) -> (
            t.now <- max t.now at;
            match ev with
            | Arrival req -> admit t req
            | Wake g ->
                (member t g).busy <- false;
                pump t g
            | Recover g ->
                let m = member t g in
                if (not m.up) && m.down_until <= t.now then begin
                  m.up <- true;
                  m.consecutive_failures <- 0;
                  Machine.fault_event m.platform.Platform.machine "fleet.recover"
                    ~args:[ ("platform", Flicker_obs.Tracer.Count g) ]
                end;
                (* breaker cooldowns also land here: pumping is harmless
                   when the member is still unavailable *)
                pump t g));
        loop ()
  in
  loop ()
