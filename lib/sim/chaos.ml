module N = Naming.Name
module Co = Naming.Coherence

type config = {
  seed : int;
  replicas : int;
  drop : float;
  duplicate : float;
  partition_at : float;
  partition_for : float;
  crash_at : float;
  crash_for : float;
  writes : int;
  write_window : float;
  call_timeout : float;
  call_attempts : int;
  ae_period : float;
  ae_timeout : float;
  ae_attempts : int;
  sample_every : float;
  duration : float;
  dedup_window : int option;
  mode : Nameserver.mode;
  leader_kill_at : float;
  leader_kill_for : float;  (** 0.0 disables the leader-kill fault *)
  partition_leader : bool;
      (** cut the current leader (plus its client) off alone instead of
          splitting the cluster in static halves — [`Leader_log] only *)
  txn_deadline : float;
      (** overall client budget per transaction before it gives up and
          reports [Unknown] — [`Leader_log] only *)
}

let default =
  {
    seed = 42;
    replicas = 3;
    drop = 0.05;
    duplicate = 0.05;
    partition_at = 10.0;
    partition_for = 20.0;
    crash_at = 15.0;
    crash_for = 10.0;
    writes = 32;
    write_window = 30.0;
    call_timeout = 2.0;
    call_attempts = 6;
    ae_period = 2.0;
    ae_timeout = 2.0;
    ae_attempts = 3;
    sample_every = 2.0;
    duration = 80.0;
    dedup_window = None;
    mode = `Lww_ae;
    leader_kill_at = 15.0;
    leader_kill_for = 0.0;
    partition_leader = false;
    txn_deadline = 20.0;
  }

let mode_to_string = function `Lww_ae -> "lww" | `Leader_log -> "leader"

let mode_of_string = function
  | "lww" | "lww-ae" -> Some `Lww_ae
  | "leader" | "leader-log" -> Some `Leader_log
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Schedule introspection: pure functions of the config (and spec) that
   [run] below lays its faults and sampling grid out with, so analyzers
   can reason about a schedule without executing it. *)

let partition_sides cfg =
  if cfg.partition_for > 0.0 && cfg.replicas >= 2 then
    let half = max 1 (cfg.replicas / 2) in
    Some
      ( List.init half (fun i -> i),
        List.init (cfg.replicas - half) (fun i -> half + i) )
  else None

(* With [partition_leader] the membership of the sides is decided at
   partition time (whoever leads then is cut off alone), so only the
   sizes are statically known. *)
let partition_side_sizes cfg =
  Option.map
    (fun (left, right) ->
      if cfg.partition_leader && cfg.mode = `Leader_log then
        (1, cfg.replicas - 1)
      else (List.length left, List.length right))
    (partition_sides cfg)

let crash_victim cfg =
  if cfg.crash_for > 0.0 then Some (cfg.replicas - 1) else None

let leader_kill_window cfg =
  if cfg.mode = `Leader_log && cfg.leader_kill_for > 0.0 then
    Some (cfg.leader_kill_at, cfg.leader_kill_at +. cfg.leader_kill_for)
  else None

let heal_time cfg =
  let h = ref 0.0 in
  if partition_sides cfg <> None then
    h := Float.max !h (cfg.partition_at +. cfg.partition_for);
  if crash_victim cfg <> None then
    h := Float.max !h (cfg.crash_at +. cfg.crash_for);
  (match leader_kill_window cfg with
  | Some (_, e) -> h := Float.max !h e
  | None -> ());
  !h

let sample_times cfg =
  let rec go k acc =
    let t = float_of_int k *. cfg.sample_every in
    if t <= cfg.duration then go (k + 1) (t :: acc) else List.rev acc
  in
  go 1 []

let ae_first_tick cfg i =
  Nameserver.first_tick ~period:cfg.ae_period ~replicas:cfg.replicas i

(* A run's rng streams: the root generator, then network, cluster and
   write streams split from it in that order. [run] splits the clients'
   streams from the root afterwards. *)
let streams seed =
  let rng = Rng.create (Int64.of_int seed) in
  let net = Rng.split rng in
  let cluster = Rng.split rng in
  (rng, net, cluster, Rng.split rng)

type sample = { time : float; report : Co.report; converged : bool }

type result = {
  config : config;
  samples : sample list;
  final_report : Co.report;
  converged : bool;
  heal_at : float;
  converge_time : float option;
  rounds_to_converge : int option;
  writes_sent : int;
  writes_acked : int;
  writes_nacked : int;
  writes_lost : int;
  txns_committed : int;
  txns_aborted : int;
  txns_unknown : int;
  latency_mean : float;
  latency_max : float;
  net : Network.stat Counters.snapshot;
  server_rpc : Rpc.stat Counters.snapshot;
  client_rpc : Rpc.stat Counters.snapshot;
  ns : Nameserver.stat Counters.snapshot;
  events : int;
}

(* The write workload: rebinds and unbinds of the spec's leaf binding
   sites, so probe names actually change meaning mid-run. Everything is
   drawn from [wrng] up front, so the schedule is a pure function of the
   seed. *)
let plan_writes cfg (spec : Nameserver.spec) wrng =
  let sites =
    List.map
      (fun (path, _) -> Nameserver.split_last (N.prepend_root path))
      spec.links
  in
  let keys = List.map fst spec.leaves in
  if sites = [] || keys = [] then []
  else
    List.init cfg.writes (fun _ ->
        let time = Rng.float wrng cfg.write_window in
        let client = Rng.int wrng cfg.replicas in
        let path, atom = Rng.pick wrng sites in
        let target =
          if Rng.bool wrng 0.25 then None else Some (Rng.pick wrng keys)
        in
        (time, client, Nameserver.Write { path; atom; target }))

let planned_writes cfg spec =
  let _, _, _, write_rng = streams cfg.seed in
  plan_writes cfg spec write_rng

(* ------------------------------------------------------------------ *)
(* Running a schedule, in stages: inject faults, drive writes, sample,
   summarise. Only the write driver differs by tier. *)

(* One run's live parts, and the client-side write counts. Under
   [`Leader_log] every write is a transaction, and acked, nacked and lost
   count the committed, aborted and unknown ones. *)
type rig = {
  cfg : config;
  engine : Engine.t;
  network : (Nameserver.request, Nameserver.response) Rpc.message Network.t;
  cluster : Nameserver.t;
  clients :
    (Network.node_id
    * (Nameserver.request, Nameserver.response) Rpc.endpoint
    * Rng.t)
    array;
      (** one client per replica, on its own machine, partitioned
          together with its home replica *)
  mutable sent : int;
  mutable acked : int;
  mutable nacked : int;
  mutable lost : int;
  mutable latencies : float list;  (** of acked writes, newest first *)
}

let later rig delay f = ignore (Engine.schedule rig.engine ~delay f)

let inject_faults rig =
  let cfg = rig.cfg and network = rig.network in
  let node = Nameserver.replica_node rig.cluster in
  (match partition_sides cfg with
  | None -> ()
  | Some (left, right) ->
      let side ids =
        List.concat_map
          (fun i ->
            let cnode, _, _ = rig.clients.(i) in
            [ node i; cnode ])
          ids
      in
      later rig cfg.partition_at (fun () ->
          if cfg.partition_leader && cfg.mode = `Leader_log then begin
            (* cut whoever leads right now off alone (minority side) *)
            let l =
              Option.value (Nameserver.leader_of rig.cluster)
                ~default:(cfg.replicas - 1)
            in
            Network.partition network (side [ l ])
              (side (List.filter (( <> ) l) (left @ right)))
          end
          else Network.partition network (side left) (side right));
      later rig (cfg.partition_at +. cfg.partition_for) (fun () ->
          Network.heal network));
  Option.iter
    (fun v ->
      later rig cfg.crash_at (fun () ->
          Network.set_node_up network (node v) false);
      later rig (cfg.crash_at +. cfg.crash_for) (fun () ->
          Network.set_node_up network (node v) true))
    (crash_victim cfg);
  Option.iter
    (fun (kill_at, _) ->
      (* the targeted fault: whoever leads at [leader_kill_at] goes down *)
      later rig kill_at (fun () ->
          let l = Option.value (Nameserver.leader_of rig.cluster) ~default:0 in
          Network.set_node_up network (node l) false;
          later rig cfg.leader_kill_for (fun () ->
              Network.set_node_up network (node l) true)))
    (leader_kill_window cfg)

(* Counts the client-visible outcome of a write sent at [start]. *)
let count rig start = function
  | `Acked ->
      rig.acked <- rig.acked + 1;
      rig.latencies <- (Engine.now rig.engine -. start) :: rig.latencies
  | `Nacked -> rig.nacked <- rig.nacked + 1
  | `Lost -> rig.lost <- rig.lost + 1

(* `Lww_ae client: one retrying call to the client's home replica. *)
let send_write rig (time, client, req) =
  later rig time (fun () ->
      let _, ep, crng = rig.clients.(client) in
      rig.sent <- rig.sent + 1;
      let count = count rig (Engine.now rig.engine) in
      Rpc.call_retry ep
        ~to_:(Nameserver.replica_address rig.cluster client)
        ~timeout:rig.cfg.call_timeout ~rng:crng
        ~attempts:rig.cfg.call_attempts req
        ~on_reply:(function
          | Ok (Nameserver.Ack _) -> count `Acked
          | Ok (Nameserver.Nack _) -> count `Nacked
          | Ok _ -> ()
          | Error (`Timeout | `Unavailable) -> count `Lost))

(* `Leader_log client protocol: submit to a replica, follow Redirect
   hints to the leader, then poll the transaction's fate until it is
   Committed or Aborted — all under one overall txn_deadline, threaded
   into every RPC as the `Unavailable cutoff, after which the client
   gives up and records the outcome as unknown. *)
let submit_txn rig i (time, client, req) =
  match req with
  | Nameserver.Write { path; atom; target } ->
      later rig time (fun () ->
          let cfg = rig.cfg in
          let _, ep, crng = rig.clients.(client) in
          rig.sent <- rig.sent + 1;
          let start = Engine.now rig.engine in
          let deadline_at = start +. cfg.txn_deadline in
          let txn = { Nameserver.client; tseq = i } in
          let query = Nameserver.Query txn in
          let settled = ref false in
          let settle outcome =
            if not !settled then begin
              settled := true;
              count rig start outcome
            end
          in
          (* the same loop submits and then polls: [req] is the Submit
             until a replica accepts it, the Query after *)
          let rec call req replica =
            let next () = call req ((replica + 1) mod cfg.replicas) in
            let left = deadline_at -. Engine.now rig.engine in
            if left <= 0.0 then settle `Lost
            else
              (* cap each call well under the transaction budget: one
                 call to an unreachable replica must not eat the whole
                 deadline — the client needs budget left to rotate to a
                 live one *)
              Rpc.call_retry ep
                ~to_:(Nameserver.replica_address rig.cluster replica)
                ~timeout:cfg.call_timeout ~rng:crng
                ~attempts:cfg.call_attempts
                ~deadline:(Float.min left (2.0 *. cfg.call_timeout))
                req
                ~on_reply:(function
                  | Ok (Nameserver.Submitted _) -> call query replica
                  | Ok (Nameserver.Outcome_is Nameserver.Committed) ->
                      settle `Acked
                  | Ok (Nameserver.Outcome_is (Nameserver.Aborted _))
                  | Ok (Nameserver.Nack _) ->
                      settle `Nacked
                  | Ok (Nameserver.Outcome_is Nameserver.Pending) ->
                      later rig (cfg.ae_period /. 2.0) (fun () ->
                          call query replica)
                  | Ok (Nameserver.Redirect (Some l)) when l <> replica ->
                      later rig (cfg.call_timeout /. 4.0) (fun () -> call req l)
                  | Ok (Nameserver.Redirect _) ->
                      (* election in progress: wait a beat, try the next *)
                      later rig cfg.ae_period next
                  | Ok _ -> ()
                  | Error (`Timeout | `Unavailable) ->
                      later rig (cfg.call_timeout /. 4.0) next)
          in
          call
            (Nameserver.Submit
               { txn; action = Nameserver.Bind_group [ (path, atom, target) ] })
            client)
  | _ -> (* not a binding write: sent as under [`Lww_ae] *)
      send_write rig (time, client, req)

(* Issues the workload; the returned function settles the writes still
   open once the run has ended. *)
let drive_writes rig writes =
  match rig.cfg.mode with
  | `Lww_ae ->
      List.iter (send_write rig) writes;
      ignore
  | `Leader_log ->
      List.iteri (submit_txn rig) writes;
      fun () ->
        (* Transactions still in flight when the run ends never learned
           their fate: the client-visible outcome is unknown. *)
        rig.lost <- rig.sent - rig.acked - rig.nacked

(* Schedules the coherence samples; the returned function reads them
   back in time order. *)
let sample ?jobs rig probes =
  let samples = ref [] in
  List.iter
    (fun time ->
      later rig time (fun () ->
          let report = Nameserver.measure ?jobs rig.cluster probes in
          let converged = Nameserver.converged rig.cluster in
          samples := { time; report; converged } :: !samples))
    (sample_times rig.cfg);
  fun () -> List.rev !samples

let summarise ?jobs rig probes samples events =
  let cfg = rig.cfg in
  let latencies = List.rev rig.latencies in
  let heal_at = heal_time cfg in
  let final_report = Nameserver.measure ?jobs rig.cluster probes in
  let full (r : Co.report) = r.Co.incoherent = 0 in
  let converge_time =
    List.find_map
      (fun s ->
        if s.time >= heal_at && s.converged && full s.report then Some s.time
        else None)
      samples
  in
  let txns n = if cfg.mode = `Leader_log then n else 0 in
  {
    config = cfg;
    samples;
    final_report;
    converged = Nameserver.converged rig.cluster && full final_report;
    heal_at;
    converge_time;
    rounds_to_converge =
      Option.map
        (fun tc ->
          int_of_float (Float.ceil ((tc -. heal_at) /. cfg.ae_period)))
        converge_time;
    writes_sent = rig.sent;
    writes_acked = rig.acked;
    writes_nacked = rig.nacked;
    writes_lost = rig.lost;
    txns_committed = txns rig.acked;
    txns_aborted = txns rig.nacked;
    txns_unknown = txns rig.lost;
    latency_mean =
      (match latencies with
      | [] -> 0.0
      | ls -> List.fold_left ( +. ) 0.0 ls /. float_of_int (List.length ls));
    latency_max = List.fold_left Float.max 0.0 latencies;
    net = Network.stats rig.network;
    server_rpc =
      Counters.sum
        (List.init cfg.replicas (fun i ->
             Rpc.stats (Nameserver.endpoint rig.cluster i)));
    client_rpc =
      Counters.sum
        (Array.to_list
           (Array.map (fun (_, ep, _) -> Rpc.stats ep) rig.clients));
    ns = Nameserver.stats rig.cluster;
    events;
  }

let run ?jobs ?writes ~config:cfg ~spec ~probes () =
  let engine = Engine.create () in
  let rng, net_rng, cluster_rng, write_rng = streams cfg.seed in
  let net_config =
    {
      Network.default_config with
      drop_probability = cfg.drop;
      duplicate_probability = cfg.duplicate;
    }
  in
  let network = Network.create ~config:net_config ~engine ~rng:net_rng () in
  let cluster =
    Nameserver.create ~network ~rng:cluster_rng ~replicas:cfg.replicas
      ~mode:cfg.mode ?dedup_window:cfg.dedup_window spec
  in
  let clients =
    Array.init cfg.replicas (fun i ->
        let node = Network.add_node network ~label:(Printf.sprintf "c%d" i) in
        (node, Rpc.create network ~node ~port:9 (), Rng.split rng))
  in
  let rig =
    {
      cfg;
      engine;
      network;
      cluster;
      clients;
      sent = 0;
      acked = 0;
      nacked = 0;
      lost = 0;
      latencies = [];
    }
  in
  inject_faults rig;
  let settle_open =
    drive_writes rig
      (match writes with
      | Some w -> w
      | None -> plan_writes cfg spec write_rng)
  in
  let samples = sample ?jobs rig probes in
  let ae_timeout =
    match cfg.mode with
    | `Lww_ae -> cfg.ae_timeout
    | `Leader_log ->
        (* protocol replies must be awaited past a full round trip, or
           the leader never hears its followers and no election ever
           completes *)
        Float.max cfg.ae_timeout
          (2.5 *. (net_config.Network.latency +. net_config.Network.jitter))
  in
  Nameserver.start_anti_entropy ~period:cfg.ae_period ~timeout:ae_timeout
    ~attempts:cfg.ae_attempts cluster;
  let events = Engine.run ~until:cfg.duration engine in
  Nameserver.stop_anti_entropy cluster;
  settle_open ();
  summarise ?jobs rig probes (samples ()) events

(* ------------------------------------------------------------------ *)
(* Explicit schedules: a config plus the exact write workload, with a
   canonical JSON form. This is the exchange format between the
   schedule explorer and [namingctl chaos --schedule]: a witness the
   explorer emits replays verbatim. *)

module J = Naming.Json

type schedule = {
  config : config;
  writes : (float * int * Nameserver.request) list;
}

(* Every float prints in [Naming.Json]'s shortest round-trip form, so
   parsing a rendered schedule recovers the exact values and
   re-rendering the parse is byte-identical. *)
let schedule_to_json (s : schedule) =
  let cfg = s.config in
  let f x = J.Float x in
  let write (time, client, req) =
    match req with
    | Nameserver.Write { path; atom; target } ->
        J.Obj
          [
            ("time", f time);
            ("client", J.Int client);
            ("path", J.String (N.to_string (N.prepend_root path)));
            ("atom", J.String (N.atom_to_string atom));
            ( "target",
              match target with Some k -> J.String k | None -> J.Null );
          ]
    | _ -> invalid_arg "Chaos.schedule_to_json: workload contains a non-write"
  in
  J.to_string_pretty
    (J.Obj
       [
         ("version", J.Int 1);
         ( "config",
           J.Obj
             [
               ("seed", J.Int cfg.seed);
               ("replicas", J.Int cfg.replicas);
               ("drop", f cfg.drop);
               ("duplicate", f cfg.duplicate);
               ("partition_at", f cfg.partition_at);
               ("partition_for", f cfg.partition_for);
               ("crash_at", f cfg.crash_at);
               ("crash_for", f cfg.crash_for);
               ("writes", J.Int cfg.writes);
               ("write_window", f cfg.write_window);
               ("call_timeout", f cfg.call_timeout);
               ("call_attempts", J.Int cfg.call_attempts);
               ("ae_period", f cfg.ae_period);
               ("ae_timeout", f cfg.ae_timeout);
               ("ae_attempts", J.Int cfg.ae_attempts);
               ("sample_every", f cfg.sample_every);
               ("duration", f cfg.duration);
               ( "dedup_window",
                 match cfg.dedup_window with
                 | Some n -> J.Int n
                 | None -> J.Null );
               ("mode", J.String (mode_to_string cfg.mode));
               ("leader_kill_at", f cfg.leader_kill_at);
               ("leader_kill_for", f cfg.leader_kill_for);
               ("partition_leader", J.Bool cfg.partition_leader);
               ("txn_deadline", f cfg.txn_deadline);
             ] );
         ("writes", J.List (List.map write s.writes));
       ])

exception Bad_schedule of string

let schedule_of_json text : (schedule, string) Stdlib.result =
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad_schedule m)) fmt in
  let number what = function
    | J.Int i -> float_of_int i
    | J.Float f -> f
    | _ -> bad "%s must be a number" what
  in
  let integer what = function
    | J.Int i -> i
    | J.Float f when Float.is_integer f -> int_of_float f
    | J.Float _ -> bad "%s must be an integer" what
    | _ -> bad "%s must be a number" what
  in
  let field kind kvs name =
    match List.assoc_opt name kvs with
    | Some v -> v
    | None -> bad "missing %s %S" kind name
  in
  match J.of_string text with
  | Error m -> Error m
  | Ok doc -> (
      try
        let top =
          match doc with
          | J.Obj kvs -> kvs
          | _ -> bad "schedule must be a JSON object"
        in
        (match field "field" top "version" with
        | J.Int 1 | J.Float 1.0 -> ()
        | _ -> bad "unsupported schedule version (expected 1)");
        let cobj =
          match field "field" top "config" with
          | J.Obj o -> o
          | _ -> bad "\"config\" must be an object"
        in
        let what name = Printf.sprintf "config field %S" name in
        let ff name = number (what name) (field "config field" cobj name) in
        let fi name = integer (what name) (field "config field" cobj name) in
        (* Fields absent from witness files written before the leader
           tier default to the values those schedules in fact ran with,
           so every old witness still parses and replays identically. *)
        let or_default name conv default =
          match List.assoc_opt name cobj with
          | Some v -> conv v
          | None -> default
        in
        let number_or name default =
          or_default name (number (what name)) default
        in
        let config =
          {
            seed = fi "seed";
            replicas = fi "replicas";
            drop = ff "drop";
            duplicate = ff "duplicate";
            partition_at = ff "partition_at";
            partition_for = ff "partition_for";
            crash_at = ff "crash_at";
            crash_for = ff "crash_for";
            writes = fi "writes";
            write_window = ff "write_window";
            call_timeout = ff "call_timeout";
            call_attempts = fi "call_attempts";
            ae_period = ff "ae_period";
            ae_timeout = ff "ae_timeout";
            ae_attempts = fi "ae_attempts";
            sample_every = ff "sample_every";
            duration = ff "duration";
            dedup_window =
              (match field "config field" cobj "dedup_window" with
              | J.Null -> None
              | v -> Some (integer (what "dedup_window") v));
            mode =
              or_default "mode"
                (function
                  | J.String s -> (
                      match mode_of_string s with
                      | Some m -> m
                      | None ->
                          bad "unknown mode %S (expected lww or leader)" s)
                  | _ -> bad "config field \"mode\" must be a string")
                `Lww_ae;
            leader_kill_at = number_or "leader_kill_at" default.leader_kill_at;
            leader_kill_for =
              number_or "leader_kill_for" default.leader_kill_for;
            partition_leader =
              or_default "partition_leader"
                (function
                  | J.Bool v -> v
                  | _ -> bad "config field \"partition_leader\" must be a bool")
                default.partition_leader;
            txn_deadline = number_or "txn_deadline" default.txn_deadline;
          }
        in
        if config.replicas < 1 then bad "config.replicas must be >= 1";
        List.iter
          (fun (name, p) ->
            if not (p >= 0.0 && p <= 1.0) then
              bad "config.%s (%g) must lie in [0, 1]" name p)
          [ ("drop", config.drop); ("duplicate", config.duplicate) ];
        let parse_write = function
          | J.Obj o ->
              let wfield = field "write field" o in
              let time = number "write field \"time\"" (wfield "time") in
              let client = integer "write field \"client\"" (wfield "client") in
              if client < 0 || client >= config.replicas then
                bad "write client %d out of range for %d replicas" client
                  config.replicas;
              let path =
                match wfield "path" with
                | J.String p -> (
                    try N.prepend_root (N.of_string p)
                    with N.Invalid m -> bad "invalid write path %S: %s" p m)
                | _ -> bad "write field \"path\" must be a string"
              in
              let atom =
                match wfield "atom" with
                | J.String a -> (
                    try N.atom a
                    with N.Invalid m -> bad "invalid write atom %S: %s" a m)
                | _ -> bad "write field \"atom\" must be a string"
              in
              let target =
                match wfield "target" with
                | J.Null -> None
                | J.String k -> Some k
                | _ -> bad "write field \"target\" must be a string or null"
              in
              (time, client, Nameserver.Write { path; atom; target })
          | _ -> bad "each write must be an object"
        in
        let writes =
          match field "field" top "writes" with
          | J.List ws -> List.map parse_write ws
          | _ -> bad "\"writes\" must be an array"
        in
        if config.writes <> List.length writes then
          bad
            "config.writes (%d) must equal the length of the writes array (%d)"
            config.writes (List.length writes);
        Ok { config; writes }
      with Bad_schedule msg -> Error msg)

let run_schedule ?jobs ~spec ~probes (s : schedule) =
  run ?jobs ~writes:s.writes ~config:s.config ~spec ~probes ()

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let degree (r : Co.report) = Co.degree r

let coherence_json (rep : Co.report) =
  J.Obj
    [
      ("probes", J.Int rep.Co.probes);
      ("coherent", J.Int rep.Co.coherent);
      ("weakly_coherent", J.Int rep.Co.weakly_coherent);
      ("incoherent", J.Int rep.Co.incoherent);
      ("vacuous", J.Int rep.Co.vacuous);
      ("degree", J.fixed 4 (degree rep));
    ]

let report_json ~scheme (r : result) =
  let cfg = r.config in
  let opt conv = function Some v -> conv v | None -> J.Null in
  J.Obj
    [
      ("scheme", J.String scheme);
      ("seed", J.Int cfg.seed);
      ( "config",
        J.Obj
          [
            ("mode", J.String (mode_to_string cfg.mode));
            ("replicas", J.Int cfg.replicas);
            ("drop", J.fixed 4 cfg.drop);
            ("duplicate", J.fixed 4 cfg.duplicate);
            ("partition_at", J.fixed 3 cfg.partition_at);
            ("partition_for", J.fixed 3 cfg.partition_for);
            ("crash_at", J.fixed 3 cfg.crash_at);
            ("crash_for", J.fixed 3 cfg.crash_for);
            ("leader_kill_at", J.fixed 3 cfg.leader_kill_at);
            ("leader_kill_for", J.fixed 3 cfg.leader_kill_for);
            ("partition_leader", J.Bool cfg.partition_leader);
            ("writes", J.Int cfg.writes);
            ("ae_period", J.fixed 3 cfg.ae_period);
            ("duration", J.fixed 3 cfg.duration);
          ] );
      ("converged", J.Bool r.converged);
      ("heal_at", J.fixed 3 r.heal_at);
      ("converge_time", opt (J.fixed 3) r.converge_time);
      ("rounds_to_converge", opt (fun n -> J.Int n) r.rounds_to_converge);
      ( "writes",
        J.Obj
          [
            ("sent", J.Int r.writes_sent);
            ("acked", J.Int r.writes_acked);
            ("nacked", J.Int r.writes_nacked);
            ("lost", J.Int r.writes_lost);
          ] );
      ( "txns",
        J.Obj
          [
            ("committed", J.Int r.txns_committed);
            ("aborted", J.Int r.txns_aborted);
            ("unknown", J.Int r.txns_unknown);
          ] );
      ( "latency",
        J.Obj
          [
            ("mean", J.fixed 4 r.latency_mean);
            ("max", J.fixed 4 r.latency_max);
          ] );
      ( "samples",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("time", J.fixed 3 s.time);
                   ("converged", J.Bool s.converged);
                   ("coherence", coherence_json s.report);
                 ])
             r.samples) );
      ("final", coherence_json r.final_report);
      ("net", Counters.to_json r.net);
      ("server_rpc", Counters.to_json r.server_rpc);
      ("client_rpc", Counters.to_json r.client_rpc);
      ("nameserver", Counters.to_json r.ns);
      ("events", J.Int r.events);
    ]

let to_json ~scheme r = J.to_string_pretty (report_json ~scheme r)

let pp_summary ~scheme ppf (r : result) =
  Format.fprintf ppf "@[<v>%s: %s@," scheme
    (if r.converged then "replicas reconverged" else
       "REPLICAS FAILED TO RECONVERGE");
  Format.fprintf ppf
    "  writes: %d sent, %d acked, %d lost; heal at %.1f; converged %s@,"
    r.writes_sent r.writes_acked r.writes_lost r.heal_at
    (match (r.converge_time, r.rounds_to_converge) with
    | Some t, Some n ->
        Printf.sprintf "at t=%.1f (%d anti-entropy rounds after heal)" t n
    | _ -> "never");
  if r.config.mode = `Leader_log then
    Format.fprintf ppf
      "  txns: %d committed, %d aborted, %d unknown; commit latency \
       mean=%.2f max=%.2f@,"
      r.txns_committed r.txns_aborted r.txns_unknown r.latency_mean
      r.latency_max;
  Format.fprintf ppf "  net: %a@,  server rpc: %a@,  clients: %a@,  ns: %a@,"
    Counters.pp r.net Counters.pp r.server_rpc Counters.pp r.client_rpc
    Counters.pp r.ns;
  Format.fprintf ppf "  coherence degree over time:@,";
  List.iter
    (fun s ->
      Format.fprintf ppf "    t=%6.1f  degree=%.4f  incoherent=%3d%s@,"
        s.time (degree s.report) s.report.Co.incoherent
        (if s.converged then "  [converged]" else ""))
    r.samples;
  Format.fprintf ppf "  final: %a@]" Co.pp_report r.final_report
