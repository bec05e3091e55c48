module R = Netaddr.Registry
module Ps = Schemes.Pqid_scheme

type survival_point = {
  ops_applied : int;
  full_valid : float;
  partial_valid : float;
  partial_local_valid : float;
  partial_same_machine_valid : float;
}

type transit_result = {
  messages : int;
  mapped_correct : float;
  unmapped_correct : float;
}

type result = { survival : survival_point list; transit : transit_result }

let topology =
  [
    ("net1", [ ("m11", 3); ("m12", 3); ("m13", 3) ]);
    ("net2", [ ("m21", 3); ("m22", 3) ]);
  ]

let fraction_of preds =
  match preds with
  | [] -> 1.0
  | _ ->
      float_of_int (List.length (List.filter Fun.id preds))
      /. float_of_int (List.length preds)

let same_machine reg a b =
  Int.equal
    (R.machine_of_proc reg a : R.mach :> int)
    (R.machine_of_proc reg b : R.mach :> int)

let same_network reg a b =
  Int.equal
    (R.network_of_mach reg (R.machine_of_proc reg a) : R.net :> int)
    (R.network_of_mach reg (R.machine_of_proc reg b) : R.net :> int)

let n_ops = 8
let connections_per_proc = 3

let measure ?(seed = 42L) () =
  let rng = Dsim.Rng.create seed in
  let engine = Dsim.Engine.create () in
  let t = Ps.build ~topology ~engine ~rng:(Dsim.Rng.split rng) () in
  let reg = Ps.registry t in
  let procs = Ps.processes t in
  (* Connections. *)
  let connections =
    List.concat_map
      (fun holder ->
        List.init connections_per_proc (fun _ ->
            let rec pick () =
              let target = Dsim.Rng.pick rng procs in
              if Int.equal (target : R.proc :> int) (holder : R.proc :> int)
              then pick ()
              else target
            in
            let target = pick () in
            let full = Ps.connect t ~holder ~target ~qualification:`Full in
            let partial = Ps.connect t ~holder ~target ~qualification:`Partial in
            let local =
              same_machine reg holder target || same_network reg holder target
            in
            let same_mach = same_machine reg holder target in
            (full, partial, local, same_mach)))
      procs
  in
  let survival_point ops_applied =
    {
      ops_applied;
      full_valid =
        fraction_of
          (List.map (fun (f, _, _, _) -> Ps.connection_valid t f) connections);
      partial_valid =
        fraction_of
          (List.map (fun (_, p, _, _) -> Ps.connection_valid t p) connections);
      partial_local_valid =
        fraction_of
          (List.filter_map
             (fun (_, p, local, _) ->
               if local then Some (Ps.connection_valid t p) else None)
             connections);
      partial_same_machine_valid =
        fraction_of
          (List.filter_map
             (fun (_, p, _, same_mach) ->
               if same_mach then Some (Ps.connection_valid t p) else None)
             connections);
    }
  in
  let survival = ref [ survival_point 0 ] in
  for i = 1 to n_ops do
    let _ops = Workload.Reconfig.random_ops reg ~rng ~n:1 () in
    survival := survival_point i :: !survival
  done;
  let survival = List.rev !survival in
  (* Transit mapping, measured on the reconfigured system. *)
  let n_messages = 200 in
  let random_triple () =
    let from = Dsim.Rng.pick rng procs in
    let rec pick_other p =
      let x = Dsim.Rng.pick rng procs in
      if Int.equal (x : R.proc :> int) (p : R.proc :> int) then pick_other p
      else x
    in
    let to_ = pick_other from in
    let target = Dsim.Rng.pick rng procs in
    (from, to_, target)
  in
  let triples = List.init n_messages (fun _ -> random_triple ()) in
  let phase ~mapped =
    List.iter
      (fun (from, to_, target) -> Ps.send_pid t ~from ~to_ ~target ~mapped)
      triples;
    ignore (Dsim.Engine.run engine);
    let delivered = Ps.deliveries t in
    fraction_of (List.map (fun d -> Ps.resolution_correct t d) delivered)
  in
  let mapped_correct = phase ~mapped:true in
  let unmapped_correct = phase ~mapped:false in
  {
    survival;
    transit = { messages = n_messages; mapped_correct; unmapped_correct };
  }

let run ppf =
  let r = measure () in
  Format.fprintf ppf
    "E7 (section 6, Example 1): partially vs fully qualified pids.@\n\
     Topology: 2 networks, 5 machines, 15 processes; random renumbering
events. Paper: partially qualified pids of processes within the renamed
machine/network remain valid (internal connections survive); fully
qualified pids break. Pids embedded in messages need the R(sender)
mapping to stay meaningful.@\n@\n";
  Format.pp_print_string ppf
    (Table.render
       ~aligns:
         [ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
       ~headers:
         [ "renumber ops"; "full pids valid"; "partial pids valid";
           "partial (local) valid"; "partial (same machine)" ]
       (List.map
          (fun p ->
            [
              string_of_int p.ops_applied;
              Table.fraction p.full_valid;
              Table.fraction p.partial_valid;
              Table.fraction p.partial_local_valid;
              Table.fraction p.partial_same_machine_valid;
            ])
          r.survival));
  Format.fprintf ppf
    "@\npid transit over the message network (%d messages):@\n"
    r.transit.messages;
  Format.pp_print_string ppf
    (Table.render ~aligns:[ Table.Left; Table.Right; Table.Right ]
       ~headers:[ "variant"; "receiver resolves correctly"; "paper" ]
       [
         [ "R(sender) mapping"; Table.fraction r.transit.mapped_correct; "1.0" ];
         [
           "no mapping (R(receiver))";
           Table.fraction r.transit.unmapped_correct;
           "< 1";
         ];
       ])
