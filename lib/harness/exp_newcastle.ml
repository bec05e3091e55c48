module N = Naming.Name
module O = Naming.Occurrence
module Nc = Schemes.Newcastle

type result = {
  same_machine : float;
  cross_machine : float;
  superroot_qualified : float;
  mapping_correct : float;
  invoker_param_coherence : float;
  invoker_local_access : float;
  remote_param_coherence : float;
  remote_local_access : float;
}

let machine_names = [ "unix1"; "unix2"; "unix3" ]

let build () =
  let store = Naming.Store.create () in
  let t = Nc.build ~machines:machine_names store in
  let procs =
    List.map
      (fun m -> (m, List.init 2 (fun i ->
           Nc.spawn_on ~label:(Printf.sprintf "%s.p%d" m i) t ~machine:m)))
      machine_names
  in
  (t, procs)

let measure () =
  let t, procs = build () in
  let store = Nc.store t in
  let rule = Nc.rule t in
  let all_procs = List.concat_map snd procs in
  let probes_of m = Nc.absolute_probes t ~machine:m ~max_depth:4 in
  (* (a) same machine vs cross machine, machine-absolute names. *)
  let same_machine =
    Fixture.mean
      (List.map
         (fun (m, ps) ->
           Fixture.degree store rule (List.map O.generated ps) (probes_of m))
         procs)
  in
  let cross_machine =
    Fixture.degree store rule
      (List.map O.generated all_procs)
      (probes_of "unix1")
  in
  (* (b) super-root-qualified names are coherent everywhere. *)
  let super_probes =
    List.concat_map
      (fun m ->
        List.map
          (fun n -> Nc.map_name t ~from_machine:m ~to_machine:"unix1" n)
          (probes_of m))
      machine_names
  in
  let superroot_qualified =
    Fixture.degree store rule (List.map O.generated all_procs) super_probes
  in
  (* (c) the mapping rule restores the original meaning on another machine. *)
  let p1 = List.hd (List.assoc "unix1" procs) in
  let p2 = List.hd (List.assoc "unix2" procs) in
  let mapping_correct =
    Fixture.fraction_equal
      (List.map
         (fun n ->
           let intended = Schemes.Process_env.resolve (Nc.env t) ~as_:p1 n in
           let mapped = Nc.map_name t ~from_machine:"unix1" ~to_machine:"unix2" n in
           let got = Schemes.Process_env.resolve (Nc.env t) ~as_:p2 mapped in
           (intended, got))
         (probes_of "unix1"))
  in
  (* (d) remote execution policies. *)
  let parent = p1 in
  let native2 = p2 in
  let exec policy =
    Nc.remote_exec ~label:"child" t ~parent ~machine:"unix2" ~policy
  in
  let param_coherence child =
    let events =
      List.map
        (fun name -> { Workload.Exchange.sender = parent; receiver = child; name })
        (probes_of "unix1")
    in
    Workload.Exchange.coherent_fraction store rule events
  in
  let local_access child =
    Fixture.fraction_equal
      (List.map
         (fun n ->
           let intended =
             Schemes.Process_env.resolve (Nc.env t) ~as_:native2 n
           in
           let got = Schemes.Process_env.resolve (Nc.env t) ~as_:child n in
           (intended, got))
         (probes_of "unix2"))
  in
  let child_invoker = exec Nc.Invoker_root in
  let child_remote = exec Nc.Remote_root in
  {
    same_machine;
    cross_machine;
    superroot_qualified;
    mapping_correct;
    invoker_param_coherence = param_coherence child_invoker;
    invoker_local_access = local_access child_invoker;
    remote_param_coherence = param_coherence child_remote;
    remote_local_access = local_access child_remote;
  }

let run ppf =
  let r = measure () in
  Format.fprintf ppf
    "E3 (Figure 3): Newcastle Connection, machines %s, 2 processes each.@\n\
     Paper: coherence for '/'-names only among processes with the same root
(same machine); incoherence across machines; '..'-qualified names and the
simple mapping rule work everywhere; remote execution gives either
parameter coherence (invoker root) or local access (remote root), not both.@\n@\n"
    (String.concat ", " machine_names);
  Format.pp_print_string ppf
    (Table.render ~aligns:[ Table.Left; Table.Right; Table.Right ]
       ~headers:[ "measurement"; "measured"; "paper" ]
       [
         [ "same-machine '/'-names"; Table.fraction r.same_machine; "1.0" ];
         [ "cross-machine '/'-names"; Table.fraction r.cross_machine; "0.0" ];
         [
           "'/../unixK/...'-names, all machines";
           Table.fraction r.superroot_qualified;
           "1.0";
         ];
         [ "mapped names correct"; Table.fraction r.mapping_correct; "1.0" ];
       ]);
  Format.fprintf ppf "@\nremote execution from unix1 to unix2:@\n";
  Format.pp_print_string ppf
    (Table.render ~aligns:[ Table.Left; Table.Right; Table.Right ]
       ~headers:[ "policy"; "param coherence"; "local access" ]
       [
         [
           "invoker root";
           Table.fraction r.invoker_param_coherence;
           Table.fraction r.invoker_local_access;
         ];
         [
           "remote root";
           Table.fraction r.remote_param_coherence;
           Table.fraction r.remote_local_access;
         ];
       ])
