module N = Naming.Name
module E = Naming.Entity
module O = Naming.Occurrence
module C = Naming.Coherence
module Nc = Schemes.Newcastle

type result = {
  cross_system_plain : float;
  superroot_all_machines : float;
  mapping_across_systems : float;
  nested_dotdot_depth_ok : bool;
}

let build () =
  let store = Naming.Store.create () in
  let ta = Nc.build ~machines:[ "u1"; "u2" ] store in
  let tb = Nc.build ~machines:[ "v1"; "v2" ] store in
  let joined = Nc.join store [ ("sysA", ta); ("sysB", tb) ] in
  (store, joined)

let measure () =
  let store, t = build () in
  let machines = Nc.machines t in
  let procs = List.map (fun m -> (m, Nc.spawn_on t ~machine:m)) machines in
  let all = List.map snd procs in
  let rule = Nc.rule t in
  let probes = Nc.absolute_probes t ~machine:"sysA.u1" ~max_depth:4 in
  let cross_system_plain =
    C.degree (C.measure store rule (List.map O.generated all) probes)
  in
  (* Deep-qualified names: map every machine's probes into super-root
     form, then measure across every process. *)
  let super_probes =
    List.concat_map
      (fun m ->
        List.map
          (fun n -> Nc.map_name t ~from_machine:m ~to_machine:"sysB.v2" n)
          (Nc.absolute_probes t ~machine:m ~max_depth:4))
      machines
  in
  let superroot_all_machines =
    C.degree (C.measure store rule (List.map O.generated all) super_probes)
  in
  (* Mapping across the original system boundary. *)
  let pa = List.assoc "sysA.u1" procs in
  let pb = List.assoc "sysB.v1" procs in
  let mapping_across_systems =
    Fixture.fraction_equal
      (List.map
         (fun n ->
           let intended = Schemes.Process_env.resolve (Nc.env t) ~as_:pa n in
           let mapped =
             Nc.map_name t ~from_machine:"sysA.u1" ~to_machine:"sysB.v1" n
           in
           let got = Schemes.Process_env.resolve (Nc.env t) ~as_:pb mapped in
           (intended, got))
         probes)
  in
  let nested_dotdot_depth_ok =
    E.equal (Nc.super_root t)
      (Schemes.Process_env.resolve_str (Nc.env t) ~as_:pa "/../..")
  in
  {
    cross_system_plain;
    superroot_all_machines;
    mapping_across_systems;
    nested_dotdot_depth_ok;
  }

let run ppf =
  let r = measure () in
  Format.fprintf ppf
    "A2 (section 5.3): recursive Newcastle extension — two 2-machine
systems joined under a fresh super-root. Paper: the joined system is
still a single naming tree, so the same (deeper) '..'-qualification and
mapping rules apply.@\n@\n";
  Format.pp_print_string ppf
    (Table.render ~aligns:[ Table.Left; Table.Right; Table.Right ]
       ~headers:[ "measurement"; "measured"; "paper" ]
       [
         [
           "'/'-names across systems";
           Table.fraction r.cross_system_plain;
           "0.0";
         ];
         [
           "'/../../sys/machine' names, everywhere";
           Table.fraction r.superroot_all_machines;
           "1.0";
         ];
         [
           "mapping across system boundary";
           Table.fraction r.mapping_across_systems;
           "1.0";
         ];
         [
           "'/../..' reaches the joined super-root";
           (if r.nested_dotdot_depth_ok then "true" else "false");
           "true";
         ];
       ])
