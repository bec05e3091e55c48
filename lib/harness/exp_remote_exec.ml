module N = Naming.Name
module Nc = Schemes.Newcastle
module Pp = Schemes.Per_process

type row = {
  mechanism : string;
  param_coherence : float;
  local_access : float;
}

let param_coherence store rule ~parent ~child probes =
  let events =
    List.map
      (fun name -> { Workload.Exchange.sender = parent; receiver = child; name })
      probes
  in
  Workload.Exchange.coherent_fraction store rule events

let newcastle_row policy label =
  let store = Naming.Store.create () in
  let t = Nc.build ~machines:[ "sub1"; "sub2" ] store in
  let parent = Nc.spawn_on ~label:"parent" t ~machine:"sub1" in
  let native = Nc.spawn_on ~label:"native" t ~machine:"sub2" in
  let child = Nc.remote_exec ~label:"child" t ~parent ~machine:"sub2" ~policy in
  let params = Nc.absolute_probes t ~machine:"sub1" ~max_depth:4 in
  let local_probes = Nc.absolute_probes t ~machine:"sub2" ~max_depth:4 in
  let env = Nc.env t in
  {
    mechanism = label;
    param_coherence =
      param_coherence store (Nc.rule t) ~parent ~child params;
    local_access =
      Fixture.fraction_equal
        (List.map
           (fun n ->
             ( Schemes.Process_env.resolve env ~as_:native n,
               Schemes.Process_env.resolve env ~as_:child n ))
           local_probes);
  }

let per_process_row () =
  let store = Naming.Store.create () in
  let tree = Schemes.Unix_scheme.default_tree in
  let t = Pp.build ~subsystems:[ ("sub1", tree); ("sub2", tree) ] store in
  let parent = Pp.spawn ~label:"parent" ~attach:[ ("fs1", "sub1") ] t in
  let child = Pp.remote_exec ~label:"child" ~local_name:"local" t ~parent
      ~subsystem:"sub2"
  in
  let params = Pp.namespace_probes t parent ~max_depth:4 in
  let env = Pp.env t in
  (* Local access: the executing subsystem's objects, reached through the
     child's "/local" attachment, must be sub2's own entities. *)
  let sub2_fs = Pp.subsystem_fs t "sub2" in
  let sub2_names =
    match Naming.Store.context_of store (Vfs.Fs.root sub2_fs) with
    | None -> []
    | Some ctx -> Naming.Graph.all_names store ctx ~max_depth:3 ()
  in
  {
    mechanism = "per-process namespace";
    param_coherence = param_coherence store (Pp.rule t) ~parent ~child params;
    local_access =
      Fixture.fraction_equal
        (List.map
           (fun (n, intended) ->
             let via_child =
               Schemes.Process_env.resolve env ~as_:child
                 (N.append (N.of_strings [ "/"; "local" ]) n)
             in
             (intended, via_child))
           sub2_names);
  }

let measure () =
  [
    newcastle_row Nc.Invoker_root "newcastle, invoker root";
    newcastle_row Nc.Remote_root "newcastle, remote root";
    per_process_row ();
  ]

let run ppf =
  let rows = measure () in
  Format.fprintf ppf
    "E8 (section 6, II): remote execution from sub1 to sub2 under three
namespace mechanisms. Paper: a fixed per-machine root gives either
parameter coherence or local access; the per-process view gives both.@\n@\n";
  Format.pp_print_string ppf
    (Table.render ~aligns:[ Table.Left; Table.Right; Table.Right ]
       ~headers:[ "mechanism"; "param coherence"; "local access" ]
       (List.map
          (fun r ->
            [
              r.mechanism;
              Table.fraction r.param_coherence;
              Table.fraction r.local_access;
            ])
          rows))
