module N = Naming.Name
module E = Naming.Entity
module O = Naming.Occurrence
module Sg = Schemes.Shared_graph

type result = {
  shared_names_all_clients : float;
  local_names_within_client : float;
  local_names_across_clients : float;
  replicated_strict : float;
  replicated_weak : float;
  remote_exec_shared_params : float;
  remote_exec_local_params : float;
}

let client_names = [ "client1"; "client2"; "client3" ]

let replicated_files =
  [ ("bin/ls", "ls binary"); ("bin/sh", "sh binary"); ("lib/libc.a", "libc") ]

let build () =
  let store = Naming.Store.create () in
  let t = Sg.build ~clients:client_names store in
  List.iter
    (fun (path, content) -> Sg.replicate_local t ~path ~content)
    replicated_files;
  let procs =
    List.map
      (fun c -> (c, List.init 2 (fun i ->
           Sg.spawn_on ~label:(Printf.sprintf "%s.p%d" c i) t ~client:c)))
      client_names
  in
  (t, procs)

let measure () =
  let t, procs = build () in
  let store = Sg.store t in
  let rule = Sg.rule t in
  let all_procs = List.concat_map snd procs in
  let shared_probes = Sg.shared_probes t ~max_depth:5 in
  let local_probes c = Sg.local_probes t ~client:c ~max_depth:5 in
  let replicated_probes =
    List.map (fun (p, _) -> N.prepend_root (N.of_string p)) replicated_files
  in
  let gen ps = List.map O.generated ps in
  let shared_names_all_clients =
    Fixture.degree store rule (gen all_procs) shared_probes
  in
  let local_names_within_client =
    Fixture.mean
      (List.map
         (fun (c, ps) -> Fixture.degree store rule (gen ps) (local_probes c))
         procs)
  in
  let local_names_across_clients =
    Fixture.degree store rule (gen all_procs) (local_probes "client1")
  in
  let replicated_strict =
    Fixture.degree store rule (gen all_procs) replicated_probes
  in
  let replicated_weak =
    Fixture.degree
      ~equiv:(Naming.Replication.same_replica (Sg.replication t))
      store rule (gen all_procs) replicated_probes
  in
  (* Andrew-style remote execution: child rooted at the remote client. *)
  let parent = List.hd (List.assoc "client1" procs) in
  let child = Sg.remote_exec ~label:"child" t ~parent ~client:"client2" in
  let param_coherence probes =
    let events =
      List.map
        (fun name -> { Workload.Exchange.sender = parent; receiver = child; name })
        probes
    in
    Workload.Exchange.coherent_fraction store rule events
  in
  {
    shared_names_all_clients;
    local_names_within_client;
    local_names_across_clients;
    replicated_strict;
    replicated_weak;
    remote_exec_shared_params = param_coherence shared_probes;
    remote_exec_local_params = param_coherence (local_probes "client1");
  }

let run ppf =
  let r = measure () in
  Format.fprintf ppf
    "E4 (Figure 4): shared naming graph among clients %s (attachment
'/vice'), with replicated /bin and /lib instances per client.@\n\
     Paper: only shared-graph names are global; local names cohere within a
client only; replicated commands are weakly but not strictly coherent;
remote execution can pass only shared-graph names.@\n@\n"
    (String.concat ", " client_names);
  Format.pp_print_string ppf
    (Table.render ~aligns:[ Table.Left; Table.Right; Table.Right ]
       ~headers:[ "measurement"; "measured"; "paper" ]
       [
         [
           "/vice names, all clients";
           Table.fraction r.shared_names_all_clients;
           "1.0";
         ];
         [
           "local names, within client";
           Table.fraction r.local_names_within_client;
           "1.0";
         ];
         [
           "local names, across clients";
           Table.fraction r.local_names_across_clients;
           "0.0";
         ];
         [
           "replicated /bin (strict)";
           Table.fraction r.replicated_strict;
           "0.0";
         ];
         [ "replicated /bin (weak)"; Table.fraction r.replicated_weak; "1.0" ];
         [
           "remote-exec params: shared names";
           Table.fraction r.remote_exec_shared_params;
           "1.0";
         ];
         [
           "remote-exec params: local names";
           Table.fraction r.remote_exec_local_params;
           "0.0";
         ];
       ])
