module N = Naming.Name
module E = Naming.Entity
module S = Naming.Store

(* Plant a document embedding the given names in the directory [dir]. *)
let plant_doc store ~dir ~refs =
  let doc =
    S.create_object ~label:"doc"
      ~state:(S.Data (Schemes.Embedded.make_content ~refs ()))
      store
  in
  S.bind store ~dir (N.atom "embedded-doc") doc;
  (doc, refs)

let unix_world ~chroot_one label =
  let store = S.create () in
  let t = Schemes.Unix_scheme.build store in
  let a1 = Schemes.Unix_scheme.spawn ~label:"a1" t in
  let a2 = Schemes.Unix_scheme.spawn ~label:"a2" t in
  let a3 =
    if chroot_one then
      Schemes.Unix_scheme.spawn_chrooted ~label:"a3" ~root_path:"/usr" t
    else Schemes.Unix_scheme.spawn ~label:"a3" t
  in
  let probes = Schemes.Unix_scheme.absolute_probes t ~max_depth:4 in
  let doc = plant_doc store ~dir:(Schemes.Unix_scheme.root t) ~refs:probes in
  {
    Matrix.label;
    store;
    rule = Schemes.Unix_scheme.rule t;
    activities = [ a1; a2; a3 ];
    probes;
    embedded = [ doc ];
    equiv = None;
  }

let global_context_world () =
  let store = S.create () in
  let fs = Vfs.Fs.create ~root_label:"global:/" store in
  Vfs.Fs.populate fs Schemes.Unix_scheme.default_tree;
  let env = Schemes.Process_env.create store in
  let spawn l = Schemes.Process_env.spawn ~label:l ~root:(Vfs.Fs.root fs) env in
  let activities = [ spawn "a1"; spawn "a2"; spawn "a3" ] in
  let ctx =
    Naming.Context.of_bindings [ (N.root_atom, Vfs.Fs.root fs) ]
  in
  let probes =
    match S.context_of store (Vfs.Fs.root fs) with
    | None -> []
    | Some c ->
        List.map
          (fun (n, _e) -> N.cons N.root_atom n)
          (Naming.Graph.all_names store c ~max_depth:3 ())
  in
  let doc = plant_doc store ~dir:(Vfs.Fs.root fs) ~refs:probes in
  {
    Matrix.label = "global context (Locus/V style)";
    store;
    rule = Naming.Rule.constant ~label:"R=const" ctx;
    activities;
    probes;
    embedded = [ doc ];
    equiv = None;
  }

let locus_world () =
  let store = S.create () in
  let t =
    Schemes.Unix_scheme.build_distributed ~machines:[ "m1"; "m2" ] store
  in
  let a1 = Schemes.Unix_scheme.spawn ~label:"a1" ~cwd:"/m1" t in
  let a2 = Schemes.Unix_scheme.spawn ~label:"a2" ~cwd:"/m2" t in
  let probes = Schemes.Unix_scheme.absolute_probes t ~max_depth:4 in
  let doc = plant_doc store ~dir:(Schemes.Unix_scheme.root t) ~refs:probes in
  {
    Matrix.label = "single tree over machines (Locus/V)";
    store;
    rule = Schemes.Unix_scheme.rule t;
    activities = [ a1; a2 ];
    probes;
    embedded = [ doc ];
    equiv = None;
  }

let newcastle_world ~algol label =
  let store = S.create () in
  let t = Schemes.Newcastle.build ~machines:[ "u1"; "u2"; "u3" ] store in
  let activities =
    List.map
      (fun m -> Schemes.Newcastle.spawn_on ~label:m t ~machine:m)
      [ "u1"; "u2"; "u3" ]
  in
  let probes = Schemes.Newcastle.absolute_probes t ~machine:"u1" ~max_depth:4 in
  (* Under the Algol rule the embedded references are relative (no leading
     '/'): they resolve through the scope chain of the document's home
     directory. Under the baseline they are the ordinary absolute names. *)
  let refs =
    if algol then List.filter_map (fun n -> N.tail n) probes else probes
  in
  let doc =
    plant_doc store ~dir:(Schemes.Newcastle.machine_root t "u1") ~refs
  in
  let base_rule = Schemes.Newcastle.rule t in
  let rule =
    if algol then
      Naming.Rule.dispatch ~generated:base_rule ~received:base_rule
        ~embedded:(Schemes.Embedded.rule_algol ())
    else base_rule
  in
  {
    Matrix.label;
    store;
    rule;
    activities;
    probes;
    embedded = [ doc ];
    equiv = None;
  }

let andrew_world () =
  let store = S.create () in
  let t = Schemes.Shared_graph.build ~clients:[ "c1"; "c2"; "c3" ] store in
  List.iter
    (fun (path, content) ->
      Schemes.Shared_graph.replicate_local t ~path ~content)
    [ ("bin/ls", "ls"); ("bin/sh", "sh") ];
  let activities =
    List.map
      (fun c -> Schemes.Shared_graph.spawn_on ~label:c t ~client:c)
      [ "c1"; "c2"; "c3" ]
  in
  let shared = Schemes.Shared_graph.shared_probes t ~max_depth:4 in
  let local = Schemes.Shared_graph.local_probes t ~client:"c1" ~max_depth:4 in
  let probes = shared @ local in
  let doc =
    plant_doc store
      ~dir:(Vfs.Fs.root (Schemes.Shared_graph.shared_fs t))
      ~refs:probes
  in
  {
    Matrix.label = "shared naming graph (Andrew)";
    store;
    rule = Schemes.Shared_graph.rule t;
    activities;
    probes;
    embedded = [ doc ];
    equiv =
      Some (Naming.Replication.same_replica (Schemes.Shared_graph.replication t));
  }

let dce_world () =
  let store = S.create () in
  let t =
    Schemes.Dce.build
      ~cells:[ ("cellA", [ "ma1"; "ma2" ]); ("cellB", [ "mb1" ]) ]
      store
  in
  let activities =
    List.map
      (fun m -> Schemes.Dce.spawn_on ~label:m t ~machine:m)
      [ "ma1"; "ma2"; "mb1" ]
  in
  let probes =
    Schemes.Dce.global_probes t ~max_depth:4
    @ Schemes.Dce.cell_relative_probes t ~cell:"cellA" ~max_depth:4
  in
  let doc = plant_doc store ~dir:(Schemes.Dce.global_root t) ~refs:probes in
  {
    Matrix.label = "DCE (global + cell contexts)";
    store;
    rule = Schemes.Dce.rule t;
    activities;
    probes;
    embedded = [ doc ];
    equiv = None;
  }

let crosslink_world () =
  let store = S.create () in
  let t =
    Schemes.Crosslink.build
      ~systems:
        [
          ("sysa", Schemes.Unix_scheme.default_tree);
          ("sysb", Schemes.Unix_scheme.default_tree);
        ]
      store
  in
  Schemes.Crosslink.add_crosslink t ~from_system:"sysa" ~name:"sysb"
    ~to_system:"sysb" ();
  Schemes.Crosslink.add_crosslink t ~from_system:"sysb" ~name:"sysa"
    ~to_system:"sysa" ();
  let a1 = Schemes.Crosslink.spawn_on ~label:"a1" t ~system:"sysa" in
  let a2 = Schemes.Crosslink.spawn_on ~label:"a2" t ~system:"sysb" in
  let probes =
    List.filter
      (fun n ->
        match N.tail n with
        | None -> true
        | Some rest -> not (N.atom_equal (N.head rest) (N.atom "sysb")))
      (Schemes.Crosslink.system_probes t ~system:"sysa" ~max_depth:4)
  in
  let doc =
    plant_doc store ~dir:(Schemes.Crosslink.system_root t "sysa") ~refs:probes
  in
  {
    Matrix.label = "cross-linked autonomous systems";
    store;
    rule = Schemes.Crosslink.rule t;
    activities = [ a1; a2 ];
    probes;
    embedded = [ doc ];
    equiv = None;
  }

let per_process_world () =
  let store = S.create () in
  let tree = Schemes.Unix_scheme.default_tree in
  let t =
    Schemes.Per_process.build
      ~subsystems:[ ("port1", tree); ("port2", tree) ]
      store
  in
  (* The contexts of the communicating activities are ARRANGED to agree:
     both attach the same subsystems under the same names (solution II). *)
  let attach = [ ("fs1", "port1"); ("fs2", "port2") ] in
  let a1 = Schemes.Per_process.spawn ~label:"a1" ~attach t in
  let a2 = Schemes.Per_process.spawn ~label:"a2" ~attach t in
  let probes = Schemes.Per_process.namespace_probes t a1 ~max_depth:4 in
  let doc =
    plant_doc store
      ~dir:(Schemes.Per_process.subsystem_root t "port1")
      ~refs:probes
  in
  {
    Matrix.label = "per-process namespaces (arranged)";
    store;
    rule = Schemes.Per_process.rule t;
    activities = [ a1; a2 ];
    probes;
    embedded = [ doc ];
    equiv = None;
  }

let jade_world () =
  let store = S.create () in
  let t =
    Schemes.Jade.build
      ~services:
        [
          ("local", Schemes.Unix_scheme.default_tree);
          ("campus", Schemes.Unix_scheme.default_tree);
        ]
      store
  in
  (* Jade resolution is scheme-level (union search), so wrap it as a rule:
     the context seen by every user is their mount table rendered as a
     resolution function; with identical mount tables the users agree. *)
  let mounts = [ ("sw", [ "local"; "campus" ]) ] in
  let u1 = Schemes.Jade.new_user ~label:"u1" t ~mounts in
  let u2 = Schemes.Jade.new_user ~label:"u2" t ~mounts in
  let probes = Schemes.Jade.probes t u1 ~max_depth:4 in
  let rule =
    Naming.Rule.make ~label:"jade-union" (fun st occ ->
        ignore st;
        (* collapse the union search into a context snapshot for the
           subject's mount heads; deeper components resolve through the
           ordinary graph of the winning service *)
        let subject = Naming.Occurrence.subject occ in
        match Schemes.Jade.mounts_of t subject with
        | mounts ->
            Some
              (Naming.Context.of_bindings
                 (List.filter_map
                    (fun (name, backing) ->
                      match backing with
                      | [] -> None
                      | s :: _ ->
                          Some (N.atom name, Schemes.Jade.service_root t s))
                    mounts))
        | exception Invalid_argument _ -> None)
  in
  (* NOTE: the snapshot rule realises only the first backing service; the
     full union behaviour is exercised by the Jade tests. For the matrix
     row both users share mount tables, so first-service resolution is
     the agreed meaning. *)
  let doc =
    plant_doc store ~dir:(Schemes.Jade.service_root t "local") ~refs:probes
  in
  {
    Matrix.label = "jade per-user spaces (arranged)";
    store;
    rule;
    activities = [ u1; u2 ];
    probes;
    embedded = [ doc ];
    equiv = None;
  }

let worlds () =
  [
    global_context_world ();
    unix_world ~chroot_one:false "unix, shared root";
    unix_world ~chroot_one:true "unix, one process chrooted";
    locus_world ();
    newcastle_world ~algol:false "newcastle connection";
    andrew_world ();
    dce_world ();
    crosslink_world ();
    per_process_world ();
    jade_world ();
    newcastle_world ~algol:true "newcastle + Algol embedded rule";
  ]

let measure () = Matrix.measure_all (worlds ())

let run ppf =
  let rows = measure () in
  Format.fprintf ppf
    "E10 (section 5 summary): degree of coherence per scheme and per
source of name. 1.000 = every probe coherent across the scheme's
activities; the Andrew and DCE rows are partial because their probe sets
mix shared and local names (weak coherence already credited for the
replicated /bin files in the Andrew row).@\n@\n";
  Format.pp_print_string ppf (Matrix.render_rows rows)
