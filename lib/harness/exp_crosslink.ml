module N = Naming.Name
module O = Naming.Occurrence
module C = Naming.Coherence
module X = Schemes.Crosslink

type result = {
  exchanged_unmapped : float;
  exchanged_mapped : float;
  embedded_reader_rule : float;
  embedded_algol_rule : float;
}

let sys_a_tree =
  Schemes.Unix_scheme.default_tree
  @ [ "proj/data/table1"; "proj/data/table2" ]

let doc_refs = [ N.of_string "data/table1"; N.of_string "data/table2" ]

let build () =
  let store = Naming.Store.create () in
  let t =
    X.build
      ~systems:
        [ ("sysa", sys_a_tree); ("sysb", Schemes.Unix_scheme.default_tree) ]
      store
  in
  X.add_crosslink t ~from_system:"sysa" ~name:"sysb" ~to_system:"sysb" ();
  X.add_crosslink t ~from_system:"sysb" ~name:"sysa" ~to_system:"sysa" ();
  let pa = X.spawn_on ~label:"pa" t ~system:"sysa" in
  let pb = X.spawn_on ~label:"pb" t ~system:"sysb" in
  (* pa works inside the shared project. *)
  let proj = Vfs.Fs.lookup (X.system_fs t "sysa") "proj" in
  Schemes.Process_env.set_cwd (X.env t) pa proj;
  let doc =
    Vfs.Fs.add_file (X.system_fs t "sysa") "proj/report.txt"
      ~content:(Schemes.Embedded.make_content ~refs:doc_refs ())
  in
  (t, pa, pb, doc)

let measure () =
  let t, pa, pb, doc = build () in
  let store = X.store t in
  let rule = X.rule t in
  let probes = X.system_probes t ~system:"sysa" ~max_depth:4 in
  (* Drop probes that travel through the crosslink: those denote sysb
     entities and are coherent by construction; the experiment is about
     sysa's own names. *)
  let own_probes =
    List.filter
      (fun n ->
        match N.tail n with
        | None -> true
        | Some rest -> not (N.atom_equal (N.head rest) (N.atom "sysb")))
      probes
  in
  let exchanged_unmapped =
    let events =
      List.map
        (fun name -> { Workload.Exchange.sender = pa; receiver = pb; name })
        own_probes
    in
    Workload.Exchange.coherent_fraction store rule events
  in
  let exchanged_mapped =
    Fixture.fraction_equal
      (List.map
         (fun n ->
           let intended = Naming.Rule.resolve rule store (O.generated pa) n in
           let mapped =
             X.map_name ~prefix:(N.singleton N.root_atom)
               ~replacement:(N.of_strings [ "/"; "sysa" ])
               n
           in
           let got = Naming.Rule.resolve rule store (O.generated pb) mapped in
           (intended, got))
         own_probes)
  in
  (* Embedded names in the shared report. *)
  let emb_occs =
    [ O.embedded ~reader:pa ~source:doc; O.embedded ~reader:pb ~source:doc ]
  in
  let reader_probes = List.map (fun r -> N.cons N.self_atom r) doc_refs in
  let embedded_reader_rule =
    C.degree (C.measure store rule emb_occs reader_probes)
  in
  let embedded_algol_rule =
    C.degree
      (C.measure store (Schemes.Embedded.rule_algol ()) emb_occs doc_refs)
  in
  { exchanged_unmapped; exchanged_mapped; embedded_reader_rule; embedded_algol_rule }

let run ppf =
  let r = measure () in
  Format.fprintf ppf
    "E5 (Figure 5): two autonomous systems joined by cross-links.@\n\
     Paper: no global names between the systems — exchanged and embedded
names are incoherent; prefix mapping repairs exchanged names; the
Algol-scope rule repairs embedded names.@\n@\n";
  Format.pp_print_string ppf
    (Table.render ~aligns:[ Table.Left; Table.Right; Table.Right ]
       ~headers:[ "measurement"; "measured"; "paper" ]
       [
         [
           "exchanged sysa->sysb, unmapped";
           Table.fraction r.exchanged_unmapped;
           "0.0";
         ];
         [
           "exchanged sysa->sysb, prefix-mapped";
           Table.fraction r.exchanged_mapped;
           "1.0";
         ];
         [
           "embedded refs, reader's context";
           Table.fraction r.embedded_reader_rule;
           "0.0";
         ];
         [
           "embedded refs, Algol-scope rule";
           Table.fraction r.embedded_algol_rule;
           "1.0";
         ];
       ])
