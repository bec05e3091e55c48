module N = Naming.Name
module O = Naming.Occurrence
module C = Naming.Coherence
module F = Schemes.Federation

type result = {
  within_org : float;
  across_orgs_unmapped : float;
  across_orgs_mapped : float;
  foreign_embedded_reader_rule : float;
  foreign_embedded_algol_rule : float;
}

let org1_tree =
  F.default_org_tree ~users:[ "alice"; "carol" ] ~services:[ "print"; "mail" ]

let org2_tree =
  F.default_org_tree ~users:[ "bob"; "dana" ] ~services:[ "auth"; "backup" ]

let doc_refs = [ N.of_string "parts/ch1"; N.of_string "parts/ch2" ]

let build () =
  let store = Naming.Store.create () in
  let t = F.build ~orgs:[ ("org1", org1_tree); ("org2", org2_tree) ] store in
  F.federate t ~from:"org1" ~to_:"org2";
  let p1 = F.spawn_in ~label:"org1.a" t ~org:"org1" in
  let p1b = F.spawn_in ~label:"org1.b" t ~org:"org1" in
  let p2 = F.spawn_in ~label:"org2.bob" t ~org:"org2" in
  (* bob's structured document, with embedded names, inside org2. *)
  let fs2 = F.org_fs t "org2" in
  ignore (Vfs.Fs.add_file fs2 "users/bob/doc/parts/ch1" ~content:"chapter 1");
  ignore (Vfs.Fs.add_file fs2 "users/bob/doc/parts/ch2" ~content:"chapter 2");
  let doc =
    Vfs.Fs.add_file fs2 "users/bob/doc/main.txt"
      ~content:(Schemes.Embedded.make_content ~refs:doc_refs ())
  in
  let doc_dir = Vfs.Fs.lookup fs2 "users/bob/doc" in
  Schemes.Process_env.set_cwd (F.env t) p2 doc_dir;
  (t, p1, p1b, p2, doc)

let measure () =
  let t, p1, p1b, p2, doc = build () in
  let store = F.store t in
  let rule = F.rule t in
  let org1_probes =
    F.space_probes t ~org:"org1" ~space:"users" ~max_depth:5
    @ F.space_probes t ~org:"org1" ~space:"services" ~max_depth:5
  in
  let org2_probes =
    F.space_probes t ~org:"org2" ~space:"users" ~max_depth:5
    @ F.space_probes t ~org:"org2" ~space:"services" ~max_depth:5
  in
  let degree occs probes = C.degree (C.measure store rule occs probes) in
  let within_org =
    degree [ O.generated p1; O.generated p1b ] org1_probes
  in
  let across_orgs_unmapped =
    degree [ O.generated p1; O.generated p2 ] org2_probes
  in
  let across_orgs_mapped =
    Fixture.fraction_equal
      (List.map
         (fun n ->
           let intended = Naming.Rule.resolve rule store (O.generated p2) n in
           let mapped = F.map_name t ~target_org:"org2" n in
           let got = Naming.Rule.resolve rule store (O.generated p1) mapped in
           (intended, got))
         org2_probes)
  in
  let emb_occs =
    [ O.embedded ~reader:p1 ~source:doc; O.embedded ~reader:p2 ~source:doc ]
  in
  let foreign_embedded_reader_rule =
    C.degree
      (C.measure store rule emb_occs
         (List.map (fun r -> N.cons N.self_atom r) doc_refs))
  in
  let foreign_embedded_algol_rule =
    C.degree
      (C.measure store (Schemes.Embedded.rule_algol ()) emb_occs doc_refs)
  in
  {
    within_org;
    across_orgs_unmapped;
    across_orgs_mapped;
    foreign_embedded_reader_rule;
    foreign_embedded_algol_rule;
  }

let run ppf =
  let r = measure () in
  Format.fprintf ppf
    "E9 (section 7): shared name spaces (/users, /services) in two
organisations; org1 federates org2 under /org2. Paper: coherence within
the scope of a shared space; across scopes the common name fails and
humans map by prefixing /org2; embedded names inside the foreign subtree
need the Algol rule.@\n@\n";
  Format.pp_print_string ppf
    (Table.render ~aligns:[ Table.Left; Table.Right; Table.Right ]
       ~headers:[ "measurement"; "measured"; "paper" ]
       [
         [ "within org1"; Table.fraction r.within_org; "1.0" ];
         [
           "org1 vs org2, /users names unmapped";
           Table.fraction r.across_orgs_unmapped;
           "0.0";
         ];
         [
           "org1 reading org2 via /org2 prefix";
           Table.fraction r.across_orgs_mapped;
           "1.0";
         ];
         [
           "foreign embedded refs, reader rule";
           Table.fraction r.foreign_embedded_reader_rule;
           "0.0";
         ];
         [
           "foreign embedded refs, Algol rule";
           Table.fraction r.foreign_embedded_algol_rule;
           "1.0";
         ];
       ])
