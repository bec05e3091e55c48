module N = Naming.Name
module E = Naming.Entity
module O = Naming.Occurrence
module C = Naming.Coherence
module Emb = Schemes.Embedded

type scenario = {
  label : string;
  resolved : float;
  coherent_across_readers : float;
  meaning_preserved : float;
}

type result = {
  baseline_reader_rule : float;
  shadowing_correct : bool;
  scenarios : scenario list;
}

let fraction ok total = if total = 0 then 1.0 else float_of_int ok /. float_of_int total

(* All (file, ref, denotation) triples of a project, in deterministic
   order. *)
let denotations fs root =
  let store = Vfs.Fs.store fs in
  List.concat_map
    (fun (dir, file) ->
      List.map
        (fun r -> (file, r, Emb.resolve_at store ~dir r))
        (Emb.refs_of store file))
    (Workload.Docgen.sources fs root)

let measure () =
  let store = Naming.Store.create () in
  let fs = Vfs.Fs.create ~root_label:"host:/" store in
  Vfs.Fs.populate fs Schemes.Unix_scheme.default_tree;
  let rng = Dsim.Rng.create 42L in
  let project =
    Workload.Docgen.build fs ~at:"proj/tool" ~rng
      ~spec:Workload.Docgen.default_spec
  in
  let env = Schemes.Process_env.create store in
  let host_root = Vfs.Fs.root fs in
  let r1 = Schemes.Process_env.spawn ~label:"r1" ~root:host_root ~cwd:project env in
  let r2 = Schemes.Process_env.spawn ~label:"r2" ~root:host_root ~cwd:host_root env in
  let readers = [ r1; r2 ] in
  (* Baseline: refs interpreted in each reader's context (via its cwd). *)
  let baseline_reader_rule =
    let sources = Workload.Docgen.sources fs project in
    let rule = Schemes.Process_env.rule env in
    let checks =
      List.concat_map
        (fun (_dir, file) ->
          let occs =
            List.map (fun reader -> O.embedded ~reader ~source:file) readers
          in
          List.map
            (fun r ->
              C.is_coherent store rule occs (N.cons N.self_atom r))
            (Emb.refs_of store file))
        sources
    in
    fraction (List.length (List.filter Fun.id checks)) (List.length checks)
  in
  (* Shadowing: an inner source's [lib/c0] must reach the inner component
     (the default spec nests a sub-project). *)
  let shadowing_correct =
    let sub_src =
      Vfs.Fs.resolve_from fs ~dir:project (N.of_strings [ "sub"; "src" ])
    in
    let inner =
      Emb.resolve_at store ~dir:sub_src (N.of_strings [ "lib"; "c0" ])
    in
    match Naming.Store.data_of store inner with
    | Some content ->
        String.length content >= 7
        && String.equal (String.sub content (String.length content - 7) 7)
             "inner-0"
    | None -> false
  in
  let algol_rule = Emb.rule_algol () in
  let scenario label root ~expected =
    let denots = denotations fs root in
    let resolved =
      fraction
        (List.length
           (List.filter (fun (_, _, e) -> E.is_defined e) denots))
        (List.length denots)
    in
    let coherent =
      let checks =
        List.map
          (fun (file, r, _) ->
            let occs =
              List.map (fun reader -> O.embedded ~reader ~source:file) readers
            in
            C.is_coherent store algol_rule occs r)
          denots
      in
      fraction (List.length (List.filter Fun.id checks)) (List.length checks)
    in
    let preserved =
      match expected with
      | `Same_as previous ->
          let pairs = List.combine previous denots in
          fraction
            (List.length
               (List.filter
                  (fun ((_, _, before), (_, _, after)) -> E.equal before after)
                  pairs))
            (List.length pairs)
      | `Copy_of (previous, copy_root) ->
          let members = Vfs.Subtree.members fs copy_root in
          let pairs = List.combine previous denots in
          fraction
            (List.length
               (List.filter
                  (fun ((_, _, before), (_, _, after)) ->
                    E.is_defined after
                    && (not (E.equal before after))
                    && E.Set.mem after members
                    && Naming.Store.data_of store before
                       = Naming.Store.data_of store after)
                  pairs))
            (List.length pairs)
      | `Trivial -> 1.0
    in
    ({ label; resolved; coherent_across_readers = coherent;
       meaning_preserved = preserved }, denots)
  in
  let initial, denots0 = scenario "initial" project ~expected:`Trivial in
  (* Relocate the project to a different part of the environment. *)
  let proj_parent = Vfs.Fs.lookup fs "proj" in
  let mnt = Vfs.Fs.mkdir_path fs "mnt" in
  Vfs.Subtree.relocate fs ~src:proj_parent ~name:"tool" ~dst:mnt ();
  let relocated, denots1 =
    scenario "relocated to /mnt/tool" project ~expected:(`Same_as denots0)
  in
  (* Copy it back under /proj. *)
  let clone = Vfs.Subtree.copy fs project in
  Vfs.Fs.link fs ~dir:proj_parent "tool-copy" clone;
  Naming.Store.bind store ~dir:clone N.parent_atom proj_parent;
  let copied, _ =
    scenario "copied to /proj/tool-copy" clone
      ~expected:(`Copy_of (denots1, clone))
  in
  (* Attach the (relocated) original at a second place simultaneously. *)
  let opt = Vfs.Fs.mkdir_path fs "opt" in
  Vfs.Subtree.attach fs ~dir:opt ~name:"tool-alias" project;
  let attached, _ =
    scenario "also attached at /opt/tool-alias" project
      ~expected:(`Same_as denots1)
  in
  {
    baseline_reader_rule;
    shadowing_correct;
    scenarios = [ initial; relocated; copied; attached ];
  }

let run ppf =
  let r = measure () in
  Format.fprintf ppf
    "E6 (Figure 6): embedded names under the Algol-scope rule R(file),
project of %d sources referencing lib/ components, with a nested
sub-project shadowing component c0.@\n\
     Paper: under the reader's-context baseline a shared structured object
changes meaning with the reader; under the Algol rule the meaning is
reader-independent and survives relocation, copying and multi-attachment.@\n@\n"
    Workload.Docgen.default_spec.Workload.Docgen.n_sources;
  Format.fprintf ppf
    "baseline R(activity) coherence across readers: %s   (paper: < 1)@\n"
    (Table.fraction r.baseline_reader_rule);
  Format.fprintf ppf "closest-ancestor shadowing correct: %b   (paper: true)@\n@\n"
    r.shadowing_correct;
  Format.pp_print_string ppf
    (Table.render
       ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
       ~headers:
         [ "scenario"; "refs resolved"; "reader-coherent"; "meaning preserved" ]
       (List.map
          (fun s ->
            [
              s.label;
              Table.fraction s.resolved;
              Table.fraction s.coherent_across_readers;
              Table.fraction s.meaning_preserved;
            ])
          r.scenarios));
  Format.fprintf ppf "(paper: all 1.0 in every scenario)@\n"
