(* Tests for Naming.Compiled and Naming.Engine — the packed-table
   resolution compiler and the engine abstraction over it. The contract
   under test is strict: every engine returns byte-identical results to
   the section-2 interpreter on every input, and incremental
   recompilation is indistinguishable from compiling from scratch. *)

module S = Naming.Store
module E = Naming.Entity
module N = Naming.Name
module C = Naming.Context
module R = Naming.Resolver
module Cp = Naming.Compiled
module Eng = Naming.Engine

let check = Alcotest.check
let b = Alcotest.bool
let i = Alcotest.int
let entity = Alcotest.testable E.pp E.equal

let fixture () =
  let st = S.create () in
  let fs = Vfs.Fs.create st in
  Vfs.Fs.populate fs Schemes.Unix_scheme.default_tree;
  (st, fs, Vfs.Fs.root fs)

let unix_paths =
  [
    "/";
    "bin";
    "bin/ls";
    "usr/bin/cc";
    "etc/passwd";
    "tmp";
    "ghost";
    "no/such/thing";
    "bin/ls/through-a-file";
  ]

let test_matches_interpreter () =
  let st, _, root = fixture () in
  let c = Cp.compile st in
  List.iter
    (fun p ->
      let n = N.of_string p in
      check entity p (R.resolve_in st root n) (Cp.resolve_in c root n))
    unix_paths;
  (* resolution against a context value, and from a non-context *)
  let ctx = C.of_bindings [ (N.root_atom, root) ] in
  List.iter
    (fun p ->
      let n = N.of_string p in
      check entity (p ^ " (ctx)") (R.resolve st ctx n) (Cp.resolve c ctx n))
    unix_paths;
  let file = R.resolve_in st root (N.of_string "bin/ls") in
  check entity "resolve_in from a data object" E.undefined
    (Cp.resolve_in c file (N.of_string "x"))

let test_incremental_refresh () =
  let st, fs, root = fixture () in
  let c = Cp.compile st in
  ignore (Cp.resolve_in c root (N.of_string "bin/ls"));
  let built = (Cp.stats c).Cp.node_builds in
  (* bind, unbind, create: each patch must be visible immediately *)
  let f = Vfs.Fs.add_file fs "/tmp/fresh" ~content:"x" in
  check entity "new file visible" f (Cp.resolve_in c root (N.of_string "tmp/fresh"));
  let bin = Vfs.Fs.lookup fs "/bin" in
  Vfs.Fs.unlink fs ~dir:bin "ls";
  check entity "unbind visible" E.undefined
    (Cp.resolve_in c root (N.of_string "bin/ls"));
  let d = Vfs.Fs.mkdir_path fs "/tmp/sub" in
  let g = Vfs.Fs.add_file fs "/tmp/sub/g" ~content:"y" in
  check entity "new dir walkable" g
    (Cp.resolve_in c root (N.of_string "tmp/sub/g"));
  check entity "new dir itself" d (Cp.resolve_in c root (N.of_string "tmp/sub"));
  let st_stats = Cp.stats c in
  (* every build since is a touched table's rebuild, or the first build
     of /tmp/sub's table by its first walk *)
  check b "patched incrementally, not recompiled" true
    (st_stats.Cp.patches >= 3
    && st_stats.Cp.node_builds - built <= st_stats.Cp.patched_nodes + 1)

(* Promotion and demotion: an entity's context-object-hood can change
   after parents already hold packed references to it. *)
let test_promotion_demotion () =
  let st = S.create () in
  let root = S.create_context_object ~label:"root" st in
  let o = S.create_object ~label:"o" ~state:(S.Data "plain") st in
  S.bind st ~dir:root (N.atom "o") o;
  let c = Cp.compile st in
  check entity "leaf resolves" o (Cp.resolve_in c root (N.of_string "o"));
  check entity "leaf blocks descent" E.undefined
    (Cp.resolve_in c root (N.of_string "o/x"));
  (* promote: o becomes a context object *)
  let x = S.create_object ~label:"x" st in
  S.set_obj_state st o (S.Context (C.of_bindings [ (N.atom "x", x) ]));
  check entity "promoted: descent works" x
    (Cp.resolve_in c root (N.of_string "o/x"));
  (* demote: o back to data; the parent table is untouched but the walk
     must fail again *)
  S.set_obj_state st o (S.Data "plain again");
  check entity "demoted: descent blocked" E.undefined
    (Cp.resolve_in c root (N.of_string "o/x"));
  check entity "demoted: leaf still resolves" o
    (Cp.resolve_in c root (N.of_string "o"))

let test_stats_shape () =
  let st, _, _ = fixture () in
  let c = Cp.compile st in
  let s = Cp.stats c in
  check i "one node per context object" (List.length (S.context_objects st))
    s.Cp.nodes;
  let bindings =
    List.fold_left
      (fun acc e ->
        match S.context_of st e with
        | Some ctx -> acc + C.cardinal ctx
        | None -> acc)
      0 (S.context_objects st)
  in
  check i "one occupied cell per binding" bindings s.Cp.bindings;
  check b "tables at most half full" true (s.Cp.table_cells >= 2 * s.Cp.bindings)

(* Engine selection and the NAMING_ENGINE variable. *)
let test_engine_select () =
  let st, _, _ = fixture () in
  (* env-dependent defaults only checked when NAMING_ENGINE is unset, so
     the suite still passes when CI re-runs it under another engine *)
  (match Eng.env_kind () with
  | Some `Interpreted -> ()
  | Some `Compiled | None ->
      check Alcotest.string "default compiled" "compiled"
        (Eng.label (Eng.of_env st));
      let own () =
        match Eng.select st with
        | Eng.Compiled c -> c
        | Eng.Interpreted _ -> Alcotest.fail "select gave the interpreter"
      in
      check b "select returns the store's own engine" true
        (own () == own () && own () == Cp.of_store st);
      check Alcotest.string "interpreter inside a read-only section"
        "interpreted"
        (S.read_only st (fun () -> Eng.label (Eng.select st))));
  let engine = Eng.create `Compiled st in
  check Alcotest.string "explicit engine wins" "compiled"
    (Eng.label (Eng.select ~engine st))

(* ------------------------------------------------------------------ *)
(* Parity across every sample scheme.                                  *)

let sample_worlds () =
  List.filter_map
    (fun scheme ->
      Option.map (fun w -> (scheme, w)) (Harness.Sample.world scheme))
    Harness.Sample.schemes

let test_sample_scheme_parity () =
  List.iter
    (fun (scheme, w) ->
      let { Harness.Sample.store; ctx; rule = _; activities = _ } = w in
      let probes = Harness.Sample.probes w in
      check b (scheme ^ " has probes") true (probes <> []);
      let c = Cp.compile store in
      List.iter
        (fun n ->
          check entity
            (Printf.sprintf "%s: %s" scheme (N.to_string n))
            (R.resolve store ctx n) (Cp.resolve c ctx n))
        probes)
    (sample_worlds ())

(* Coherence verdicts must be engine-independent, sequentially and under
   the NAMING_JOBS fan-out (the CI legs run this suite at jobs 1 and 4). *)
let test_sample_scheme_verdict_parity () =
  List.iter
    (fun (scheme, w) ->
      let { Harness.Sample.store; ctx = _; rule; activities } = w in
      let probes = Harness.Sample.probes w in
      let occs = List.map Naming.Occurrence.generated activities in
      let via kind =
        Naming.Coherence.classify ~engine:(Eng.create kind store) store rule
          occs probes
      in
      let interp = via `Interpreted in
      check b (scheme ^ ": compiled = interpreted") true
        (via `Compiled = interp))
    (sample_worlds ())

(* ------------------------------------------------------------------ *)
(* Properties: random worlds, random mutation journals.                *)

(* A random tree world (same shape as the resolver property). *)
let build_world seed =
  let rng = Dsim.Rng.create (Int64.of_int (seed + 1)) in
  let st = S.create () in
  let root = S.create_context_object ~label:"root" st in
  S.bind st ~dir:root N.root_atom root;
  let dirs = ref [ root ] in
  let files = ref [] in
  for k = 0 to 24 do
    let parent = Dsim.Rng.pick rng !dirs in
    if Dsim.Rng.bool rng 0.5 then begin
      let d = S.create_context_object st in
      S.bind st ~dir:parent (N.atom (Printf.sprintf "d%d" k)) d;
      S.bind st ~dir:d N.parent_atom parent;
      dirs := d :: !dirs
    end
    else begin
      let f = S.create_object st in
      S.bind st ~dir:parent (N.atom (Printf.sprintf "f%d" k)) f;
      files := f :: !files
    end
  done;
  (rng, st, root, dirs, files)

let random_name rng =
  let atoms = [ "d1"; "d3"; "d5"; "f2"; "f4"; ".."; "ghost" ] in
  let len = 1 + Dsim.Rng.int rng 5 in
  N.of_atoms (List.init len (fun _ -> N.atom (Dsim.Rng.pick rng atoms)))

let random_mutation rng st dirs files k =
  match Dsim.Rng.int rng 4 with
  | 0 ->
      let d = S.create_context_object st in
      S.bind st ~dir:(Dsim.Rng.pick rng !dirs) (N.atom (Printf.sprintf "n%d" k)) d;
      dirs := d :: !dirs
  | 1 ->
      let f = S.create_object st in
      S.bind st ~dir:(Dsim.Rng.pick rng !dirs) (N.atom (Printf.sprintf "m%d" k)) f;
      files := f :: !files
  | 2 -> (
      let d = Dsim.Rng.pick rng !dirs in
      match S.context_of st d with
      | Some ctx when not (C.is_empty ctx) ->
          let a, _ = Dsim.Rng.pick rng (C.bindings ctx) in
          S.unbind st ~dir:d a
      | _ -> ())
  | _ -> (
      (* flip an object between data and (empty) context state *)
      match !files with
      | [] -> ()
      | _ -> (
          let f = Dsim.Rng.pick rng !files in
          match S.obj_state st f with
          | Some (S.Data _) -> S.set_obj_state st f (S.Context C.empty)
          | Some (S.Context _) -> S.set_obj_state st f (S.Data "flipped")
          | None -> ()))

(* Compiled (incrementally refreshed) ≡ interpreter under random
   interleavings of resolutions and mutations. *)
let prop_compiled_transparent =
  QCheck.Test.make ~name:"compiled = interpreter under mutation" ~count:40
    QCheck.small_nat (fun seed ->
      let rng, st, root, dirs, files = build_world seed in
      let c = Cp.compile st in
      let ok = ref true in
      for k = 0 to 120 do
        if Dsim.Rng.bool rng 0.3 then random_mutation rng st dirs files k
        else begin
          let n = random_name rng in
          let plain = R.resolve_in st root n in
          if not (E.equal (Cp.resolve_in c root n) plain) then ok := false
        end
      done;
      !ok)

(* After an arbitrary bind/unbind journal, the incrementally patched
   tables answer exactly like a from-scratch compile — on every name,
   and with the same live-table statistics. *)
let prop_patch_equals_recompile =
  QCheck.Test.make ~name:"incremental patch = full recompile" ~count:40
    QCheck.small_nat (fun seed ->
      let rng, st, root, dirs, files = build_world seed in
      let incremental = Cp.compile st in
      ignore (Cp.resolve_in incremental root (N.of_string "/"));
      for k = 0 to 60 do
        random_mutation rng st dirs files k
      done;
      Cp.refresh incremental;
      (* directories created since the compile get a table when a walk
         first steps into them: step into every one, so both engines
         hold a table for every context object *)
      List.iter
        (fun d -> ignore (Cp.resolve_in incremental d (N.of_string "x")))
        (S.context_objects st);
      let fresh = Cp.compile st in
      let names = List.init 40 (fun _ -> random_name rng) in
      List.for_all
        (fun n ->
          E.equal (Cp.resolve_in incremental root n) (Cp.resolve_in fresh root n))
        names
      &&
      let si = Cp.stats incremental and sf = Cp.stats fresh in
      si.Cp.nodes = sf.Cp.nodes && si.Cp.bindings = sf.Cp.bindings)

(* The same equivalence across a journal long enough to overflow the
   store's change journal: refresh must survive the generation-scan
   fallback of [touched_since]. *)
let test_patch_survives_journal_overflow () =
  let rng, st, root, dirs, files = build_world 7 in
  let c = Cp.compile st in
  ignore (Cp.resolve_in c root (N.of_string "/"));
  let churn = S.create_object ~state:(S.Data "0") st in
  for k = 0 to 9000 do
    if k mod 500 = 0 then random_mutation rng st dirs files k
    else S.set_obj_state st churn (S.Data (string_of_int k))
  done;
  let fresh = Cp.compile st in
  let names = List.init 60 (fun _ -> random_name rng) in
  List.iter
    (fun n ->
      check entity (N.to_string n)
        (Cp.resolve_in fresh root n)
        (Cp.resolve_in c root n))
    names

(* Engine parity on random worlds: full verdict lists, both engines,
   through the ?jobs fan-out when NAMING_JOBS asks for it. *)
let prop_engine_verdict_parity =
  QCheck.Test.make ~name:"engines agree on random-world verdicts" ~count:100
    QCheck.small_nat (fun seed ->
      let rng, st, root, dirs, files = build_world seed in
      for k = 0 to 30 do
        random_mutation rng st dirs files k
      done;
      let asg = Naming.Rule.Assignment.create () in
      (* 1-16 activities, each starting in a random directory *)
      let acts =
        List.init
          (1 + Dsim.Rng.int rng 16)
          (fun k ->
            let a = S.create_activity st in
            let o = if k = 0 then root else Dsim.Rng.pick rng !dirs in
            Naming.Rule.Assignment.set asg a o;
            a)
      in
      (* received names resolve in a union context built afresh on every
         select *)
      let prefer = if Dsim.Rng.bool rng 0.5 then `Sender else `Receiver in
      let rule =
        Naming.Rule.fallback
          (Naming.Rule.of_receiver_sender ~prefer asg)
          (Naming.Rule.of_activity asg)
      in
      let occs =
        List.concat_map
          (fun a ->
            [
              Naming.Occurrence.generated a;
              Naming.Occurrence.received ~sender:(Dsim.Rng.pick rng acts)
                ~receiver:a;
            ])
          acts
      in
      let probes = List.init 25 (fun _ -> random_name rng) in
      (* the verdicts, and every occurrence's resolution of every probe *)
      let via kind =
        let engine = Eng.create kind st in
        ( Naming.Coherence.classify ~engine st rule occs probes,
          List.concat_map
            (fun occ ->
              match Naming.Rule.select rule st occ with
              | None -> []
              | Some ctx -> List.map (Eng.resolve engine ctx) probes)
            occs )
      in
      let interp = via `Interpreted in
      via `Compiled = interp)

(* Per-domain compiled snapshots: one snapshot per worker under the
   frozen store answers like the parent. *)
let test_snapshot_parity () =
  let st, _, root = fixture () in
  let c = Cp.compile st in
  let names = List.map N.of_string unix_paths in
  let pool = Naming.Pool.create ~jobs:4 in
  Cp.refresh c;
  let results =
    S.read_only st (fun () ->
        let results, _ =
          Naming.Pool.map_local pool
            ~local:(fun () -> Cp.snapshot c)
            (fun shard n -> Cp.resolve_in shard root n)
            names
        in
        results)
  in
  Naming.Pool.shutdown pool;
  List.iter2
    (fun n r -> check entity (N.to_string n) (R.resolve_in st root n) r)
    names results

(* ------------------------------------------------------------------ *)
(* The store's own engine: one per store, tables built on first use,   *)
(* patched in place, shared by shards.                                 *)

let uses_compiled () = Eng.env_kind () <> Some `Interpreted

(* Batch calls interleaved with random binds and unbinds, at jobs 1 and
   2: every result equals a fresh interpreter's, and the store keeps one
   engine throughout — patched, never rebuilt. *)
let prop_store_engine_lifecycle =
  QCheck.Test.make ~name:"store engine: patched in place = interpreter"
    ~count:30 QCheck.small_nat (fun seed ->
      let rng, st, root, dirs, files = build_world seed in
      let own = Cp.of_store st in
      let asg = Naming.Rule.Assignment.create () in
      let acts =
        List.map
          (fun k ->
            let a = S.create_activity st in
            let o =
              if k = 0 then root
              else
                S.create_context_object
                  ~ctx:(C.of_bindings [ (N.root_atom, Dsim.Rng.pick rng !dirs) ])
                  st
            in
            Naming.Rule.Assignment.set asg a o;
            a)
          [ 0; 1; 2 ]
      in
      let rule = Naming.Rule.of_activity asg in
      let occs = List.map Naming.Occurrence.generated acts in
      let sampler =
        { Naming.Coherence.split = Dsim.Rng.split; draw = random_name }
      in
      let interp () = Eng.create `Interpreted st in
      let agree jobs =
        let probes = List.init 20 (fun _ -> random_name rng) in
        let measured = Naming.Coherence.measure ~jobs st rule occs probes in
        let classified = Naming.Coherence.classify ~jobs st rule occs probes in
        let seed = Int64.of_int (Dsim.Rng.int rng 1000) in
        let estimate ?engine () =
          Naming.Coherence.estimate ?engine ~jobs ~epsilon:0.05
            ~max_samples:512 ~rng:(Dsim.Rng.create seed) st rule occs sampler
        in
        measured
        = Naming.Coherence.measure ~engine:(interp ()) st rule occs probes
        && classified
           = Naming.Coherence.classify ~engine:(interp ()) st rule occs probes
        && estimate () = estimate ~engine:(interp ()) ()
      in
      let ok = ref true in
      for round = 0 to 7 do
        for k = 0 to Dsim.Rng.int rng 3 do
          random_mutation rng st dirs files ((10 * round) + k)
        done;
        ok := !ok && agree (1 + (round mod 2))
      done;
      let s = Cp.stats own in
      !ok && Cp.of_store st == own
      && ((not (uses_compiled ())) || s.Cp.patches > 0))

(* An estimate touches a few thousand names: only the directories its
   walks pass through get a table. *)
let test_lazy_tables () =
  let w = Harness.Worldgen.build `Unixlike ~size:20_000 ~seed:3L in
  let st = w.Harness.Sample.store in
  ignore
    (Naming.Coherence.estimate ~jobs:1 ~rng:(Dsim.Rng.create 1L) st
       w.Harness.Sample.rule
       (List.map Naming.Occurrence.generated w.Harness.Sample.activities)
       (Harness.Worldgen.sampler w));
  let s = Cp.stats (Cp.of_store st) in
  check i "every context object counted" (List.length (S.context_objects st))
    s.Cp.tables;
  check b "fewer tables built than context objects" true
    (s.Cp.nodes < s.Cp.tables);
  if uses_compiled () then check b "some tables built" true (s.Cp.nodes > 0)

(* A shard never writes shared tables: a walk into a directory with no
   table finishes on the interpreter, and the owner builds the table
   afterwards from what the shard missed. *)
let test_shard_fallback () =
  let st, _, root = fixture () in
  let own = Cp.of_store st in
  let ctx = Option.get (S.context_of st root) in
  let names = List.map N.of_string unix_paths in
  Cp.refresh own;
  let before = Cp.stats own in
  check i "no tables yet" 0 before.Cp.nodes;
  let shard = Cp.snapshot own in
  S.read_only st (fun () ->
      List.iter
        (fun n ->
          check entity (N.to_string n) (R.resolve_in st root n)
            (Cp.resolve_in shard root n);
          check entity (N.to_string n ^ " (ctx)") (R.resolve st ctx n)
            (Cp.resolve shard ctx n))
        names);
  let after = Cp.stats own in
  check i "arena top unchanged" before.Cp.arena_words after.Cp.arena_words;
  check i "still no tables" 0 after.Cp.nodes;
  Cp.adopt own [ shard ];
  check b "owner built what the shard missed" true ((Cp.stats own).Cp.nodes > 0);
  List.iter
    (fun n ->
      check entity (N.to_string n) (R.resolve_in st root n)
        (Cp.resolve_in own root n))
    names

(* Every parallel sweep runs the same shard protocol: on a fresh store,
   the walks its shards could not take through a table leave those
   tables built once the sweep returns. *)
let test_parallel_sweeps_adopt () =
  let sweeps =
    [
      ("generated", fun w -> ignore (Harness.Matrix.generated_degree ~jobs:2 w));
      ("received", fun w -> ignore (Harness.Matrix.received_degree ~jobs:2 w));
      ("embedded", fun w -> ignore (Harness.Matrix.embedded_degree ~jobs:2 w));
    ]
  in
  List.iter
    (fun (label, sweep) ->
      let w = List.hd (Harness.Exp_matrix.worlds ()) in
      let own = Cp.of_store w.Harness.Matrix.store in
      check i (label ^ ": no tables before") 0 (Cp.stats own).Cp.nodes;
      sweep w;
      if uses_compiled () then
        check b (label ^ ": tables built after") true
          ((Cp.stats own).Cp.nodes > 0))
    sweeps

let suite =
  [
    Alcotest.test_case "matches the interpreter" `Quick test_matches_interpreter;
    Alcotest.test_case "incremental refresh" `Quick test_incremental_refresh;
    Alcotest.test_case "promotion / demotion" `Quick test_promotion_demotion;
    Alcotest.test_case "stats shape" `Quick test_stats_shape;
    Alcotest.test_case "engine selection" `Quick test_engine_select;
    Alcotest.test_case "sample-scheme parity" `Quick test_sample_scheme_parity;
    Alcotest.test_case "sample-scheme verdict parity" `Quick
      test_sample_scheme_verdict_parity;
    Alcotest.test_case "patch survives journal overflow" `Quick
      test_patch_survives_journal_overflow;
    Alcotest.test_case "snapshot parity under pool" `Quick
      test_snapshot_parity;
    QCheck_alcotest.to_alcotest prop_compiled_transparent;
    QCheck_alcotest.to_alcotest prop_patch_equals_recompile;
    QCheck_alcotest.to_alcotest prop_engine_verdict_parity;
    QCheck_alcotest.to_alcotest prop_store_engine_lifecycle;
    Alcotest.test_case "lazy tables" `Quick test_lazy_tables;
    Alcotest.test_case "shard falls back to the interpreter" `Quick
      test_shard_fallback;
    Alcotest.test_case "parallel sweeps adopt what shards missed" `Quick
      test_parallel_sweeps_adopt;
  ]
