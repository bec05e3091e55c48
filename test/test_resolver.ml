(* Tests for Naming.Resolver — the recursive resolution of section 2. *)

module S = Naming.Store
module E = Naming.Entity
module N = Naming.Name
module C = Naming.Context
module R = Naming.Resolver

let check = Alcotest.check
let b = Alcotest.bool
let entity = Alcotest.testable E.pp E.equal

(* /a/b/f plus a cycle loop -> root. *)
let fixture () =
  let st = S.create () in
  let root = S.create_context_object ~label:"root" st in
  let a = S.create_context_object ~label:"a" st in
  let bdir = S.create_context_object ~label:"b" st in
  let f = S.create_object ~label:"f" ~state:(S.Data "payload") st in
  S.bind st ~dir:root (N.atom "a") a;
  S.bind st ~dir:a (N.atom "b") bdir;
  S.bind st ~dir:bdir (N.atom "f") f;
  S.bind st ~dir:bdir (N.atom "loop") root;
  (st, root, a, bdir, f)

let ctx_of root = C.of_bindings [ (N.root_atom, root) ]

let test_single_atom () =
  let st, root, a, _, _ = fixture () in
  let ctx = C.of_bindings [ (N.atom "a", a); (N.root_atom, root) ] in
  check entity "single" a (R.resolve st ctx (N.of_string "a"));
  check entity "missing" E.undefined (R.resolve st ctx (N.of_string "zzz"))

let test_compound () =
  let st, root, _, _, f = fixture () in
  check entity "deep" f (R.resolve st (ctx_of root) (N.of_string "/a/b/f"))

let test_failure_modes () =
  let st, root, _, _, _ = fixture () in
  let ctx = ctx_of root in
  check entity "unbound tail" E.undefined
    (R.resolve st ctx (N.of_string "/a/nope/f"));
  (* traversing THROUGH a data object fails... *)
  check entity "data object mid-path" E.undefined
    (R.resolve st ctx (N.of_string "/a/b/f/x"));
  (* ...but ending on it is fine (covered by test_compound). *)
  check entity "unbound head" E.undefined
    (R.resolve st ctx (N.of_string "nothing"))

let test_cycle_terminates () =
  let st, root, _, _, f = fixture () in
  (* loop goes back to root; a long name through the cycle still resolves
     because each step consumes an atom. *)
  check entity "through cycle" f
    (R.resolve st (ctx_of root) (N.of_string "/a/b/loop/a/b/f"))

let test_trace () =
  let st, root, _, _, f = fixture () in
  let result, trace = R.resolve_trace st (ctx_of root) (N.of_string "/a/b/f") in
  check entity "result" f result;
  check Alcotest.int "steps" 4 (List.length trace);
  let last = List.nth trace 3 in
  check entity "last target" f last.R.target;
  let first = List.hd trace in
  check entity "first at is bottom (initial context value)" E.undefined
    first.R.at

let test_trace_stops_at_failure () =
  let st, root, _, _, _ = fixture () in
  let result, trace =
    R.resolve_trace st (ctx_of root) (N.of_string "/a/missing/f/g")
  in
  check entity "failed" E.undefined result;
  check Alcotest.int "stops early" 3 (List.length trace)

let test_resolve_in () =
  let st, _, a, _, f = fixture () in
  check entity "from ctx object" f (R.resolve_in st a (N.of_string "b/f"));
  check entity "from data object" E.undefined
    (R.resolve_in st f (N.of_string "x"))

let test_resolve_str () =
  let st, root, _, _, f = fixture () in
  check entity "str" f (R.resolve_str st (ctx_of root) "/a/b/f")

let test_deref () =
  let st, root, a, bdir, _ = fixture () in
  let ctx = ctx_of root in
  let n = N.of_string "/a/b/f" in
  check entity "prefix 1" root (R.deref st ctx n ~prefix:1);
  check entity "prefix 2" a (R.deref st ctx n ~prefix:2);
  check entity "prefix 3" bdir (R.deref st ctx n ~prefix:3);
  (match R.deref st ctx n ~prefix:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "prefix 0 accepted");
  (match R.deref st ctx n ~prefix:5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "prefix beyond length accepted")

(* property: on a random tree, every (name, entity) from Graph.all_names
   resolves to that entity. *)
let prop_all_names_sound =
  let build seed =
    let rng = Dsim.Rng.create (Int64.of_int seed) in
    let st = S.create () in
    let root = S.create_context_object ~label:"root" st in
    let dirs = ref [ root ] in
    for i = 0 to 20 do
      let parent = Dsim.Rng.pick rng !dirs in
      if Dsim.Rng.bool rng 0.6 then begin
        let d = S.create_context_object st in
        S.bind st ~dir:parent (N.atom (Printf.sprintf "d%d" i)) d;
        dirs := d :: !dirs
      end
      else begin
        let f = S.create_object st in
        S.bind st ~dir:parent (N.atom (Printf.sprintf "f%d" i)) f
      end
    done;
    (st, root)
  in
  QCheck.Test.make ~name:"all_names sound w.r.t. resolver" ~count:50
    QCheck.small_nat (fun seed ->
      let st, root = build seed in
      match S.context_of st root with
      | None -> false
      | Some ctx ->
          List.for_all
            (fun (n, e) -> E.equal (R.resolve st ctx n) e)
            (Naming.Graph.all_names st ctx ~max_depth:6 ()))

let suite =
  [
    Alcotest.test_case "single atom" `Quick test_single_atom;
    Alcotest.test_case "compound" `Quick test_compound;
    Alcotest.test_case "failure modes" `Quick test_failure_modes;
    Alcotest.test_case "cycles terminate" `Quick test_cycle_terminates;
    Alcotest.test_case "trace" `Quick test_trace;
    Alcotest.test_case "trace stops at failure" `Quick
      test_trace_stops_at_failure;
    Alcotest.test_case "resolve_in" `Quick test_resolve_in;
    Alcotest.test_case "resolve_str" `Quick test_resolve_str;
    Alcotest.test_case "deref" `Quick test_deref;
    QCheck_alcotest.to_alcotest prop_all_names_sound;
  ]
