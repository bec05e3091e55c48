module N = Naming.Name

type two_machine = {
  store : Naming.Store.t;
  assignment : Naming.Rule.Assignment.t;
  a1 : Naming.Entity.t;
  a2 : Naming.Entity.t;
  doc : Naming.Entity.t;
  global_probes : Naming.Name.t list;
  local_probes : Naming.Name.t list;
}

let two_machine_world () =
  let store = Naming.Store.create () in
  let fs1 = Vfs.Fs.create ~root_label:"m1:/" store in
  let fs2 = Vfs.Fs.create ~root_label:"m2:/" store in
  let local_tree =
    Schemes.Unix_scheme.default_tree
    @ List.init 40 (fun i -> Printf.sprintf "data/f%d" i)
  in
  Vfs.Fs.populate fs1 local_tree;
  Vfs.Fs.populate fs2 local_tree;
  let shared = Vfs.Fs.create ~root_label:"shared:/" store in
  Vfs.Fs.populate shared
    (Schemes.Shared_graph.default_shared_tree
    @ List.init 40 (fun i -> Printf.sprintf "pub/f%d" i));
  Vfs.Fs.link fs1 ~dir:(Vfs.Fs.root fs1) "shared" (Vfs.Fs.root shared);
  Vfs.Fs.link fs2 ~dir:(Vfs.Fs.root fs2) "shared" (Vfs.Fs.root shared);
  let env = Schemes.Process_env.create store in
  let a1 = Schemes.Process_env.spawn ~label:"a1" ~root:(Vfs.Fs.root fs1) env in
  let a2 = Schemes.Process_env.spawn ~label:"a2" ~root:(Vfs.Fs.root fs2) env in
  let doc = Vfs.Fs.add_file fs1 "home/alice/doc.txt" ~content:"" in
  let names_of fs =
    match Naming.Store.context_of store (Vfs.Fs.root fs) with
    | None -> []
    | Some ctx -> Naming.Graph.all_names store ctx ~max_depth:4 ()
  in
  let global_probes =
    List.map
      (fun (n, _e) -> N.append (N.of_strings [ "/"; "shared" ]) n)
      (names_of shared)
  in
  let local_probes =
    List.filter_map
      (fun (n, _e) ->
        if N.atom_equal (N.head n) (N.atom "shared") then None
        else Some (N.cons N.root_atom n))
      (names_of fs1)
  in
  {
    store;
    assignment = Schemes.Process_env.assignment env;
    a1;
    a2;
    doc;
    global_probes;
    local_probes;
  }

let take k l =
  let rec go k = function
    | [] -> []
    | _ when k <= 0 -> []
    | x :: rest -> x :: go (k - 1) rest
  in
  go k l

let probes w ~global_fraction ~n =
  if global_fraction < 0.0 || global_fraction > 1.0 then
    invalid_arg "Fixture.probes: fraction outside [0;1]";
  let n_global =
    int_of_float (Float.round (global_fraction *. float_of_int n))
  in
  let globals = take n_global w.global_probes in
  let locals = take (n - List.length globals) w.local_probes in
  globals @ locals

let fraction_equal pairs =
  match pairs with
  | [] -> 1.0
  | _ ->
      let ok =
        List.length
          (List.filter
             (fun (a, b) -> Naming.Entity.(is_defined a && equal a b))
             pairs)
      in
      float_of_int ok /. float_of_int (List.length pairs)

let mean = function
  | [] -> 1.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let degree ?equiv store rule occs probes =
  Naming.Coherence.degree
    (Naming.Coherence.measure ?equiv store rule occs probes)
