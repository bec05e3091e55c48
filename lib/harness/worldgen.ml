module N = Naming.Name
module S = Naming.Store
module E = Naming.Entity
module Rng = Dsim.Rng

type template = [ `Unixlike | `Perprocess | `Federated ]

let templates = [ "unixlike"; "perprocess"; "federated" ]

let template_of_string s =
  match String.lowercase_ascii s with
  | "unixlike" -> Some `Unixlike
  | "perprocess" -> Some `Perprocess
  | "federated" -> Some `Federated
  | _ -> None

let template_name = function
  | `Unixlike -> "unixlike"
  | `Perprocess -> "perprocess"
  | `Federated -> "federated"

(* A growable directory index for preferential attachment. *)
type grower = { mutable dirs : E.t array; mutable ndirs : int }

let grower seed_dirs =
  let dirs = Array.of_list seed_dirs in
  { dirs; ndirs = Array.length dirs }

let add_dir g d =
  if g.ndirs = Array.length g.dirs then begin
    let bigger = Array.make (2 * g.ndirs) d in
    Array.blit g.dirs 0 bigger 0 g.ndirs;
    g.dirs <- bigger
  end;
  g.dirs.(g.ndirs) <- d;
  g.ndirs <- g.ndirs + 1

(* A zipf-shaped rank draw: log-uniform over [0, n), so rank r is chosen
   with probability ~ 1/r — early (low-rank) directories accumulate
   heavy fan-out, late ones stay thin, matching measured directory-size
   distributions. *)
let zipf_rank rng n =
  if n <= 1 then 0
  else
    let u = Rng.float rng 1.0 in
    max 0 (min (n - 1) (int_of_float (exp (u *. log (float_of_int n))) - 1))

(* Grows the tree one entity at a time until the store holds [size]
   entities: each step attaches a new directory (probability [dir_bias])
   or an empty file to a zipf-ranked existing directory. Atom names
   carry a per-build counter, so they never collide within a parent.
   Each step creates exactly one entity, so the budget is computed once
   ([Store.cardinal] is not constant-time — polling it per step made
   growth quadratic). *)
let grow fs rng g ~store ~size ~dir_bias ~counter =
  let todo = ref (size - S.cardinal store) in
  while !todo > 0 do
    let parent = g.dirs.(zipf_rank rng g.ndirs) in
    incr counter;
    if Rng.bool rng dir_bias then
      add_dir g (Vfs.Fs.mkdir fs ~under:parent (Printf.sprintf "d%d" !counter))
    else begin
      let f = S.create_object ~state:(S.Data "") store in
      Vfs.Fs.link fs ~dir:parent (Printf.sprintf "f%d" !counter) f
    end;
    decr todo
  done

let world_of env p0 =
  {
    Sample.store = Schemes.Process_env.store env;
    ctx = Schemes.Process_env.context env p0;
    rule = Schemes.Process_env.rule env;
    activities = Schemes.Process_env.activities env;
  }

(* One Unix system tree seen through two mount namespaces: /usr, /lib
   and /etc are the same entities in both process roots, /home is
   private per namespace (the second one grows its own, with atom names
   the first has never seen). Probes through the three shared top dirs
   cohere; probes into a /home conflict — degree ≈ 3/4. *)
let build_unixlike store rng ~size =
  let fs = Vfs.Fs.create ~root_label:"/" store in
  let root = Vfs.Fs.root fs in
  let usr = Vfs.Fs.mkdir fs ~under:root "usr" in
  let lib = Vfs.Fs.mkdir fs ~under:root "lib" in
  let etc = Vfs.Fs.mkdir fs ~under:root "etc" in
  let home0 = Vfs.Fs.mkdir fs ~under:root "home" in
  let fs1 = Vfs.Fs.create ~root_label:"ns1" store in
  let r1 = Vfs.Fs.root fs1 in
  List.iter
    (fun (n, d) -> Vfs.Fs.link fs1 ~dir:r1 n d)
    [ ("usr", usr); ("lib", lib); ("etc", etc) ];
  let home1 = Vfs.Fs.mkdir fs1 ~under:r1 "home" in
  let counter = ref 0 in
  let g = grower [ usr; lib; etc ] in
  grow fs rng g ~store ~size:(size * 17 / 20) ~dir_bias:0.25 ~counter;
  let g0 = grower [ home0 ] in
  grow fs rng g0 ~store ~size:(size * 37 / 40) ~dir_bias:0.25 ~counter;
  let g1 = grower [ home1 ] in
  grow fs1 rng g1 ~store ~size:(size - 4) ~dir_bias:0.25 ~counter;
  let env = Schemes.Process_env.create store in
  let p0 = Schemes.Process_env.spawn ~label:"p0" ~root env in
  let _p1 = Schemes.Process_env.spawn ~label:"p1" ~root:r1 env in
  world_of env p0

(* Two per-process roots sharing a grown /shared subtree; each process
   also grows a private /local subtree whose atom names the other root
   has never seen — shared probes cohere, local ones conflict. *)
let build_perprocess store rng ~size =
  let fs0 = Vfs.Fs.create ~root_label:"root0" store in
  let r0 = Vfs.Fs.root fs0 in
  let shared = Vfs.Fs.mkdir fs0 ~under:r0 "shared" in
  let local0 = Vfs.Fs.mkdir fs0 ~under:r0 "local" in
  let fs1 = Vfs.Fs.create ~root_label:"root1" store in
  let r1 = Vfs.Fs.root fs1 in
  Vfs.Fs.link fs1 ~dir:r1 "shared" shared;
  let local1 = Vfs.Fs.mkdir fs1 ~under:r1 "local" in
  let counter = ref 0 in
  let gs = grower [ shared ] in
  grow fs0 rng gs ~store ~size:((size * 3 / 5) - 4) ~dir_bias:0.25 ~counter;
  let g0 = grower [ local0 ] in
  grow fs0 rng g0 ~store ~size:((size * 4 / 5) - 4) ~dir_bias:0.25 ~counter;
  let g1 = grower [ local1 ] in
  grow fs1 rng g1 ~store ~size:(size - 4) ~dir_bias:0.25 ~counter;
  let env = Schemes.Process_env.create store in
  let p0 = Schemes.Process_env.spawn ~label:"p0" ~root:r0 env in
  let _p1 = Schemes.Process_env.spawn ~label:"p1" ~root:r1 env in
  world_of env p0

(* One global root over three federated org trees; every activity keeps
   the shared "/" and works inside its own org, so absolute names are
   coherent across orgs — the estimator's p → 1 boundary, with only the
   noise fraction vacuous. *)
let build_federated store rng ~size =
  let fs = Vfs.Fs.create ~root_label:"/" store in
  let root = Vfs.Fs.root fs in
  let orgs =
    List.init 3 (fun i -> Vfs.Fs.mkdir fs ~under:root (Printf.sprintf "org%d" i))
  in
  let g = grower orgs in
  let counter = ref 0 in
  grow fs rng g ~store ~size:(size - 6) ~dir_bias:0.25 ~counter;
  let env = Schemes.Process_env.create store in
  let ps =
    List.mapi
      (fun i org ->
        Schemes.Process_env.spawn
          ~label:(Printf.sprintf "p%d" i)
          ~root ~cwd:org env)
      orgs
  in
  world_of env (List.hd ps)

let build template ~size ~seed =
  if size < 64 then invalid_arg "Worldgen.build: size must be at least 64";
  let rng = Rng.create seed in
  let store = S.create () in
  match template with
  | `Unixlike -> build_unixlike store rng ~size
  | `Perprocess -> build_perprocess store rng ~size
  | `Federated -> build_federated store rng ~size

(* Reconstructs a world from a bare (e.g. codec-decoded) store via the
   Process_env label convention: activity "p" is driven by the context
   object labelled "p.ctx". The codec serialises labels, so a dumped
   generated world round-trips into a measurable one. *)
let of_store store =
  match S.activities store with
  | [] -> None
  | acts ->
      let by_label = Hashtbl.create 16 in
      List.iter
        (fun o ->
          match S.label store o with
          | Some l -> Hashtbl.replace by_label l o
          | None -> ())
        (S.context_objects store);
      let asg = Naming.Rule.Assignment.create () in
      let resolved =
        List.for_all
          (fun a ->
            match S.label store a with
            | Some la -> (
                match Hashtbl.find_opt by_label (la ^ ".ctx") with
                | Some o ->
                    Naming.Rule.Assignment.set asg a o;
                    true
                | None -> false)
            | None -> false)
          acts
      in
      if not resolved then None
      else
        let p0 = List.hd acts in
        match Naming.Rule.Assignment.context asg store p0 with
        | None -> None
        | Some ctx ->
            Some
              {
                Sample.store;
                ctx;
                rule = Naming.Rule.of_activity asg;
                activities = acts;
              }

let root_context (w : Sample.world) =
  match S.context_of w.store (Naming.Context.lookup w.ctx N.root_atom) with
  | Some c -> c
  | None -> Naming.Context.empty

let sampler ?(valid_fraction = 0.9) ?(max_depth = 8) (w : Sample.world) =
  let root_ctx = root_context w in
  (* Bindings of each visited directory, indexed once: a draw then costs
     O(depth) array picks instead of one O(fan-out) list walk per step —
     on a zipf-shaped tree the hot directories have fan-out in the
     thousands, and they are exactly the ones every descent crosses.
     Keyed by {!Naming.Entity.Tbl}, so each step hashes and compares an
     entity as ints, not through the polymorphic C primitives. *)
  let index : (N.atom * E.t) array E.Tbl.t = E.Tbl.create 256 in
  let edges_of_ctx ctx =
    Array.of_list
      (List.filter
         (fun (a, _) ->
           not (N.atom_equal a N.self_atom || N.atom_equal a N.parent_atom))
         (Naming.Context.bindings ctx))
  in
  let edges_of_entity e =
    match E.Tbl.find_opt index e with
    | Some arr -> arr
    | None ->
        let arr =
          match S.context_of w.store e with
          | Some ctx -> edges_of_ctx ctx
          | None -> [||]
        in
        E.Tbl.add index e arr;
        arr
  in
  let root_edges = edges_of_ctx root_ctx in
  let descend rng =
    let rec go edges acc depth =
      if Array.length edges = 0 then acc
      else begin
        let a, e = edges.(Rng.int rng (Array.length edges)) in
        let acc = a :: acc in
        if depth + 1 >= max_depth then acc
        else if Rng.bool rng 0.7 then go (edges_of_entity e) acc (depth + 1)
        else acc
      end
    in
    match go root_edges [] 0 with
    | [] -> None
    | atoms -> Some (N.of_atoms (List.rev atoms))
  in
  let draw rng =
    if Rng.bool rng valid_fraction then
      match descend rng with
      | Some n -> N.prepend_root n
      | None -> N.singleton N.root_atom
    else Workload.Namegen.noise_one ~rng ~max_depth
  in
  { Naming.Coherence.split = Rng.split; draw }

let uniform_sampler probes =
  let m = Array.length probes in
  if m = 0 then invalid_arg "Worldgen.uniform_sampler: empty population";
  {
    Naming.Coherence.split = Rng.split;
    draw = (fun rng -> probes.(Rng.int rng m));
  }

let probes_seq ?(max_depth = 8) (w : Sample.world) =
  let root_ctx = root_context w in
  Seq.cons
    (N.singleton N.root_atom)
    (Seq.map
       (fun (n, _e) -> N.prepend_root n)
       (Naming.Graph.names_seq w.store root_ctx ~max_depth ()))
