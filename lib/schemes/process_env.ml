module N = Naming.Name
module E = Naming.Entity
module S = Naming.Store
module C = Naming.Context

type t = {
  store : S.t;
  asg : Naming.Rule.Assignment.t;
  mutable rev_activities : E.t list;
}

let create store =
  { store; asg = Naming.Rule.Assignment.create (); rev_activities = [] }

let store t = t.store
let assignment t = t.asg

let spawn ?label ?root ?cwd ?(extra = []) t =
  let a = S.create_activity ?label t.store in
  let ctx = C.empty in
  let ctx =
    match root with
    | None -> ctx
    | Some r -> C.bind ctx N.root_atom r
  in
  let cwd = match cwd with Some c -> Some c | None -> root in
  let ctx =
    match cwd with None -> ctx | Some c -> C.bind ctx N.self_atom c
  in
  let ctx =
    List.fold_left (fun ctx (s, e) -> C.bind ctx (N.atom s) e) ctx extra
  in
  let ctx_label = match label with Some l -> l ^ ".ctx" | None -> "ctx" in
  let ctxobj = S.create_context_object ~label:ctx_label ~ctx t.store in
  Naming.Rule.Assignment.set t.asg a ctxobj;
  t.rev_activities <- a :: t.rev_activities;
  a

let context_object t a =
  match Naming.Rule.Assignment.find t.asg a with
  | Some o -> o
  | None ->
      invalid_arg
        (Printf.sprintf "Process_env: activity %s not managed here"
           (E.to_string a))

let context t a =
  match S.context_of t.store (context_object t a) with
  | Some c -> c
  | None -> assert false

let fork ?label t ~parent =
  let parent_ctx = context t parent in
  let a = S.create_activity ?label t.store in
  let ctx_label = match label with Some l -> l ^ ".ctx" | None -> "ctx" in
  let ctxobj =
    S.create_context_object ~label:ctx_label ~ctx:parent_ctx t.store
  in
  Naming.Rule.Assignment.set t.asg a ctxobj;
  t.rev_activities <- a :: t.rev_activities;
  a

let set_binding t a s e = S.bind t.store ~dir:(context_object t a) (N.atom s) e
let remove_binding t a s = S.unbind t.store ~dir:(context_object t a) (N.atom s)
let set_root t a dir = S.bind t.store ~dir:(context_object t a) N.root_atom dir
let set_cwd t a dir = S.bind t.store ~dir:(context_object t a) N.self_atom dir
let root_of t a = C.lookup (context t a) N.root_atom
let cwd_of t a = C.lookup (context t a) N.self_atom
let activities t = List.rev t.rev_activities
let rule t = Naming.Rule.of_activity t.asg

let resolve t ~as_ name =
  let ctx = context t as_ in
  (* Absolute names go through the "/" binding; relative names whose head
     is bound directly in the activity's context (a per-process
     attachment) resolve there; anything else is cwd-relative. *)
  let name =
    if N.is_absolute name then name
    else if C.mem ctx (N.head name) then name
    else N.cons N.self_atom name
  in
  Naming.Engine.resolve_in
    (Naming.Engine.select t.store)
    (context_object t as_) name

let resolve_str t ~as_ s = resolve t ~as_ (N.of_string s)
