type obj_state = Context of Context.t | Data of string

(* Mutations are tracked at entity granularity: a monotonic global [tick]
   plus, per entity, the tick of its last state change. A bounded
   journal of recent (tick, entity) changes backs [touched_since], which
   [Compiled.refresh] uses to re-patch only the tables a mutation
   touched; when asked about ticks older than the journal covers, we
   fall back to scanning the generation table. *)

let journal_cap = 8192
let journal_keep = 2048

type engine = ..

type t = {
  tick : int ref;  (* a ref, not a mutable field, so engines can hold the cell and poll staleness without a call *)
  mutable next_id : int;
  mutable frozen : int;  (* depth of read-only (parallel) sections *)
  objs : obj_state Entity.Tbl.t;
  gens : int Entity.Tbl.t;
  mutable journal : (int * Entity.t) list;  (* newest first *)
  mutable journal_len : int;
  mutable journal_floor : int;  (* ticks <= floor may be missing *)
  labels : string Entity.Tbl.t;
  mutable rev_activities : Entity.t list;
  mutable rev_objects : Entity.t list;
  mutable engine : engine option;
}

let create () =
  {
    tick = ref 0;
    next_id = 0;
    frozen = 0;
    objs = Entity.Tbl.create 64;
    gens = Entity.Tbl.create 64;
    journal = [];
    journal_len = 0;
    journal_floor = 0;
    labels = Entity.Tbl.create 64;
    rev_activities = [];
    rev_objects = [];
    engine = None;
  }

let engine t = t.engine
let set_engine t e = t.engine <- Some e
let version t = !(t.tick)
let tick = version
let tick_cell t = t.tick

(* The write barrier of parallel sweeps. Worker domains treat every
   store as read-only; the batch entry points freeze the store around
   the fan-out so that any mutation attempted while workers may be
   reading it — from a worker or from the coordinating domain — fails
   loudly instead of racing. Every mutation funnels through [touch],
   [fresh_id] or [set_label], so checking there covers them all. *)
let check_writable t =
  if t.frozen > 0 then
    invalid_arg
      "Store: mutation inside a read-only section (a parallel sweep is \
       reading this store)"

let is_read_only t = t.frozen > 0

let read_only t f =
  t.frozen <- t.frozen + 1;
  Fun.protect ~finally:(fun () -> t.frozen <- t.frozen - 1) f

let generation t e =
  match Entity.Tbl.find_opt t.gens e with None -> 0 | Some g -> g

let rec take_journal k = function
  | [] -> []
  | _ when k = 0 -> []
  | entry :: rest -> entry :: take_journal (k - 1) rest

let touch t e =
  check_writable t;
  incr t.tick;
  Entity.Tbl.replace t.gens e !(t.tick);
  t.journal <- (!(t.tick), e) :: t.journal;
  t.journal_len <- t.journal_len + 1;
  if t.journal_len > journal_cap then begin
    t.journal <- take_journal journal_keep t.journal;
    t.journal_len <- journal_keep;
    (match List.rev t.journal with
    | (oldest, _) :: _ -> t.journal_floor <- oldest - 1
    | [] -> t.journal_floor <- !(t.tick))
  end

let touched_since t since =
  if since >= !(t.tick) then []
  else if since >= t.journal_floor then begin
    let seen = Entity.Tbl.create 16 in
    let rec go acc = function
      | (tk, e) :: rest when tk > since ->
          if Entity.Tbl.mem seen e then go acc rest
          else begin
            Entity.Tbl.replace seen e ();
            go (e :: acc) rest
          end
      | _ -> acc
    in
    (* journal is newest-first; accumulate to oldest-first order *)
    go [] t.journal
  end
  else
    Entity.Tbl.fold
      (fun e g acc -> if g > since then e :: acc else acc)
      t.gens []

let fresh_id t =
  check_writable t;
  let id = t.next_id in
  t.next_id <- id + 1;
  incr t.tick;
  id

let create_object ?label ?(state = Data "") t =
  let e = Entity.Object (fresh_id t) in
  Entity.Tbl.replace t.objs e state;
  (* Allocation is a state change for the new entity, so it bumps the
     version and [touched_since] reports it. *)
  touch t e;
  (match label with None -> () | Some l -> Entity.Tbl.replace t.labels e l);
  t.rev_objects <- e :: t.rev_objects;
  e

let create_context_object ?label ?(ctx = Context.empty) t =
  create_object ?label ~state:(Context ctx) t

let create_activity ?label t =
  let e = Entity.Activity (fresh_id t) in
  (match label with None -> () | Some l -> Entity.Tbl.replace t.labels e l);
  t.rev_activities <- e :: t.rev_activities;
  e

let exists t e =
  match e with
  | Entity.Undefined -> false
  | Entity.Object _ -> Entity.Tbl.mem t.objs e
  | Entity.Activity _ -> List.exists (Entity.equal e) t.rev_activities

let obj_state t e =
  match e with
  | Entity.Object _ -> (
      match Entity.Tbl.find t.objs e with
      | s -> Some s
      | exception Not_found -> None)
  | Entity.Undefined | Entity.Activity _ -> None

let set_obj_state t e state =
  match e with
  | Entity.Object _ when Entity.Tbl.mem t.objs e ->
      touch t e;
      Entity.Tbl.replace t.objs e state
  | _ ->
      invalid_arg
        (Printf.sprintf "Store.set_obj_state: %s is not an object of this store"
           (Entity.to_string e))

let context_of t e =
  match obj_state t e with
  | Some (Context c) -> Some c
  | Some (Data _) | None -> None

let is_context_object t e =
  match context_of t e with Some _ -> true | None -> false

let data_of t e =
  match obj_state t e with
  | Some (Data d) -> Some d
  | Some (Context _) | None -> None

let set_context t e c = set_obj_state t e (Context c)

let bind t ~dir a e =
  match context_of t dir with
  | Some c -> set_context t dir (Context.bind c a e)
  | None ->
      invalid_arg
        (Printf.sprintf "Store.bind: %s is not a context object"
           (Entity.to_string dir))

let unbind t ~dir a =
  match context_of t dir with
  | Some c -> set_context t dir (Context.unbind c a)
  | None ->
      invalid_arg
        (Printf.sprintf "Store.unbind: %s is not a context object"
           (Entity.to_string dir))

let lookup t ~dir a =
  match context_of t dir with
  | Some c -> Context.lookup c a
  | None -> Entity.undefined

let label t e = Entity.Tbl.find_opt t.labels e

let set_label t e l =
  check_writable t;
  Entity.Tbl.replace t.labels e l

let pp_entity t ppf e =
  match label t e with
  | Some l -> Format.fprintf ppf "%s(%a)" l Entity.pp e
  | None -> Entity.pp ppf e

let id_bound t = t.next_id
let activities t = List.rev t.rev_activities
let objects t = List.rev t.rev_objects

let context_objects t =
  List.filter (fun e -> is_context_object t e) (objects t)

let cardinal t = List.length t.rev_activities + List.length t.rev_objects

let snapshot t =
  List.map
    (fun e ->
      match Entity.Tbl.find_opt t.objs e with
      | Some s -> (e, s)
      | None -> assert false)
    (objects t)

let restore t saved =
  List.iter
    (fun (e, s) ->
      touch t e;
      Entity.Tbl.replace t.objs e s)
    saved

let pp ppf t =
  Format.fprintf ppf "@[<v>store: %d entities@," (cardinal t);
  List.iter
    (fun a -> Format.fprintf ppf "activity %a@," (pp_entity t) a)
    (activities t);
  List.iter
    (fun o ->
      match obj_state t o with
      | Some (Context c) ->
          Format.fprintf ppf "ctxobj %a = %a@," (pp_entity t) o Context.pp c
      | Some (Data d) ->
          Format.fprintf ppf "object %a = %S@," (pp_entity t) o d
      | None -> ())
    (objects t);
  Format.fprintf ppf "@]"
