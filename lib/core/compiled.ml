(* The resolution compiler: a naming world flattened into one packed
   integer arena, one table per context object, each built the first
   time a walk steps into it.

   A context object's {e table} is an open-addressed hash table of
   interned atom ids, stored as a region of the int arena. A region is a
   header word (the region's probe mask) followed by four-word cells
   [atom; target; link; linkmask] — the bound atom, the target entity's
   id, the arena offset of the target's table when it has one (-1
   otherwise), and that table's probe mask. Because child links are
   arena offsets rather than heap pointers, the walk keeps the arena
   base in a register and a resolution step costs exactly two dependent
   loads: the probed key (its cell neighbours share the cache line) and
   the child's key. Integer loads and compares only — no Context map
   descent, no Store hashtable lookup, no allocation.

   Entities are indexed by their store id (ids are dense and shared by
   objects and activities): [ents] maps an id to its entity and [offs]
   to the offset of its table, -1 when it has none. Those two arrays
   are the source of truth that the cells' cached links mirror.

   Tables are built lazily. A walk that meets a link of -1 with atoms
   left takes the cold path: the target's table is looked up in [offs],
   built on the spot when the target is a context object, and the cell
   is patched so the next walk takes the two-load step. [compile] is
   the same engine with every table forced up front.

   Mutations are folded in by [refresh] through [Store.touched_since]:
   a touched entity that has a table gets it rebuilt, in place when the
   new table fits the region (a demoted entity's table is rebuilt
   empty, so every atom misses there, as in the interpreter); one that
   has none is left for its first walk. A rebuild that {e moves} a
   region (capacity growth) re-syncs every cached link from [offs] — a
   rare linear sweep that buys the two-load step. Abandoned regions are
   simply left behind: the arena is a bump allocator.

   A starting context {e value} has no backing context object, so
   [resolve] looks the first atom up in the value itself
   ([Context.lookup], keyed by atom id and allocation-free) and walks
   the rest through the tables. A value has no identity to key a table
   by: it is an immutable map, and a union context is built afresh for
   every selection.

   A shard ([snapshot]) shares the arena, [ents] and [offs] with its
   owner and owns only its miss list. Under [Store.read_only] nothing
   changes them, and a shard never writes them: a walk into a context
   object with no table finishes on the interpreter — exact, since the
   store is frozen — and the shard remembers the object so the owner can
   build its table after the batch ([adopt]). *)

type stats = {
  tables : int;
  nodes : int;
  slots : int;
  table_cells : int;
  bindings : int;
  arena_words : int;
  node_builds : int;
  patches : int;
  patched_nodes : int;
}

type t = {
  store : Store.t;
  tick : int ref;  (* the store's own clock cell: staleness polls inline *)
  mutable gen : int;  (* store tick the tables reflect *)
  owner : bool;  (* false for shards, which never write shared tables *)
  mutable ents : Entity.t array;  (* id -> entity, for ids the tables name *)
  mutable offs : int array;  (* id -> table offset, -1 = none *)
  mutable arena : int array;
  mutable arena_top : int;  (* bump pointer *)
  misses : (int, Entity.t) Hashtbl.t;  (* a shard's unbuilt tables, by id *)
  mutable node_builds : int;
  mutable patches : int;
  mutable patched_nodes : int;
}

let store t = t.store

let id_of = function
  | Entity.Undefined -> -1
  | Entity.Object i | Entity.Activity i -> i

let rec next_pow2 n k = if k >= n then k else next_pow2 n (2 * k)

(* Cells for [ctx] at load factor <= 1/2, so probes always terminate on
   an empty cell. *)
let capacity ctx = next_pow2 (2 * Context.cardinal ctx) 4

let create store =
  let n = Store.id_bound store in
  {
    store;
    tick = Store.tick_cell store;
    gen = Store.tick store;
    owner = true;
    ents = Array.make n Entity.undefined;
    offs = Array.make n (-1);
    arena = [||];
    arena_top = 0;
    misses = Hashtbl.create 1;
    node_builds = 0;
    patches = 0;
    patched_nodes = 0;
  }

(* Cover every id the store has handed out (ids only grow). *)
let ensure_ids t n =
  let cap = Array.length t.offs in
  if n > cap then begin
    let n = max n (2 * cap) in
    let ents = Array.make n Entity.undefined and offs = Array.make n (-1) in
    Array.blit t.ents 0 ents 0 cap;
    Array.blit t.offs 0 offs 0 cap;
    t.ents <- ents;
    t.offs <- offs
  end

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)

(* [alloc_region t cap] carves a fresh region of [cap] four-word cells
   and returns its offset; the header word before the offset holds the
   region's probe mask, which never changes afterwards. Space past the
   bump pointer is always -1 (empty). *)
let alloc_region t cap =
  let need = 1 + (4 * cap) in
  let len = Array.length t.arena in
  if t.arena_top + need > len then begin
    let grown = Array.make (max (2 * len) (t.arena_top + need)) (-1) in
    Array.blit t.arena 0 grown 0 t.arena_top;
    t.arena <- grown
  end;
  let off = t.arena_top + 1 in
  t.arena.(off - 1) <- (4 * cap) - 4;
  t.arena_top <- t.arena_top + need;
  off

let mask_at t off = if off < 0 then 0 else t.arena.(off - 1)

(* Set the cached link of the cell at [c] to the table at [off] (-1 for
   none). *)
let set_link t c off =
  t.arena.(c + 2) <- off;
  t.arena.(c + 3) <- mask_at t off

let rec place t base mask i a target off =
  if t.arena.(base + i) = -1 then begin
    t.arena.(base + i) <- a;
    t.arena.(base + i + 1) <- target;
    set_link t (base + i) off
  end
  else place t base mask ((i + 4) land mask) a target off

(* Place atom [a] bound to the entity id [target] in the table at
   [base]. *)
let bind_cell t base a target off =
  let mask = t.arena.(base - 1) in
  place t base mask ((a lsl 2) land mask) a target off

(* Fill the empty table at [off] from a context; its capacity (and so
   its mask) is fixed, and callers guarantee it fits. Cells link to the
   targets' tables as [offs] has them now; later builds patch or re-sync
   them. *)
let fill t off ctx =
  Context.iter_unordered
    (fun a e ->
      let id = id_of e in
      (* a dangling binding may name an id the store never issued *)
      if id >= Array.length t.offs then ensure_ids t (id + 1);
      t.ents.(id) <- e;
      bind_cell t off (Name.atom_id a) id t.offs.(id))
    ctx;
  t.node_builds <- t.node_builds + 1

let build t e ctx =
  let off = alloc_region t (capacity ctx) in
  let id = id_of e in
  t.ents.(id) <- e;
  t.offs.(id) <- off;
  fill t off ctx;
  off

(* The table of [e] for a walk about to step into it: the owner builds
   it on first use; a shard only reads. -1 when [e] has no table — not
   a context object, or (in a shard) not built yet. *)
let table t e =
  let id = id_of e in
  if id < 0 || id >= Array.length t.offs then -1
  else
    let off = t.offs.(id) in
    if off >= 0 || not t.owner then off
    else
      match Store.context_of t.store e with
      | Some ctx -> build t e ctx
      | None -> -1

(* Re-point every live cell's cached link at its target's current
   table — the repair pass after a rebuild moved a region. Abandoned
   regions are unreachable from [offs] and skipped. *)
let resync t =
  let arena = t.arena in
  Array.iter
    (fun off ->
      if off >= 0 then begin
        let last = off + arena.(off - 1) in
        let c = ref off in
        while !c <= last do
          if arena.(!c) >= 0 then set_link t !c t.offs.(arena.(!c + 1));
          c := !c + 4
        done
      end)
    t.offs

(* Rebuild [e]'s table from its current state (empty once demoted),
   reporting whether the region moved. *)
let rebuild t e off =
  let ctx =
    match Store.context_of t.store e with Some c -> c | None -> Context.empty
  in
  if t.arena.(off - 1) >= (4 * capacity ctx) - 4 then begin
    Array.fill t.arena off (t.arena.(off - 1) + 4) (-1);
    fill t off ctx;
    false
  end
  else begin
    ignore (build t e ctx);
    true
  end

let refresh_slow t =
  if not t.owner then
    invalid_arg "Compiled: a shard's store changed while it was in use";
  let touched = Store.touched_since t.store t.gen in
  t.gen <- Store.tick t.store;
  ensure_ids t (Store.id_bound t.store);
  match touched with
  | [] -> ()
  | _ ->
      t.patches <- t.patches + 1;
      let moved =
        List.fold_left
          (fun moved e ->
            t.patched_nodes <- t.patched_nodes + 1;
            let off = t.offs.(id_of e) in
            if off >= 0 then rebuild t e off || moved else moved)
          false touched
      in
      if moved then resync t

let refresh t = if !(t.tick) <> t.gen then refresh_slow t

(* A fresh engine with every context object's table forced, in id
   (allocation) order so a directory's table lands near its parent's,
   then every cell's link made exact. *)
let compile store =
  let t = create store in
  for id = 0 to Store.id_bound store - 1 do
    ignore (table t (Entity.Object id))
  done;
  resync t;
  t

type Store.engine += Own of t

let of_store store =
  match Store.engine store with
  | Some (Own t) -> t
  | Some _ | None ->
      let t = create store in
      Store.set_engine store (Own t);
      t

(* A shard shares every table with its owner and owns only its miss
   list: nothing is copied, so a worker costs O(1) to create. It does
   not refresh — the owner is refreshed on its own domain before the
   fan-out. *)
let snapshot t =
  {
    t with
    owner = false;
    misses = Hashtbl.create 8;
    node_builds = 0;
    patches = 0;
    patched_nodes = 0;
  }

let adopt t shards =
  refresh t;
  List.iter
    (fun s ->
      Hashtbl.iter (fun _ e -> ignore (table t e)) s.misses;
      Hashtbl.reset s.misses)
    shards

(* ------------------------------------------------------------------ *)
(* Resolution                                                          *)

(* Where a walk goes when the next table is not available to it: the
   owner's [table] already built any context object's table, so for it
   the target is not a context object; a shard finishes the walk on the
   interpreter over the frozen store. *)
let fallback t e atoms =
  if t.owner then Entity.undefined
  else
    match Store.context_of t.store e with
    | None -> Entity.undefined
    | Some _ ->
        Hashtbl.replace t.misses (id_of e) e;
        Resolver.resolve_in t.store e (Name.of_atoms atoms)

(* The hot loop: probe fused with the step, the child's region offset
   and probe mask read from the matched cell itself. A top-level
   tail-recursive function — every argument lives in a register, no
   closure is allocated, and the self tail call compiles to a jump. The
   cell's four fields load in parallel (their addresses share a base),
   so the dependent chain from one step to the next is a single L1
   load. A link of -1 leaves the loop for [cold]. *)
let rec walk t ents arena off i mask a atoms =
  let k = Array.unsafe_get arena (off + i) in
  if k = a then
    match atoms with
    | [] -> Array.unsafe_get ents (Array.unsafe_get arena (off + i + 1))
    | a' :: rest ->
        let off' = Array.unsafe_get arena (off + i + 2) in
        if off' < 0 then cold t (off + i) atoms
        else
          let m = Array.unsafe_get arena (off + i + 3) in
          let a' = Name.atom_id a' in
          walk t ents arena off' ((a' lsl 2) land m) m a' rest
  else if k < 0 then Entity.undefined
  else walk t ents arena off ((i + 4) land mask) mask a atoms

(* The cell at [c] matched but caches no link: find (or, in the owner,
   build) the target's table, patch the owner's cell and go on. *)
and cold t c atoms =
  let e = t.ents.(t.arena.(c + 1)) in
  let off = table t e in
  if off >= 0 then begin
    if t.owner then set_link t c off;
    descend t off atoms
  end
  else fallback t e atoms

and descend t off atoms =
  match atoms with
  | [] -> assert false
  | a :: rest ->
      let mask = Array.unsafe_get t.arena (off - 1) in
      let a = Name.atom_id a in
      walk t t.ents t.arena off ((a lsl 2) land mask) mask a rest

(* The walk from entity [o] on: straight into its table when it has
   one, else through [table] (which the owner builds on first use) or
   the fallback. *)
let walk_from t o atoms =
  match o with
  | Entity.Object id when id < Array.length t.offs && t.offs.(id) >= 0 ->
      descend t t.offs.(id) atoms
  | _ ->
      let off = table t o in
      if off >= 0 then descend t off atoms else fallback t o atoms

let resolve_in t o name =
  refresh t;
  walk_from t o (Name.atoms name)

(* Resolution relative to a context value: the first atom through the
   value itself, every further one through the packed tables. *)
let resolve t ctx name =
  refresh t;
  match Name.atoms name with
  | [] -> assert false
  | [ a ] -> Context.lookup ctx a
  | a :: rest -> walk_from t (Context.lookup ctx a) rest

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let stats t =
  (* Abandoned regions and demoted objects' empty tables still occupy
     arena space; count only current context objects' tables. *)
  let nodes = ref 0 and slots = ref 0 in
  let table_cells = ref 0 and bindings = ref 0 in
  Array.iteri
    (fun id off ->
      let e = t.ents.(id) in
      if Entity.is_defined e then incr slots;
      if off >= 0 && Store.is_context_object t.store e then begin
        incr nodes;
        let mask = t.arena.(off - 1) in
        table_cells := !table_cells + ((mask + 4) / 4);
        let i = ref 0 in
        while !i <= mask do
          if t.arena.(off + !i) >= 0 then incr bindings;
          i := !i + 4
        done
      end)
    t.offs;
  {
    tables = List.length (Store.context_objects t.store);
    nodes = !nodes;
    slots = !slots;
    table_cells = !table_cells;
    bindings = !bindings;
    arena_words = t.arena_top;
    node_builds = t.node_builds;
    patches = t.patches;
    patched_nodes = t.patched_nodes;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "tables=%d/%d slots=%d cells=%d bindings=%d builds=%d patches=%d \
     patched_nodes=%d"
    s.nodes s.tables s.slots s.table_cells s.bindings s.node_builds s.patches
    s.patched_nodes
