module N = Naming.Name
module E = Naming.Entity
module S = Naming.Store
module C = Naming.Context

type spec = {
  dirs : N.t list;
  leaves : (string * string) list;
  links : (N.t * string) list;
}

(* ------------------------------------------------------------------ *)
(* Extracting a spec from an existing world.                           *)

let atom_is a b = Int.equal (N.atom_id a) (N.atom_id b)

let skip_atom a =
  atom_is a N.self_atom || atom_is a N.parent_atom || atom_is a N.root_atom

let max_depth = 4
let max_nodes = 512

let spec_of_context store ctx =
  let dirs = ref [] and leaves = ref [] and links = ref [] in
  let leaf_keys : (int, string) Hashtbl.t = Hashtbl.create 32 in
  let visited : (int, unit) Hashtbl.t = Hashtbl.create 32 in
  let nodes = ref 0 in
  let leaf_key e =
    match Hashtbl.find_opt leaf_keys (E.id e) with
    | Some k -> k
    | None ->
        let k = Printf.sprintf "k%d" (E.id e) in
        let label =
          match S.label store e with Some l -> l | None -> k
        in
        Hashtbl.replace leaf_keys (E.id e) k;
        leaves := (k, label) :: !leaves;
        k
  in
  let rec walk path depth ctx =
    if depth < max_depth then
      List.iter
        (fun (atom, target) ->
          if (not (skip_atom atom)) && !nodes < max_nodes then
            match S.obj_state store target with
            | Some (S.Context sub) ->
                if not (Hashtbl.mem visited (E.id target)) then begin
                  Hashtbl.replace visited (E.id target) ();
                  incr nodes;
                  let p = N.snoc path atom in
                  dirs := p :: !dirs;
                  walk p (depth + 1) sub
                end
            | Some (S.Data _) ->
                incr nodes;
                links := (N.snoc path atom, leaf_key target) :: !links
            | None -> ())
        (C.bindings ctx)
  in
  (* Start from the tree behind the context's "/" binding when there is
     one (an activity context names the root directory rather than being
     it); otherwise the context is the root itself. Marking the root
     visited also breaks the root's customary "/" self-binding. *)
  let start =
    if C.mem ctx N.root_atom then
      let root = C.lookup ctx N.root_atom in
      match S.obj_state store root with
      | Some (S.Context root_ctx) ->
          Hashtbl.replace visited (E.id root) ();
          root_ctx
      | _ -> ctx
    else ctx
  in
  walk (N.singleton N.root_atom) 0 start;
  {
    dirs = List.rev !dirs;
    leaves = List.rev !leaves;
    links = List.rev !links;
  }

(* ------------------------------------------------------------------ *)
(* The wire protocol.                                                  *)

type mode = [ `Lww_ae | `Leader_log ]

type txn_id = { client : int; tseq : int }

type action =
  | Bind_group of (N.t * N.atom * string option) list
  | Atomic_rename of {
      src_path : N.t;
      src_atom : N.atom;
      dst_path : N.t;
      dst_atom : N.atom;
    }

type entry = { eterm : int; txn : txn_id; action : action }
type outcome = Committed | Aborted of string | Pending

type request =
  | Resolve of N.t
  | Write of { path : N.t; atom : N.atom; target : string option }
  | Pull of int array
  | Submit of { txn : txn_id; action : action }
  | Query of txn_id
  | Request_vote of {
      term : int;
      candidate : int;
      last_idx : int;
      last_term : int;
    }
  | Append_entries of {
      term : int;
      leader : int;
      prev_idx : int;
      prev_term : int;
      entries : entry list;
      commit : int;
    }

type op = {
  origin : int;
  seq : int;
  stamp : int;
  path : N.t;
  atom : N.atom;
  target : string option;
}

type response =
  | Resolved of E.t
  | Ack of { stamp : int }
  | Ops of op list
  | Nack of string
  | Submitted of { term : int; index : int }
  | Redirect of int option
  | Voted of { term : int; granted : bool }
  | Appended of { term : int; ok : bool; matched : int }
  | Outcome_is of outcome

(* ------------------------------------------------------------------ *)
(* Replicas and clusters.                                              *)

(* What every replica has, whatever its tier: a node, a mirror of the
   tree and a server endpoint. *)
type replica = {
  id : int;
  node : Network.node_id;
  root : E.t;
  dirs : (string, E.t) Hashtbl.t;  (** logical path → this mirror's dir *)
  rng : Rng.t;
  endpoint : (request, response) Rpc.endpoint;
}

(* A replica's `Lww_ae state. *)
type lww = {
  mutable log : op list;  (** newest first *)
  vec : int array;
  winners : (string * string, int * int) Hashtbl.t;
      (** (dir, atom) → (stamp, origin) of the write the mirror holds *)
  mutable clock : int;
}

type role = Follower | Candidate | Leader

(* A replica's `Leader_log state. *)
type leader = {
  mutable term : int;
  mutable voted_for : int option;
  mutable role : role;
  mutable known_leader : int option;
  mutable llog : entry array;  (** oldest first; log index i lives at i-1 *)
  mutable commit_idx : int;
  mutable applied_idx : int;
  mutable votes : int;
  mutable last_heartbeat : float;
  mutable election_timeout : float;
  mutable election_backoff : int;
      (** widens the timeout redraw span after each fruitless election;
          reset on hearing a leader — split votes then break quickly
          even when message latency rivals the heartbeat period *)
  next_idx : int array;
  match_idx : int array;
  peer_acked : float array;  (** leader lease: last reply time per peer *)
  outcomes : (txn_id, outcome) Hashtbl.t;
}

(* Each replica's tier state, indexed by replica id. *)
type tier = Lww_ae of lww array | Leader_log of leader array

type stat

let schema : stat Counters.schema = Counters.schema ()
let writes_accepted = Counters.key schema "writes_accepted"
let ops_applied = Counters.key schema "ops_applied"
let lww_losses = Counters.key schema "lww_losses"
let pulls = Counters.key schema "pulls"
let pull_failures = Counters.key schema "pull_failures"
let elections = Counters.key schema "elections"
let txns_committed = Counters.key schema "txns_committed"
let txns_aborted = Counters.key schema "txns_aborted"

type t = {
  tier : tier;
  network : (request, response) Rpc.message Network.t;
  store : S.t;
  leaves : (string, E.t) Hashtbl.t;
  members : replica array;
  repl : Naming.Replication.t;
  rule : Naming.Rule.t;
  probes : E.t array;  (** one probe activity per replica *)
  mutable last_measure : (N.t list * int * Naming.Coherence.report) option;
      (** the probe list, store version and report of the last
          {!measure}: reused while both are unchanged *)
  decided : (txn_id, unit) Hashtbl.t;  (** txns already counted *)
  mutable ae_gen : int;  (** bumped by start/stop; stale ticks die *)
  counters : stat Counters.t;
  mutable proto_timeout : float;
      (** per-message timeout for leader-log protocol traffic *)
}

let port = 1
let now t = Engine.now (Network.engine t.network)
let path_key path = N.to_string (N.prepend_root path)

let split_last path =
  match List.rev (N.atoms path) with
  | last :: (_ :: _ as rev_parent) -> (N.of_atoms (List.rev rev_parent), last)
  | [ only ] -> (N.singleton N.root_atom, only)
  | [] -> invalid_arg "Nameserver: empty path"

(* Both tiers stagger their replicas' first ticks, so replica order never
   depends on how simultaneous events happen to interleave. *)
let first_tick ~period ~replicas i =
  period *. (1.0 +. (float_of_int i /. float_of_int replicas))

(* Each tier's driver: runs [tick r k] for every replica [r], first at
   its staggered {!first_tick} and then every [period] ([k] counts the
   replica's ticks), until the next start or stop. *)
let every t ~period tick =
  t.ae_gen <- t.ae_gen + 1;
  let gen = t.ae_gen in
  let engine = Network.engine t.network in
  let n = Array.length t.members in
  let rec loop r k () =
    if t.ae_gen = gen then begin
      tick r k;
      ignore (Engine.schedule engine ~delay:period (loop r (k + 1)))
    end
  in
  Array.iter
    (fun r ->
      let delay = first_tick ~period ~replicas:n r.id in
      ignore (Engine.schedule engine ~delay (loop r 0)))
    t.members

(* Both tiers write a mirror binding the same way: [write_refusal]
   says why [target] cannot be bound in [path] at [r], if it cannot, and
   [set_binding] binds [atom] in [dir] to the leaf keyed [target], or
   unbinds it on [None]. *)
let write_refusal t r path target =
  if not (Hashtbl.mem r.dirs (path_key path)) then
    Some ("unknown directory " ^ path_key path)
  else
    match target with
    | Some key when not (Hashtbl.mem t.leaves key) ->
        Some ("unknown leaf " ^ key)
    | _ -> None

let set_binding t ~dir atom = function
  | Some key ->
      Option.iter (S.bind t.store ~dir atom) (Hashtbl.find_opt t.leaves key)
  | None -> S.unbind t.store ~dir atom

(* ------------------------------------------------------------------ *)
(* Last-writer-wins with anti-entropy (`Lww_ae).                       *)

(* Applies one op at one replica: record it (in per-origin order), then
   let last-writer-wins on (stamp, origin) decide whether it touches the
   mirror. The comparison is a total order, so any two replicas that
   have applied the same set of ops hold identical mirrors. *)
let apply t r s op =
  if op.stamp > s.clock then s.clock <- op.stamp;
  let have = s.vec.(op.origin) in
  if op.seq = have + 1 then begin
    s.vec.(op.origin) <- op.seq;
    s.log <- op :: s.log;
    Counters.incr t.counters ops_applied;
    let key = (path_key op.path, N.atom_to_string op.atom) in
    let newer =
      match Hashtbl.find_opt s.winners key with
      | None -> true
      | Some (stamp, origin) ->
          op.stamp > stamp || (op.stamp = stamp && op.origin > origin)
    in
    if newer then begin
      Hashtbl.replace s.winners key (op.stamp, op.origin);
      Option.iter
        (fun dir -> set_binding t ~dir op.atom op.target)
        (Hashtbl.find_opt r.dirs (fst key))
    end
    else Counters.incr t.counters lww_losses
  end
(* op.seq <= have: a duplicate, already applied. A gap (op.seq > have+1)
   cannot arise from the pull protocol, which ships per-origin deltas in
   sequence order; if it somehow does, the op is dropped and a later
   pull re-fetches the origin's suffix in order. *)

let lww_handle t r s = function
  | Write { path; atom; target } -> (
      match write_refusal t r path target with
      | Some reason -> Nack reason
      | None ->
          s.clock <- s.clock + 1;
          let op =
            {
              origin = r.id;
              seq = s.vec.(r.id) + 1;
              stamp = s.clock;
              path = N.prepend_root path;
              atom;
              target;
            }
          in
          apply t r s op;
          Counters.incr t.counters writes_accepted;
          Ack { stamp = op.stamp })
  | Pull vec ->
      let have origin seq =
        origin < Array.length vec && seq <= vec.(origin)
      in
      let missing =
        List.filter (fun op -> not (have op.origin op.seq)) s.log
      in
      let sorted =
        List.sort
          (fun a b ->
            match Int.compare a.origin b.origin with
            | 0 -> Int.compare a.seq b.seq
            | c -> c)
          missing
      in
      Ops sorted
  | _ -> Nack "leader-log request in lww-ae mode"

let start_lww_anti_entropy ~period ~timeout ~attempts t states =
  let n = Array.length t.members in
  every t ~period (fun r _ ->
      if Network.node_is_up t.network r.node then begin
        let s = states.(r.id) in
        let peer =
          let k = Rng.int r.rng (n - 1) in
          t.members.(if k >= r.id then k + 1 else k)
        in
        Counters.incr t.counters pulls;
        Rpc.call_retry r.endpoint
          ~to_:{ Network.node = peer.node; port }
          ~timeout ~rng:r.rng ~attempts (Pull (Array.copy s.vec))
          ~on_reply:(function
            | Ok (Ops ops) -> List.iter (apply t r s) ops
            | Ok _ -> ()
            | Error (`Timeout | `Unavailable) ->
                Counters.incr t.counters pull_failures)
      end)

(* ------------------------------------------------------------------ *)
(* The leader log (`Leader_log).

   A small Raft-shaped replicated log: terms, randomized election
   timeouts drawn from each replica's seeded rng, majority voting with
   the up-to-date-log restriction, append/ack majority commit, follower
   log repair by next-index walk-back, and a leader lease (a leader that
   cannot reach a majority within an election timeout steps down, so a
   minority-side leader deposes itself during a partition). A fresh
   leader appends a no-op entry (txn.client < 0) to commit its
   predecessor's tail and anchor current-term commitment — the standard
   precondition for deciding that an entry absent from the leader's log
   can never commit, i.e. for reporting [Aborted] to the client.

   Committed entries are applied, in log order, by every replica to its
   own mirror; an action's precondition is evaluated against the mirror
   at application time, so all replicas reach the same commit-or-abort
   decision and identical mirror states for the same committed prefix.

   The functions below take the cluster [t], a replica's shared part [r]
   and its leader-log state [l]. *)

let majority t = (Array.length t.members / 2) + 1

(* Whether [r] and the peers [p] whose [per_peer.(p)] passes [ok] make a
   majority: a commit's acks, a leader's lease. *)
let quorum t r per_peer ok =
  let n = ref 1 in
  Array.iteri (fun p x -> if p <> r.id && ok x then incr n) per_peer;
  !n >= majority t
let noop_txn r l = { client = -1 - r.id; tseq = l.term }

let last_log_info l =
  let n = Array.length l.llog in
  if n = 0 then (0, 0) else (n, l.llog.(n - 1).eterm)

let observe_term l term =
  if term > l.term then begin
    l.term <- term;
    l.voted_for <- None;
    l.role <- Follower;
    l.known_leader <- None
  end

let find_txn l txn =
  Option.map succ (Array.find_index (fun e -> e.txn = txn) l.llog)

(* Records [txn]'s fate at one replica; the first decision the cluster
   reaches on a client txn is also counted. *)
let decide t l txn outcome =
  if txn.client >= 0 && not (Hashtbl.mem t.decided txn) then begin
    Hashtbl.replace t.decided txn ();
    match outcome with
    | Committed -> Counters.incr t.counters txns_committed
    | Aborted _ -> Counters.incr t.counters txns_aborted
    | Pending -> ()
  end;
  Hashtbl.replace l.outcomes txn outcome

(* Both the commit decision and the mirror mutation for one committed
   entry. Preconditions are checked first so the action commits or
   aborts as a unit: an aborted action touches nothing. *)
let apply_action t r action =
  let dir path = Hashtbl.find_opt r.dirs (path_key path) in
  let unknown path = Aborted ("unknown directory " ^ path_key path) in
  match action with
  | Bind_group writes -> (
      let refusal (path, _, target) = write_refusal t r path target in
      match List.find_map refusal writes with
      | Some reason -> Aborted reason
      | None ->
          List.iter
            (fun (path, atom, target) ->
              set_binding t ~dir:(Option.get (dir path)) atom target)
            writes;
          Committed)
  | Atomic_rename { src_path; src_atom; dst_path; dst_atom } -> (
      match (dir src_path, dir dst_path) with
      | None, _ -> unknown src_path
      | _, None -> unknown dst_path
      | Some src_dir, Some dst_dir -> (
          match S.obj_state t.store src_dir with
          | Some (S.Context ctx) when C.mem ctx src_atom ->
              let target = C.lookup ctx src_atom in
              S.unbind t.store ~dir:src_dir src_atom;
              S.bind t.store ~dir:dst_dir dst_atom target;
              Committed
          | _ ->
              Aborted
                (Printf.sprintf "%s has no binding %s" (path_key src_path)
                   (N.atom_to_string src_atom))))

let apply_entry t r l e =
  let outcome = apply_action t r e.action in
  if e.txn.client >= 0 then
    Counters.incr t.counters ops_applied;
  decide t l e.txn outcome

let apply_committed t r l =
  while l.applied_idx < l.commit_idx do
    let e = l.llog.(l.applied_idx) in
    l.applied_idx <- l.applied_idx + 1;
    apply_entry t r l e
  done

let advance_commit t r l =
  (* only current-term entries commit by counting (Raft §5.4.2);
     earlier-term entries commit as part of the prefix *)
  for idx = l.commit_idx + 1 to Array.length l.llog do
    if l.llog.(idx - 1).eterm = l.term then begin
      if quorum t r l.match_idx (fun m -> m >= idx) then l.commit_idx <- idx
    end
  done;
  apply_committed t r l

(* Ships [peer] the leader's log from its next index on. A refusal from
   a peer whose log does not match walks the next index back one entry
   and ships again, until the logs agree. *)
let rec append_to t r l peer =
  let term_at = l.term in
  let ni = max 1 l.next_idx.(peer.id) in
  let prev_idx = ni - 1 in
  let prev_term = if prev_idx = 0 then 0 else l.llog.(prev_idx - 1).eterm in
  let len = Array.length l.llog in
  let entries =
    if ni > len then []
    else Array.to_list (Array.sub l.llog (ni - 1) (len - ni + 1))
  in
  Rpc.call r.endpoint
    ~to_:{ Network.node = peer.node; port }
    ~timeout:t.proto_timeout
    (Append_entries
       {
         term = l.term;
         leader = r.id;
         prev_idx;
         prev_term;
         entries;
         commit = l.commit_idx;
       })
    ~on_reply:(function
      | Ok (Appended { term; ok; matched }) ->
          observe_term l term;
          if l.role = Leader && l.term = term_at then begin
            l.peer_acked.(peer.id) <- now t;
            if ok then begin
              l.match_idx.(peer.id) <- max l.match_idx.(peer.id) matched;
              l.next_idx.(peer.id) <- max l.next_idx.(peer.id) (matched + 1);
              advance_commit t r l
            end
            else if l.next_idx.(peer.id) > 1 then begin
              l.next_idx.(peer.id) <- ni - 1;
              append_to t r l peer
            end
          end
      | Ok _ | Error _ -> ())

let broadcast_append t r l =
  Array.iter
    (fun peer -> if peer.id <> r.id then append_to t r l peer)
    t.members

let become_leader t r l =
  l.role <- Leader;
  l.known_leader <- Some r.id;
  l.election_backoff <- 1;
  let n = Array.length t.members in
  Array.fill l.next_idx 0 n (Array.length l.llog + 1);
  Array.fill l.match_idx 0 n 0;
  Array.fill l.peer_acked 0 n (now t);
  (* no-op entry: commits the predecessor's tail, anchors this term *)
  l.llog <-
    Array.append l.llog
      [| { eterm = l.term; txn = noop_txn r l; action = Bind_group [] } |];
  broadcast_append t r l

let start_election t r l =
  l.term <- l.term + 1;
  Counters.incr t.counters elections;
  l.role <- Candidate;
  l.voted_for <- Some r.id;
  l.votes <- 1;
  l.known_leader <- None;
  l.last_heartbeat <- now t;
  let last_idx, last_term = last_log_info l in
  let term_at = l.term in
  (* a lone vote is never a majority: clusters have 2 replicas or more *)
  Array.iter
    (fun peer ->
      if peer.id <> r.id then
        (* retried: a dropped vote request must not waste the whole
           election round *)
        Rpc.call_retry r.endpoint
          ~to_:{ Network.node = peer.node; port }
          ~timeout:t.proto_timeout ~rng:r.rng ~attempts:2
          (Request_vote { term = l.term; candidate = r.id; last_idx; last_term })
          ~on_reply:(function
            | Ok (Voted { term; granted }) ->
                observe_term l term;
                if l.role = Candidate && l.term = term_at && granted then begin
                  l.votes <- l.votes + 1;
                  if l.votes >= majority t then become_leader t r l
                end
            | Ok _ | Error _ -> ()))
    t.members

let leader_handle t r l = function
  | Submit { txn; action } -> (
      (* log-level dedup: a resubmission of a txn already appended (or
         already decided) is answered without a second append, so the
         exactly-once guarantee survives client-side redirect loops *)
      match (l.role, Hashtbl.find_opt l.outcomes txn, find_txn l txn) with
      | (Follower | Candidate), _, _ -> Redirect l.known_leader
      | Leader, Some o, _ -> Outcome_is o
      | Leader, None, Some index -> Submitted { term = l.term; index }
      | Leader, None, None ->
          l.llog <- Array.append l.llog [| { eterm = l.term; txn; action } |];
          Counters.incr t.counters writes_accepted;
          broadcast_append t r l;
          Submitted { term = l.term; index = Array.length l.llog })
  | Query txn -> (
      match (Hashtbl.find_opt l.outcomes txn, l.role) with
      | Some o, _ -> Outcome_is o
      | None, (Follower | Candidate) -> Redirect l.known_leader
      | None, Leader ->
          (* a leader that has committed an entry of its own term and
             finds no trace of the txn knows it can never commit (leader
             completeness): a sticky abort *)
          if
            find_txn l txn = None && l.commit_idx > 0
            && l.llog.(l.commit_idx - 1).eterm = l.term
          then begin
            let o = Aborted "lost in leader change" in
            decide t l txn o;
            Outcome_is o
          end
          else Outcome_is Pending)
  | Request_vote { term; candidate; last_idx; last_term } ->
      observe_term l term;
      (* Same-term tie-break: a candidate yields to a lower-id rival.
         Its own self-vote dies with its candidacy (the role check in
         the vote-reply handler keeps it from ever counting a
         majority), so each replica still casts at most one live vote
         per term — split votes break in one round instead of stalling
         a full timeout. *)
      if
        term = l.term && l.role = Candidate && candidate < r.id
        && l.voted_for = Some r.id
      then begin
        l.role <- Follower;
        l.voted_for <- None
      end;
      let my_idx, my_term = last_log_info l in
      let up_to_date =
        last_term > my_term || (last_term = my_term && last_idx >= my_idx)
      in
      let granted =
        term = l.term && up_to_date
        && match l.voted_for with None -> true | Some c -> c = candidate
      in
      if granted then begin
        l.voted_for <- Some candidate;
        l.last_heartbeat <- now t
      end;
      Voted { term = l.term; granted }
  | Append_entries { term; leader; prev_idx; prev_term; entries; commit } ->
      observe_term l term;
      if term < l.term then Appended { term = l.term; ok = false; matched = 0 }
      else begin
        l.role <- Follower;
        l.known_leader <- Some leader;
        l.election_backoff <- 1;
        l.last_heartbeat <- now t;
        let len = Array.length l.llog in
        let prev_ok =
          prev_idx = 0
          || (prev_idx <= len && l.llog.(prev_idx - 1).eterm = prev_term)
        in
        if not prev_ok then Appended { term = l.term; ok = false; matched = 0 }
        else begin
          List.iteri
            (fun i e ->
              (* a new entry, or a conflict: drop the (uncommitted)
                 suffix from [idx] on and take the leader's entry *)
              let idx = prev_idx + i + 1 in
              if idx > Array.length l.llog || l.llog.(idx - 1).eterm <> e.eterm
              then
                l.llog <- Array.append (Array.sub l.llog 0 (idx - 1)) [| e |])
            entries;
          let matched = prev_idx + List.length entries in
          let new_commit = min commit (Array.length l.llog) in
          if new_commit > l.commit_idx then begin
            l.commit_idx <- new_commit;
            apply_committed t r l
          end;
          Appended { term = l.term; ok = true; matched }
        end
      end
  | _ -> Nack "lww-ae request in leader-log mode"

(* The leader-log driver: one staggered recurring tick per replica. A
   leader's tick checks its lease (step down when a majority has not
   answered within an election timeout — this is what deposes a
   minority-side leader during a partition) and sends heartbeats; a
   follower's or candidate's tick starts an election when it has not
   heard from a live leader within its randomized timeout. Crashed
   nodes forfeit any role on their tick and rejoin as followers. *)
let start_leader_protocol ~period ~timeout t states =
  t.proto_timeout <- timeout;
  let base = 2.0 *. period in
  (* the lease outlives one heartbeat round trip, else a slow (but
     healthy) network deposes a working leader every few ticks *)
  let lease = 3.0 *. period in
  (* Election timeouts are id-staggered into near-disjoint ranges: in
     this simulation one message flight can rival the heartbeat period,
     so purely random draws from a shared range would send two
     candidates into split votes about half the time. The stagger makes
     the lowest-id live replica fire first (its Request_vote resets the
     others' timers); the randomized tail plus backoff still breaks any
     residual tie. *)
  let span = base /. 2.0 in
  let redraw r l =
    base
    +. (float_of_int r.id *. span)
    +. Rng.float r.rng (span *. float_of_int l.election_backoff)
  in
  Array.iter (fun r -> states.(r.id).election_timeout <- redraw r states.(r.id))
    t.members;
  (* Followers check their timers at quarter-period granularity —
     coarser ticks would quantize the staggered timeouts back into
     collision; leaders heartbeat at full-period cadence. *)
  every t ~period:(period /. 4.0) (fun r k ->
      let l = states.(r.id) in
      let now = now t in
      if Network.node_is_up t.network r.node then begin
        match l.role with
        | Leader ->
            if k mod 4 = 0 then begin
              let leased last = now -. last <= lease in
              if not (quorum t r l.peer_acked leased) then begin
                l.role <- Follower;
                l.known_leader <- None;
                l.last_heartbeat <- now
              end
              else broadcast_append t r l
            end
        | Follower | Candidate ->
            if now -. l.last_heartbeat >= l.election_timeout then begin
              start_election t r l;
              l.election_backoff <- min (l.election_backoff * 2) 2;
              l.election_timeout <- redraw r l
            end
      end
      else begin
        if l.role <> Follower then begin
          l.role <- Follower;
          l.known_leader <- None
        end;
        l.last_heartbeat <- now
      end)

(* ------------------------------------------------------------------ *)
(* The cluster.                                                        *)

let handle t r req =
  match (req, t.tier) with
  | Resolve name, _ ->
      Resolved
        (Naming.Engine.resolve_in (Naming.Engine.select t.store) r.root name)
  | _, Lww_ae states -> lww_handle t r states.(r.id) req
  | _, Leader_log states -> leader_handle t r states.(r.id) req

let create ~network ~rng ~replicas:n ?(mode = `Lww_ae) ?dedup_window
    (spec : spec) =
  if n < 2 then invalid_arg "Nameserver.create: need at least 2 replicas";
  let store = S.create () in
  let leaves = Hashtbl.create 32 in
  List.iter
    (fun (key, label) ->
      if not (Hashtbl.mem leaves key) then
        Hashtbl.replace leaves key (S.create_object ~label store))
    spec.leaves;
  let repl = Naming.Replication.create () in
  let asg = Naming.Rule.Assignment.create () in
  let members =
    Array.init n (fun id ->
        let node =
          Network.add_node network ~label:(Printf.sprintf "ns%d" id)
        in
        let root =
          S.create_context_object ~label:(Printf.sprintf "ns%d:/" id) store
        in
        S.bind store ~dir:root N.root_atom root;
        let dirs = Hashtbl.create 64 in
        Hashtbl.replace dirs (path_key (N.singleton N.root_atom)) root;
        let rng = Rng.split rng in
        let endpoint =
          Rpc.create network ~node ~port ~dedup:true ?dedup_window ()
        in
        { id; node; root; dirs; rng; endpoint })
  in
  let tier =
    match mode with
    | `Lww_ae ->
        Lww_ae
          (Array.init n (fun _ ->
               {
                 log = [];
                 vec = Array.make n 0;
                 winners = Hashtbl.create 64;
                 clock = 0;
               }))
    | `Leader_log ->
        Leader_log
          (Array.init n (fun _ ->
               {
                 term = 0;
                 voted_for = None;
                 role = Follower;
                 known_leader = None;
                 llog = [||];
                 commit_idx = 0;
                 applied_idx = 0;
                 votes = 0;
                 last_heartbeat = 0.0;
                 election_timeout = Float.infinity;
                 election_backoff = 1;
                 next_idx = Array.make n 1;
                 match_idx = Array.make n 0;
                 peer_acked = Array.make n 0.0;
                 outcomes = Hashtbl.create 64;
               }))
  in
  (* Mirror directories, and one replica group per logical path. *)
  let mirror_group path =
    Array.to_list
      (Array.map
         (fun r ->
           let dir =
             S.create_context_object
               ~label:(Printf.sprintf "ns%d:%s" r.id (path_key path))
               store
           in
           Hashtbl.replace r.dirs (path_key path) dir;
           dir)
         members)
  in
  Naming.Replication.declare repl
    (Array.to_list (Array.map (fun r -> r.root) members));
  List.iter
    (fun path ->
      let path = N.prepend_root path in
      let group = mirror_group path in
      Naming.Replication.declare repl group;
      let parent, atom = split_last path in
      Array.iteri
        (fun i r ->
          match Hashtbl.find_opt r.dirs (path_key parent) with
          | Some dir -> S.bind store ~dir atom (List.nth group i)
          | None -> ())
        members)
    spec.dirs;
  List.iter
    (fun (path, key) ->
      match Hashtbl.find_opt leaves key with
      | None -> ()
      | Some leaf ->
          let parent, atom = split_last (N.prepend_root path) in
          Array.iter
            (fun r ->
              match Hashtbl.find_opt r.dirs (path_key parent) with
              | Some dir -> S.bind store ~dir atom leaf
              | None -> ())
            members)
    spec.links;
  let probes =
    Array.map
      (fun r ->
        let a =
          S.create_activity ~label:(Printf.sprintf "client%d" r.id) store
        in
        Naming.Rule.Assignment.set asg a r.root;
        a)
      members
  in
  let t =
    {
      tier;
      network;
      store;
      leaves;
      members;
      repl;
      rule = Naming.Rule.of_activity asg;
      probes;
      last_measure = None;
      decided = Hashtbl.create 64;
      ae_gen = 0;
      counters = Counters.create schema;
      proto_timeout = 2.0;
    }
  in
  Array.iter
    (fun r -> Rpc.set_handler r.endpoint (fun req -> Some (handle t r req)))
    members;
  t

let store t = t.store
let mode t = match t.tier with Lww_ae _ -> `Lww_ae | Leader_log _ -> `Leader_log
let replicas t = Array.length t.members

let member t i =
  if i < 0 || i >= Array.length t.members then
    invalid_arg (Printf.sprintf "Nameserver: unknown replica %d" i);
  t.members.(i)

let replica_node t i = (member t i).node
let replica_address t i = { Network.node = (member t i).node; port }
let replica_root t i = (member t i).root
let endpoint t i = (member t i).endpoint
let leaf t key = Hashtbl.find_opt t.leaves key

let resolve_at t i name =
  Naming.Engine.resolve_in (Naming.Engine.select t.store) (member t i).root name

let write_local t i req = handle t (member t i) req

let rule t = t.rule

let occurrences t =
  Array.to_list (Array.map Naming.Occurrence.generated t.probes)

let equiv t a b = Naming.Replication.same_replica t.repl a b

(* The equivalence, rule and probe activities are fixed at
   [create], so the report is a function of the probe list and the
   store; [Store.version] bumps on every mutation. *)
let measure ?jobs t names =
  let version = S.version t.store in
  match t.last_measure with
  | Some (names', version', report)
    when version = version' && List.equal N.equal names names' ->
      report
  | _ ->
      let report =
        Naming.Coherence.measure ~equiv:(equiv t) ?jobs t.store t.rule
          (occurrences t) names
      in
      t.last_measure <- Some (names, version, report);
      report

let converged t =
  match t.tier with
  | Lww_ae states -> Array.for_all (fun s -> s.vec = states.(0).vec) states
  | Leader_log states ->
      (* identical committed-and-applied logs with no uncommitted
         stragglers: the leader's log repair drives every replica here
         once a stable leader has replicated its final no-op *)
      let c0 = states.(0).commit_idx in
      Array.for_all
        (fun l ->
          l.commit_idx = c0 && l.applied_idx = c0
          && Array.length l.llog = c0)
        states

let leader_of t =
  match t.tier with
  | Lww_ae _ -> None
  | Leader_log states ->
      Array.fold_left
        (fun acc r ->
          let l = states.(r.id) in
          if l.role = Leader && Network.node_is_up t.network r.node then
            match acc with
            | Some p when states.(p).term >= l.term -> acc
            | _ -> Some r.id
          else acc)
        None t.members

let leader_state t i =
  let r = member t i in
  match t.tier with
  | Leader_log states -> states.(r.id)
  | Lww_ae _ -> invalid_arg "Nameserver: not a leader-log cluster"

let term_at t i = (leader_state t i).term
let commit_index t i = (leader_state t i).commit_idx
let outcome_at t i txn = Hashtbl.find_opt (leader_state t i).outcomes txn

let committed_log t i =
  let l = leader_state t i in
  Array.to_list (Array.sub l.llog 0 l.commit_idx)
  |> List.map (fun e -> (e.txn, e.action))

let start_anti_entropy ?(period = 5.0) ?(timeout = 2.0) ?(attempts = 3) t =
  match t.tier with
  | Lww_ae states -> start_lww_anti_entropy ~period ~timeout ~attempts t states
  | Leader_log states -> start_leader_protocol ~period ~timeout t states

let stop_anti_entropy t = t.ae_gen <- t.ae_gen + 1

let stats t = Counters.snapshot t.counters
