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

let spec_of_context ?(max_depth = 4) ?(max_nodes = 512) store ctx =
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

type role = Follower | Candidate | Leader

type replica = {
  id : int;
  node : Network.node_id;
  root : E.t;
  dirs : (string, E.t) Hashtbl.t;  (** logical path → this mirror's dir *)
  mutable log : op list;  (** newest first *)
  vec : int array;
  lww : (string * string, int * int) Hashtbl.t;
  mutable clock : int;
  rng : Rng.t;
  mutable endpoint : (request, response) Rpc.endpoint option;
  (* leader-log state (unused in `Lww_ae mode) *)
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

type t = {
  mode : mode;
  network : (request, response) Rpc.message Network.t;
  store : S.t;
  engine : Naming.Engine.t;
      (* serves every Resolve request and coherence sample for the
         cluster's whole life; compiled by default (NAMING_ENGINE
         overrides), so writes and anti-entropy patch its tables in
         place instead of each sample rebuilding them *)
  leaves : (string, E.t) Hashtbl.t;
  members : replica array;
  repl : Naming.Replication.t;
  rule : Naming.Rule.t;
  probes : E.t array;  (** one probe activity per replica *)
  mutable last_measure : (N.t list * int * Naming.Coherence.report) option;
      (** the probe list, store version and report of the last
          {!measure}: reused while both are unchanged *)
  decided : (txn_id, unit) Hashtbl.t;  (** txns already counted below *)
  mutable ae_gen : int;  (** bumped by start/stop; stale ticks die *)
  mutable writes_accepted : int;
  mutable ops_applied : int;
  mutable lww_losses : int;
  mutable pulls : int;
  mutable pull_failures : int;
  mutable elections : int;
  mutable txns_committed : int;
  mutable txns_aborted : int;
  mutable proto_timeout : float;
      (** per-message timeout for leader-log protocol traffic *)
}

let port = 1
let path_key path = N.to_string (N.prepend_root path)

let split_last path =
  match List.rev (N.atoms path) with
  | last :: (_ :: _ as rev_parent) -> (N.of_atoms (List.rev rev_parent), last)
  | [ only ] -> (N.singleton N.root_atom, only)
  | [] -> invalid_arg "Nameserver: empty path"

let get_endpoint r =
  match r.endpoint with Some e -> e | None -> assert false

(* Applies one op at one replica: record it (in per-origin order), then
   let last-writer-wins on (stamp, origin) decide whether it touches the
   mirror. The comparison is a total order, so any two replicas that
   have applied the same set of ops hold identical mirrors. *)
let apply t r op =
  if op.stamp > r.clock then r.clock <- op.stamp;
  let have = r.vec.(op.origin) in
  if op.seq = have + 1 then begin
    r.vec.(op.origin) <- op.seq;
    r.log <- op :: r.log;
    t.ops_applied <- t.ops_applied + 1;
    let key = (path_key op.path, N.atom_to_string op.atom) in
    let newer =
      match Hashtbl.find_opt r.lww key with
      | None -> true
      | Some (stamp, origin) ->
          op.stamp > stamp || (op.stamp = stamp && op.origin > origin)
    in
    if newer then begin
      Hashtbl.replace r.lww key (op.stamp, op.origin);
      match Hashtbl.find_opt r.dirs (fst key) with
      | None -> ()
      | Some dir -> (
          match op.target with
          | Some leaf_key -> (
              match Hashtbl.find_opt t.leaves leaf_key with
              | Some leaf -> S.bind t.store ~dir op.atom leaf
              | None -> ())
          | None -> S.unbind t.store ~dir op.atom)
    end
    else t.lww_losses <- t.lww_losses + 1
  end
(* op.seq <= have: a duplicate, already applied. A gap (op.seq > have+1)
   cannot arise from the pull protocol, which ships per-origin deltas in
   sequence order; if it somehow does, the op is dropped and a later
   pull re-fetches the origin's suffix in order. *)

(* ------------------------------------------------------------------ *)
(* The leader log (`Leader_log mode).

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
   decision and identical mirror states for the same committed prefix. *)

let majority t = (Array.length t.members / 2) + 1
let noop_txn r = { client = -1 - r.id; tseq = r.term }

let last_log_info r =
  let n = Array.length r.llog in
  if n = 0 then (0, 0) else (n, r.llog.(n - 1).eterm)

let observe_term r term =
  if term > r.term then begin
    r.term <- term;
    r.voted_for <- None;
    r.role <- Follower;
    r.known_leader <- None
  end

let find_txn r txn =
  let found = ref None in
  Array.iteri
    (fun i e ->
      if !found = None && e.txn = txn then found := Some (i + 1))
    r.llog;
  !found

(* Both the commit decision and the mirror mutation for one committed
   entry. Preconditions are checked first so the action commits or
   aborts as a unit: an aborted action touches nothing. *)
let entry_precondition t r action =
  match action with
  | Bind_group writes ->
      List.fold_left
        (fun acc (path, _atom, target) ->
          match acc with
          | Some _ -> acc
          | None ->
              if not (Hashtbl.mem r.dirs (path_key path)) then
                Some (Printf.sprintf "unknown directory %s" (path_key path))
              else (
                match target with
                | Some key when not (Hashtbl.mem t.leaves key) ->
                    Some (Printf.sprintf "unknown leaf %s" key)
                | _ -> None))
        None writes
  | Atomic_rename { src_path; src_atom; dst_path; dst_atom = _ } -> (
      match
        ( Hashtbl.find_opt r.dirs (path_key src_path),
          Hashtbl.find_opt r.dirs (path_key dst_path) )
      with
      | None, _ -> Some (Printf.sprintf "unknown directory %s" (path_key src_path))
      | _, None -> Some (Printf.sprintf "unknown directory %s" (path_key dst_path))
      | Some src_dir, Some _ -> (
          match S.obj_state t.store src_dir with
          | Some (S.Context ctx) when C.mem ctx src_atom -> None
          | _ ->
              Some
                (Printf.sprintf "%s has no binding %s" (path_key src_path)
                   (N.atom_to_string src_atom))))

let apply_entry t r e =
  let outcome =
    match entry_precondition t r e.action with
    | Some reason -> Aborted reason
    | None ->
        (match e.action with
        | Bind_group writes ->
            List.iter
              (fun (path, atom, target) ->
                let dir = Hashtbl.find r.dirs (path_key path) in
                match target with
                | Some key ->
                    S.bind t.store ~dir atom (Hashtbl.find t.leaves key)
                | None -> S.unbind t.store ~dir atom)
              writes
        | Atomic_rename { src_path; src_atom; dst_path; dst_atom } -> (
            let src_dir = Hashtbl.find r.dirs (path_key src_path) in
            let dst_dir = Hashtbl.find r.dirs (path_key dst_path) in
            match S.obj_state t.store src_dir with
            | Some (S.Context ctx) ->
                let target = C.lookup ctx src_atom in
                S.unbind t.store ~dir:src_dir src_atom;
                S.bind t.store ~dir:dst_dir dst_atom target
            | _ -> ()));
        Committed
  in
  if e.txn.client >= 0 then begin
    t.ops_applied <- t.ops_applied + 1;
    if not (Hashtbl.mem t.decided e.txn) then begin
      Hashtbl.replace t.decided e.txn ();
      match outcome with
      | Committed -> t.txns_committed <- t.txns_committed + 1
      | Aborted _ -> t.txns_aborted <- t.txns_aborted + 1
      | Pending -> ()
    end
  end;
  Hashtbl.replace r.outcomes e.txn outcome

let apply_committed t r =
  while r.applied_idx < r.commit_idx do
    let e = r.llog.(r.applied_idx) in
    r.applied_idx <- r.applied_idx + 1;
    apply_entry t r e
  done

let advance_commit t r =
  (* only current-term entries commit by counting (Raft §5.4.2);
     earlier-term entries commit as part of the prefix *)
  let len = Array.length r.llog in
  let advanced = ref false in
  for idx = r.commit_idx + 1 to len do
    if idx > r.commit_idx && r.llog.(idx - 1).eterm = r.term then begin
      let acks = ref 1 in
      Array.iteri
        (fun p m -> if p <> r.id && m >= idx then incr acks)
        r.match_idx;
      if !acks >= majority t then begin
        r.commit_idx <- idx;
        advanced := true
      end
    end
  done;
  if !advanced then apply_committed t r

let rec broadcast_append t r =
  let engine = Network.engine t.network in
  let term_at = r.term in
  Array.iter
    (fun peer ->
      if peer.id <> r.id then begin
        let ni = max 1 r.next_idx.(peer.id) in
        let prev_idx = ni - 1 in
        let prev_term = if prev_idx = 0 then 0 else r.llog.(prev_idx - 1).eterm in
        let len = Array.length r.llog in
        let entries =
          if ni > len then []
          else Array.to_list (Array.sub r.llog (ni - 1) (len - ni + 1))
        in
        let sent = prev_idx + List.length entries in
        Rpc.call (get_endpoint r)
          ~to_:{ Network.node = peer.node; port }
          ~timeout:t.proto_timeout
          (Append_entries
             {
               term = r.term;
               leader = r.id;
               prev_idx;
               prev_term;
               entries;
               commit = r.commit_idx;
             })
          ~on_reply:(function
            | Ok (Appended { term; ok; matched }) ->
                observe_term r term;
                if r.role = Leader && r.term = term_at then begin
                  r.peer_acked.(peer.id) <- Engine.now engine;
                  if ok then begin
                    r.match_idx.(peer.id) <- max r.match_idx.(peer.id) matched;
                    r.next_idx.(peer.id) <- max r.next_idx.(peer.id) (matched + 1);
                    advance_commit t r
                  end
                  else if r.next_idx.(peer.id) > 1 then begin
                    (* log mismatch: walk back and re-ship the suffix *)
                    r.next_idx.(peer.id) <- ni - 1;
                    if sent > 0 then broadcast_append_to t r peer.id
                  end
                end
            | Ok _ | Error _ -> ())
      end)
    t.members

and broadcast_append_to t r peer_id =
  let peer = t.members.(peer_id) in
  let term_at = r.term in
  let ni = max 1 r.next_idx.(peer_id) in
  let prev_idx = ni - 1 in
  let prev_term = if prev_idx = 0 then 0 else r.llog.(prev_idx - 1).eterm in
  let len = Array.length r.llog in
  let entries =
    if ni > len then []
    else Array.to_list (Array.sub r.llog (ni - 1) (len - ni + 1))
  in
  Rpc.call (get_endpoint r)
    ~to_:{ Network.node = peer.node; port }
    ~timeout:t.proto_timeout
    (Append_entries
       {
         term = r.term;
         leader = r.id;
         prev_idx;
         prev_term;
         entries;
         commit = r.commit_idx;
       })
    ~on_reply:(function
      | Ok (Appended { term; ok; matched }) ->
          observe_term r term;
          if r.role = Leader && r.term = term_at then begin
            r.peer_acked.(peer_id) <- Engine.now (Network.engine t.network);
            if ok then begin
              r.match_idx.(peer_id) <- max r.match_idx.(peer_id) matched;
              r.next_idx.(peer_id) <- max r.next_idx.(peer_id) (matched + 1);
              advance_commit t r
            end
            else if r.next_idx.(peer_id) > 1 then begin
              r.next_idx.(peer_id) <- ni - 1;
              broadcast_append_to t r peer_id
            end
          end
      | Ok _ | Error _ -> ())

let become_leader t r =
  let engine = Network.engine t.network in
  let now = Engine.now engine in
  r.role <- Leader;
  r.known_leader <- Some r.id;
  r.election_backoff <- 1;
  let len = Array.length r.llog in
  Array.iteri
    (fun p _ ->
      r.next_idx.(p) <- len + 1;
      r.match_idx.(p) <- 0;
      r.peer_acked.(p) <- now)
    t.members;
  (* no-op entry: commits the predecessor's tail, anchors this term *)
  r.llog <-
    Array.append r.llog
      [| { eterm = r.term; txn = noop_txn r; action = Bind_group [] } |];
  broadcast_append t r

let start_election t r =
  let engine = Network.engine t.network in
  let now = Engine.now engine in
  r.term <- r.term + 1;
  t.elections <- t.elections + 1;
  r.role <- Candidate;
  r.voted_for <- Some r.id;
  r.votes <- 1;
  r.known_leader <- None;
  r.last_heartbeat <- now;
  let last_idx, last_term = last_log_info r in
  let term_at = r.term in
  if r.votes >= majority t then become_leader t r
  else
    Array.iter
      (fun peer ->
        if peer.id <> r.id then
          (* retried: a dropped vote request must not waste the whole
             election round *)
          Rpc.call_retry (get_endpoint r)
            ~to_:{ Network.node = peer.node; port }
            ~timeout:t.proto_timeout ~rng:r.rng ~attempts:2
            (Request_vote { term = r.term; candidate = r.id; last_idx; last_term })
            ~on_reply:(function
              | Ok (Voted { term; granted }) ->
                  observe_term r term;
                  if r.role = Candidate && r.term = term_at && granted then begin
                    r.votes <- r.votes + 1;
                    if r.votes >= majority t then become_leader t r
                  end
              | Ok _ | Error _ -> ()))
      t.members

let handle t r req =
  match req with
  | Resolve name -> Resolved (Naming.Engine.resolve_in t.engine r.root name)
  | (Write _ | Pull _) when t.mode = `Leader_log ->
      Nack "lww-ae request in leader-log mode"
  | (Submit _ | Query _ | Request_vote _ | Append_entries _)
    when t.mode = `Lww_ae ->
      Nack "leader-log request in lww-ae mode"
  | Submit { txn; action } ->
      if r.role <> Leader then Redirect r.known_leader
      else (
        (* log-level dedup: a resubmission of a txn already appended (or
           already decided) is answered without a second append, so the
           exactly-once guarantee survives client-side redirect loops *)
        match Hashtbl.find_opt r.outcomes txn with
        | Some o -> Outcome_is o
        | None -> (
            match find_txn r txn with
            | Some index -> Submitted { term = r.term; index }
            | None ->
                let e = { eterm = r.term; txn; action } in
                r.llog <- Array.append r.llog [| e |];
                t.writes_accepted <- t.writes_accepted + 1;
                broadcast_append t r;
                Submitted { term = r.term; index = Array.length r.llog }))
  | Query txn -> (
      match Hashtbl.find_opt r.outcomes txn with
      | Some o -> Outcome_is o
      | None ->
          if r.role = Leader then (
            match find_txn r txn with
            | Some _ -> Outcome_is Pending
            | None ->
                (* a leader that has committed an entry of its own term
                   and finds no trace of the txn knows it can never
                   commit (leader completeness): a sticky abort *)
                if
                  r.commit_idx > 0
                  && r.llog.(r.commit_idx - 1).eterm = r.term
                then begin
                  let o = Aborted "lost in leader change" in
                  Hashtbl.replace r.outcomes txn o;
                  if not (Hashtbl.mem t.decided txn) then begin
                    Hashtbl.replace t.decided txn ();
                    t.txns_aborted <- t.txns_aborted + 1
                  end;
                  Outcome_is o
                end
                else Outcome_is Pending)
          else Redirect r.known_leader)
  | Request_vote { term; candidate; last_idx; last_term } ->
      observe_term r term;
      (* Same-term tie-break: a candidate yields to a lower-id rival.
         Its own self-vote dies with its candidacy (the role check in
         the vote-reply handler keeps it from ever counting a
         majority), so each replica still casts at most one live vote
         per term — split votes break in one round instead of stalling
         a full timeout. *)
      if
        term = r.term && r.role = Candidate && candidate < r.id
        && r.voted_for = Some r.id
      then begin
        r.role <- Follower;
        r.voted_for <- None
      end;
      let my_idx, my_term = last_log_info r in
      let up_to_date =
        last_term > my_term || (last_term = my_term && last_idx >= my_idx)
      in
      let granted =
        term = r.term && up_to_date
        && match r.voted_for with None -> true | Some c -> c = candidate
      in
      if granted then begin
        r.voted_for <- Some candidate;
        r.last_heartbeat <- Engine.now (Network.engine t.network)
      end;
      Voted { term = r.term; granted }
  | Append_entries { term; leader; prev_idx; prev_term; entries; commit } ->
      observe_term r term;
      if term < r.term then Appended { term = r.term; ok = false; matched = 0 }
      else begin
        r.role <- Follower;
        r.known_leader <- Some leader;
        r.election_backoff <- 1;
        r.last_heartbeat <- Engine.now (Network.engine t.network);
        let len = Array.length r.llog in
        let prev_ok =
          prev_idx = 0
          || (prev_idx <= len && r.llog.(prev_idx - 1).eterm = prev_term)
        in
        if not prev_ok then Appended { term = r.term; ok = false; matched = 0 }
        else begin
          List.iteri
            (fun i e ->
              let idx = prev_idx + i + 1 in
              if idx <= Array.length r.llog then begin
                if r.llog.(idx - 1).eterm <> e.eterm then begin
                  (* conflict: drop the (uncommitted) suffix, take the
                     leader's entry *)
                  r.llog <- Array.sub r.llog 0 (idx - 1);
                  r.llog <- Array.append r.llog [| e |]
                end
              end
              else r.llog <- Array.append r.llog [| e |])
            entries;
          let matched = prev_idx + List.length entries in
          let new_commit = min commit (Array.length r.llog) in
          if new_commit > r.commit_idx then begin
            r.commit_idx <- new_commit;
            apply_committed t r
          end;
          Appended { term = r.term; ok = true; matched }
        end
      end
  | Write { path; atom; target } -> (
      let key = path_key path in
      match Hashtbl.find_opt r.dirs key with
      | None -> Nack (Printf.sprintf "unknown directory %s" key)
      | Some _ -> (
          match target with
          | Some leaf_key when not (Hashtbl.mem t.leaves leaf_key) ->
              Nack (Printf.sprintf "unknown leaf %s" leaf_key)
          | _ ->
              r.clock <- r.clock + 1;
              let op =
                {
                  origin = r.id;
                  seq = r.vec.(r.id) + 1;
                  stamp = r.clock;
                  path = N.prepend_root path;
                  atom;
                  target;
                }
              in
              apply t r op;
              t.writes_accepted <- t.writes_accepted + 1;
              Ack { stamp = op.stamp }))
  | Pull vec ->
      let have origin seq =
        origin < Array.length vec && seq <= vec.(origin)
      in
      let missing =
        List.filter (fun op -> not (have op.origin op.seq)) r.log
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
        {
          id;
          node;
          root;
          dirs;
          log = [];
          vec = Array.make n 0;
          lww = Hashtbl.create 64;
          clock = 0;
          rng = Rng.split rng;
          endpoint = None;
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
        })
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
      mode;
      network;
      store;
      engine = Naming.Engine.of_env ~default:`Compiled store;
      leaves;
      members;
      repl;
      rule = Naming.Rule.of_activity asg;
      probes;
      last_measure = None;
      decided = Hashtbl.create 64;
      ae_gen = 0;
      writes_accepted = 0;
      ops_applied = 0;
      lww_losses = 0;
      pulls = 0;
      pull_failures = 0;
      elections = 0;
      txns_committed = 0;
      txns_aborted = 0;
      proto_timeout = 2.0;
    }
  in
  Array.iter
    (fun r ->
      r.endpoint <-
        Some
          (Rpc.create network ~node:r.node ~port
             ~handler:(fun req -> Some (handle t r req))
             ~dedup:true ?dedup_window ()))
    members;
  t

let store t = t.store
let mode t = t.mode
let replicas t = Array.length t.members

let member t i =
  if i < 0 || i >= Array.length t.members then
    invalid_arg (Printf.sprintf "Nameserver: unknown replica %d" i);
  t.members.(i)

let replica_node t i = (member t i).node
let replica_address t i = { Network.node = (member t i).node; port }
let replica_root t i = (member t i).root
let endpoint t i = get_endpoint (member t i)
let leaf t key = Hashtbl.find_opt t.leaves key

let resolve_at t i name =
  Naming.Engine.resolve_in t.engine (member t i).root name

let write_local t i req = handle t (member t i) req

let rule t = t.rule

let occurrences t =
  Array.to_list (Array.map Naming.Occurrence.generated t.probes)

let equiv t a b = Naming.Replication.same_replica t.repl a b

let engine t = t.engine

(* The equivalence, rule, probe activities and engine are fixed at
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
        Naming.Coherence.measure ~equiv:(equiv t) ~engine:t.engine ?jobs
          t.store t.rule (occurrences t) names
      in
      t.last_measure <- Some (names, version, report);
      report

let converged t =
  match t.mode with
  | `Lww_ae ->
      let reference = t.members.(0).vec in
      Array.for_all
        (fun r ->
          let ok = ref true in
          Array.iteri
            (fun i v -> if v <> reference.(i) then ok := false)
            r.vec;
          !ok)
        t.members
  | `Leader_log ->
      (* identical committed-and-applied logs with no uncommitted
         stragglers: the leader's log repair drives every replica here
         once a stable leader has replicated its final no-op *)
      let c0 = t.members.(0).commit_idx in
      Array.for_all
        (fun r ->
          r.commit_idx = c0 && r.applied_idx = c0
          && Array.length r.llog = c0)
        t.members

let leader_of t =
  Array.fold_left
    (fun acc r ->
      if r.role = Leader && Network.node_is_up t.network r.node then
        match acc with
        | Some l when t.members.(l).term >= r.term -> acc
        | _ -> Some r.id
      else acc)
    None t.members

let term_at t i = (member t i).term
let commit_index t i = (member t i).commit_idx
let outcome_at t i txn = Hashtbl.find_opt (member t i).outcomes txn

let committed_log t i =
  let r = member t i in
  Array.to_list (Array.sub r.llog 0 r.commit_idx)
  |> List.map (fun e -> (e.txn, e.action))

(* ------------------------------------------------------------------ *)
(* Anti-entropy (`Lww_ae) and the leader heartbeat (`Leader_log).      *)

let start_lww_anti_entropy ~period ~timeout ~attempts t =
  t.ae_gen <- t.ae_gen + 1;
  let gen = t.ae_gen in
  let engine = Network.engine t.network in
  let n = Array.length t.members in
  let rec tick r () =
    if t.ae_gen = gen then begin
      if Network.node_is_up t.network r.node then begin
        let peer =
          let k = Rng.int r.rng (n - 1) in
          t.members.(if k >= r.id then k + 1 else k)
        in
        t.pulls <- t.pulls + 1;
        Rpc.call_retry (get_endpoint r)
          ~to_:{ Network.node = peer.node; port }
          ~timeout ~rng:r.rng ~attempts (Pull (Array.copy r.vec))
          ~on_reply:(function
            | Ok (Ops ops) -> List.iter (apply t r) ops
            | Ok _ -> ()
            | Error (`Timeout | `Unavailable) ->
                t.pull_failures <- t.pull_failures + 1)
      end;
      ignore (Engine.schedule engine ~delay:period (tick r))
    end
  in
  Array.iter
    (fun r ->
      (* stagger the first ticks so replica order never depends on how
         simultaneous events happen to interleave *)
      let delay = period *. (1.0 +. (float_of_int r.id /. float_of_int n)) in
      ignore (Engine.schedule engine ~delay (tick r)))
    t.members

(* The leader-log driver: one staggered recurring tick per replica. A
   leader's tick checks its lease (step down when a majority has not
   answered within an election timeout — this is what deposes a
   minority-side leader during a partition) and sends heartbeats; a
   follower's or candidate's tick starts an election when it has not
   heard from a live leader within its randomized timeout. Crashed
   nodes forfeit any role on their tick and rejoin as followers. *)
let start_leader_protocol ~period ~timeout t =
  t.ae_gen <- t.ae_gen + 1;
  t.proto_timeout <- timeout;
  let gen = t.ae_gen in
  let engine = Network.engine t.network in
  let n = Array.length t.members in
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
  let redraw r =
    base
    +. (float_of_int r.id *. span)
    +. Rng.float r.rng (span *. float_of_int r.election_backoff)
  in
  Array.iter (fun r -> r.election_timeout <- redraw r) t.members;
  (* Followers check their timers at quarter-period granularity —
     coarser ticks would quantize the staggered timeouts back into
     collision; leaders heartbeat at full-period cadence. *)
  let sub = period /. 4.0 in
  let rec tick r k () =
    if t.ae_gen = gen then begin
      let now = Engine.now engine in
      if Network.node_is_up t.network r.node then begin
        match r.role with
        | Leader ->
            if k mod 4 = 0 then begin
              let live = ref 1 in
              Array.iteri
                (fun p last ->
                  if p <> r.id && now -. last <= lease then incr live)
                r.peer_acked;
              if !live < majority t then begin
                r.role <- Follower;
                r.known_leader <- None;
                r.last_heartbeat <- now
              end
              else broadcast_append t r
            end
        | Follower | Candidate ->
            if now -. r.last_heartbeat >= r.election_timeout then begin
              start_election t r;
              r.election_backoff <- min (r.election_backoff * 2) 2;
              r.election_timeout <- redraw r
            end
      end
      else begin
        if r.role <> Follower then begin
          r.role <- Follower;
          r.known_leader <- None
        end;
        r.last_heartbeat <- now
      end;
      ignore (Engine.schedule engine ~delay:sub (tick r (k + 1)))
    end
  in
  Array.iter
    (fun r ->
      let delay = sub *. (1.0 +. (float_of_int r.id /. float_of_int n)) in
      ignore (Engine.schedule engine ~delay (tick r 0)))
    t.members

let start_anti_entropy ?(period = 5.0) ?(timeout = 2.0) ?(attempts = 3) t =
  match t.mode with
  | `Lww_ae -> start_lww_anti_entropy ~period ~timeout ~attempts t
  | `Leader_log -> start_leader_protocol ~period ~timeout t

let stop_anti_entropy t = t.ae_gen <- t.ae_gen + 1

type stats = {
  writes_accepted : int;
  ops_applied : int;
  lww_losses : int;
  pulls : int;
  pull_failures : int;
  elections : int;
  txns_committed : int;
  txns_aborted : int;
}

let stats (t : t) =
  {
    writes_accepted = t.writes_accepted;
    ops_applied = t.ops_applied;
    lww_losses = t.lww_losses;
    pulls = t.pulls;
    pull_failures = t.pull_failures;
    elections = t.elections;
    txns_committed = t.txns_committed;
    txns_aborted = t.txns_aborted;
  }

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "writes=%d applied=%d lww_losses=%d pulls=%d pull_failures=%d \
     elections=%d committed=%d aborted=%d"
    s.writes_accepted s.ops_applied s.lww_losses s.pulls s.pull_failures
    s.elections s.txns_committed s.txns_aborted
