(* Bounded model checking over the fault-schedule space. The search is
   classic explicit-state exploration with two twists borrowed from the
   soundness contract of [Clusterstate]: candidates are evaluated by
   abstract interpretation (cheap, and every Must/Never fact holds in
   EVERY execution of the schedule), so only the few frontier winners
   ever pay for a concrete chaos replay; and the enumeration grid is
   not arbitrary — window starts sit on anti-entropy ticks, window
   lengths on the staleness/retry horizons of [Bounds], write instants
   one latency past a cut. Everything is deterministic: same config,
   same witnesses, at any job count. *)

module Ch = Dsim.Chaos
module Ns = Dsim.Nameserver
module Ctr = Dsim.Counters
module Cs = Clusterstate
module N = Naming.Name

type config = {
  base : Ch.config;
  depth : int;
  max_writes : int;
  budget : int;
  seed : int;
  rounds : int;
}

let default =
  {
    base =
      {
        Ch.default with
        Ch.drop = 0.0;
        duplicate = 0.0;
        partition_at = 0.0;
        partition_for = 0.0;
        crash_at = 0.0;
        crash_for = 0.0;
        (* two attempts, so a retry budget can exhaust inside a crash
           window that still heals within the run *)
        call_attempts = 2;
        writes = 0;
      };
    depth = 3;
    max_writes = 3;
    budget = 2048;
    seed = 42;
    rounds = 2;
  }

type claim = Lost_update | Lost_client_write | Unreachable | Stale_at of int

(* Under [`Lww_ae] the claims read off the gossip protocol's failure
   counters. Under [`Leader_log] the same synthesized schedules replay
   against the leader tier, where a lost or unordered update would be a
   protocol bug: the loss claims demand an ACTUAL observed loss
   ([lww_losses], which leader serialization keeps at zero), not mere
   non-convergence — so the LWW race/hole frontier is discharged by its
   own replay, and only genuine convergence/staleness defeats (e.g. a
   partition that never heals starving a follower) survive as
   witnesses. *)
let claim_holds claim (r : Ch.result) =
  match r.Ch.config.Ch.mode with
  | `Leader_log -> (
      match claim with
      | Lost_update | Lost_client_write -> Ctr.get r.Ch.ns Ns.lww_losses > 0
      | Unreachable -> not r.Ch.converged
      | Stale_at k -> (
          match List.nth_opt r.Ch.samples k with
          | Some s -> not s.Ch.converged
          | None -> false))
  | `Lww_ae -> (
      match claim with
      | Lost_update -> Ctr.get r.Ch.ns Ns.lww_losses > 0 || not r.Ch.converged
      | Lost_client_write -> r.Ch.writes_lost > 0
      | Unreachable -> not r.Ch.converged
      | Stale_at k -> (
          match List.nth_opt r.Ch.samples k with
          | Some s -> not s.Ch.converged
          | None -> false))

type found =
  | Race of Cs.write * Cs.write
  | Hole of Cs.write
  | Cut of Cs.write * int
  | Stale of Cs.stale

type witness = {
  code : string;
  claim : claim;
  found : found;
  schedule : Ch.schedule;
  unminimized : Ch.schedule;
  shrink_trials : int;
  replay : Ch.result;
}

type stats = {
  enumerated : int;
  interpreted : int;
  pruned_por : int;
  pruned_symmetry : int;
  replays : int;
  exhausted : bool;
}

type outcome = { witnesses : witness list; stats : stats }

(* ------------------------------------------------------------------ *)
(* Candidates: a fault layout plus a crafted write workload.           *)

type candidate = {
  partition : (float * float) option;  (** start, length *)
  crash : (float * float) option;  (** start, length *)
  cwrites : (float * int * Ns.request) list;
}

let candidate_config c cand : Ch.config =
  let pa, pf = match cand.partition with Some w -> w | None -> (0.0, 0.0) in
  let ca, cf = match cand.crash with Some w -> w | None -> (0.0, 0.0) in
  {
    c.base with
    Ch.seed = c.seed;
    partition_at = pa;
    partition_for = pf;
    crash_at = ca;
    crash_for = cf;
    writes = List.length cand.cwrites;
  }

(* The write sites the protocol will actually accept: a link's parent
   directory and final atom, kept only when the parent is a known
   directory (otherwise every replica Nacks the write statically). *)
let sites_of (spec : Ns.spec) =
  let ix = Cs.index spec in
  List.filter_map
    (fun (path, k) ->
      if not (ix.Cs.known_leaf k) then None
      else
        match Cs.split path with
        | Some (parent, last) when ix.Cs.known_dir parent -> Some (parent, last)
        | _ -> None)
    spec.Ns.links

(* Two distinguishable targets are enough to race a site; with a single
   leaf key the adversary races a bind against an unbind. *)
let targets_of (spec : Ns.spec) =
  match List.sort_uniq compare (List.map fst spec.Ns.leaves) with
  | [] -> []
  | [ k ] -> [ Some k; None ]
  | k1 :: k2 :: _ -> [ Some k1; Some k2 ]

(* Replica-symmetry classes for a fault layout: replicas on the same
   partition side with the same crash fate are interchangeable, so only
   the smallest member of each class ever originates a write. *)
let origin_classes (cfg : Ch.config) =
  let sides = Ch.partition_sides cfg in
  let victim = Ch.crash_victim cfg in
  let cls i =
    ( (match sides with Some (g1, _) -> List.mem i g1 | None -> true),
      victim = Some i )
  in
  let tbl = Hashtbl.create 4 in
  for i = cfg.Ch.replicas - 1 downto 0 do
    let k = cls i in
    Hashtbl.replace tbl k
      (i :: (try Hashtbl.find tbl k with Not_found -> []))
  done;
  Hashtbl.fold (fun _ members acc -> members :: acc) tbl []
  |> List.sort (fun a b -> compare (List.hd a) (List.hd b))

(* Write instants that interact with a layout: one minimum latency past
   each window start (accepted strictly inside the window) and one
   anti-entropy period later. A fault-free layout anchors at 0. *)
let time_grid c cand =
  let anchors =
    (match cand.partition with Some (s, _) -> [ s ] | None -> [])
    @ (match cand.crash with Some (s, _) -> [ s ] | None -> [])
  in
  let anchors = match anchors with [] -> [ 0.0 ] | a -> a in
  List.concat_map
    (fun a -> List.map (fun o -> a +. o) (Bounds.write_offsets c.base))
    anchors
  |> List.sort_uniq compare

(* Fault layouts: partition windows first (an open window leading, so
   non-convergence witnesses surface earliest), the fault-free layout
   last; crash layouts interleaved per partition choice. *)
let layouts c =
  let windows =
    List.concat_map
      (fun s ->
        Bounds.window_lengths ~rounds:c.rounds ~start:s c.base
        |> List.rev_map (fun l -> (s, l)))
      (Bounds.window_starts ~depth:c.depth c.base)
  in
  let some = List.map (fun w -> Some w) windows in
  let p_opts = some @ [ None ] and c_opts = None :: some in
  List.concat_map (fun p -> List.map (fun cr -> (p, cr)) c_opts) p_opts

let rec pow b e = if e <= 0 then 1 else b * pow b (e - 1)

(* Ordered [k]-tuples over [xs]. *)
let rec tuples k xs =
  if k = 0 then Seq.return []
  else
    Seq.concat_map
      (fun x -> Seq.map (fun rest -> x :: rest) (tuples (k - 1) xs))
      (List.to_seq xs)

(* Non-decreasing [k]-tuples over the sorted list [xs] (multisets). *)
let rec non_decreasing k xs =
  if k = 0 then Seq.return []
  else
    let rec suffixes l () =
      match l with
      | [] -> Seq.Nil
      | x :: rest -> Seq.Cons ((x, l), suffixes rest)
    in
    Seq.concat_map
      (fun (x, l) -> Seq.map (fun r -> x :: r) (non_decreasing (k - 1) l))
      (suffixes xs)

(* The candidate space, lazily: workload size outermost (the smallest
   witnesses come first), then layout, then write instants × origin
   class representatives. Each candidate carries the number of
   schedules it stands for that POR and symmetry pruned away. *)
let candidates c (sites : (N.t * N.atom) list) targets =
  let site_count = List.length sites in
  let path, atom = List.hd sites in
  let ntargets = List.length targets in
  Seq.concat_map
    (fun nw ->
      Seq.concat_map
        (fun (p, cr) ->
          let shell = { partition = p; crash = cr; cwrites = [] } in
          let classes = origin_classes (candidate_config c shell) in
          let reps = List.map List.hd classes in
          let size_of o =
            List.length (List.find (fun cl -> List.hd cl = o) classes)
          in
          let grid = time_grid c shell in
          Seq.concat_map
            (fun times ->
              Seq.map
                (fun origins ->
                  let cwrites =
                    List.mapi
                      (fun i (t, o) ->
                        let target = List.nth targets (i mod ntargets) in
                        (t, o, Ns.Write { path; atom; target }))
                      (List.combine times origins)
                  in
                  let collapsed =
                    List.fold_left (fun acc o -> acc * size_of o) 1 origins
                  in
                  ( { shell with cwrites },
                    pow site_count nw - site_count,
                    site_count - 1 + (collapsed - 1) ))
                (tuples nw reps))
            (non_decreasing nw grid))
        (List.to_seq (layouts c)))
    (Seq.init c.max_writes (fun i -> i + 1))

(* ------------------------------------------------------------------ *)
(* Static evaluation: the NG2xx error facts of [Clusterstate], so every
   finding inherits the replay-soundness of the abstract
   interpretation.                                                     *)

let facts c spec cand =
  Cs.facts ~rounds:c.rounds
    (Cs.of_chaos ~workload:cand.cwrites (candidate_config c cand) spec)

let head = function x :: _ -> Some x | [] -> None

(* ------------------------------------------------------------------ *)
(* Witness minimization: greedy delta-debugging against the STATIC
   claim (one abstract interpretation per trial), replaying only the
   final minimized schedule.                                           *)

let claim_static c spec claim cand =
  let f = facts c spec cand in
  match claim with
  | Lost_update -> f.Cs.races <> []
  | Lost_client_write -> f.Cs.holes <> []
  | Unreachable -> f.Cs.cuts <> []
  | Stale_at k -> List.exists (fun s -> s.Cs.sample = k) f.Cs.stales

let minimize c spec claim cand =
  let trials = ref 0 in
  let holds cand =
    incr trials;
    claim_static c spec claim cand
  in
  let rec drop_writes cand =
    let n = List.length cand.cwrites in
    let rec try_at i =
      if i >= n || n <= 1 then cand
      else
        let cand' =
          { cand with cwrites = List.filteri (fun j _ -> j <> i) cand.cwrites }
        in
        if holds cand' then drop_writes cand' else try_at (i + 1)
    in
    try_at 0
  in
  let cand = drop_writes cand in
  let drop_window get set cand =
    match get cand with
    | None -> cand
    | Some _ ->
        let cand' = set cand in
        if holds cand' then cand' else cand
  in
  let cand =
    drop_window (fun c -> c.crash) (fun c -> { c with crash = None }) cand
  in
  let cand =
    drop_window
      (fun c -> c.partition)
      (fun c -> { c with partition = None })
      cand
  in
  (cand, !trials)

(* ------------------------------------------------------------------ *)
(* The run: enumerate → interpret (pooled) → pick frontier → shrink →
   confirm by replay.                                                  *)

let take_with_more n seq =
  let rec go n acc seq =
    if n <= 0 then (List.rev acc, Seq.uncons seq <> None)
    else
      match Seq.uncons seq with
      | None -> (List.rev acc, false)
      | Some (x, rest) -> go (n - 1) (x :: acc) rest
  in
  go n [] seq

let chunks n xs =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if k = n then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

let batched ?jobs f xs =
  Naming.Pool.map ?jobs (List.map f) (chunks 32 xs) |> List.concat

let code_of_claim = function
  | Lost_update | Lost_client_write -> "NG301"
  | Unreachable -> "NG302"
  | Stale_at _ -> "NG303"

let run ?jobs ?(config = default) (spec : Ns.spec) =
  let c = config in
  let sites = sites_of spec and targets = targets_of spec in
  if sites = [] || targets = [] then
    (* no write the protocol would accept: the space is a single empty
       schedule, trivially clean *)
    {
      witnesses = [];
      stats =
        {
          enumerated = 0;
          interpreted = 0;
          pruned_por = 0;
          pruned_symmetry = 0;
          replays = 0;
          exhausted = true;
        };
    }
  else begin
    let drawn, more = take_with_more c.budget (candidates c sites targets) in
    let pruned_por =
      List.fold_left (fun acc (_, p, _) -> acc + p) 0 drawn
    and pruned_symmetry =
      List.fold_left (fun acc (_, _, s) -> acc + s) 0 drawn
    in
    let cands = List.map (fun (cand, _, _) -> cand) drawn in
    let evaluated =
      batched ?jobs (fun cand -> (cand, facts c spec cand)) cands
    in
    (* Frontier: the first candidate exhibiting each claim kind; for
       staleness the blocked-sample maximizing one (earliest on ties). *)
    let first pick =
      List.find_map
        (fun (cand, f) -> Option.map (fun x -> (cand, x)) (head (pick f)))
        evaluated
    in
    let best_stale =
      List.fold_left
        (fun acc (cand, f) ->
          List.fold_left
            (fun acc (s : Cs.stale) ->
              match acc with
              | Some (_, (best : Cs.stale)) when best.Cs.count >= s.Cs.count ->
                  acc
              | _ -> Some (cand, s))
            acc f.Cs.stales)
        None evaluated
    in
    let interpreted = ref (List.length cands) in
    let replays = ref 0 in
    (* exactly [namingctl chaos]'s probe derivation, so a witness replay
       stored by the CLI byte-compares against a later CLI replay *)
    let probes = spec.Ns.dirs @ List.map fst spec.Ns.links in
    let witness claim found_of (cand, _) =
      let unminimized =
        { Ch.config = candidate_config c cand; writes = cand.cwrites }
      in
      let mcand, trials = minimize c spec claim cand in
      interpreted := !interpreted + trials + 1;
      match found_of (facts c spec mcand) with
      | None -> None
      | Some found ->
          let schedule =
            { Ch.config = candidate_config c mcand; writes = mcand.cwrites }
          in
          incr replays;
          let replay = Ch.run_schedule ?jobs ~spec ~probes schedule in
          if claim_holds claim replay then
            Some
              {
                code = code_of_claim claim;
                claim;
                found;
                schedule;
                unminimized;
                shrink_trials = trials;
                replay;
              }
          else None
    in
    let witnesses =
      List.filter_map
        (fun w -> w)
        [
          Option.bind (first (fun f -> f.Cs.races)) (fun hit ->
              witness Lost_update
                (fun f ->
                  Option.map (fun (a, b) -> Race (a, b)) (head f.Cs.races))
                hit);
          Option.bind (first (fun f -> f.Cs.holes)) (fun hit ->
              witness Lost_client_write
                (fun f -> Option.map (fun w -> Hole w) (head f.Cs.holes))
                hit);
          Option.bind (first (fun f -> f.Cs.cuts)) (fun hit ->
              witness Unreachable
                (fun f ->
                  Option.map (fun (w, d) -> Cut (w, d)) (head f.Cs.cuts))
                hit);
          Option.bind best_stale (fun (cand, (s : Cs.stale)) ->
              witness (Stale_at s.Cs.sample)
                (fun f ->
                  f.Cs.stales
                  |> List.filter (fun (x : Cs.stale) ->
                         x.Cs.sample = s.Cs.sample)
                  |> function
                  | [] -> None
                  | x :: rest ->
                      Some
                        (Stale
                           (List.fold_left
                              (fun (best : Cs.stale) (y : Cs.stale) ->
                                if y.Cs.count > best.Cs.count then y else best)
                              x rest)))
                (cand, s));
        ]
    in
    {
      witnesses;
      stats =
        {
          enumerated = List.length cands;
          interpreted = !interpreted;
          pruned_por;
          pruned_symmetry;
          replays = !replays;
          exhausted = not more;
        };
    }
  end
