(* Abstract interpretation of the replicated name service: per-write
   acceptance verdicts with time bounds, Lamport-stamp intervals, and a
   may-propagation (happens-before) relation widened across anti-entropy
   rounds. Everything here mirrors the concrete protocol in
   [Dsim.Nameserver] / [Dsim.Chaos] / [Dsim.Rpc]; each Must/Never fact
   is a claim about EVERY execution of the schedule, so the replay
   cross-validation in the test suite holds by construction. *)

module Ns = Dsim.Nameserver
module Ch = Dsim.Chaos
module N = Naming.Name

type tri = Must | May | Never

let tri_to_string = function Must -> "must" | May -> "may" | Never -> "never"

let eps = Bounds.eps

type write = {
  index : int;  (** position in the workload *)
  time : float;  (** client issue time *)
  origin : int;  (** client = home replica id *)
  path : N.t;  (** absolute (root-prepended) directory path *)
  atom : N.atom;
  target : string option;
  nacked : bool;  (** statically Nack'd: unknown directory or leaf key *)
  applies : tri;  (** does the home replica accept and apply the op? *)
  accept : float * float;
      (** acceptance-instant bounds: for [Must] the op is provably
          applied at the origin inside this interval; for [May] the
          latest instant it could still be applied *)
  stamp : int * int;  (** Lamport-stamp bounds at acceptance *)
  lost_in_crash : bool;
      (** provably lost: every retransmission lands inside the home
          replica's crash window and the retry budget exhausts in-run *)
}

type t = {
  config : Ch.config;
  spec : Ns.spec;
  writes : write array;
  sides : (int list * int list) option;
  partition : (float * float) option;
  crash : (int * float * float) option;  (** victim, window *)
  heal_at : float;
  samples : float array;
  lat : float * float;  (** one-way latency bounds between distinct nodes *)
  sends : (float * float) array;  (** client attempt send offsets *)
  exhaust : float * float;  (** client retry-budget exhaustion offsets *)
  duration : float;
  reach : float array array;
      (** [reach.(i).(d)]: earliest instant write [i] can be applied at
          replica [d]; [infinity] when no chain of pulls delivers it *)
}

(* ------------------------------------------------------------------ *)
(* The spec index: which directories and leaf keys every replica knows. *)

let path_key path = N.to_string (N.prepend_root path)

type index = { known_dir : N.t -> bool; known_leaf : string -> bool }

let index (spec : Ns.spec) =
  let dirs = Hashtbl.create 16 in
  Hashtbl.replace dirs (path_key (N.singleton N.root_atom)) ();
  List.iter (fun d -> Hashtbl.replace dirs (path_key d) ()) spec.Ns.dirs;
  let leaves = Hashtbl.create 16 in
  List.iter (fun (k, _) -> Hashtbl.replace leaves k ()) spec.Ns.leaves;
  {
    known_dir = (fun p -> Hashtbl.mem dirs (path_key p));
    known_leaf = Hashtbl.mem leaves;
  }

let split path =
  match List.rev (N.atoms (N.prepend_root path)) with
  | last :: (_ :: _ as rev_parent) ->
      Some (N.of_atoms (List.rev rev_parent), last)
  | _ -> None

let key w = (path_key w.path, N.atom_to_string w.atom)
let write_name w = N.snoc w.path w.atom

let write_str w =
  Printf.sprintf "write #%d (ns%d t=%.1f %s%s)" w.index w.origin w.time
    (N.to_string (write_name w))
    (match w.target with
    | Some k -> Printf.sprintf "→%s" k
    | None -> "→unbind")

let crash_of t i =
  match t.crash with Some (v, s, e) when v = i -> Some (s, e) | _ -> None

(* Called on every pull edge of every relaxation round: a monomorphic
   scan, not [List.mem]'s polymorphic compare. *)
let same_side t a b =
  match t.sides with
  | None -> true
  | Some (g1, _) ->
      let mem i = List.exists (Int.equal i) g1 in
      mem a = mem b

let applied w = w.applies <> Never && not w.nacked

(* ------------------------------------------------------------------ *)
(* Acceptance: when (if ever) does the home replica apply the write?   *)

(* A client attempt is a request client -> home over one network hop:
   lost when the home is down at send or delivery time ([Network]'s
   crash semantics), never cut (the client is partitioned with its home
   side), delivered with probability 1 only when the drop probability
   is zero. Deliveries scheduled past [duration] never execute. *)
let acceptance t ~origin ~time =
  let lat_lo, lat_hi = t.lat in
  let crash = crash_of t origin in
  let span k =
    let slo, shi = t.sends.(k) in
    (time +. slo, time +. shi)
  in
  let arrival_hi k = snd (span k) +. lat_hi in
  let arrival_lo k = fst (span k) +. lat_lo in
  (* guaranteed: the whole [send; delivery] span avoids the crash
     window and the delivery provably executes in-run *)
  let guaranteed k =
    t.config.Ch.drop = 0.0
    && arrival_hi k <= t.duration -. eps
    &&
    match crash with
    | Some (s, e) -> arrival_hi k < s -. eps || fst (span k) >= e +. eps
    | None -> true
  in
  (* doomed: every possible send instant of the attempt lies inside the
     crash window (lost at send time), or even the earliest delivery
     falls past the end of the run *)
  let doomed k =
    (match crash with
    | Some (s, e) -> fst (span k) >= s && snd (span k) < e
    | None -> false)
    || arrival_lo k > t.duration
  in
  let ks = List.init (Array.length t.sends) (fun k -> k) in
  let must = List.exists guaranteed ks in
  let never = List.for_all doomed ks in
  let feasible = List.filter (fun k -> not (doomed k)) ks in
  let lo =
    List.fold_left
      (fun acc k -> Float.min acc (arrival_lo k))
      infinity feasible
  in
  let hi =
    if must then
      List.fold_left
        (fun acc k -> if guaranteed k then Float.min acc (arrival_hi k) else acc)
        infinity ks
    else
      List.fold_left
        (fun acc k -> Float.max acc (arrival_hi k))
        neg_infinity feasible
  in
  let applies = if never then Never else if must then Must else May in
  let lost_in_crash =
    (match crash with
    | Some (s, e) ->
        List.for_all (fun k -> fst (span k) >= s && snd (span k) < e) ks
    | None -> false)
    && time +. snd t.exhaust <= t.duration -. eps
  in
  (applies, (lo, hi), lost_in_crash)

(* ------------------------------------------------------------------ *)
(* May-propagation: the happens-before relation, widened across
   anti-entropy rounds.                                                *)

(* Earliest instant a pull response from [p] (holding the op since
   [hp]) could possibly be applied at [d]: the response must be served
   while [p] and [d] are both up and not cut from each other (loss is
   decided at send time), and delivered while [d] is up. The pull
   REQUEST leg and the random peer choice are ignored — that only
   enlarges the set of possible executions, which keeps every
   impossibility claim (and hence every error diagnostic) sound. *)
let transfer t p d hp =
  if hp = infinity then infinity
  else begin
    let lat_lo = fst t.lat in
    let serve = ref hp in
    let changed = ref true in
    let guard = ref 0 in
    while !changed && !guard < 16 do
      changed := false;
      incr guard;
      (match crash_of t p with
      | Some (s, e) when !serve >= s && !serve < e ->
          serve := e;
          changed := true
      | _ -> ());
      (match crash_of t d with
      | Some (s, e) ->
          if !serve >= s && !serve < e then begin
            serve := e;
            changed := true
          end
          else if !serve +. lat_lo >= s && !serve +. lat_lo < e then begin
            serve := e -. lat_lo;
            changed := true
          end
      | _ -> ());
      match t.partition with
      | Some (s, e)
        when !serve >= s && !serve < e && not (same_side t p d) ->
          serve := e;
          changed := true
      | _ -> ()
    done;
    !serve +. lat_lo
  end

(* Earliest arrival at every replica of an op applied at [origin] at
   [from_], via any chain of pulls: relax every pull edge with [transfer]
   until a whole round changes nothing. That round proves a fixpoint,
   so the stop is exact whatever shape [transfer] has. *)
let arrivals t ~origin ~from_ =
  let n = t.config.Ch.replicas in
  let have = Array.make n infinity in
  have.(origin) <- from_;
  let rec relax () =
    let changed = ref false in
    for p = 0 to n - 1 do
      for q = 0 to n - 1 do
        if q <> p then begin
          let a = transfer t p q have.(p) in
          if a < have.(q) then begin
            have.(q) <- a;
            changed := true
          end
        end
      done
    done;
    if !changed then relax ()
  in
  relax ();
  have

(* ------------------------------------------------------------------ *)
(* Construction.                                                       *)

let of_chaos ?workload (cfg : Ch.config) (spec : Ns.spec) =
  let workload =
    match workload with Some w -> w | None -> Ch.planned_writes cfg spec
  in
  let sides = Ch.partition_sides cfg in
  let partition =
    match sides with
    | Some _ -> Some (cfg.Ch.partition_at, cfg.Ch.partition_at +. cfg.Ch.partition_for)
    | None -> None
  in
  let crash =
    match Ch.crash_victim cfg with
    | Some v -> Some (v, cfg.Ch.crash_at, cfg.Ch.crash_at +. cfg.Ch.crash_for)
    | None -> None
  in
  let lat = Bounds.latency () in
  let sends, exhaust = Bounds.client_sends cfg in
  let ix = index spec in
  let t =
    {
      config = cfg;
      spec;
      writes = [||];
      sides;
      partition;
      crash;
      heal_at = Ch.heal_time cfg;
      samples = Array.of_list (Ch.sample_times cfg);
      lat;
      sends;
      exhaust;
      duration = cfg.Ch.duration;
      reach = [||];
    }
  in
  let writes =
    List.filter_map
      (fun (time, client, req) ->
        match req with
        | Ns.Write { path; atom; target } -> Some (time, client, path, atom, target)
        | _ -> None)
      workload
  in
  let writes =
    List.mapi
      (fun index (time, origin, path, atom, target) ->
        let nacked =
          (not (ix.known_dir path))
          || match target with Some k -> not (ix.known_leaf k) | None -> false
        in
        let applies, accept, lost_in_crash = acceptance t ~origin ~time in
        let applies = if nacked then Never else applies in
        {
          index;
          time;
          origin;
          path = N.prepend_root path;
          atom;
          target;
          nacked;
          applies;
          accept;
          stamp = (0, 0);
          lost_in_crash = lost_in_crash && not nacked;
        })
      writes
    |> Array.of_list
  in
  (* Lamport-stamp intervals, from the acceptance bounds: the stamp is
     clock+1 at acceptance, the clock at least the origin's provably
     earlier local accepts and at most every op that could possibly be
     known by then (Lamport stamps never exceed the number of accepts). *)
  let writes =
    Array.map
      (fun w ->
        if not (applied w) then w
        else
          let lo =
            1
            + Array.fold_left
                (fun acc o ->
                  if
                    o.index <> w.index && o.origin = w.origin
                    && o.applies = Must
                    && (not o.nacked)
                    && snd o.accept < fst w.accept -. eps
                  then acc + 1
                  else acc)
                0 writes
          in
          let hi =
            1
            + Array.fold_left
                (fun acc o ->
                  if
                    o.index <> w.index && applied o
                    && fst o.accept < snd w.accept
                  then acc + 1
                  else acc)
                0 writes
          in
          { w with stamp = (lo, hi) })
      writes
  in
  let reach =
    Array.map
      (fun w -> arrivals t ~origin:w.origin ~from_:(fst w.accept))
      writes
  in
  { t with writes; reach }

let writes t = Array.to_list t.writes

let earliest_at t w d =
  let a = t.reach.(w.index).(d) in
  if a <= t.duration then Some a else None

let must_concurrent t w1 w2 =
  let unordered a b =
    match earliest_at t a b.origin with
    | None -> true
    | Some arr -> arr > snd b.accept +. eps
  in
  w1.origin <> w2.origin && unordered w1 w2 && unordered w2 w1

let stamps_may_tie w1 w2 =
  let l1, h1 = w1.stamp and l2, h2 = w2.stamp in
  w1.origin <> w2.origin && l1 <= h2 && l2 <= h1

(* ------------------------------------------------------------------ *)
(* The error facts: lost-update races, durability holes, cuts and
   stale windows, each a Must/Never claim about every execution.       *)

type stale = {
  window : string;
  bounds : float * float;
  replica : int;
  write : write;
  sample : int;
  time : float;
  count : int;
}

type facts = {
  races : (write * write) list;
  holes : write list;
  cuts : (write * int) list;
  stales : stale list;
}

(* A [Never] verdict is forced on every Nack'd write, so [Must] implies
   [applied]. *)
let must_writes t = List.filter (fun w -> w.applies = Must) (writes t)

let races t =
  let rec go = function
    | a :: rest ->
        List.filter_map
          (fun b ->
            if
              key a = key b && a.target <> b.target && must_concurrent t a b
            then Some (a, b)
            else None)
          rest
        @ go rest
    | [] -> []
  in
  go (must_writes t)

let cuts t =
  let must = must_writes t in
  List.init t.config.Ch.replicas Fun.id
  |> List.filter_map (fun d ->
         List.find_opt (fun w -> w.origin <> d && earliest_at t w d = None) must
         |> Option.map (fun w -> (w, d)))

(* Per fault window that closes in-run and outlasts the staleness
   bound: the first (replica, write) pair the window isolates with a
   sample inside it that the op provably cannot have reached. *)
let stales ~rounds t =
  let stale_bound = float_of_int rounds *. t.config.Ch.ae_period in
  let must = must_writes t in
  let replicas = List.init t.config.Ch.replicas Fun.id in
  let windows =
    (match (t.partition, t.sides) with
    | Some w, Some (g1, _) ->
        [ ("partition", w, fun o d -> List.mem o g1 <> List.mem d g1) ]
    | _ -> [])
    @
    match t.crash with
    | Some (v, s, e) -> [ ("crash", (s, e), fun o d -> o = v <> (d = v)) ]
    | None -> []
  in
  List.filter_map
    (fun (window, (s, e), isolates) ->
      if e > t.duration -. eps || e -. s < stale_bound -. eps then None
      else
        List.find_map
          (fun d ->
            List.find_map
              (fun w ->
                if not (isolates w.origin d) then None
                else
                  let blocked tau =
                    match earliest_at t w d with
                    | None -> true
                    | Some a -> a > tau +. eps
                  in
                  (* the latest sample inside the window that the op
                     provably cannot have reached [d] by *)
                  let best = ref None and count = ref 0 in
                  Array.iteri
                    (fun k tau ->
                      if
                        tau > snd w.accept +. eps
                        && tau > s
                        && tau < e -. eps
                        && blocked tau
                      then begin
                        incr count;
                        best := Some (k, tau)
                      end)
                    t.samples;
                  Option.map
                    (fun (sample, time) ->
                      {
                        window;
                        bounds = (s, e);
                        replica = d;
                        write = w;
                        sample;
                        time;
                        count = !count;
                      })
                    !best)
              must)
          replicas)
    windows

let facts ~rounds t =
  {
    races = races t;
    holes = List.filter (fun w -> w.lost_in_crash) (writes t);
    cuts = cuts t;
    stales = stales ~rounds t;
  }

(* ------------------------------------------------------------------ *)
(* Convergence verdicts.                                               *)

(* The round budget only matters for proving convergence: with two
   replicas the peer choice is deterministic, so after the last fault
   heals and the last write lands, [rounds] fault-free pull cycles
   provably exchange every op. With more replicas the random peer
   choice makes no finite round count a proof. *)
let reconverge_provable ?(rounds = 2) t =
  let cfg = t.config in
  cfg.Ch.drop = 0.0
  && cfg.Ch.replicas = 2
  && t.heal_at <= t.duration
  &&
  let last_accept =
    Array.fold_left
      (fun acc w -> if applied w then Float.max acc (snd w.accept) else acc)
      0.0 t.writes
  in
  let settled = Float.max t.heal_at last_accept in
  (* every replica needs [rounds] ticks after [settled], each with time
     for a full round trip before the run ends *)
  let lat_hi = snd t.lat in
  let ok i =
    let first = Ch.ae_first_tick cfg i in
    let period = cfg.Ch.ae_period in
    let k = Float.max 0.0 (Float.ceil ((settled -. first) /. period)) in
    let last_needed = first +. ((k +. float_of_int rounds) *. period) in
    last_needed +. (2.0 *. lat_hi) <= t.duration -. eps
  in
  ok 0 && ok 1

let divergence_possible t =
  Array.exists applied t.writes
  && (t.config.Ch.drop > 0.0 || t.partition <> None || t.crash <> None)

(* ------------------------------------------------------------------ *)
(* Leader-mode availability: provable no-quorum windows.               *)

let majority t = (t.config.Ch.replicas / 2) + 1

(* The quorum verdict at one instant must hold in EVERY execution, so
   it quantifies over the statically-unknown choices: which replica the
   leader-kill fault takes down (whoever leads then, falling back to
   ns0 — always exactly one node), and which replica a
   [partition_leader] cut isolates. Quorum is denied only when no
   scenario leaves any connected side with a live majority. *)
let no_quorum_at t tau =
  let cfg = t.config in
  let n = cfg.Ch.replicas in
  let maj = majority t in
  let inside (s, e) = tau >= s && tau < e in
  let all = List.init n (fun i -> i) in
  let crashed =
    match t.crash with Some (v, s, e) when inside (s, e) -> Some v | _ -> None
  in
  let killed_choices =
    match Ch.leader_kill_window cfg with
    | Some w when inside w -> List.map (fun i -> Some i) all
    | _ -> [ None ]
  in
  let sides_choices =
    match t.partition with
    | Some w when inside w ->
        if cfg.Ch.partition_leader && cfg.Ch.mode = `Leader_log then
          List.map
            (fun m -> [ [ m ]; List.filter (fun i -> i <> m) all ])
            all
        else (
          match t.sides with
          | Some (g1, g2) -> [ [ g1; g2 ] ]
          | None -> [ [ all ] ])
    | _ -> [ [ all ] ]
  in
  List.for_all
    (fun killed ->
      List.for_all
        (fun sides ->
          let up i = Some i <> crashed && Some i <> killed in
          not
            (List.exists
               (fun side -> List.length (List.filter up side) >= maj)
               sides))
        sides_choices)
    killed_choices

let no_quorum_windows t =
  if t.config.Ch.mode <> `Leader_log then []
  else begin
    let bounds = ref [ 0.0; t.duration ] in
    let add (s, e) = bounds := s :: e :: !bounds in
    Option.iter add t.partition;
    (match t.crash with Some (_, s, e) -> add (s, e) | None -> ());
    Option.iter add (Ch.leader_kill_window t.config);
    let pts =
      List.sort_uniq Float.compare
        (List.filter (fun x -> x >= 0.0 && x <= t.duration) !bounds)
    in
    (* evaluate each elementary interval at its midpoint; the verdict
       is constant there because every fault boundary is a cut point *)
    let rec walk acc = function
      | a :: (b :: _ as rest) ->
          let acc =
            if b -. a > eps && no_quorum_at t ((a +. b) /. 2.0) then
              match acc with
              | (s, e) :: tl when Float.abs (e -. a) <= eps -> (s, b) :: tl
              | _ -> (a, b) :: acc
            else acc
          in
          walk acc rest
      | _ -> List.rev acc
    in
    walk [] pts
  end

let outcome_unknown_horizon t (w : write) =
  if t.config.Ch.mode <> `Leader_log then None
  else
    List.find_opt
      (fun (s, e) ->
        w.time >= s -. eps
        && w.time +. t.config.Ch.txn_deadline <= e +. eps)
      (no_quorum_windows t)
