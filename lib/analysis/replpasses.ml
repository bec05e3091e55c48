(* From cluster-schedule verdicts to diagnostics: the NG2xx series.

   Error-severity codes (NG201-NG204) render [Clusterstate.facts], the
   Must/Never facts of the abstract interpretation, so every one of them
   is reproducible by a chaos replay of the same schedule — the
   cross-validation property the test suite checks over seeded
   schedules. Warnings (NG205-NG207) and the undecided verdict (NG208)
   are may-facts. *)

module Cs = Clusterstate
module Ch = Dsim.Chaos
module Ns = Dsim.Nameserver
module N = Naming.Name

type subject = {
  config : Ch.config;
  spec : Ns.spec;
  workload : (float * int * Ns.request) list;
}

let subject ?workload config spec =
  let workload =
    match workload with Some w -> w | None -> Ch.planned_writes config spec
  in
  { config; spec; workload }

let diag = Diagnostic.make

let window_str = Bounds.window_str

(* ------------------------------------------------------------------ *)
(* cluster-spec: NG207 — groups that can never satisfy §5 equivalence. *)

let spec_pass (spec : Ns.spec) =
  let pass = "cluster-spec" in
  let ix = Cs.index spec in
  let parent p =
    match Cs.split p with
    | Some (dir, _) -> dir
    | None -> N.singleton N.root_atom
  in
  let orphan what p =
    diag ~code:"NG207" ~severity:Diagnostic.Warning ~pass ~name:p
      (Printf.sprintf
         "%s %s is orphaned: parent %s is not in the spec, so the binding \
          is silently dropped on every replica and the mirror group can \
          never satisfy §5 equivalence"
         what (Cs.path_key p) (Cs.path_key (parent p)))
  in
  List.concat
    [
      List.filter_map
        (fun d ->
          if ix.Cs.known_dir (parent d) then None
          else Some (orphan "directory" d))
        spec.Ns.dirs;
      List.filter_map
        (fun (p, k) ->
          if not (ix.Cs.known_dir (parent p)) then
            Some (orphan "link" p)
          else if not (ix.Cs.known_leaf k) then
            Some
              (diag ~code:"NG207" ~severity:Diagnostic.Warning ~pass ~name:p
                 (Printf.sprintf
                    "link %s refers to unknown leaf key %S: the binding is \
                     silently dropped on every replica"
                    (Cs.path_key p) k))
          else if ix.Cs.known_dir p then
            Some
              (diag ~code:"NG207" ~severity:Diagnostic.Warning ~pass ~name:p
                 (Printf.sprintf
                    "link %s shadows the mirror directory of the same path: \
                     the replica group can never satisfy §5 equivalence"
                    (Cs.path_key p)))
          else None)
        spec.Ns.links;
    ]

(* ------------------------------------------------------------------ *)
(* cluster-races: NG201 (must-concurrent LWW losses), NG205 (ties).    *)

let races_pass (st : Cs.t) (facts : Cs.facts) =
  let pass = "cluster-races" in
  let ng201 =
    List.map
      (fun (a, b) ->
        diag ~code:"NG201" ~severity:Diagnostic.Error ~pass
          ~name:(Cs.write_name b) ~loc:b.Cs.index
          (Printf.sprintf
             "%s and %s are provably concurrent updates of one name: \
              neither op can reach the other's replica before both are \
              accepted, so last-writer-wins silently discards one of them"
             (Cs.write_str a) (Cs.write_str b)))
      facts.Cs.races
  in
  (* One NG205 per site with a possible stamp tie: the pair's witness
     intervals show the winner hangs on the origin-id tiebreak. *)
  let sites = Hashtbl.create 16 in
  Array.iter
    (fun w ->
      if Cs.applied w then
        Hashtbl.replace sites (Cs.key w)
          (w :: (try Hashtbl.find sites (Cs.key w) with Not_found -> [])))
    st.Cs.writes;
  let ng205 =
    Hashtbl.fold (fun k ws acc -> (k, List.rev ws) :: acc) sites []
    |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)
    |> List.filter_map (fun ((path, atom), ws) ->
           let rec first_tie = function
             | a :: rest -> (
                 match List.find_opt (Cs.stamps_may_tie a) rest with
                 | Some b -> Some (a, b)
                 | None -> first_tie rest)
             | [] -> None
           in
           match first_tie ws with
           | None -> None
           | Some (a, b) ->
               Some
                 (diag ~code:"NG205" ~severity:Diagnostic.Warning ~pass
                    ~name:(Cs.write_name a) ~loc:b.Cs.index
                    (Printf.sprintf
                       "site %s·%s: %s (stamp in [%d; %d]) and %s (stamp \
                        in [%d; %d]) may tie on Lamport stamp, leaving \
                        the LWW winner decided only by origin id"
                       path atom (Cs.write_str a) (fst a.Cs.stamp)
                       (snd a.Cs.stamp) (Cs.write_str b) (fst b.Cs.stamp)
                       (snd b.Cs.stamp))))
  in
  ng201 @ ng205

(* ------------------------------------------------------------------ *)
(* cluster-topology: NG202 (provable non-convergence), NG203           *)
(* (staleness bound exceeded over a whole fault window).               *)

let topology_pass ~rounds (facts : Cs.facts) =
  let pass = "cluster-topology" in
  let ng202 =
    List.map
      (fun ((w : Cs.write), d) ->
        diag ~code:"NG202" ~severity:Diagnostic.Error ~pass
          ~name:(Cs.write_name w) ~loc:w.Cs.index
          (Printf.sprintf
             "%s can never reach ns%d within the run: the anti-entropy pull \
              graph is not strongly connected over the schedule, so the \
              replicas provably fail to reconverge"
             (Cs.write_str w) d))
      facts.Cs.cuts
  in
  let ng203 =
    List.map
      (fun (s : Cs.stale) ->
        diag ~code:"NG203" ~severity:Diagnostic.Error ~pass
          ~name:(Cs.write_name s.Cs.write) ~loc:s.Cs.sample
          (Printf.sprintf
             "ns%d is provably stale beyond the staleness bound (%d \
              anti-entropy rounds) for the whole %s window %s: %s cannot \
              reach it before sample #%d at t=%.1f"
             s.Cs.replica rounds s.Cs.window
             (window_str s.Cs.bounds)
             (Cs.write_str s.Cs.write) s.Cs.sample s.Cs.time))
      facts.Cs.stales
  in
  ng202 @ ng203

(* ------------------------------------------------------------------ *)
(* cluster-durability: NG204 (crash-window holes), NG206 (dedup).      *)

let durability_pass (st : Cs.t) (facts : Cs.facts) =
  let pass = "cluster-durability" in
  let cfg = st.Cs.config in
  let ng204 =
    match st.Cs.crash with
    | None -> []
    | Some (v, s, e) ->
        List.map
          (fun (w : Cs.write) ->
            diag ~code:"NG204" ~severity:Diagnostic.Error ~pass
              ~name:(Cs.write_name w) ~loc:w.Cs.index
              (Printf.sprintf
                 "%s is a durability hole: every retransmission lands \
                  inside ns%d's crash window %s, no surviving replica ever \
                  holds the update and the client's retry budget provably \
                  exhausts"
                 (Cs.write_str w) v
                 (window_str (s, e))))
          facts.Cs.holes
  in
  let ng206 =
    match cfg.Ch.dedup_window with
    | Some window when cfg.Ch.call_attempts > 1 || cfg.Ch.duplicate > 0.0 ->
        let last_send_hi =
          snd st.Cs.sends.(Array.length st.Cs.sends - 1) +. snd st.Cs.lat
        in
        let per_client = Hashtbl.create 8 in
        List.iter
          (fun (w : Cs.write) ->
            Hashtbl.replace per_client w.Cs.origin
              (w
              ::
              (try Hashtbl.find per_client w.Cs.origin with Not_found -> [])))
          (Cs.writes st);
        Hashtbl.fold (fun c ws acc -> (c, List.rev ws) :: acc) per_client []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        |> List.filter_map (fun (c, ws) ->
               List.find_map
                 (fun (w : Cs.write) ->
                   let overlapping =
                     List.length
                       (List.filter
                          (fun (o : Cs.write) ->
                            o.Cs.index <> w.Cs.index
                            && o.Cs.time > w.Cs.time
                            && o.Cs.time <= w.Cs.time +. last_send_hi)
                          ws)
                   in
                   if overlapping >= window then
                     Some
                       (diag ~code:"NG206" ~severity:Diagnostic.Warning ~pass
                          ~name:(Cs.write_name w) ~loc:w.Cs.index
                          (Printf.sprintf
                             "dedup window %d is smaller than client c%d's \
                              overlapping retry traffic: %d later calls can \
                              evict %s from the dedup memory while its \
                              duplicates are still in flight, so the write \
                              may be applied twice"
                             window c overlapping (Cs.write_str w)))
                   else None)
                 ws)
    | _ -> []
  in
  ng204 @ ng206

(* ------------------------------------------------------------------ *)
(* cluster-verdict: NG208 — undecided within the round budget.         *)

let verdict_pass ~rounds ~errors (st : Cs.t) =
  let pass = "cluster-verdict" in
  let cfg = st.Cs.config in
  let ws = Cs.writes st in
  let may = List.filter (fun w -> w.Cs.applies = Cs.May) ws in
  if may <> [] then
    [
      diag ~code:"NG208" ~severity:Diagnostic.Info ~pass
        (Printf.sprintf
           "%d of %d writes may or may not be applied (loss p=%.2f over \
            the client path): the convergence verdict is undecided within \
            the round budget (%d)"
           (List.length may) (List.length ws) cfg.Ch.drop rounds);
    ]
  else if
    (not errors) && Cs.divergence_possible st
    && not (Cs.reconverge_provable ~rounds st)
  then
    [
      diag ~code:"NG208" ~severity:Diagnostic.Info ~pass
        (Printf.sprintf
           "replicas may diverge (faults overlap the workload) and \
            reconvergence of %d replicas over randomly chosen peers is \
            not provable within the round budget (%d)"
           cfg.Ch.replicas rounds);
    ]
  else []

(* ------------------------------------------------------------------ *)
(* cluster-availability: NG209 (provable no-quorum windows), NG210     *)
(* (transaction-outcome-unknown horizons) — [`Leader_log] only.        *)

let availability_pass (st : Cs.t) =
  let pass = "cluster-availability" in
  let cfg = st.Cs.config in
  let windows = Cs.no_quorum_windows st in
  let maj = Cs.majority st in
  let ng209 =
    List.map
      (fun (s, e) ->
        diag ~code:"NG209" ~severity:Diagnostic.Warning ~pass
          (Printf.sprintf
             "the fault schedule provably denies a write quorum (%d of %d \
              replicas) for the whole window %s: no transaction can commit \
              and no leader election can complete until it ends"
             maj cfg.Ch.replicas (window_str (s, e))))
      windows
  in
  let ng210 =
    List.filter_map
      (fun (w : Cs.write) ->
        Option.map
          (fun (s, e) ->
            diag ~code:"NG210" ~severity:Diagnostic.Warning ~pass
              ~name:(Cs.write_name w) ~loc:w.Cs.index
              (Printf.sprintf
                 "%s expires its transaction deadline (%.1fs) inside the \
                  no-quorum window %s: the client can observe neither \
                  commit nor abort in time and must report the outcome \
                  unknown"
                 (Cs.write_str w) cfg.Ch.txn_deadline (window_str (s, e))))
          (Cs.outcome_unknown_horizon st w))
      (Cs.writes st)
  in
  ng209 @ ng210

(* ------------------------------------------------------------------ *)
(* Assembly.                                                           *)

let pass_ids =
  [
    "cluster-spec";
    "cluster-races";
    "cluster-topology";
    "cluster-durability";
    "cluster-verdict";
  ]

let leader_pass_ids = [ "cluster-spec"; "cluster-availability" ]

let passes_for (cfg : Ch.config) =
  match cfg.Ch.mode with
  | `Lww_ae -> pass_ids
  | `Leader_log -> leader_pass_ids

let diagnostics ?(rounds = 2) subject =
  let st = Cs.of_chaos ~workload:subject.workload subject.config subject.spec in
  let spec_diags = spec_pass subject.spec in
  match subject.config.Ch.mode with
  | `Leader_log ->
      (* The leader tier serializes every update through one elected
         log, so the LWW race/topology/durability passes are discharged
         by construction: no NG201 (a quorum commit totally orders
         conflicting writes), no NG202/NG203 (followers replay the
         leader's log, not a gossip graph), no NG204 (a committed op is
         on a majority before the ack). What remains is the
         availability cost of that coherence — the NG209/NG210 pass. *)
      (st, spec_diags @ availability_pass st)
  | `Lww_ae ->
      let facts = Cs.facts ~rounds st in
      let races = races_pass st facts in
      let topo = topology_pass ~rounds facts in
      let dura = durability_pass st facts in
      let errors =
        List.exists
          (fun d -> d.Diagnostic.severity = Diagnostic.Error)
          (races @ topo @ dura)
      in
      let verdict = verdict_pass ~rounds ~errors st in
      (st, spec_diags @ races @ topo @ dura @ verdict)

let report ?min_severity ?rounds ~label subject =
  let st, diags = diagnostics ?rounds subject in
  let report =
    Engine.assemble ?min_severity ~label
      ~activities:subject.config.Ch.replicas
      ~objects:(List.length subject.spec.Ns.leaves)
      ~context_objects:(List.length subject.spec.Ns.dirs)
      ~probes:(List.length (Cs.writes st))
      ~passes_run:(passes_for subject.config) diags
  in
  (st, report)

let report_many ?min_severity ?rounds ?jobs subjects =
  Naming.Pool.map ?jobs
    (fun (label, s) -> report ?min_severity ?rounds ~label s)
    subjects
