(* Rendering explorer witnesses as the NG3xx diagnostic series. Every
   message names the minimized schedule (the one serialized for
   [namingctl chaos --schedule]) and quotes the confirming replay, so
   the diagnostic is checkable end to end from its own text. *)

module Ex = Explore
module Cs = Clusterstate
module Ch = Dsim.Chaos
module Ns = Dsim.Nameserver
module Ctr = Dsim.Counters

type subject = { config : Ex.config; spec : Ns.spec }

let subject ?(config = Ex.default) spec = { config; spec }
let diag = Diagnostic.make

let sched_str (s : Ch.schedule) =
  let cfg = s.Ch.config in
  Printf.sprintf "%s%d write%s%s%s"
    (match cfg.Ch.mode with `Lww_ae -> "" | `Leader_log -> "leader-mode, ")
    (List.length s.Ch.writes)
    (if List.length s.Ch.writes = 1 then "" else "s")
    (if cfg.Ch.partition_for > 0.0 then
       Printf.sprintf ", partition %s"
         (Bounds.window_str
            (cfg.Ch.partition_at, cfg.Ch.partition_at +. cfg.Ch.partition_for))
     else "")
    (if cfg.Ch.crash_for > 0.0 then
       Printf.sprintf ", crash %s"
         (Bounds.window_str
            (cfg.Ch.crash_at, cfg.Ch.crash_at +. cfg.Ch.crash_for))
     else "")

let pass_ids =
  [ "explore-loss"; "explore-convergence"; "explore-staleness"; "explore-space" ]

let witness_diag (w : Ex.witness) =
  let r = w.Ex.replay in
  match w.Ex.found with
  | Ex.Race (a, b) ->
      diag ~code:"NG301" ~severity:Diagnostic.Error ~pass:"explore-loss"
        ~name:(Cs.write_name b) ~loc:b.Cs.index
        (Printf.sprintf
           "synthesized schedule (%s) provably loses a write: %s and %s are \
            concurrent updates of one name that no execution can order, so \
            last-writer-wins discards one; replay confirms (%d LWW losses, \
            converged: %b; minimized in %d trials)"
           (sched_str w.Ex.schedule) (Cs.write_str a) (Cs.write_str b)
           (Ctr.get r.Ch.ns Ns.lww_losses) r.Ch.converged w.Ex.shrink_trials)
  | Ex.Hole hw ->
      diag ~code:"NG301" ~severity:Diagnostic.Error ~pass:"explore-loss"
        ~name:(Cs.write_name hw) ~loc:hw.Cs.index
        (Printf.sprintf
           "synthesized schedule (%s) provably loses a write: every \
            retransmission of %s lands inside the crash window and the \
            retry budget exhausts in-run; replay confirms (%d writes lost; \
            minimized in %d trials)"
           (sched_str w.Ex.schedule) (Cs.write_str hw) r.Ch.writes_lost
           w.Ex.shrink_trials)
  | Ex.Cut (cw, d) ->
      diag ~code:"NG302" ~severity:Diagnostic.Error
        ~pass:"explore-convergence" ~name:(Cs.write_name cw) ~loc:cw.Cs.index
        (Printf.sprintf
           "synthesized schedule (%s) defeats convergence within the bound: \
            %s can never reach ns%d, so the replicas provably fail to \
            reconverge; replay confirms (converged: %b; minimized in %d \
            trials)"
           (sched_str w.Ex.schedule) (Cs.write_str cw) d r.Ch.converged
           w.Ex.shrink_trials)
  | Ex.Stale s ->
      diag ~code:"NG303" ~severity:Diagnostic.Warning
        ~pass:"explore-staleness" ~name:(Cs.write_name s.Cs.write)
        ~loc:s.Cs.sample
        (Printf.sprintf
           "staleness-maximizing schedule (%s): ns%d provably serves stale \
            reads for %d consecutive samples — %s cannot reach it before \
            sample #%d at t=%.1f; replay confirms the sample diverged \
            (minimized in %d trials)"
           (sched_str w.Ex.schedule) s.Cs.replica s.Cs.count
           (Cs.write_str s.Cs.write) s.Cs.sample s.Cs.time w.Ex.shrink_trials)

let diagnostics ?jobs subject =
  let outcome = Ex.run ?jobs ~config:subject.config subject.spec in
  let st = outcome.Ex.stats in
  let diags = List.map witness_diag outcome.Ex.witnesses in
  let diags =
    if st.Ex.exhausted && outcome.Ex.witnesses = [] then
      diags
      @ [
          diag ~code:"NG304" ~severity:Diagnostic.Info ~pass:"explore-space"
            (Printf.sprintf
               "schedule space exhausted clean up to the bounds (depth %d, \
                ≤%d writes, budget %d): %d schedules enumerated, %d \
                interpreted, %d collapsed by partial-order reduction, %d by \
                symmetry%s"
               subject.config.Ex.depth subject.config.Ex.max_writes
               subject.config.Ex.budget st.Ex.enumerated st.Ex.interpreted
               st.Ex.pruned_por st.Ex.pruned_symmetry
               (match subject.config.Ex.base.Ch.mode with
               | `Leader_log ->
                   "; every statically-racing schedule replayed against \
                    the leader tier without losing an update"
               | `Lww_ae -> ""));
        ]
    else diags
  in
  (outcome, diags)

let report ?min_severity ?jobs ~label subject =
  let outcome, diags = diagnostics ?jobs subject in
  let report =
    Engine.assemble ?min_severity ~label
      ~activities:subject.config.Ex.base.Ch.replicas
      ~objects:(List.length subject.spec.Ns.leaves)
      ~context_objects:(List.length subject.spec.Ns.dirs)
      ~probes:outcome.Ex.stats.Ex.enumerated ~passes_run:pass_ids diags
  in
  (outcome, report)

let report_many ?min_severity ?jobs subjects =
  List.map (fun (label, s) -> report ?min_severity ?jobs ~label s) subjects
