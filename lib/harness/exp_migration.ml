module R = Netaddr.Registry
module P = Netaddr.Pqid

type point = {
  ops_applied : int;
  renumber_only : float;
  with_migrations : float;
}

type result = { series : point list; fresh_pids_always_work : bool }

let topology = [ ("m1", 3); ("m2", 3); ("m3", 3) ]

let build () =
  let r = R.create () in
  let net = R.add_network r ~label:"net" in
  List.iter
    (fun (m, k) ->
      let mach = R.add_machine r ~net ~label:m in
      for i = 1 to k do
        ignore (R.add_process r ~mach ~label:(Printf.sprintf "%s.p%d" m i))
      done)
    topology;
  r

(* machine-local connections: every ordered pair of machine-mates *)
let local_connections r =
  let procs = R.all_processes r in
  List.concat_map
    (fun holder ->
      List.filter_map
        (fun target ->
          if
            holder <> target
            && R.machine_of_proc r holder = R.machine_of_proc r target
          then Some (holder, target, R.pid_of r ~target ~relative_to:holder)
          else None)
        procs)
    procs

let valid_fraction r conns =
  match conns with
  | [] -> 1.0
  | _ ->
      let ok =
        List.length
          (List.filter
             (fun (holder, target, pid) ->
               R.resolve r ~from:holder pid = Some target)
             conns)
      in
      float_of_int ok /. float_of_int (List.length conns)

let random_migration r rng =
  let procs = R.all_processes r in
  let p = Dsim.Rng.pick rng procs in
  let machines =
    List.concat_map (fun n -> R.machines r n) (R.networks r)
  in
  let current = R.machine_of_proc r p in
  let others = List.filter (fun m -> m <> current) machines in
  match others with
  | [] -> ()
  | _ -> R.move_process r p (Dsim.Rng.pick rng others)

let n_ops = 8

let measure () =
  let rng = Dsim.Rng.create 42L in
  (* two identical worlds, two workloads *)
  let r1 = build () and r2 = build () in
  let conns1 = local_connections r1 and conns2 = local_connections r2 in
  let series = ref [ { ops_applied = 0; renumber_only = 1.0; with_migrations = 1.0 } ] in
  for i = 1 to n_ops do
    ignore (Workload.Reconfig.random_ops r1 ~rng ~n:1 ());
    (* the migration workload alternates renumbering and migration *)
    if i mod 2 = 0 then ignore (Workload.Reconfig.random_ops r2 ~rng ~n:1 ())
    else random_migration r2 rng;
    series :=
      {
        ops_applied = i;
        renumber_only = valid_fraction r1 conns1;
        with_migrations = valid_fraction r2 conns2;
      }
      :: !series
  done;
  (* fresh pids always work, in both worlds *)
  let fresh r =
    let procs = R.all_processes r in
    List.for_all
      (fun holder ->
        List.for_all
          (fun target ->
            R.resolve r ~from:holder (R.pid_of r ~target ~relative_to:holder)
            = Some target)
          procs)
      procs
  in
  { series = List.rev !series; fresh_pids_always_work = fresh r1 && fresh r2 }

let run ppf =
  let r = measure () in
  Format.fprintf ppf
    "A3 (boundary of section 6, Example 1): the paper's survival claim is
about RENAMING machines/networks, not about migrating processes. Left
column: machine-local pids under a renumbering-only workload (paper:
immune). Right: the same pids when processes also migrate (no claim —
and indeed they break; only re-qualified pids recover).@\n@\n";
  Format.pp_print_string ppf
    (Table.render ~aligns:[ Table.Right; Table.Right; Table.Right ]
       ~headers:[ "ops"; "renumber-only"; "with migrations" ]
       (List.map
          (fun p ->
            [
              string_of_int p.ops_applied;
              Table.fraction p.renumber_only;
              Table.fraction p.with_migrations;
            ])
          r.series));
  Format.fprintf ppf "@\nfresh (re-qualified) pids all resolve: %b   (expected: true)@\n"
    r.fresh_pids_always_work
