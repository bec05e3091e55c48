type world = {
  label : string;
  store : Naming.Store.t;
  rule : Naming.Rule.t;
  activities : Naming.Entity.t list;
  probes : Naming.Name.t list;
  embedded : (Naming.Entity.t * Naming.Name.t list) list;
  equiv : (Naming.Entity.t -> Naming.Entity.t -> bool) option;
}

type row = {
  world : string;
  generated : float;
  received : float;
  embedded_deg : float option;
}


let generated_degree ?engine ?jobs w =
  let engine = Naming.Engine.select ?engine w.store in
  let occs = List.map Naming.Occurrence.generated w.activities in
  let report =
    Naming.Coherence.measure ?equiv:w.equiv ~engine ?jobs w.store w.rule occs
      w.probes
  in
  Naming.Coherence.degree report

let received_degree ?engine ?jobs w =
  let engine = Naming.Engine.select ?engine w.store in
  let events =
    Workload.Exchange.all_pairs ~activities:w.activities ~probes:w.probes
  in
  Workload.Exchange.coherent_fraction ?equiv:w.equiv ~engine ?jobs w.store
    w.rule events

(* One embedded check per (source document, embedded name): the sweep
   unit of the parallel path, classified across all reading activities. *)
let embedded_units w =
  List.concat_map
    (fun (source, names) ->
      let occs =
        List.map
          (fun reader -> Naming.Occurrence.embedded ~reader ~source)
          w.activities
      in
      List.map (fun name -> (occs, name)) names)
    w.embedded

let embedded_degree ?engine ?jobs w =
  match w.embedded with
  | [] -> None
  | _ ->
      let engine = Naming.Engine.select ?engine w.store in
      let units = embedded_units w in
      let verdicts =
        match Naming.Pool.get ?jobs () with
        | None ->
            List.map
              (fun (occs, name) ->
                Naming.Coherence.check ?equiv:w.equiv ~engine w.store w.rule
                  occs name)
              units
        | Some pool ->
            Naming.Engine.map_sharded engine pool
              (fun shard (occs, name) ->
                Naming.Coherence.check ?equiv:w.equiv ~engine:shard w.store
                  w.rule occs name)
              units
      in
      let coherent = ref 0 and meaningful = ref 0 in
      List.iter
        (fun v ->
          match v with
          | Naming.Coherence.Coherent _ | Naming.Coherence.Weakly_coherent _ ->
              incr coherent;
              incr meaningful
          | Naming.Coherence.Incoherent _ -> incr meaningful
          | Naming.Coherence.Vacuous -> ())
        verdicts;
      if !meaningful = 0 then Some 1.0
      else Some (float_of_int !coherent /. float_of_int !meaningful)

(* The three degrees share one engine (the store's own, by default), so
   a directory's table is built once for the whole row. *)
let measure ?engine ?jobs w =
  let engine = Naming.Engine.select ?engine w.store in
  {
    world = w.label;
    generated = generated_degree ~engine ?jobs w;
    received = received_degree ~engine ?jobs w;
    embedded_deg = embedded_degree ~engine ?jobs w;
  }

(* Worlds are independent (each has its own store), so the coarser
   world-level fan-out is used when measuring many: one task per world,
   each sweeping its rows sequentially with the store frozen. *)
let measure_all ?jobs worlds =
  match Naming.Pool.get ?jobs () with
  | None -> List.map (fun w -> measure w) worlds
  | Some pool ->
      Naming.Pool.map pool
        (fun w -> Naming.Store.read_only w.store (fun () -> measure w))
        worlds

let render_rows rows =
  Table.render
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
    ~headers:[ "scheme"; "generated"; "received"; "embedded" ]
    (List.map
       (fun r ->
         [
           r.world;
           Table.fraction r.generated;
           Table.fraction r.received;
           (match r.embedded_deg with
           | None -> "-"
           | Some d -> Table.fraction d);
         ])
       rows)
