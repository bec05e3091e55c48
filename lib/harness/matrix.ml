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


let generated_degree ?jobs w =
  let occs = List.map Naming.Occurrence.generated w.activities in
  Naming.Coherence.degree
    (Naming.Coherence.measure ?equiv:w.equiv ?jobs w.store w.rule occs
       w.probes)

let received_degree ?jobs w =
  let events =
    Workload.Exchange.all_pairs ~activities:w.activities ~probes:w.probes
  in
  Workload.Exchange.coherent_fraction ?equiv:w.equiv ?jobs w.store
    w.rule events

(* One embedded check per (source document, embedded name), classified
   across all reading activities. *)
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

let embedded_degree ?jobs w =
  match w.embedded with
  | [] -> None
  | _ ->
      Naming.Coherence.measure_units ?equiv:w.equiv ?jobs w.store
        w.rule (embedded_units w)
      |> Naming.Coherence.degree |> Option.some

(* Each degree takes the store's own engine, so a directory's table is
   built once for the whole row. *)
let measure ?jobs w =
  {
    world = w.label;
    generated = generated_degree ?jobs w;
    received = received_degree ?jobs w;
    embedded_deg = embedded_degree ?jobs w;
  }

(* Worlds are independent (each has its own store), so the coarser
   world-level fan-out is used when measuring many: one task per world,
   each sweeping its rows sequentially (with its store frozen at
   jobs > 1). *)
let measure_all ?jobs worlds =
  Naming.Pool.map_frozen ?jobs ~store:(fun w -> w.store) (fun w -> measure w)
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
