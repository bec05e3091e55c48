module E = Naming.Entity
module N = Naming.Name

type event = { sender : E.t; receiver : E.t; name : N.t }

let random_events ~rng ~activities ~probes ~n =
  if List.length activities < 2 then
    invalid_arg "Exchange.random_events: need at least two activities";
  if probes = [] then invalid_arg "Exchange.random_events: no probes";
  List.init n (fun _ ->
      let sender = Dsim.Rng.pick rng activities in
      let rec pick_receiver () =
        let r = Dsim.Rng.pick rng activities in
        if E.equal r sender then pick_receiver () else r
      in
      let receiver = pick_receiver () in
      { sender; receiver; name = Dsim.Rng.pick rng probes })

let all_pairs ~activities ~probes =
  List.concat_map
    (fun sender ->
      List.concat_map
        (fun receiver ->
          if E.equal sender receiver then []
          else List.map (fun name -> { sender; receiver; name }) probes)
        activities)
    activities

let occurrences ev =
  [
    Naming.Occurrence.generated ev.sender;
    Naming.Occurrence.received ~sender:ev.sender ~receiver:ev.receiver;
  ]

let coherent_fraction ?equiv ?jobs store rule events =
  Naming.Coherence.measure_units ?equiv ?jobs store rule
    (List.map (fun ev -> (occurrences ev, ev.name)) events)
  |> Naming.Coherence.degree

let run_over_network ~engine ~actor_of events =
  let addr_to_entity = Hashtbl.create 16 in
  let register e =
    let actor = actor_of e in
    Hashtbl.replace addr_to_entity (Dsim.Actor.address actor) e
  in
  List.iter
    (fun ev ->
      register ev.sender;
      register ev.receiver)
    events;
  List.iter
    (fun ev ->
      Dsim.Actor.send (actor_of ev.sender) ~to_:(actor_of ev.receiver) ev.name)
    events;
  ignore (Dsim.Engine.run engine);
  let receivers =
    List.sort_uniq E.compare (List.map (fun ev -> ev.receiver) events)
  in
  List.concat_map
    (fun receiver ->
      List.filter_map
        (fun envelope ->
          match Hashtbl.find_opt addr_to_entity envelope.Dsim.Network.src with
          | Some sender ->
              Some (sender, receiver, envelope.Dsim.Network.payload)
          | None -> None)
        (Dsim.Actor.drain (actor_of receiver)))
    receivers
