module N = Naming.Name
module E = Naming.Entity
module O = Naming.Occurrence
module C = Naming.Coherence

type point = {
  global_fraction : float;
  received_receiver : float;
  received_sender : float;
  embedded_activity : float;
  embedded_object : float;
}

let fractions = [ 0.0; 0.25; 0.5; 0.75; 1.0 ]

let measure_point (w : Fixture.two_machine) ~global_fraction ~n =
  let probes = Fixture.probes w ~global_fraction ~n in
  let asg = w.Fixture.assignment in
  let r_activity = Naming.Rule.of_activity asg in
  (* R(o): the document resolves embedded names in its author's context. *)
  let obj_asg = Naming.Rule.Assignment.create () in
  Naming.Rule.Assignment.set obj_asg w.Fixture.doc
    (Naming.Rule.Assignment.find asg w.Fixture.a1 |> Option.get);
  let recv_occs =
    [
      O.generated w.Fixture.a1;
      O.received ~sender:w.Fixture.a1 ~receiver:w.Fixture.a2;
    ]
  in
  (* For the received case the sender's own meaning must agree with what
     the receiver obtains; R(receiver)/R(sender) only select a context for
     the Received occurrence, so pair them with the sender's generation
     under R(activity) via fallback. *)
  let with_gen rule = Naming.Rule.fallback rule r_activity in
  let emb_occs =
    [
      O.embedded ~reader:w.Fixture.a1 ~source:w.Fixture.doc;
      O.embedded ~reader:w.Fixture.a2 ~source:w.Fixture.doc;
    ]
  in
  let degree rule occs =
    C.degree (C.measure w.Fixture.store rule occs probes)
  in
  {
    global_fraction;
    received_receiver = degree (with_gen (Naming.Rule.of_receiver asg)) recv_occs;
    received_sender = degree (with_gen (Naming.Rule.of_sender asg)) recv_occs;
    embedded_activity = degree r_activity emb_occs;
    embedded_object = degree (Naming.Rule.of_object obj_asg) emb_occs;
  }

let sweep () =
  let w = Fixture.two_machine_world () in
  List.map (fun g -> measure_point w ~global_fraction:g ~n:40) fractions

let run ppf =
  let points = sweep () in
  Format.fprintf ppf
    "E2 (Figure 2): coherence vs resolution rule, sweeping the fraction g
of globally-bound probe names. Paper: R(receiver)/R(activity) are coherent
only for global names (degree = g); R(sender)/R(object) are coherent for
all names (degree = 1).@\n@\n";
  let rows =
    List.map
      (fun p ->
        [
          Table.fraction p.global_fraction;
          Table.fraction p.received_receiver;
          Table.fraction p.received_sender;
          Table.fraction p.embedded_activity;
          Table.fraction p.embedded_object;
        ])
      points
  in
  Format.pp_print_string ppf
    (Table.render
       ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
       ~headers:
         [
           "g";
           "recv R(receiver)";
           "recv R(sender)";
           "emb R(activity)";
           "emb R(object)";
         ]
       rows)
