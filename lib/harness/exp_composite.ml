module O = Naming.Occurrence
module C = Naming.Coherence

type point = {
  global_fraction : float;
  sender : float;
  receiver : float;
  composite_sender_wins : float;
  composite_receiver_wins : float;
}

let fractions = [ 0.0; 0.25; 0.5; 0.75; 1.0 ]

let measure_point (w : Fixture.two_machine) ~global_fraction ~n =
  let probes = Fixture.probes w ~global_fraction ~n in
  let asg = w.Fixture.assignment in
  let r_activity = Naming.Rule.of_activity asg in
  let with_gen rule = Naming.Rule.fallback rule r_activity in
  let occs =
    [
      O.generated w.Fixture.a1;
      O.received ~sender:w.Fixture.a1 ~receiver:w.Fixture.a2;
    ]
  in
  let degree rule =
    C.degree (C.measure w.Fixture.store (with_gen rule) occs probes)
  in
  {
    global_fraction;
    sender = degree (Naming.Rule.of_sender asg);
    receiver = degree (Naming.Rule.of_receiver asg);
    composite_sender_wins =
      degree (Naming.Rule.of_receiver_sender ~prefer:`Sender asg);
    composite_receiver_wins =
      degree (Naming.Rule.of_receiver_sender ~prefer:`Receiver asg);
  }

let sweep () =
  let w = Fixture.two_machine_world () in
  List.map (fun g -> measure_point w ~global_fraction:g ~n:40) fractions

let run ppf =
  let points = sweep () in
  Format.fprintf ppf
    "A1 (ablation of section 4's remark): the composite rule
R(receiver, sender) vs the plain rules, over the E2 world. Paper: no
justification exists for the composite — and indeed the sender-preferring
composite merely matches R(sender), while the receiver-preferring one
matches R(receiver) wherever contexts clash.@\n@\n";
  Format.pp_print_string ppf
    (Table.render
       ~aligns:
         [ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
       ~headers:
         [
           "g";
           "R(sender)";
           "R(receiver)";
           "composite/sender-wins";
           "composite/receiver-wins";
         ]
       (List.map
          (fun p ->
            [
              Table.fraction p.global_fraction;
              Table.fraction p.sender;
              Table.fraction p.receiver;
              Table.fraction p.composite_sender_wins;
              Table.fraction p.composite_receiver_wins;
            ])
          points))
