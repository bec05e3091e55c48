(* A name server over the simulated network.

   Clients on several machines ask a directory server to resolve names in
   the SERVER's context — contexts arranged so that every client gets the
   same answer (the paper's solution II, in client/server form), while a
   lossy network exercises the RPC timeout path.

   Run with:  dune exec examples/name_server_demo.exe *)

module N = Naming.Name
module E = Naming.Entity

type request = N.t
type response = string (* entity, rendered *)

let () =
  let store = Naming.Store.create () in
  let world = Schemes.Unix_scheme.build store in
  let server_proc = Schemes.Unix_scheme.spawn ~label:"nameserver" world in

  let engine = Dsim.Engine.create () in
  let rng = Dsim.Rng.create 3L in
  let network =
    Dsim.Network.create
      ~config:{ Dsim.Network.default_config with drop_probability = 0.15 }
      ~engine ~rng ()
  in
  let server_node = Dsim.Network.add_node network ~label:"server" in
  let client_node1 = Dsim.Network.add_node network ~label:"client1" in
  let client_node2 = Dsim.Network.add_node network ~label:"client2" in

  (* The server resolves every request in its own context. *)
  let server : (request, response) Dsim.Rpc.endpoint =
    Dsim.Rpc.create network ~node:server_node ~port:1
      ~handler:(fun name ->
        let e = Schemes.Unix_scheme.resolve world ~as_:server_proc
            (N.to_string name)
        in
        Some (E.to_string e))
      ()
  in
  let client1 = Dsim.Rpc.create network ~node:client_node1 ~port:1 () in
  let client2 = Dsim.Rpc.create network ~node:client_node2 ~port:1 () in

  let queries =
    [ "/bin/ls"; "/usr/bin/cc"; "/home/alice/notes.txt"; "/no/such/file" ]
  in
  let ask who client name =
    Dsim.Rpc.call client ~to_:(Dsim.Rpc.address server) ~timeout:5.0
      (N.of_string name) ~on_reply:(fun reply ->
        match reply with
        | Ok entity ->
            Format.printf "  [%5.2f] %s: %-24s -> %s@."
              (Dsim.Engine.now engine) who name entity
        | Error (`Timeout | `Unavailable) ->
            Format.printf "  [%5.2f] %s: %-24s -> TIMEOUT (retrying)@."
              (Dsim.Engine.now engine) who name;
            (* a real client retries *)
            Dsim.Rpc.call client ~to_:(Dsim.Rpc.address server) ~timeout:5.0
              (N.of_string name) ~on_reply:(fun reply ->
                match reply with
                | Ok entity ->
                    Format.printf "  [%5.2f] %s: %-24s -> %s (retry)@."
                      (Dsim.Engine.now engine) who name entity
                | Error (`Timeout | `Unavailable) ->
                    Format.printf "  [%5.2f] %s: %-24s -> gave up@."
                      (Dsim.Engine.now engine) who name))
  in
  Format.printf "clients query the name server (15%% message loss):@.";
  List.iter (fun q -> ask "client1" client1 q) queries;
  List.iter (fun q -> ask "client2" client2 q) queries;
  ignore (Dsim.Engine.run engine);

  Format.printf "@.server stats: %a@." Dsim.Counters.pp
    (Dsim.Rpc.stats server);
  Format.printf "client1 stats: %a@." Dsim.Counters.pp
    (Dsim.Rpc.stats client1);
  Format.printf "client2 stats: %a@." Dsim.Counters.pp
    (Dsim.Rpc.stats client2);
  Format.printf "network: %a@." Dsim.Counters.pp
    (Dsim.Network.stats network);
  Format.printf
    "@.Both clients always see the same entity for the same name: the
resolutions all happen in the server's context — coherence by
arrangement, not by global names.@."
