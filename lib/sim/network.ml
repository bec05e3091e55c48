type node_id = int
type address = { node : node_id; port : int }

type 'a envelope = {
  src : address;
  dst : address;
  payload : 'a;
  sent_at : float;
  delivered_at : float;
}

type config = {
  latency : float;
  jitter : float;
  local_latency : float;
  drop_probability : float;
  duplicate_probability : float;
}

let default_config =
  {
    latency = 1.0;
    jitter = 0.2;
    local_latency = 0.01;
    drop_probability = 0.0;
    duplicate_probability = 0.0;
  }

module Address_tbl = Hashtbl.Make (struct
  type t = address

  let equal a b = Int.equal a.node b.node && Int.equal a.port b.port
  let hash a = (a.node * 65599) + a.port
end)

type stat

let schema : stat Counters.schema = Counters.schema ()
let sent = Counters.key schema "sent"
let delivered = Counters.key schema "delivered"
let dropped = Counters.key schema "dropped"
let cut = Counters.key schema "cut"
let node_down = Counters.key schema "node_down"
let undeliverable = Counters.key schema "undeliverable"
let duplicated = Counters.key schema "duplicated"

type 'a t = {
  engine : Engine.t;
  rng : Rng.t;
  config : config;
  mutable labels : string array;
  handlers : ('a envelope -> unit) Address_tbl.t;
  mutable partitions : (node_id list * node_id list) list;
  down : (node_id, unit) Hashtbl.t;
  counters : stat Counters.t;
}

let create ?(config = default_config) ~engine ~rng () =
  {
    engine;
    rng;
    config;
    labels = [||];
    handlers = Address_tbl.create 64;
    partitions = [];
    down = Hashtbl.create 4;
    counters = Counters.create schema;
  }

let engine t = t.engine

let add_node t ~label =
  let id = Array.length t.labels in
  t.labels <- Array.append t.labels [| label |];
  id

let node_label t id =
  if id < 0 || id >= Array.length t.labels then
    invalid_arg (Printf.sprintf "Network.node_label: unknown node %d" id);
  t.labels.(id)

let nodes t = List.init (Array.length t.labels) (fun i -> i)

let check_node t id =
  if id < 0 || id >= Array.length t.labels then
    invalid_arg (Printf.sprintf "Network: unknown node %d" id)

let bind t addr handler =
  check_node t addr.node;
  Address_tbl.replace t.handlers addr handler

let unbind t addr = Address_tbl.remove t.handlers addr
let is_bound t addr = Address_tbl.mem t.handlers addr

let set_node_up t node up =
  check_node t node;
  if up then Hashtbl.remove t.down node else Hashtbl.replace t.down node ()

let node_is_up t node =
  check_node t node;
  not (Hashtbl.mem t.down node)

let severed t a b =
  List.exists
    (fun (g1, g2) ->
      (List.mem a g1 && List.mem b g2) || (List.mem a g2 && List.mem b g1))
    t.partitions

let partition t g1 g2 = t.partitions <- (g1, g2) :: t.partitions
let heal t = t.partitions <- []

let deliver t ~src ~dst ~payload ~sent_at () =
  if Hashtbl.mem t.down dst.node then Counters.incr t.counters node_down
  else
    match Address_tbl.find_opt t.handlers dst with
  | None -> Counters.incr t.counters undeliverable
  | Some handler ->
      Counters.incr t.counters delivered;
      handler
        { src; dst; payload; sent_at; delivered_at = Engine.now t.engine }

let one_latency t ~src ~dst =
  if Int.equal src.node dst.node then t.config.local_latency
  else t.config.latency +. Rng.float t.rng t.config.jitter

let send t ~src ~dst payload =
  check_node t src.node;
  check_node t dst.node;
  Counters.incr t.counters sent;
  if Hashtbl.mem t.down src.node || Hashtbl.mem t.down dst.node then
    Counters.incr t.counters node_down
  else if severed t src.node dst.node then Counters.incr t.counters cut
  else if Rng.bool t.rng t.config.drop_probability then
    Counters.incr t.counters dropped
  else begin
    let sent_at = Engine.now t.engine in
    let dispatch () =
      let delay = one_latency t ~src ~dst in
      ignore
        (Engine.schedule t.engine ~delay (deliver t ~src ~dst ~payload ~sent_at))
    in
    dispatch ();
    if Rng.bool t.rng t.config.duplicate_probability then begin
      Counters.incr t.counters duplicated;
      dispatch ()
    end
  end

let stats t = Counters.snapshot t.counters
let pp_address ppf a = Format.fprintf ppf "%d:%d" a.node a.port
