(* A reusable fixed-size domain pool. Workers block on [work] between
   batches and execute opaque thunks; batches are built by [map_local],
   which farms indexed tasks out of a shared atomic counter so results
   land in task order regardless of scheduling.

   The calling domain always participates in its own batch. This is
   what makes nested or concurrent use safe: even if every worker is
   busy (or the helper thunks a batch enqueued are picked up late), the
   caller alone drains the batch, so joining a batch can never wait on
   work that nobody is running. Helper thunks that arrive after their
   batch has drained find the counter exhausted and return without
   creating participant state; a participant creates its state only
   after claiming a task, so that never happens after the batch. *)

type t = {
  lock : Mutex.t;
  work : Condition.t;  (* signalled on enqueue and on shutdown *)
  pending : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  mutable size : int;  (* total parallelism, callers included *)
}

let jobs t = t.size

let rec worker_loop t =
  Mutex.lock t.lock;
  let rec await () =
    if t.stopping then None
    else
      match Queue.take_opt t.pending with
      | Some job -> Some job
      | None ->
          Condition.wait t.work t.lock;
          await ()
  in
  let job = await () in
  Mutex.unlock t.lock;
  match job with
  | None -> ()
  | Some job ->
      (* batch thunks handle their own exceptions; a raise here would
         kill the worker, so treat any escape as a bug but survive it *)
      (try job () with _ -> ());
      worker_loop t

let spawn_workers t n =
  let fresh = List.init n (fun _ -> Domain.spawn (fun () -> worker_loop t)) in
  t.workers <- fresh @ t.workers

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      pending = Queue.create ();
      stopping = false;
      workers = [];
      size = jobs;
    }
  in
  spawn_workers t (jobs - 1);
  t

let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  let ws = t.workers in
  t.workers <- [];
  t.size <- 1;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  List.iter Domain.join ws

(* Grow the pool to at least [jobs] total parallelism. *)
let grow t ~jobs =
  Mutex.lock t.lock;
  let missing = jobs - t.size in
  if missing > 0 && not t.stopping then begin
    t.size <- jobs;
    spawn_workers t missing
  end;
  Mutex.unlock t.lock

let default_jobs () =
  match Sys.getenv_opt "NAMING_JOBS" with
  | None -> 1
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some j when j >= 1 -> j
      | Some _ | None -> 1)

let map_local ?jobs:requested t ~local f xs =
  match xs with
  | [] -> ([], [])
  | xs ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let p =
        let cap = match requested with None -> t.size | Some j -> min j t.size in
        max 1 (min cap n)
      in
      if p = 1 then
        let w = local () in
        (List.map (f w) xs, [ w ])
      else begin
        let results = Array.make n None in
        let next = Atomic.make 0 in
        (* batch-completion latch and failure slot, both under [bl] *)
        let bl = Mutex.create () in
        let drained = Condition.create () in
        let completed = ref 0 in
        let failure = ref None in
        let locals = ref [] in
        (* A participant claims its first index before creating its
           state: the batch cannot drain until that task completes, so
           [local ()] never runs after the batch has returned. *)
        let fail i e bt =
          Mutex.lock bl;
          (match !failure with
          | Some (j, _, _) when j <= i -> ()
          | Some _ | None -> failure := Some (i, e, bt));
          Mutex.unlock bl
        in
        let complete () =
          Mutex.lock bl;
          incr completed;
          if !completed = n then Condition.broadcast drained;
          Mutex.unlock bl
        in
        (* [task i] runs one claimed index, then claims the next. *)
        let rec run task i =
          task i;
          complete ();
          let i = Atomic.fetch_and_add next 1 in
          if i < n then run task i
        in
        let participant () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then
            match local () with
            | w ->
                Mutex.lock bl;
                locals := w :: !locals;
                Mutex.unlock bl;
                run
                  (fun i ->
                    match f w arr.(i) with
                    | v -> results.(i) <- Some v
                    | exception e -> fail i e (Printexc.get_raw_backtrace ()))
                  i
            | exception e ->
                (* no state, no tasks: fail every index this participant
                   claims, so the batch still drains *)
                let bt = Printexc.get_raw_backtrace () in
                run (fun i -> fail i e bt) i
        in
        Mutex.lock t.lock;
        for _ = 2 to p do
          Queue.push participant t.pending
        done;
        Condition.broadcast t.work;
        Mutex.unlock t.lock;
        participant ();
        Mutex.lock bl;
        while !completed < n do
          Condition.wait drained bl
        done;
        let fail = !failure and ws = !locals in
        Mutex.unlock bl;
        (match fail with
        | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ());
        ( List.map
            (function Some v -> v | None -> assert false)
            (Array.to_list results),
          ws )
      end

(* The shared pool behind [?jobs]: created on first parallel request,
   grown on demand, joined at exit so the process does not leave domains
   blocked on the condition variable. *)
let instance : t option ref = ref None
let instance_lock = Mutex.create ()

let shared_pool jobs =
  Mutex.lock instance_lock;
  let t =
    match !instance with
    | Some t -> t
    | None ->
        let t = create ~jobs in
        instance := Some t;
        at_exit (fun () -> shutdown t);
        t
  in
  Mutex.unlock instance_lock;
  if t.size < jobs then grow t ~jobs;
  t

let resolve_jobs = function None -> default_jobs () | Some j -> j

(* The one sequential-or-parallel decision behind every fan-out entry
   point: [None] means [List.map] on the caller. *)
let shared ?jobs () =
  match resolve_jobs jobs with
  | j when j <= 1 -> None
  | j -> Some (shared_pool j)

(* The pool may have grown past [jobs] for an earlier batch; the cap
   keeps this one to the parallelism it asked for. *)
let map_on ~jobs pool f xs =
  fst (map_local ~jobs pool ~local:(fun () -> ()) (fun () x -> f x) xs)

let map ?jobs f xs =
  let jobs = resolve_jobs jobs in
  match shared ~jobs () with
  | None -> List.map f xs
  | Some pool -> map_on ~jobs pool f xs

let map_frozen ?jobs ~store f xs =
  let jobs = resolve_jobs jobs in
  match shared ~jobs () with
  | None -> List.map f xs
  | Some pool ->
      map_on ~jobs pool
        (fun x -> Store.read_only (store x) (fun () -> f x))
        xs
