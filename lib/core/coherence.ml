type verdict =
  | Coherent of Entity.t
  | Weakly_coherent of Entity.t list
  | Incoherent of (Occurrence.t * Entity.t) * (Occurrence.t * Entity.t)
  | Vacuous

(* The kind of a verdict, without its witnesses: what a tally counts. *)
module Kind = struct
  type t = Coherent | Weak | Incoherent | Vacuous
end

(* One probe's resolutions, in occurrence order, and after [judge] where
   its witnesses sit: [first] is the first defined entity, [witness] the
   one an incoherent probe conflicts with. A batch reuses one scratch
   per task, so judging a probe allocates nothing. *)
type scratch = {
  es : Entity.t array;
  mutable first : int;
  mutable witness : int;
}

let scratch n = { es = Array.make n Entity.undefined; first = 0; witness = 0 }
let no_occurrences () = invalid_arg "Coherence.check: no occurrences"

(* Rule.resolve through an engine: the rule has selected the contexts
   (⊥ where it selected none), the engine performs the walks. *)
let resolve_into engine ctxs name p =
  for i = 0 to Array.length ctxs - 1 do
    p.es.(i) <-
      (match ctxs.(i) with
      | None -> Entity.undefined
      | Some ctx -> Engine.resolve engine ctx name)
  done

let select_all store rule occs = Array.map (Rule.select rule store) occs

let rec first_defined es i =
  if i = Array.length es || Entity.is_defined es.(i) then i
  else first_defined es (i + 1)

let rec first_undefined es i =
  if i = Array.length es || Entity.is_undefined es.(i) then i
  else first_undefined es (i + 1)

let rec first_inequivalent equiv d es i =
  if i = Array.length es || not (equiv d es.(i)) then i
  else first_inequivalent equiv d es (i + 1)

let rec all_equal d es i =
  i = Array.length es || (Entity.equal d es.(i) && all_equal d es (i + 1))

(* The one classification: vacuous when nothing is defined; else,
   against the first defined entity d, incoherent at the first ⊥ or,
   failing one, at the first entity not equivalent to d; else coherent
   when every entity is d, weakly coherent otherwise. *)
let judge equiv p =
  let es = p.es and n = Array.length p.es in
  let first = first_defined es 0 in
  if first = n then Kind.Vacuous
  else begin
    p.first <- first;
    let d = es.(first) in
    let w =
      match first_undefined es 0 with
      | w when w < n -> w
      | _ -> first_inequivalent equiv d es 0
    in
    if w < n then begin
      p.witness <- w;
      Kind.Incoherent
    end
    else if all_equal d es 0 then Kind.Coherent
    else Kind.Weak
  end

let verdict_of occs p = function
  | Kind.Vacuous -> Vacuous
  | Kind.Coherent -> Coherent p.es.(p.first)
  | Kind.Weak -> Weakly_coherent (Array.to_list p.es)
  | Kind.Incoherent ->
      Incoherent
        ( (occs.(p.first), p.es.(p.first)),
          (occs.(p.witness), p.es.(p.witness)) )

(* One probe under its own occurrence set: select, resolve, judge. *)
let judge_unit equiv engine store rule occs name =
  if occs = [] then no_occurrences ();
  let occs = Array.of_list occs in
  let p = scratch (Array.length occs) in
  resolve_into engine (select_all store rule occs) name p;
  (occs, p, judge equiv p)

let check ?(equiv = Entity.equal) ?engine store rule occs name =
  let occs, p, kind =
    judge_unit equiv (Engine.select ?engine store) store rule occs name
  in
  verdict_of occs p kind

let is_coherent ?equiv ?engine store rule occs name =
  match check ?equiv ?engine store rule occs name with
  | Coherent _ | Weakly_coherent _ -> true
  | Incoherent _ | Vacuous -> false

type report = {
  probes : int;
  coherent : int;
  weakly_coherent : int;
  incoherent : int;
  vacuous : int;
}

let degree r =
  let meaningful = r.probes - r.vacuous in
  if meaningful <= 0 then 1.0
  else float_of_int (r.coherent + r.weakly_coherent) /. float_of_int meaningful

let strict_degree r =
  let meaningful = r.probes - r.vacuous in
  if meaningful <= 0 then 1.0
  else float_of_int r.coherent /. float_of_int meaningful

(* The counters behind every tally, bumped in place per probe. *)
module Tally = struct
  type t = {
    mutable probes : int;
    mutable coherent : int;
    mutable weak : int;
    mutable incoherent : int;
    mutable vacuous : int;
  }

  let create () =
    { probes = 0; coherent = 0; weak = 0; incoherent = 0; vacuous = 0 }

  let add t (kind : Kind.t) =
    t.probes <- t.probes + 1;
    match kind with
    | Coherent -> t.coherent <- t.coherent + 1
    | Weak -> t.weak <- t.weak + 1
    | Incoherent -> t.incoherent <- t.incoherent + 1
    | Vacuous -> t.vacuous <- t.vacuous + 1

  let merge t u =
    t.probes <- t.probes + u.probes;
    t.coherent <- t.coherent + u.coherent;
    t.weak <- t.weak + u.weak;
    t.incoherent <- t.incoherent + u.incoherent;
    t.vacuous <- t.vacuous + u.vacuous

  let report t : report =
    {
      probes = t.probes;
      coherent = t.coherent;
      weakly_coherent = t.weak;
      incoherent = t.incoherent;
      vacuous = t.vacuous;
    }
end

(* Every batch entry point selects its engine and resolves [?jobs] once,
   up front, and fans out through {!Engine.map_sharded} (at jobs > 1 the
   store is frozen, so a mutation mid-sweep raises instead of racing,
   and each worker gets an engine shard). *)
let setup ?engine ?jobs store =
  ( Engine.select ?engine store,
    match jobs with Some j -> j | None -> Pool.default_jobs () )

(* Streaming: units arrive as a [Seq.t] and are materialised one chunk at
   a time (sequentially or fanned over the pool, chunk by chunk) and
   counted immediately — peak residency is one chunk of probes, never
   O(units), so an exact sweep over 10^6 probes stops allocating
   million-element intermediate lists. Chunk size trades pool dispatch
   overhead against residency; the report is independent of it and of
   [jobs]. *)
let chunk_size = 4096

let iter_chunks ?(size = chunk_size) f seq =
  let rec take acc k seq =
    if k = 0 then (List.rev acc, seq)
    else
      match seq () with
      | Seq.Nil -> (List.rev acc, Seq.empty)
      | Seq.Cons (x, rest) -> take (x :: acc) (k - 1) rest
  in
  let rec go seq =
    match take [] size seq with
    | [], _ -> ()
    | chunk, rest ->
        f chunk;
        if List.compare_length_with chunk size = 0 then go rest
  in
  go seq

(* A tallied batch is cut into slices, each counted into its own
   counters by one task: at jobs 1 the whole batch is one task on the
   calling domain; at jobs > 1 there are a few slices per job, so the
   pool balances domains of unequal speed. Sums do not depend on the
   cut, so every report equals the sequential one. *)
let slices_per_job = 4

let tally ~jobs engine count acc xs =
  let slices =
    if jobs <= 1 then [ xs ]
    else
      let k = jobs * slices_per_job in
      let pieces = ref [] in
      iter_chunks
        ~size:(max 1 ((List.length xs + k - 1) / k))
        (fun piece -> pieces := piece :: !pieces)
        (List.to_seq xs);
      List.rev !pieces
  in
  List.iter (Tally.merge acc) (Engine.map_sharded ~jobs engine count slices)

(* Fixed occurrences: the rule picks a context from the occurrence, never
   from the name, so one batch or chunk selects each context once, here
   on the calling domain. The contexts are immutable values, shared by
   every shard; each task resolves into one scratch. *)
let count_fixed equiv ctxs engine probes =
  let t = Tally.create () and p = scratch (Array.length ctxs) in
  List.iter
    (fun name ->
      resolve_into engine ctxs name p;
      Tally.add t (judge equiv p))
    probes;
  t

let tally_fixed ~equiv ~jobs engine store rule occs acc = function
  | [] -> ()
  | probes ->
      if Array.length occs = 0 then no_occurrences ();
      tally ~jobs engine
        (count_fixed equiv (select_all store rule occs))
        acc probes

let measure_seq ?(equiv = Entity.equal) ?engine ?jobs store rule occs probes =
  let engine, jobs = setup ?engine ?jobs store in
  let occs = Array.of_list occs and acc = Tally.create () in
  iter_chunks (tally_fixed ~equiv ~jobs engine store rule occs acc) probes;
  Tally.report acc

(* A list is one batch: its probes are resident already. *)
let measure ?(equiv = Entity.equal) ?engine ?jobs store rule occs probes =
  let engine, jobs = setup ?engine ?jobs store in
  let acc = Tally.create () in
  tally_fixed ~equiv ~jobs engine store rule (Array.of_list occs) acc probes;
  Tally.report acc

let measure_units ?(equiv = Entity.equal) ?engine ?jobs store rule units =
  let engine, jobs = setup ?engine ?jobs store in
  let acc = Tally.create () in
  tally ~jobs engine
    (fun engine units ->
      let t = Tally.create () in
      List.iter
        (fun (occs, name) ->
          let _, _, kind = judge_unit equiv engine store rule occs name in
          Tally.add t kind)
        units;
      t)
    acc units;
  Tally.report acc

let classify ?(equiv = Entity.equal) ?engine ?jobs store rule occs probes =
  let engine, jobs = setup ?engine ?jobs store in
  match probes with
  | [] -> []
  | probes ->
      if occs = [] then no_occurrences ();
      let occs = Array.of_list occs in
      let ctxs = select_all store rule occs in
      List.combine probes
        (Engine.map_sharded ~jobs engine
           (fun engine name ->
             let p = scratch (Array.length occs) in
             resolve_into engine ctxs name p;
             verdict_of occs p (judge equiv p))
           probes)

type estimate = {
  degree : float;
  strict_degree : float;
  ci_low : float;
  ci_high : float;
  samples : int;
}

type 'rng sampler = { split : 'rng -> 'rng; draw : 'rng -> Name.t }

(* Acklam's rational approximation to the standard normal quantile
   (|error| < 1.2e-9), evaluated at (1 + confidence) / 2. Confidence is
   always > 0.5 here, so only the central and upper branches fire. *)
let z_of_confidence confidence =
  if not (confidence > 0.0 && confidence < 1.0) then
    invalid_arg "Coherence.estimate: confidence outside (0, 1)";
  let p = 0.5 +. (confidence /. 2.0) in
  let horner coeffs x =
    Array.fold_left (fun acc c -> (acc *. x) +. c) 0.0 coeffs
  in
  if p <= 1.0 -. 0.02425 then
    let q = p -. 0.5 in
    let r = q *. q in
    q
    *. horner
         [|
           -3.969683028665376e+01; 2.209460984245205e+02;
           -2.759285104469687e+02; 1.383577518672690e+02;
           -3.066479806614716e+01; 2.506628277459239e+00;
         |]
         r
    /. horner
         [|
           -5.447609879822406e+01; 1.615858368580409e+02;
           -1.556989798598866e+02; 6.680131188771972e+01;
           -1.328068155288572e+01; 1.0;
         |]
         r
  else
    let q = sqrt (-2.0 *. log (1.0 -. p)) in
    -.(horner
         [|
           -7.784894002430293e-03; -3.223964580411365e-01;
           -2.400758277161838e+00; -2.549732539343734e+00;
           4.374664141464968e+00; 2.938163982698783e+00;
         |]
         q
      /. horner
           [|
             7.784695709041462e-03; 3.224671290700398e-01;
             2.445134137142996e+00; 3.754408661907416e+00; 1.0;
           |]
           q)

(* Wilson score interval for [s] successes out of [n] meaningful
   samples: the sequential stopping statistic. Chosen over the normal
   approximation because it behaves at p near 0 and 1 — exactly where
   coherence degrees live. *)
let wilson ~z ~s ~n =
  if n <= 0 then (0.0, 1.0)
  else
    let nf = float_of_int n in
    let p = float_of_int s /. nf in
    let z2 = z *. z in
    let denom = 1.0 +. (z2 /. nf) in
    let center = (p +. (z2 /. (2.0 *. nf))) /. denom in
    let half =
      z
      *. sqrt ((p *. (1.0 -. p) /. nf) +. (z2 /. (4.0 *. nf *. nf)))
      /. denom
    in
    (Float.max 0.0 (center -. half), Float.min 1.0 (center +. half))

(* Probes are drawn in fixed-size batches, each batch from a child rng
   stream split off the caller's: the drawn sequence depends only on
   the seed and the batch index, never on how the batch is then fanned
   across domains — so jobs 1 and jobs 4 (and every engine) produce
   byte-identical estimates. Sampling stops as soon as the Wilson
   interval at the requested confidence is within [epsilon] of the
   point estimate (half-width), or at [max_samples]. *)
let estimate_batch = 256

let estimate ?(equiv = Entity.equal) ?engine ?jobs ?(confidence = 0.95)
    ?(epsilon = 0.01) ?(max_samples = 100_000) ~rng store rule occs sampler =
  let z = z_of_confidence confidence in
  if not (epsilon > 0.0) then
    invalid_arg "Coherence.estimate: epsilon must be positive";
  if max_samples < 1 then
    invalid_arg "Coherence.estimate: max_samples must be at least 1";
  let engine, jobs = setup ?engine ?jobs store in
  let occs = Array.of_list occs and acc = Tally.create () in
  let rec draw child acc k =
    if k = 0 then List.rev acc
    else draw child (sampler.draw child :: acc) (k - 1)
  in
  let rec go () =
    let child = sampler.split rng in
    let batch = min estimate_batch (max_samples - acc.probes) in
    tally_fixed ~equiv ~jobs engine store rule occs acc (draw child [] batch);
    let meaningful = acc.probes - acc.vacuous in
    let successes = acc.coherent + acc.weak in
    let lo, hi = wilson ~z ~s:successes ~n:meaningful in
    if
      (meaningful > 0 && (hi -. lo) /. 2.0 <= epsilon)
      || acc.probes >= max_samples
    then (lo, hi)
    else go ()
  in
  let ci_low, ci_high = go () in
  let report = Tally.report acc in
  {
    degree = degree report;
    strict_degree = strict_degree report;
    ci_low;
    ci_high;
    samples = report.probes;
  }

let pp_estimate ppf e =
  Format.fprintf ppf "degree=%.4f strict=%.4f ci=[%.4f, %.4f] samples=%d"
    e.degree e.strict_degree e.ci_low e.ci_high e.samples

let pp_verdict ppf = function
  | Coherent e -> Format.fprintf ppf "coherent(%a)" Entity.pp e
  | Weakly_coherent es ->
      Format.fprintf ppf "weakly-coherent(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
           Entity.pp)
        es
  | Incoherent ((o1, e1), (o2, e2)) ->
      Format.fprintf ppf "incoherent(%a ⇒ %a vs %a ⇒ %a)" Occurrence.pp o1
        Entity.pp e1 Occurrence.pp o2 Entity.pp e2
  | Vacuous -> Format.pp_print_string ppf "vacuous"

let pp_report ppf r =
  Format.fprintf ppf
    "probes=%d coherent=%d weak=%d incoherent=%d vacuous=%d degree=%.3f" r.probes
    r.coherent r.weakly_coherent r.incoherent r.vacuous (degree r)
