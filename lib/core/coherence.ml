type verdict =
  | Coherent of Entity.t
  | Weakly_coherent of Entity.t list
  | Incoherent of (Occurrence.t * Entity.t) * (Occurrence.t * Entity.t)
  | Vacuous

(* Rule.resolve through an engine: the rule selects the context, the
   engine performs the walk. *)
let resolve_via_engine engine store rule occ name =
  match Rule.select rule store occ with
  | None -> Entity.undefined
  | Some ctx -> Engine.resolve engine ctx name

let check ?(equiv = Entity.equal) ?engine store rule occs name =
  match occs with
  | [] -> invalid_arg "Coherence.check: no occurrences"
  | first :: rest ->
      let engine = Engine.select ?engine store in
      let resolve occ = (occ, resolve_via_engine engine store rule occ name) in
      let results = resolve first :: List.map resolve rest in
      let defined = List.filter (fun (_, e) -> Entity.is_defined e) results in
      (match defined with
      | [] -> Vacuous
      | (occ_d, d) :: _ -> (
          match
            List.find_opt (fun (_, e) -> Entity.is_undefined e) results
          with
          | Some witness -> Incoherent ((occ_d, d), witness)
          | None -> (
              match List.find_opt (fun (_, e) -> not (equiv d e)) results with
              | Some witness -> Incoherent ((occ_d, d), witness)
              | None ->
                  if List.for_all (fun (_, e) -> Entity.equal d e) results then
                    Coherent d
                  else Weakly_coherent (List.map snd results))))

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

(* The one sweep behind every batch entry point: [judge engine u] is the
   verdict of unit [u], fanned out by {!Engine.map_sharded} (at jobs > 1
   the store is frozen, so a mutation mid-sweep raises instead of racing,
   and each worker gets an engine shard): verdicts come back in unit
   order and every derived quantity equals the sequential path's. A
   streaming sweep calls the result once per chunk, so it selects its
   engine and resolves [?jobs] once, up front. *)
let sweep ?engine ?jobs store judge =
  let engine = Engine.select ?engine store in
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  Engine.map_sharded ~jobs engine judge

(* Fixed occurrences: the unit is the probe itself, no per-probe tuple. *)
let probe_sweep ?equiv ?engine ?jobs store rule occs =
  sweep ?engine ?jobs store (fun engine name ->
      check ?equiv ~engine store rule occs name)

let empty_report =
  { probes = 0; coherent = 0; weakly_coherent = 0; incoherent = 0; vacuous = 0 }

let count_verdict acc verdict =
  let acc = { acc with probes = acc.probes + 1 } in
  match verdict with
  | Coherent _ -> { acc with coherent = acc.coherent + 1 }
  | Weakly_coherent _ -> { acc with weakly_coherent = acc.weakly_coherent + 1 }
  | Incoherent _ -> { acc with incoherent = acc.incoherent + 1 }
  | Vacuous -> { acc with vacuous = acc.vacuous + 1 }

(* Streaming tally: units arrive as a [Seq.t], are materialised one
   chunk at a time (sequentially or fanned over the pool, chunk by
   chunk) and counted immediately — peak residency is one chunk of
   verdicts, never O(units), so an exact sweep over 10^6 probes stops
   allocating million-element intermediate lists. Chunk size trades
   pool dispatch overhead against residency; verdict values and order
   are independent of it and of [jobs]. *)
let chunk_size = 4096

let tally_chunks sweep seq =
  let rec take acc k seq =
    if k = 0 then (List.rev acc, seq)
    else
      match Seq.uncons seq with
      | None -> (List.rev acc, Seq.empty)
      | Some (x, rest) -> take (x :: acc) (k - 1) rest
  in
  let rec go acc seq =
    match take [] chunk_size seq with
    | [], _ -> acc
    | chunk, rest ->
        let acc = List.fold_left count_verdict acc (sweep chunk) in
        if List.compare_length_with chunk chunk_size < 0 then acc
        else go acc rest
  in
  go empty_report seq

let measure_seq ?equiv ?engine ?jobs store rule occs probes =
  tally_chunks (probe_sweep ?equiv ?engine ?jobs store rule occs) probes

let measure ?equiv ?engine ?jobs store rule occs probes =
  measure_seq ?equiv ?engine ?jobs store rule occs (List.to_seq probes)

let measure_units ?equiv ?engine ?jobs store rule units =
  tally_chunks
    (sweep ?engine ?jobs store (fun engine (occs, name) ->
         check ?equiv ~engine store rule occs name))
    (List.to_seq units)

let classify ?equiv ?engine ?jobs store rule occs probes =
  List.combine probes (probe_sweep ?equiv ?engine ?jobs store rule occs probes)

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

let estimate ?equiv ?engine ?jobs ?(confidence = 0.95)
    ?(epsilon = 0.01) ?(max_samples = 100_000) ~rng store rule occs sampler =
  let z = z_of_confidence confidence in
  if not (epsilon > 0.0) then
    invalid_arg "Coherence.estimate: epsilon must be positive";
  if max_samples < 1 then
    invalid_arg "Coherence.estimate: max_samples must be at least 1";
  let sweep = probe_sweep ?equiv ?engine ?jobs store rule occs in
  let rec draw child acc k =
    if k = 0 then List.rev acc
    else draw child (sampler.draw child :: acc) (k - 1)
  in
  let rec go report =
    let child = sampler.split rng in
    let batch = min estimate_batch (max_samples - report.probes) in
    let report =
      List.fold_left count_verdict report (sweep (draw child [] batch))
    in
    let meaningful = report.probes - report.vacuous in
    let successes = report.coherent + report.weakly_coherent in
    let lo, hi = wilson ~z ~s:successes ~n:meaningful in
    if
      (meaningful > 0 && (hi -. lo) /. 2.0 <= epsilon)
      || report.probes >= max_samples
    then (report, lo, hi)
    else go report
  in
  let report, ci_low, ci_high = go empty_report in
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
