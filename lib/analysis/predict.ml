module E = Naming.Entity
module N = Naming.Name
module R = Naming.Resolver

type outcome =
  | Coherent of E.t
  | Incoherent of (Naming.Occurrence.t * E.t) * (Naming.Occurrence.t * E.t)
  | Vacuous
  | Unknown of string

type evidence =
  | Same_context
  | Traces_compared of { converge_at : int option }
  | Budget_exceeded

type t = {
  outcome : outcome;
  evidence : evidence;
  results : (Naming.Occurrence.t * E.t * R.trace) list;
}

let default_fuel = 64

let step_equal (s1 : R.step) (s2 : R.step) =
  E.equal s1.R.at s2.R.at
  && N.atom_equal s1.R.atom s2.R.atom
  && E.equal s1.R.target s2.R.target

(* The 0-based step from which every trace follows the same path, when
   the traces are comparable (all non-empty, all the same length). *)
let converge_at traces =
  match traces with
  | [] | [ _ ] -> Some 0
  | first :: rest ->
      let len = List.length first in
      if len = 0 || List.exists (fun t -> List.length t <> len) rest then None
      else
        let arrays = List.map Array.of_list traces in
        let agree i =
          match arrays with
          | a0 :: others ->
              List.for_all (fun a -> step_equal a0.(i) a.(i)) others
          | [] -> true
        in
        let rec back i = if i >= 0 && agree i then back (i - 1) else i + 1 in
        let k = back (len - 1) in
        if k >= len then None else Some k

(* Mirrors the classification of [Coherence.check] with entity equality,
   but over precomputed trace endpoints. *)
let classify results =
  let defined = List.filter (fun (_, e, _) -> E.is_defined e) results in
  match defined with
  | [] -> Vacuous
  | (occ_d, d, _) :: _ -> (
      let pair (o, e, _) = (o, e) in
      match List.find_opt (fun (_, e, _) -> E.is_undefined e) results with
      | Some witness -> Incoherent ((occ_d, d), pair witness)
      | None -> (
          match List.find_opt (fun (_, e, _) -> not (E.equal d e)) results with
          | Some witness -> Incoherent ((occ_d, d), pair witness)
          | None -> Coherent d))

let predict ?(fuel = default_fuel) store rule occs name =
  if occs = [] then invalid_arg "Predict.predict: no occurrences";
  if N.length name > fuel then
    {
      outcome =
        Unknown
          (Printf.sprintf "name has %d atoms, analysis budget is %d"
             (N.length name) fuel);
      evidence = Budget_exceeded;
      results = [];
    }
  else
    let selected =
      List.map (fun o -> (o, Naming.Rule.select rule store o)) occs
    in
    let all_same_context =
      match selected with
      | (_, Some c0) :: rest ->
          List.for_all
            (function
              | _, Some c -> Naming.Context.equal c0 c | _, None -> false)
            rest
      | _ -> false
    in
    if all_same_context then
      (* Equal context values resolve identically: one walk decides. *)
      let c0 =
        match selected with (_, Some c) :: _ -> c | _ -> assert false
      in
      let e, trace = R.resolve_trace store c0 name in
      let results = List.map (fun (o, _) -> (o, e, trace)) selected in
      let outcome = if E.is_defined e then Coherent e else Vacuous in
      { outcome; evidence = Same_context; results }
    else
      let results =
        List.map
          (fun (o, ctx) ->
            match ctx with
            | None -> (o, E.undefined, [])
            | Some c ->
                let e, trace = R.resolve_trace store c name in
                (o, e, trace))
          selected
      in
      let outcome = classify results in
      let evidence =
        Traces_compared
          { converge_at = converge_at (List.map (fun (_, _, t) -> t) results) }
      in
      { outcome; evidence; results }

let agrees p (v : Naming.Coherence.verdict) =
  match (p.outcome, v) with
  | Unknown _, _ -> true
  | Coherent e, Naming.Coherence.Coherent e' -> E.equal e e'
  | Coherent _, Naming.Coherence.Weakly_coherent _ -> true
  | Incoherent _, Naming.Coherence.Incoherent _ -> true
  (* Strict incoherence can be weak coherence under an equivalence the
     predictor does not model. *)
  | Incoherent _, Naming.Coherence.Weakly_coherent _ -> true
  | Vacuous, Naming.Coherence.Vacuous -> true
  | _, _ -> false

let outcome_to_string = function
  | Coherent _ -> "provably-coherent"
  | Incoherent _ -> "provably-incoherent"
  | Vacuous -> "provably-vacuous"
  | Unknown _ -> "unknown"

let pp store ppf t =
  let pe = Naming.Store.pp_entity store in
  (match t.outcome with
  | Coherent e -> Format.fprintf ppf "provably-coherent -> %a" pe e
  | Incoherent ((o1, e1), (o2, e2)) ->
      Format.fprintf ppf "provably-incoherent: %a -> %a vs %a -> %a"
        Naming.Occurrence.pp o1 pe e1 Naming.Occurrence.pp o2 pe e2
  | Vacuous -> Format.fprintf ppf "provably-vacuous"
  | Unknown why -> Format.fprintf ppf "unknown (%s)" why);
  match t.evidence with
  | Same_context -> Format.fprintf ppf " [same context]"
  | Traces_compared { converge_at = Some k } ->
      Format.fprintf ppf " [traces converge at step %d]" k
  | Traces_compared { converge_at = None } ->
      Format.fprintf ppf " [traces never converge]"
  | Budget_exceeded -> Format.fprintf ppf " [budget exceeded]"
