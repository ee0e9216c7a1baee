(* One agreement instance = one complete protocol execution, specified
   by (family, n, f, m, seed) and nothing else. The workload derivation
   is the exact construction the batch sweeps use
   (Bap_experiments.Common.make_workload seeded from the spec), so a
   served instance and a batch cell with the same parameters are the
   same computation — the chaos bench's byte-identity oracle rests on
   that.

   The adversary is the silent one on every family: the service's
   threat model is hostile *clients and load*, not a fresh protocol
   adversary per request; protocol-adversary sweeps stay the business
   of the experiment tables. *)

module C = Bap_experiments.Common
module Json = Bap_telemetry.Json
module Supervisor = Bap_exec.Supervisor

type family = Unauth | Auth | Es | Pk

type spec = { id : int; family : family; n : int; f : int; m : int; seed : int }
type metrics = { decided : int; rounds : int; msgs : int; agreement : bool }

type reject_reason =
  | Overload
  | Malformed of string
  | Invalid of string
  | Draining

type response =
  | Done of { id : int; metrics : metrics }
  | Degraded of { id : int; attempts : int }
  | Rejected of { id : int; reason : reject_reason }

let max_n = 256

let family_name = function
  | Unauth -> "unauth"
  | Auth -> "auth"
  | Es -> "es"
  | Pk -> "pk"

let family_of_name = function
  | "unauth" -> Some Unauth
  | "auth" -> Some Auth
  | "es" -> Some Es
  | "pk" -> Some Pk
  | _ -> None

let t_of family ~n =
  match family with
  | Auth -> max 1 ((9 * n / 20) - 1)
  | Unauth | Es | Pk -> (n - 1) / 3

let validate s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if s.id < 0 then err "id must be >= 0, got %d" s.id
  else if s.n < 4 then err "n must be >= 4, got %d" s.n
  else if s.n > max_n then err "n must be <= %d, got %d" max_n s.n
  else begin
    let t = t_of s.family ~n:s.n in
    if s.f < 0 || s.f > t then
      err "f must be in [0, %d] for %s at n=%d, got %d" t
        (family_name s.family) s.n s.f
    else if s.m < 0 || s.m > s.n then err "m must be in [0, n], got %d" s.m
    else if s.seed < 0 then err "seed must be >= 0, got %d" s.seed
    else Ok ()
  end

let key s =
  Printf.sprintf "%s,n=%d,f=%d,m=%d,seed=%d" (family_name s.family) s.n s.f s.m
    s.seed

(* ---------- wire forms ---------- *)

let request_json s =
  Printf.sprintf "{\"id\":%d,\"family\":\"%s\",\"n\":%d,\"f\":%d,\"m\":%d,\"seed\":%d}"
    s.id (family_name s.family) s.n s.f s.m s.seed

let parse payload =
  match Json.parse payload with
  | exception Json.Parse msg -> Error (`Malformed msg)
  | j -> (
    let int k = Json.to_int (Json.member k j) in
    let id = Option.value ~default:(-1) (int "id") in
    match Json.to_string (Json.member "family" j) with
    | None -> Error (`Invalid (id, "missing or non-string field: family"))
    | Some fam -> (
      match family_of_name fam with
      | None -> Error (`Invalid (id, Printf.sprintf "unknown family %S" fam))
      | Some family -> (
        match (int "id", int "n", int "f") with
        | None, _, _ -> Error (`Invalid (id, "missing integer field: id"))
        | _, None, _ -> Error (`Invalid (id, "missing integer field: n"))
        | _, _, None -> Error (`Invalid (id, "missing integer field: f"))
        | Some id, Some n, Some f -> (
          let s =
            {
              id;
              family;
              n;
              f;
              m = Option.value ~default:0 (int "m");
              seed = Option.value ~default:0 (int "seed");
            }
          in
          match validate s with Ok () -> Ok s | Error msg -> Error (`Invalid (id, msg))))))

(* Admin frames share the wire with instance requests but are not
   instances: no admission, no journal record, no effect on the
   accepted/responded ledger. The shape is {"admin":"stats"}; anything
   else falls through to instance parsing, so a client typo still gets
   a typed Malformed/Invalid rejection rather than silence. *)
type admin = Stats

let parse_admin payload =
  match Json.parse payload with
  | exception Json.Parse _ -> None
  | j -> (
    match Json.to_string (Json.member "admin" j) with
    | Some "stats" -> Some Stats
    | Some _ | None -> None)

let reason_json = function
  | Overload -> "\"reason\":\"overload\""
  | Malformed d ->
    Printf.sprintf "\"reason\":\"malformed\",\"detail\":\"%s\"" (Json.escape d)
  | Invalid d ->
    Printf.sprintf "\"reason\":\"invalid\",\"detail\":\"%s\"" (Json.escape d)
  | Draining -> "\"reason\":\"draining\""

let response_to_json = function
  | Done { id; metrics = m } ->
    Printf.sprintf
      "{\"id\":%d,\"status\":\"ok\",\"decided\":%d,\"rounds\":%d,\"msgs\":%d,\"agreement\":%b}"
      id m.decided m.rounds m.msgs m.agreement
  | Degraded { id; attempts } ->
    Printf.sprintf "{\"id\":%d,\"status\":\"degraded\",\"attempts\":%d}" id attempts
  | Rejected { id; reason } ->
    Printf.sprintf "{\"id\":%d,\"status\":\"rejected\",%s}" id (reason_json reason)

let response_id payload =
  match Json.parse payload with
  | exception Json.Parse _ -> None
  | j -> Json.to_int (Json.member "id" j)

(* ---------- execution ---------- *)

(* Cooperative cancellation once per round: a supervised instance
   observes its watchdog deadline between rounds instead of only between
   attempts; outside supervision, tick is a no-op, so metrics and results
   are untouched. The hook observes no edge, so every family runs on the
   counted engine. *)
let execute ?(on_round = fun _ -> Supervisor.tick ()) s =
  let t = t_of s.family ~n:s.n in
  let rng = C.Rng.create s.seed in
  let w =
    C.make_workload ~rng ~n:s.n ~t ~f:s.f ~target_misclassified:s.m ()
  in
  match s.family with
  | Unauth ->
    let o =
      C.S.run_unauth ~adversary:C.Adversary.silent ~on_round ~t ~faulty:w.C.faulty
        ~inputs:w.C.inputs ~advice:w.C.advice ()
    in
    {
      decided = C.S.decision_round o;
      rounds = o.C.S.R.rounds;
      msgs = o.C.S.R.honest_sent;
      agreement =
        C.S.agreement o
        && C.S.unanimous_validity ~inputs:w.C.inputs ~faulty:w.C.faulty o;
    }
  | Auth ->
    let o, _ =
      C.S.run_auth
        ~adversary:(fun _ -> C.Adversary.silent)
        ~on_round ~t ~faulty:w.C.faulty ~inputs:w.C.inputs ~advice:w.C.advice ()
    in
    {
      decided = C.S.decision_round o;
      rounds = o.C.S.R.rounds;
      msgs = o.C.S.R.honest_sent;
      agreement =
        C.S.agreement o
        && C.S.unanimous_validity ~inputs:w.C.inputs ~faulty:w.C.faulty o;
    }
  | Es | Pk ->
    let r =
      match s.family with
      | Es ->
        C.B.run_early_stopping ~adversary:C.Adversary.silent ~on_round ~t
          ~faulty:w.C.faulty ~inputs:w.C.inputs ()
      | _ ->
        C.B.run_phase_king ~adversary:C.Adversary.silent ~on_round ~t
          ~faulty:w.C.faulty ~inputs:w.C.inputs ()
    in
    {
      decided = r.C.B.decided_round;
      rounds = r.C.B.rounds;
      msgs = r.C.B.messages;
      agreement = r.C.B.agreement;
    }
