(* Algorithm 2: one round of advice broadcasting followed by the
   majority vote of {!Classification.vote}. *)

module Advice = Bap_prediction.Advice
module Inbox = Bap_sim.Inbox

module Make
    (W : Wire.S)
    (R : Bap_sim.Runtime.S with type msg = W.t) = struct
  module Ps = Phase_span.Make (R)

  let rounds = 1

  (* The vote is a pure function of the inbox: on the shared inbox it
     runs once per round, and every recipient holds the same vector
     ([Advice.t] is functional, so sharing it is safe). *)
  let vote_key : (unit, Advice.t) Inbox.key = Inbox.key ()

  let vote inbox () =
    let received = Inbox.first inbox ~f:(function W.Advice a -> Some a | _ -> None) in
    Classification.vote ~n:(Inbox.size inbox) received

  let run ctx advice =
    Ps.run ctx "classify" (fun () ->
        let inbox = R.broadcast ctx (W.Advice advice) in
        Inbox.memo inbox vote_key ~eq:(fun () () -> true) () vote)
end
