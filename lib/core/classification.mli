(** Pure classification machinery (Section 6 of the paper).

    The voting rule of Algorithm 2, the ordering [pi] used to prioritise
    leaders, and the analysis quantities used by the lemmas of Section 6
    (number of misclassified processes, core sets). Everything here is a
    pure function so tests and experiments can exercise the lemmas
    without running the network protocol; {!Classify} wraps the voting
    rule in the actual one-round broadcast. *)

module Advice = Bap_prediction.Advice
module Inbox = Bap_sim.Inbox

val majority_threshold : int -> int
(** [ceil ((n+1)/2)], the vote count needed to classify a process as
    honest. *)

val vote : n:int -> Advice.t Inbox.votes -> Advice.t
(** The voting rule: the votes hold the advice vector accepted from each
    process (at most one per sender). Process [j] is classified honest
    iff at least [majority_threshold n] received vectors predict it
    honest; vectors of the wrong length are ignored. *)

val pi : Advice.t -> int array
(** The ordering [pi(c)]: identifiers classified honest in increasing
    order, followed by identifiers classified faulty in increasing
    order. *)

val pi_prefix : Advice.t -> int -> int array
(** [pi_prefix c len] is the first [min len n] entries of [pi c], built
    without the rest: the cost is in the ids scanned to fill the prefix,
    and the allocation is the prefix alone. [pi c] is
    [pi_prefix c n]. *)

val position : Advice.t -> int -> int
(** [position c i] is the 0-based position of identifier [i] in [pi c]
    (the paper's positions are 1-based; we use 0-based throughout the
    code and shift only in documentation). *)

(** Analysis over a set of honest classification vectors. *)

val misclassified_by : faulty:int array -> Advice.t -> int list
(** Processes whose bit in the classification differs from the ground
    truth, ascending. *)

val misclassified_union :
  n:int -> faulty:int array -> honest_classifications:(int * Advice.t) list -> int list
(** The union [U M_i] over the given honest processes' classifications;
    its size is the paper's [k_A]. *)

val k_counts :
  n:int -> faulty:int array -> honest_classifications:(int * Advice.t) list -> int * int * int
(** [(k_a, k_f, k_h)]: misclassified processes in total, faulty ones
    misclassified as honest, honest ones misclassified as faulty. *)

val common_window :
  honest_classifications:(int * Advice.t) list -> l:int -> r:int -> int list
(** Identifiers appearing in positions [l..r] (0-based, inclusive) of
    [pi c_i] for {e every} given classification — the candidate core set
    of Lemma 5. *)
