(** Canonical configuration keys with process-permutation symmetry
    reduction over the honest "plain" suffix.

    The protocols are not fully id-symmetric (phase kings are fixed by
    identifier; the wrapper's trust ranking breaks ties by identifier),
    so the reduction only permutes ids above the kings' ids [0 .. t] in
    the phase-king families, never in the wrapper families (their
    trust-ranking tie-breaks make every id significant), and only when
    the permutation is an automorphism of the whole configuration.
    Falling back to the identity loses a potential dedup hit, never
    soundness. *)

module E = Bap_chaos.Fuzz.E

val canonicalize : E.config -> E.config
(** The symmetry representative: plain ids (at or above the role bound,
    honest, unreferenced by any schedule fault) relabelled so their
    inputs ascend, provided the relabelling leaves the advice matrix
    invariant; the configuration itself otherwise. *)

val key : E.config -> string
(** Serialized dedup key of a configuration, bitset-normalised over the
    faulty set. Equal keys imply equal checker verdicts. Compose with
    {!canonicalize} to get symmetry-reduced keys. *)
