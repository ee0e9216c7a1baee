(* Telemetry helper for lock-step protocol code: one span per
   sub-protocol invocation, emitted by process 0 only.

   Every process runs the same deterministic schedule, so emitting from
   all n fibers would record n copies of each phase; process 0's fiber
   is the run's schedule. Begin/end both carry the process's current
   round r: a sub-protocol entered at round r first affects the wire in
   round r + 1, so its round extent is [begin.round + 1, end.round] —
   the convention bap_trace's summary uses for attribution.

   Allocation rides the span itself (see [Telemetry.span]). One caveat,
   documented rather than fought: all n fibers of a run interleave on
   one domain, so a phase's minor-words delta counts the whole run's
   allocation during its extent — the allocation twin of the
   round-ownership convention above, exact at round granularity because
   the protocols are lock-step. *)

module Tel = Bap_telemetry.Telemetry

module Make (R : Bap_sim.Runtime.S) = struct
  let run ?(attrs = fun () -> []) ctx name f =
    if R.id ctx <> 0 then f ()
    else
      Tel.span ~cat:"core" ~name
        ~attrs:(fun () -> ("round", Tel.Int (R.round ctx)) :: attrs ())
        ~end_attrs:(fun () -> [ ("round", Tel.Int (R.round ctx)) ])
        f
end
