(* Preallocated per-round buffer for the concrete delivery path. The
   n x n traffic matrix is allocated once per execution and wiped
   between rounds, so the per-pair path allocates no arrays on the round
   hot path (the lists it stores are the protocol's own). *)

type 'msg t = {
  n : int;
  eff : 'msg list array array;  (* the round's traffic, [src].(dst) *)
}

let create n =
  if n <= 0 then invalid_arg "Arena.create: n must be positive";
  { n; eff = Array.make_matrix n n [] }

let clear t =
  for src = 0 to t.n - 1 do
    Array.fill t.eff.(src) 0 t.n []
  done
