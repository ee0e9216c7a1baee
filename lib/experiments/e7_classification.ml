(* E7 (Lemma 1 and Lemma 5): the classification protocol misclassifies
   at most O(B/n) processes, and every window of leader positions keeps
   a large common core across the honest orderings. Sweeps the error
   budget under the three placements. *)

open Common

let plan ?(quick = false) () =
  let n = if quick then 31 else 61 in
  let t = (n - 1) / 3 in
  let f = t in
  let cell (placement, name) budget =
    Plan.row_cell (Printf.sprintf "placement=%s,budget=%d" name budget) (fun () ->
        let rng = Rng.create (budget + seed_of_string name) in
        let faulty = Array.of_list (Rng.sample_without_replacement rng f n) in
        let advice = Gen.generate ~rng ~n ~faulty ~budget placement in
        let b = (Quality.measure ~n ~faulty advice).Quality.b in
        let w = { n; t; faulty; inputs = Array.make n 0; advice; b } in
        let k_a = measure_k_a ~adversary:Adv.advice_liar_then_silent w in
        let bound = b / max 1 (((n + 1) / 2) - f) in
        [
          name;
          fi b;
          ff (float_of_int b /. float_of_int n);
          fi k_a;
          fi bound;
          (if k_a <= bound then "yes" else "NO");
        ])
  in
  let cells =
    List.concat_map
      (fun p -> List.map (cell p) [ 0; n / 2; n; 2 * n; 4 * n ])
      [ (Gen.Uniform, "uniform"); (Gen.Focused, "focused"); (Gen.Scattered, "scattered") ]
  in
  table_plan ~quick ~exp_id:"E7"
    ~title:
      (Printf.sprintf "E7  classification quality vs B  (n=%d, t=f=%d, lying faulty)" n t)
    ~headers:[ "placement"; "B"; "B/n"; "k_A"; "B/(n/2 - f)"; "k_A <= bound" ]
    cells
