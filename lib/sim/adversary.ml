type 'msg outbox = Broadcast of 'msg list | Pairs of (int * 'msg) list

type 'msg view = {
  round : int;
  n : int;
  faulty : int array;
  honest_out : sender:int -> recipient:int -> 'msg list;
}

type 'msg t = {
  name : string;
  make : n:int -> faulty:int array -> 'msg view -> src:int -> 'msg outbox -> 'msg outbox;
}

let mute = Broadcast []

let map_pairs f pairs =
  Pairs (List.concat_map (fun (dst, m) -> List.map (fun m' -> (dst, m')) (f ~dst m)) pairs)

let concat_map f = function
  | Broadcast msgs -> Broadcast (List.concat_map f msgs)
  | Pairs pairs -> map_pairs (fun ~dst:_ -> f) pairs

let per_recipient ~n f = function
  | Broadcast msgs ->
    map_pairs f (List.concat (List.init n (fun dst -> List.map (fun m -> (dst, m)) msgs)))
  | Pairs pairs -> map_pairs f pairs

let passive = { name = "passive"; make = (fun ~n:_ ~faulty:_ _view ~src:_ outbox -> outbox) }
let silent = { name = "silent"; make = (fun ~n:_ ~faulty:_ _view ~src:_ _outbox -> mute) }

let silent_after last_round =
  {
    name = Printf.sprintf "silent-after-%d" last_round;
    make =
      (fun ~n:_ ~faulty:_ view ~src:_ outbox ->
        if view.round <= last_round then outbox else mute);
  }

let drop_to targeted =
  {
    name = "drop-to";
    make =
      (fun ~n ~faulty:_ _view ~src:_ ->
        per_recipient ~n (fun ~dst m -> if targeted dst then [] else [ m ]));
  }

let rewrite name f =
  {
    name;
    make = (fun ~n ~faulty:_ view ~src -> per_recipient ~n (fun ~dst m -> f view ~src ~dst m));
  }

let compose = function
  | [] -> passive
  | [ a ] -> a
  | advs ->
    {
      name = String.concat "+" (List.map (fun a -> a.name) advs);
      make =
        (fun ~n ~faulty ->
          let steps = List.map (fun a -> a.make ~n ~faulty) advs in
          fun view ->
            let stages = List.map (fun step -> step view) steps in
            fun ~src outbox -> List.fold_left (fun outbox stage -> stage ~src outbox) outbox stages);
    }
