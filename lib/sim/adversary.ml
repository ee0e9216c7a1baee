type 'msg send = { src : int; dst : int; payload : 'msg }

type 'msg view = {
  round : int;
  n : int;
  faulty : int array;
  honest_out : sender:int -> recipient:int -> 'msg list;
}

type 'msg handlers = {
  filter : 'msg view -> src:int -> (int -> 'msg list) -> int -> 'msg list;
  inject : 'msg view -> 'msg send list;
  filter_in : 'msg view -> dst:int -> src:int -> 'msg list -> 'msg list;
}

type 'msg t = { name : string; make : n:int -> faulty:int array -> 'msg handlers }

let identity_filter _view ~src:_ outbox recipient = outbox recipient
let mute_filter _view ~src:_ _outbox _recipient = []
let no_inject _view = []
let identity_in _view ~dst:_ ~src:_ msgs = msgs

let handlers ?(filter = identity_filter) ?(inject = no_inject) ?(filter_in = identity_in) ()
    =
  { filter; inject; filter_in }

let passive =
  { name = "passive"; make = (fun ~n:_ ~faulty:_ -> handlers ()) }

let silent =
  { name = "silent"; make = (fun ~n:_ ~faulty:_ -> handlers ~filter:mute_filter ()) }

let silent_after last_round =
  {
    name = Printf.sprintf "silent-after-%d" last_round;
    make =
      (fun ~n:_ ~faulty:_ ->
        let filter view ~src:_ outbox recipient =
          if view.round <= last_round then outbox recipient else []
        in
        handlers ~filter ());
  }

let drop_to targeted =
  {
    name = "drop-to";
    make =
      (fun ~n:_ ~faulty:_ ->
        let filter _view ~src:_ outbox recipient =
          if targeted recipient then [] else outbox recipient
        in
        handlers ~filter ());
  }

let rewrite name f =
  {
    name;
    make =
      (fun ~n:_ ~faulty:_ ->
        let filter view ~src outbox recipient =
          List.concat_map (fun m -> f view ~src ~dst:recipient m) (outbox recipient)
        in
        handlers ~filter ());
  }

let compose = function
  | [] -> passive
  | [ a ] -> a
  | advs ->
    {
      name = String.concat "+" (List.map (fun a -> a.name) advs);
      make =
        (fun ~n ~faulty ->
          let hs = List.map (fun a -> a.make ~n ~faulty) advs in
          let filter view ~src outbox recipient =
            let outbox =
              List.fold_left
                (fun outbox h dst -> h.filter view ~src outbox dst)
                outbox hs
            in
            outbox recipient
          in
          let inject view = List.concat_map (fun h -> h.inject view) hs in
          let filter_in view ~dst ~src msgs =
            List.fold_left (fun msgs h -> h.filter_in view ~dst ~src msgs) msgs hs
          in
          { filter; inject; filter_in });
    }

let custom name step =
  {
    name;
    make = (fun ~n ~faulty -> handlers ~filter:mute_filter ~inject:(step ~n ~faulty) ());
  }
