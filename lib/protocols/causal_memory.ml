module Engine = Causalb_sim.Engine
module Latency = Causalb_sim.Latency
module Net = Causalb_net.Net
module Bss = Causalb_core.Bss
module Vc = Causalb_clock.Vector_clock
module Smap = Map.Make (String)

type write_op = { var : string; value : int; writer : int; wseq : int }

type node_state = {
  mutable store : int Smap.t;
  mutable applied_rev : (write_op * Vc.t) list;
      (* each applied write with the stamp it carried *)
}

type t = {
  engine : Engine.t;
  net : write_op Bss.envelope Causalb_stackbase.Sgroup.packet Net.t;
  bss : write_op Bss.Group.t;
  nodes : node_state array;
  wseqs : int array;
  n : int;
}

let create engine ~nodes:n ?(latency = Latency.lan) () =
  if n <= 0 then invalid_arg "Causal_memory.create: nodes <= 0";
  let net = Net.create engine ~nodes:n ~latency ~fifo:false () in
  let states =
    Array.init n (fun _ -> { store = Smap.empty; applied_rev = [] })
  in
  let bss =
    Bss.Group.create net
      ~on_deliver:(fun ~node ~time:_ (e : write_op Bss.envelope) ->
        let st = states.(node) in
        let w = e.Bss.payload in
        st.store <- Smap.add w.var w.value st.store;
        st.applied_rev <- (w, e.Bss.stamp) :: st.applied_rev)
      ()
  in
  { engine; net; bss; nodes = states; wseqs = Array.make n 0; n }

let write t ~node ~var value =
  let wseq = t.wseqs.(node) in
  t.wseqs.(node) <- wseq + 1;
  Bss.Group.bcast t.bss ~src:node
    ~tag:(Printf.sprintf "w%d.%d" node wseq)
    { var; value; writer = node; wseq }

let read t ~node ~var = Smap.find_opt var t.nodes.(node).store

let applied t node =
  List.rev_map (fun (w, _) -> (w.var, w.value)) t.nodes.(node).applied_rev

(* Recompute the causal-delivery condition from the recorded stamps: when
   a node applied write W carrying stamp V, it must already have applied,
   for every process k, at least V[k] writes from k (V[writer] - 1 for
   the writer itself). *)
let check_causal_application t =
  Array.for_all
    (fun st ->
      let counts = Array.make t.n 0 in
      List.for_all
        (fun ((w : write_op), stamp) ->
          let ok = ref true in
          for k = 0 to t.n - 1 do
            let needed =
              if k = w.writer then Vc.get stamp k - 1 else Vc.get stamp k
            in
            if counts.(k) < needed then ok := false
          done;
          counts.(w.writer) <- counts.(w.writer) + 1;
          !ok)
        (List.rev st.applied_rev))
    t.nodes

let check_per_writer_order t =
  Array.for_all
    (fun st ->
      let last = Hashtbl.create 8 in
      List.for_all
        (fun ((w : write_op), _) ->
          let prev = Option.value ~default:(-1) (Hashtbl.find_opt last w.writer) in
          Hashtbl.replace last w.writer w.wseq;
          w.wseq = prev + 1)
        (List.rev st.applied_rev))
    t.nodes

let nodes_agree_on t ~var =
  let values = Array.to_list (Array.map (fun st -> Smap.find_opt var st.store) t.nodes) in
  match values with
  | [] -> true
  | first :: rest -> List.for_all (( = ) first) rest

let divergent_vars t =
  let vars =
    Array.fold_left
      (fun acc st -> Smap.fold (fun k _ acc -> k :: acc) st.store acc)
      [] t.nodes
    |> List.sort_uniq String.compare
  in
  List.filter (fun var -> not (nodes_agree_on t ~var)) vars

let messages_sent t = Net.messages_sent t.net
